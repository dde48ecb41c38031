(** Index-Filter baseline (Bruno et al., ICDE 2003).

    A re-implementation of the index-based multi-query matcher the paper
    compares against. Queries are kept in a {e prefix tree} so common
    prefixes are evaluated once; for each document, {e index streams} are
    built over its elements (per tag, the document-order list of
    [(start, end, level)] intervals from a structural numbering), and
    matching descends the prefix tree joining each query node against the
    stream of its test, constrained by the parent match's interval
    (containment) and level (child vs. descendant axis).

    Following the paper's experimental setup: the algorithm stops working
    on a query subtree once all its expressions have matched ("we modify
    the Index-Filter algorithm to stop after determining one match"), and
    wildcards simply match any element (which inflates the index streams,
    as the paper observes). Attribute filters are checked inline against
    the element's attributes. Each (query node, element) pair is explored
    at most once per document.

    The module satisfies {!Pf_intf.FILTER}. *)

type t

val create : unit -> t

val add : t -> Pf_xpath.Ast.path -> int
(** Register an expression, returning its sid. Nested path filters are not
    supported ({!Pf_intf.Unsupported}). *)

val add_string : t -> string -> int

val remove : t -> int -> bool
(** Unregister an expression: its sid is no longer reported by matching.
    Returns [false] for unknown or already-removed sids. Constant-time —
    the prefix tree keeps its nodes ({!node_count} does not decrease). *)

val match_document : t -> Pf_xml.Tree.t -> int list
(** Sorted sids of all matching expressions. *)

val match_string : t -> string -> int list

val expression_count : t -> int
val node_count : t -> int
(** Prefix-tree nodes — the sharing metric. *)

val metrics : t -> Pf_obs.Registry.t
(** Metric registry (scope ["indexfilter"]): counters ["documents"],
    ["stream_advances"] (index-stream elements inspected during joins),
    ["nodes_visited"] (accepted (query node, element) joins) and
    ["matches"]. *)
