(** YFilter baseline (Diao et al., ICDE 2002 / TODS 2003).

    A clean-room re-implementation of the automaton-based filter the paper
    compares against: all XPEs are combined into a single non-deterministic
    finite automaton whose transitions are triggered by element-start
    events; common expression prefixes share states. The descendant
    operator is modeled by a [*]-self-loop state entered by an
    epsilon-closure, wildcards by [*]-edges, and relative expressions by an
    implicit leading descendant. Execution keeps a run-time stack of active
    state sets and — unlike a classic NFA — continues past accepting states
    until all matches are found.

    Attribute filters use the selection-postponed strategy the YFilter
    authors recommend: they are only checked for structurally matched
    expressions, against the root-to-current-element path.

    The module satisfies {!Pf_intf.FILTER}. *)

type t

val create : unit -> t

val add : t -> Pf_xpath.Ast.path -> int
(** Register an expression, returning its sid (dense from 0). Nested path
    filters are not supported ({!Pf_intf.Unsupported}); attribute filters
    are. *)

val add_string : t -> string -> int

val remove : t -> int -> bool
(** Unregister an expression: its sid is no longer reported by matching.
    Returns [false] for unknown or already-removed sids. Constant-time —
    the NFA keeps its states ({!state_count} does not decrease). *)

val match_document : t -> Pf_xml.Tree.t -> int list
(** Sorted sids of all matching expressions. *)

val match_string : t -> string -> int list

val expression_count : t -> int
val state_count : t -> int
(** NFA states — the structure-sharing metric. *)

val metrics : t -> Pf_obs.Registry.t
(** Metric registry (scope ["yfilter"]): counters ["documents"],
    ["nfa_transitions"] (transition rounds, one per element event with a
    live active set), ["state_activations"] (states activated including
    epsilon-closure) and ["matches"]. *)
