(** The predicate-based XPath filtering engine — public API.

    Usage:
    {[
      let engine = Engine.create () in
      let sid = Engine.add_string engine "/nitf/head//title" in
      let doc = Pf_xml.Sax.parse_document xml_text in
      let matched = Engine.match_document engine doc in
      (* matched = sorted sids of all matching expressions *)
    ]}

    The engine implements the two-stage algorithm of Section 4 over the
    shared predicate index, with the expression organization selected by
    {!Expr_index.variant} and attribute filters evaluated inline or
    selection-postponed (Section 5). Nested path expressions are accepted
    transparently and processed by the decomposition of Section 5. *)

type attr_mode =
  | Inline
      (** attribute constraints are part of stored predicates and checked
          during predicate matching *)
  | Postponed
      (** predicates are stored position-only; attribute filters are checked
          after structural matching by re-running the occurrence
          determination over candidate chains *)

(** How documents reach the matching loop. *)
type ingest =
  | Tree
      (** materialize the document tree, then extract all paths — the
          difftest oracle's mode *)
  | Stream
      (** fully streaming: arena publications are refilled in place
          straight from the step stack at each leaf's end-tag event, so
          matching allocates neither a tree nor per-path tuples *)

type t

val create :
  ?variant:Expr_index.variant ->
  ?attr_mode:attr_mode ->
  ?collect_stats:bool ->
  unit ->
  t
(** Defaults: [variant = Access_predicate] (the paper's best variant,
    "basic-pc-ap"), [attr_mode = Inline], [collect_stats = false]. *)

val variant : t -> Expr_index.variant
val attr_mode : t -> attr_mode

(** {1 The unified engine signature} *)

val filter :
  ?variant:Expr_index.variant ->
  ?attr_mode:attr_mode ->
  ?collect_stats:bool ->
  ?stream:ingest ->
  unit ->
  (module Pf_intf.FILTER with type t = t)
(** A first-class {!Pf_intf.FILTER} whose [create] builds engines with the
    given configuration (defaults as {!create}; [stream] defaults to
    {!Tree}). With [stream:Stream] the module matches through
    {!match_stream} — documents are serialized and consumed as SAX events,
    never materialized on the matching side. Generic layers
    ({!Pf_service}, the difftest roster, the benchmark harness) consume
    engines through this signature. *)

module Filter : Pf_intf.FILTER with type t = t
(** [filter ()] applied: the default configuration as a named module. *)

val filter_subsumed :
  ?variant:Expr_index.variant ->
  ?attr_mode:attr_mode ->
  ?collect_stats:bool ->
  ?stream:ingest ->
  ?subsumption:bool ->
  unit ->
  Pf_intf.filter
(** {!filter} wrapped in the subsumption index ({!Subsume.filter}):
    semantically equal expressions share one physical engine expression
    and match results fan back out to logical sids, byte-identical to the
    unwrapped engine. With [~subsumption:false] (default [true]) the
    wrapper is omitted — same module shape either way, for call sites
    toggling the optimization. Returns a plain [Pf_intf.filter] (the
    wrapper's [t] is not the engine's [t], so it cannot share {!filter}'s
    signature). *)

val add : t -> Pf_xpath.Ast.path -> int
(** Register an expression; returns its sid (dense, starting at 0).
    Duplicate expressions receive distinct sids but share all predicate
    and trie structure. Insertion is constant-time per predicate.
    Raises {!Encoder.Unsupported} for expressions outside the supported
    subset. *)

val add_string : t -> string -> int
(** Parse then {!add}. Raises {!Pf_xpath.Parser.Error} on bad syntax. *)

val expression : t -> int -> Pf_xpath.Ast.path
(** The expression registered under a sid. Raises [Invalid_argument] for
    unknown sids. *)

val remove : t -> int -> bool
(** Unregister an expression. Returns false if the sid is unknown or was
    already removed. Constant-time (like insertion — one of the approach's
    advantages over compiled automata such as XPush); the predicates it
    interned are not reclaimed, so {!distinct_predicate_count} does not
    decrease. *)

val is_active : t -> int -> bool
(** True iff the sid is registered and not removed. *)

val match_document : t -> Pf_xml.Tree.t -> int list
(** Sids of all expressions matched by the document, sorted ascending.
    An expression matches iff its evaluation over the document yields a
    non-empty node set (single-path expressions: iff some root-to-leaf
    path matches). *)

val match_string : t -> string -> int list
(** Parse the XML (raises {!Pf_xml.Sax.Parse_error}) then
    {!match_document}. *)

val match_stream : t -> string -> int list
(** The fully streaming match path: like {!match_string}, but never
    materializes the document tree — paths are extracted from the SAX
    event stream one at a time and matched as their leaves close, the
    pipeline the paper describes. The engine-owned {!Publication.arena}
    is refilled in place from the step stack at each leaf's end-tag
    event, so matching a document allocates neither a tree nor per-path
    tuples once the arenas are warm. Records a
    ["stream-match"] trace span covering the fused parse+extract+match
    drive and bumps the ["stream_documents"] counter. Equivalent results
    to {!match_string} (the streaming [#text] caveat of
    {!Pf_xml.Path.of_string} applies to mixed-content ancestors).
    Raises {!Pf_xml.Sax.Parse_error} at the same positions as the tree
    parser. *)

val match_path : t -> Pf_xml.Path.t -> int list
(** Match the single-path expressions against one document path (nested
    expressions need whole documents and are not reported here). *)

(** {1 Match provenance} *)

type explanation = {
  expl_path : Pf_xml.Path.t;  (** the matching document path *)
  expl_chain : (Predicate.t * (int * int)) list;
      (** the expression's ordered predicates, each with the occurrence
          pair it matched through (the chain the occurrence determination
          found) *)
}

val explain : t -> Pf_xml.Tree.t -> int -> explanation option
(** [explain t doc sid] produces a witness for why the single-path
    expression [sid] matches [doc]: the document path and the occurrence
    chain. [None] if it does not match (or was removed). Nested path
    expressions are not explained ([None]). Runs an independent match —
    intended for debugging subscriptions, not for the hot path. *)

val pp_explanation : Format.formatter -> explanation -> unit

(** {1 Introspection} *)

val expression_count : t -> int
val distinct_predicate_count : t -> int
(** Distinct predicates stored — the sharing metric of Figure 10. *)

val occurrence_runs : t -> int
(** Reads the engine registry's ["occurrence_runs"] counter; always agrees
    with the exported metric and is zeroed by {!reset_stats}. *)

(** {1 Metrics}

    Every engine owns a {!Pf_obs.Registry.t} (scope ["engine"]) holding
    its counters, histograms and per-stage span timers:

    - counters ["paths"], ["documents"], ["stream_documents"],
      ["predicate_probes"], ["predicate_hits"], ["occurrence_runs"],
      ["backtrack_steps"], ["prefix_cover_skips"], ["access_skips"],
      ["trie_visits"], ["expr_walks"];
    - gauges ["distinct_predicates"] and
      ["predicate_residual_constrained"];
    - histogram ["chain_length"] (predicate chain length per occurrence
      determination run) and quantile histogram ["doc_latency_ns"]
      (per-document match latency);
    - spans ["predicate_stage_ns"], ["expr_stage_ns"],
      ["collect_stage_ns"] (populated only with [collect_stats:true]).

    Render it with {!Pf_obs.Export}. *)

val metrics : t -> Pf_obs.Registry.t

(** {1 Timing breakdown (Figure 10)}

    When created with [collect_stats:true] the engine accumulates
    monotonic wall-clock time per stage. [stats] is a compatibility view
    over the metric registry: each call builds a fresh record from the
    current counter and span values. *)

type stats = {
  mutable predicate_ns : float;  (** predicate matching stage *)
  mutable expr_ns : float;  (** expression matching (occurrence determination) *)
  mutable collect_ns : float;  (** result collection and attribute post-checks *)
  mutable paths : int;
  mutable documents : int;
}

val stats : t -> stats

val reset_stats : t -> unit
(** Reset the engine's metric registry: every counter, histogram and span
    — including ["occurrence_runs"] — is zeroed together. *)
