(** The node-record expression index — a test-only reference.

    This is {!Pf_core.Expr_index} as it stood before the flat-trie
    rewrite, kept so equivalence properties can check the struct-of-arrays
    trie against it under random add/remove sequences and publications.
    It departs from the historical code in two ways: the shared-trie
    variant is gone, and a node enters its depth bucket once however
    often its sids are removed and re-added. Not exported outside the test universe; never use
    it on a hot path. *)

type variant = Pf_core.Expr_index.variant =
  | Basic
  | Prefix_covering
  | Access_predicate
(** The same variants as the flat index, so one value selects both. *)

val variant_name : variant -> string
(** ["basic"], ["basic-pc"], ["basic-pc-ap"] — the paper's algorithm
    labels. *)

val variant_of_name : string -> variant option

type metrics = {
  runs : Pf_obs.Counter.t;  (** occurrence determination runs *)
  steps : Pf_obs.Counter.t;  (** backtracking search steps *)
  cover_skips : Pf_obs.Counter.t;
      (** expressions reported through prefix covering without a run *)
  access_skips : Pf_obs.Counter.t;
      (** subtrees/clusters skipped on a dead access predicate *)
  chain_len : Pf_obs.Histogram.t;  (** chain length per run *)
}

val make_metrics : ?registry:Pf_obs.Registry.t -> unit -> metrics
(** Counters named ["occurrence_runs"], ["backtrack_steps"],
    ["prefix_cover_skips"], ["access_skips"] and the ["chain_length"]
    histogram, registered in [registry] when given. *)

type t

val create : ?metrics:metrics -> variant -> t
(** [metrics] defaults to fresh unregistered counters, so a standalone
    index still counts but exports nothing. *)

val add : t -> sid:int -> pids:int array -> unit
(** Register expression [sid] with its ordered predicate ids (non-empty).
    Duplicate pid sequences share all per-expression structure in the trie
    variants. *)

val remove : t -> sid:int -> pids:int array -> bool
(** Unregister an expression; [pids] must be the sequence it was added
    with. Returns false if it was not (or no longer) registered. Constant
    time in the number of expressions (a tombstone for {!Basic}, a sid-list
    removal at one trie node otherwise); interned predicates are not
    reclaimed. *)

val eval :
  t -> Pf_core.Predicate_index.results -> sticky:bool -> doc_tag:int -> on_match:(int -> unit) -> unit
(** Report each structurally matched sid exactly once for this publication.
    [on_match] receives sids in an unspecified order. The flags are plain
    labelled arguments (not optional): optional arguments box a [Some] per
    call, and [eval] runs once per document path on the streaming fast
    path. Pass [~sticky:false ~doc_tag:0] when stickiness is unused.

    [sticky]/[doc_tag] (trie variants): a document is many publications;
    when [sticky] is true, a node whose sids were already reported under
    the same [doc_tag] is neither re-reported nor re-evaluated on the
    document's later paths, making per-document collection linear in the
    number of matched expressions rather than paths × expressions. Only
    sound when [on_match] accepts unconditionally (the engine's inline
    mode; with postponed attribute checks a later path may succeed where
    an earlier one failed). *)

val expression_count : t -> int
val node_count : t -> int
(** Trie nodes (= stored expressions for {!Basic}); an indicator of the
    sharing achieved. *)

val occurrence_runs : t -> int
(** Cumulative number of occurrence determination runs performed by
    {!eval} since creation — the quantity the Section 4.2.2 optimizations
    minimize. Reads the ["occurrence_runs"] counter of
    the metrics record, so it always agrees with the exported value and
    is zeroed by a registry reset. *)
