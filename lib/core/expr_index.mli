(** Expression organizations (Section 4.2.2).

    Expressions are registered as ordered pid sequences; after the predicate
    matching stage, {!eval} reports every structurally matched expression.
    Three organizations trade off how many occurrence determination runs
    they need:

    - {!Basic}: a flat list; every expression whose predicates all matched
      gets its own occurrence determination run.
    - {!Prefix_covering}: expressions share a trie over pid sequences;
      within a covering chain the longest expression is evaluated first and
      a match covers all its prefixes (which are then not evaluated).
    - {!Access_predicate}: prefix covering plus clustering — a trie subtree
      is skipped entirely when its entry predicate (the {e access
      predicate}; at the root this is the paper's first-predicate
      clustering) has no matching result.

    The trie variants store one flat trie that grows in place: a node id
    indexes int arrays (pid, parent, depth, report and cover marks), and
    each node keeps its children as a pid-sorted array with an aligned
    array of child ids, both grown by doubling.

    {!eval} evaluates a {e chunk} of a document's paths at once (see
    {!Predicate_index.run_next}). {!Access_predicate} walks the trie once
    per chunk: it starts from the pids the chunk matched
    ({!Predicate_index.chunk_matched_pid}) rather than from every root,
    carries the bitmask of the chunk's paths on which every pid of a
    node's root path matched, enters a child only if its pid matched on
    one of them, and runs Algorithm 1 at an unreported sid node once per
    path in its mask, lowest first, until one run matches. The other
    variants evaluate the chunk path by path. *)

type variant = Basic | Prefix_covering | Access_predicate

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
  visits : Pf_obs.Counter.t;  (** trie nodes entered; at most once per walk *)
  walks : Pf_obs.Counter.t;  (** evaluations, one per chunk *)
  chain_len : Pf_obs.Histogram.t;  (** chain length per run *)
}

val make_metrics : ?registry:Pf_obs.Registry.t -> unit -> metrics
(** Counters named ["occurrence_runs"], ["backtrack_steps"],
    ["prefix_cover_skips"], ["access_skips"], ["trie_visits"],
    ["expr_walks"] and the ["chain_length"] histogram, registered in
    [registry] when given. The per-node counts ([access_skips],
    [trie_visits], [backtrack_steps]) are flushed once per {!eval}. *)

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
    time in the number of expressions (a tombstone for {!Basic}; otherwise
    a binary search per level of the child arrays and a sid-list removal
    at one trie node). Trie nodes are never removed, so node ids stay
    stable, and interned predicates are not reclaimed. *)

val eval :
  t -> Predicate_index.results -> doc_tag:int -> on_match:(int -> unit) -> unit
(** Report each sid that structurally matched on some path of the
    results' chunk, once. [on_match] receives sids in an unspecified
    order. [doc_tag] is a plain labelled argument (not optional, which
    would box a [Some] per call).

    Trie variants mark each reported node with [doc_tag] and neither
    re-report nor re-evaluate a marked node under the same tag, so the
    chunks of one document, walked under one tag, report each sid once
    per document. This is only sound when [on_match] accepts
    unconditionally; a caller that filters reports per path (postponed
    attribute checks) passes a fresh tag for
    each one-path chunk. {!add} may run between any two calls: it clears
    the mark of the new sid's node, so the sid is reported when it
    matches even under a tag its node was already reported under (the
    node's other sids are then reported again). {!Basic} ignores
    [doc_tag]. *)

val expression_count : t -> int
val node_count : t -> int
(** Trie nodes (= stored expressions for {!Basic}); an indicator of the
    sharing achieved. *)

val bucket_sizes : t -> int array
(** Entries of {!Prefix_covering}'s depth buckets, indexed by depth: every
    trie node that ever held a sid, once ([[||]] for {!Basic}). *)

val occurrence_runs : t -> int
(** Cumulative number of occurrence determination runs performed by
    {!eval} since creation — the quantity the Section 4.2.2 optimizations
    minimize. Reads the ["occurrence_runs"] counter of
    the metrics record, so it always agrees with the exported value and
    is zeroed by a registry reset. *)
