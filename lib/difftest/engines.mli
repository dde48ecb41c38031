(** The engine roster for differential testing.

    Every roster entry is a first-class {!Pf_intf.FILTER} module plus a
    configuration label; one generic runner ({!run}) turns any entry into
    the boolean verdict matrix [(expr, doc) -> matched]. The reference
    implementation {!Pf_intf.Reference} (brute-force {!Pf_xpath.Eval}) is
    the first engine — the correctness oracle all others must agree with.

    Engines declare the expression subset they support; unsupported
    expressions are excluded from comparison for that engine (YFilter and
    Index-Filter take no nested paths; the predicate engine takes no filters
    on wildcard steps). An exception anywhere else is a reportable crash. *)

type engine = {
  ename : string;  (** configuration label, e.g. ["engine-nested-sp"] *)
  filter : Pf_intf.filter;  (** the implementation, as a first-class module *)
  supports : Pf_xpath.Ast.path -> bool;
      (** the expression subset compared for this engine; out-of-subset
          rows are excluded (the engine would raise
          {!Pf_intf.Unsupported} on them) *)
  finalize : unit -> unit;
      (** called by {!run} after every case, crash or not — [ignore] for
          plain engines; service-backed entries join their worker domains
          here *)
}

val run :
  engine -> Pf_xpath.Ast.path array -> bool array -> Pf_xml.Tree.t array -> bool array array
(** [run e exprs supported docs] — verdict matrix, [exprs] rows by [docs]
    columns, computed on a fresh instance of [e.filter]; rows whose
    [supported] flag is false are all [false] and not compared. May raise
    (a crash divergence). *)

val oracle : engine
(** ["eval"] — {!Pf_intf.Reference}, brute-force matching via
    {!Pf_xpath.Eval.matches}. *)

val predicate_engine :
  ename:string ->
  ?variant:Pf_core.Expr_index.variant ->
  ?attr_mode:Pf_core.Engine.attr_mode ->
  ?stream:Pf_core.Engine.ingest ->
  unit ->
  engine
(** A labeled predicate-engine configuration (see {!Pf_core.Engine.filter}). *)

val churned : Pf_intf.filter -> Pf_intf.filter
(** Wrap a filter so every [match_document] first unsubscribes and
    re-subscribes a deterministic third of the live expressions (a
    different third each document), translating sids so the wrapper's
    external sids stay stable. Engine state that outlives a remove/re-add
    wave shows up as an oracle divergence. *)

val subsumed_engine :
  ename:string ->
  ?variant:Pf_core.Expr_index.variant ->
  ?attr_mode:Pf_core.Engine.attr_mode ->
  ?stream:Pf_core.Engine.ingest ->
  unit ->
  engine
(** The predicate engine behind {!Pf_core.Subsume.filter}, behind
    {!churned}: per-document churn waves remove and re-add expressions, so
    shapes merge, lose logicals, retire and are rebuilt — and the fan-out
    must stay byte-identical to the oracle throughout. *)

val yfilter_engine : engine
val index_filter_engine : engine

val service_engine :
  ename:string ->
  mode:Pf_service.mode ->
  domains:int ->
  ?stream:Pf_core.Engine.ingest ->
  ?subsumption:bool ->
  unit ->
  engine
(** The predicate engine behind {!Pf_service}, one [filter_batch] per
    document: exercises replica log replay, worker batching and — in
    [Expr] mode — shard merging, against the same oracle. With a
    non-[Tree] [stream] the engine replicas are streaming and documents
    are submitted as serialized text through [filter_batch_raw], so no
    layer parses a tree on the matching side. With [subsumption] (default
    false) each replica's engine sits behind the subsumption index, so
    replica log replay and shard merging run over fanned-out logical
    sids. Worker domains are joined by [finalize] after each case. *)

val default_roster : unit -> engine list
(** The five engines of the differential harness, oracle first:
    ["eval"], ["engine"] (predicate engine, basic-pc-ap, inline attributes;
    nested paths via the Section 5 decomposition), ["engine-nested-sp"]
    (basic organization with selection-postponed attributes — the
    alternative occurrence-determination path), ["yfilter"] and
    ["index-filter"]. *)

val extended_roster : unit -> engine list
(** {!default_roster} plus ["engine-pc"] (prefix covering),
    ["engine-stream"] (the fully streaming SAX ingest — arena
    publications refilled in place — matching the serialized document
    against the tree-mode oracle), ["service-doc"] (the document-replicated service at 2
    domains), ["service-expr"] (the expression-sharded service at 3
    domains) and ["service-stream"] / ["service-stream-expr"] (streaming
    replicas fed raw document text through [filter_batch_raw], in both
    modes), plus the subsumption-index entries: ["engine-subsumed"] (the
    churned subsumption wrapper — see {!subsumed_engine}) and
    ["service-subsumed-doc"] / ["service-subsumed-expr"] (subsumed engine
    replicas behind the service in both shard modes). *)

val engine_subset : Pf_xpath.Ast.path -> bool
(** The predicate engine's supported subset: no attribute or nested filters
    attached to wildcard steps (recursively through nested paths). *)
