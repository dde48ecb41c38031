(** Cross-engine differential fuzzing.

    The paper's central correctness claim is that the predicate engine, the
    nested decomposition, YFilter and Index-Filter compute the {e same}
    match sets and differ only in cost. This module turns the reference
    evaluator ({!Pf_xpath.Eval}, "the correctness oracle") into continuous
    tooling: a seeded loop generates random (world, document set, XPE set)
    workloads, runs every engine in the roster on identical inputs and
    reports any pairwise divergence or crash. A divergence is shrunk to a
    minimal reproducer ({!Shrink}) and can be serialized as a replayable
    {!Case} for the committed regression corpus. *)

type config = {
  seed : int;
  cases : int;  (** number of generated cases *)
  time_budget : float;  (** wall-clock seconds; [0.] = unlimited *)
  worlds : string list;  (** ["nitf"], ["psd"], ["auction"] (DTD-driven) and/or
                             ["small"] (adversarial small-alphabet world) *)
  features : Feature_gen.features;
  max_exprs : int;  (** expressions per case, drawn in [1..max_exprs] *)
  max_docs : int;  (** documents per case, drawn in [1..max_docs] *)
  all_variants : bool;  (** extended engine roster (adds engine-pc,
                            engine-stream, the service and subsumption
                            entries — see {!Engines.extended_roster}) *)
  save_dir : string option;  (** write shrunk divergence cases here *)
}

val default_config : config
(** [seed = 1; cases = 200; time_budget = 0.; worlds = all four;
    features = all; max_exprs = 24; max_docs = 3; all_variants = false;
    save_dir = None]. *)

val all_worlds : string list

type divergence =
  | Mismatch of { engine : string; expr : int; doc : int; got : bool; want : bool }
      (** engine verdict differs from the oracle on (expr, doc) *)
  | Crash of { engine : string; error : string }
  | Stale_expectation of { expr : int; doc : int; stored : bool; oracle : bool }
      (** replay only: the oracle no longer agrees with the committed
          expectation matrix — the semantics drifted *)

val pp_divergence : Format.formatter -> divergence -> unit

type divergence_report = {
  case_index : int;
  world : string;
  divergences : divergence list;  (** on the original, unshrunk case *)
  shrunk : Case.t;  (** minimal reproducer (verdict matrix = oracle's) *)
  shrink_steps : int;
  saved_to : string option;
}

type report = {
  cases_run : int;
  failures : divergence_report list;
  elapsed_ms : float;
  engine_ms : (string * float) list;  (** cumulative per-engine run time *)
}

val metrics : Pf_obs.Registry.t
(** Listed registry (scope ["difftest"]): counters ["cases"],
    ["divergences"], ["crashes"], ["shrink_steps"], ["cases_saved"]. *)

val check :
  engines:Engines.engine list ->
  Pf_xpath.Ast.path array ->
  Pf_xml.Tree.t array ->
  divergence list
(** Run every engine on the inputs and compare against the first
    (the oracle). The oracle itself crashing is reported as a crash. *)

val check_case : ?all_variants:bool -> Case.t -> divergence list
(** Replay a corpus case: the recomputed oracle matrix must equal the
    stored expectations ({!Stale_expectation} otherwise) and every engine
    must agree with the oracle. *)

val run : ?log:(string -> unit) -> config -> report
(** The fuzzing loop. [log] receives one line per divergence and sparse
    progress output. Deterministic in [config.seed] (modulo [time_budget]
    truncation). *)

val report_json : config -> report -> Pf_obs.Json.t
(** Machine-readable summary: configuration echo, counts, per-engine
    timings and one entry per (shrunk) failure. *)
