(** Experiment harness utilities: timing, statistics and paper-style table
    output. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] once and returns its result with the elapsed
    wall-clock seconds. *)

val time_ms : (unit -> 'a) -> 'a * float
(** Elapsed milliseconds. *)

type series = {
  label : string;
  points : (float * float) list;  (** (x, y) pairs, e.g. (#XPEs, ms) *)
}

val print_table :
  title:string ->
  x_label:string ->
  y_label:string ->
  series list ->
  unit
(** Render one experiment as an aligned text table: one row per x value,
    one column per series — the textual equivalent of one paper figure. *)

val print_kv : title:string -> (string * string) list -> unit
(** Render a small key/value block (setup parameters, summary counts). *)

val mean : float list -> float
val stddev : float list -> float

(** {1 Engine adapters}

    A uniform interface over the three filtering engines so experiment
    drivers can sweep algorithms. *)

type algorithm = {
  name : string;
  add : Pf_xpath.Ast.path -> unit;
  finish_build : unit -> unit;
  match_doc : Pf_xml.Tree.t -> int;  (** number of matched expressions *)
  metrics : Pf_obs.Registry.t;  (** the engine instance's metric registry *)
}

val of_filter : name:string -> Pf_intf.filter -> algorithm
(** Adapter over any {!Pf_intf.FILTER} engine (one fresh instance). *)

val filter_of_name :
  ?collect_stats:bool ->
  ?stream:Pf_core.Engine.ingest ->
  string ->
  Pf_intf.filter option
(** Resolve an engine name — a predicate-engine variant (basic, basic-pc,
    basic-pc-ap) or a baseline (yfilter, index-filter) — to its
    {!Pf_intf.filter} module. [collect_stats] and [stream] apply to
    predicate-engine variants only (the baselines ignore them; validate
    with {!Pf_core.Expr_index.variant_of_name} if that matters). *)

val predicate_engine :
  ?variant:Pf_core.Expr_index.variant ->
  ?attr_mode:Pf_core.Engine.attr_mode ->
  unit ->
  algorithm
(** Fresh predicate engine; name reflects variant (and attribute mode when
    [Postponed]). *)

val yfilter : unit -> algorithm
val index_filter : unit -> algorithm

val all_paper_algorithms : unit -> algorithm list
(** basic, basic-pc, basic-pc-ap, yfilter, index-filter — the Figure 6
    line-up (fresh instances). *)

val filter_time_ms : ?trials:int -> algorithm -> Pf_xml.Tree.t list -> float
(** Total filtering time for a document set, milliseconds, averaged per
    document (the paper's metric: parsing is separate and reported
    negligible; here documents are pre-parsed trees). Reports the minimum
    over [trials] passes (default 3) to suppress scheduling noise; the
    first pass doubles as warm-up. *)
