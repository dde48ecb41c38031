(** Calibrated workload presets reproducing the paper's two regimes.

    The paper's evaluation hinges on two contrasting workloads: a highly
    selective one (NITF, ~6% of expressions matched per document) and a
    matching-heavy one (PSD, ~75%). With the substitute DTDs these presets
    yield ~14–16% and ~75% respectively (see EXPERIMENTS.md for the
    calibration record); documents average ~100–130 tags, matching the
    paper's reported ~140. *)

val nitf_documents : Xml_gen.params
(** [max_levels = 8; max_fanout = 4; skew = 0.95] — selective regime. *)

val psd_documents : Xml_gen.params
(** [max_levels = 8; max_fanout = 6; skew = 0.] — matching-heavy regime. *)

val auction_documents : Xml_gen.params
(** [max_levels = 8; max_fanout = 4; skew = 0.5] — the intermediate
    XMark-style regime (our extension, not a paper workload). *)

val documents_for : string -> Xml_gen.params
(** ["nitf"], ["psd"] or ["auction"]; raises [Invalid_argument]
    otherwise. *)

val paper_queries : Xpath_gen.params
(** Section 6.2 settings: L=6, W=0.2, DO=0.2, distinct. Set [count] (and
    [distinct], [filters_per_path], ...) per experiment. *)

val heavy_subscriptions : Xpath_gen.params
(** The subscription-heavy regime: {!paper_queries} with
    [count = 100_000] and [distinct = false] (duplicates allowed — real
    dissemination workloads repeat popular feeds). Pair with
    {!nitf_documents}: a skewed, selective stream against a very large
    subscription table, where per-document fixed costs dominate and the
    service's expr-mode sharding is supposed to pay off. *)

val redundant_subscriptions : Xpath_gen.redundant_params
(** The redundancy-skewed regime: {!Xpath_gen.default_redundant} with
    [count = 100_000] — 100k logical subscriptions over a 1000-expression
    pool, mutated by spelling variants and small widenings/narrowings.
    The distinct-shape count lands around 10–15% of the logical count,
    the regime [Pf_core.Subsume] (physical sharing + containment DAG) is
    built for. *)
