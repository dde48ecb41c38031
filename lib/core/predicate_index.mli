(** The predicate index (Section 4.1.2, Figure 1) and the predicate
    matching stage (Section 4.1).

    Distinct predicates are stored once and identified by dense integer
    {e pids}. The match side is a {e cache-flat image} of contiguous int
    arrays, rebuilt lazily once per subscription change: per logical table
    (absolute/relative × =/>=, end-of-path, length) a CSR layout of
    symbol- or symbol-pair-keyed rows over dense value columns over one
    shared flat pid arena. An = probe is a bounds check plus one
    contiguous slice; a >= probe over values [1..stop] collapses to a
    single contiguous arena slice because a row's columns are
    value-ascending; relative predicates dispatch through dense
    row/pair-id arrays instead of per-symbol hashtables.

    Attribute-constrained predicates with an integer [=], [>=], [<=], [>]
    or [<] constraint are {e anchored} on one of them ([=] preferred, then
    the first tag variable) and leave the scanned slices: each column keeps
    them in attribute groups keyed by (attribute, variable side,
    comparison) and sorted by threshold. A run resolves each tuple's
    attributes once to integers and binary-searches each group of a
    column it would have scanned, visiting only the pids whose anchor
    holds. Predicates constrained only by [!=] or string comparisons stay
    on the slices behind a packed per-pid constraint bitmap, which also
    keeps the unconstrained common case away from the constraint vectors.
    The inner match loop is array walks and binary searches with no
    boxing, no hashing and no closures.

    Matching results (the occurrence pairs of Section 4.2) are stored in a
    reusable {!results} cell arena; an epoch counter makes resets free and
    pairs are appended with a cursor bump, so the steady state of {!run}
    allocates nothing and the per-document cost is proportional to the
    number of {e matched} predicates, not the number of stored ones. *)

type pid = int

type metrics = {
  probes : Pf_obs.Counter.t;
  hits : Pf_obs.Counter.t;
  residual : Pf_obs.Gauge.t;
}
(** Stage metrics: [probes] counts candidate predicate inspections (pids
    {!run} actually visits: scanned slice slots plus anchored pids whose
    anchor holds), [hits] the occurrence pairs recorded; [hits <= probes].
    [residual] is the number of constrained predicates left on the scanned
    slices ([!=] or string constraints only), set at each rebuild of the
    match image. *)

val make_metrics : ?registry:Pf_obs.Registry.t -> unit -> metrics
(** Counters named ["predicate_probes"] / ["predicate_hits"] and the gauge
    ["predicate_residual_constrained"], registered in [registry] when
    given. *)

type t

val create : ?metrics:metrics -> unit -> t
(** [metrics] defaults to fresh unregistered counters, so a standalone
    index still counts but exports nothing. *)

val intern : t -> Predicate.t -> pid
(** [intern idx p] returns the pid of [p], allocating one if [p] was not
    yet stored. Structural identity includes attribute constraints. Tag
    names are interned into the global {!Symbol} table here, at
    expression-compile time. *)

val find : t -> Predicate.t -> pid option
(** Lookup without inserting. *)

val predicate : t -> pid -> Predicate.t

val size : t -> int
(** Number of distinct predicates stored (the paper's Figure 10 reports
    this count). *)

(** {1 Predicate matching} *)

type results

val create_results : unit -> results

val run : t -> results -> Publication.t -> unit
(** Evaluate every stored predicate against the publication per the rules
    of Section 4.1.1, recording occurrence pairs. Previous contents of
    [results] are discarded (O(1)). Predicates with attribute constraints
    only match tuples whose attributes satisfy them (inline evaluation).
    The first run after a subscription change rebuilds the flat match
    image; steady-state runs allocate nothing unless an anchored
    attribute's value is not a plain decimal (then the general
    [int_of_string_opt (String.trim v)] reading applies). *)

val get : results -> pid -> (int * int) list
(** Matching occurrence pairs for [pid] in the last {!run}; [[]] if the
    predicate was not matched. One-variable predicates duplicate the
    occurrence ([(o, o)]); length predicates report [(0, 0)]. Pairs are
    listed newest-first (reverse recording order). Allocates — meant for
    tests and explanation output, not the match loop. *)

val get_packed : results -> pid -> int list
(** Like {!get} but with each pair packed by {!pack}. Allocates the list. *)

val iter_pairs : results -> pid -> (int -> unit) -> unit
(** [iter_pairs res pid f] calls [f] on each packed pair recorded for
    [pid], newest first, without allocating. The hot path of the
    expression organizations uses this (or the raw {!head}/{!cells}
    traversal) to fill its occurrence arenas. *)

val head : results -> pid -> int
(** Index of the newest cell recorded for [pid], or [-1] if the predicate
    was not matched. Cell [c] holds its packed pair at [(cells res).(2*c)]
    and the index of the next (older) cell at [(cells res).(2*c+1)]
    ([-1] terminates). *)

val cells : results -> int array
(** The backing cell arena for {!head} traversals. Only indices reached
    from a {!head} of the current epoch are meaningful. *)

val pack : int -> int -> int
(** [pack o1 o2] is the occurrence pair as one immediate int,
    [(o1 lsl 31) lor o2]. Each occurrence must lie in [0 .. 2^31 - 1].
    Every packed pair — predicate results, the occurrence arenas — uses
    this encoding. *)

val packed_first : int -> int
val packed_second : int -> int

val is_matched : results -> pid -> bool

val matched_count : results -> int
(** Number of predicates matched by the last {!run}. *)

val matched_pid : results -> int -> pid
(** [matched_pid res i], for [0 <= i < matched_count res], is the [i]-th
    distinct pid the last {!run} matched, in first-match order. The
    expression index dispatches its trie roots from these. *)
