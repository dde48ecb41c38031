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
    reusable {!results} cell arena that holds a {e chunk} of up to
    {!chunk_capacity} paths of one document, so the expression walk can
    share its work across them. A pid's pairs on one path form one cell
    chain; the chain's last cell links, by a negative index, to the head
    of the pid's chain on its previous path, and each pid keeps its newest
    cell and a bitmask of the paths it matched on. The store is sized by
    the pairs recorded, never by pids × paths; resets are free (a cursor
    bump) and pairs are appended with a cursor bump, so the steady state
    of {!run} allocates nothing and the per-document cost is proportional
    to the number of {e matched} predicates, not the number of stored
    ones. The per-path accessors read the chunk's newest path, so a
    one-path chunk ({!run}) reads exactly like one publication's
    results. *)

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
    of Section 4.1.1, recording occurrence pairs as a one-path chunk:
    previous contents of [results] are discarded (O(1)). Predicates with
    attribute constraints only match tuples whose attributes satisfy them
    (inline evaluation). The first run after a subscription change
    rebuilds the flat match image; steady-state runs allocate nothing
    unless an anchored attribute's value is not a plain decimal (then the
    general [int_of_string_opt (String.trim v)] reading applies). *)

val chunk_capacity : int
(** Most paths one chunk holds (16): the expression walk carries a
    chunk's paths as a bitmask in one int. *)

val clear : results -> unit
(** Start an empty chunk (O(1)). *)

val run_next : t -> results -> Publication.t -> unit
(** Like {!run}, but record the publication as the next path of the
    current chunk, keeping the earlier paths' results. Raises
    [Invalid_argument] when the chunk already holds {!chunk_capacity}
    paths. *)

val chunk_paths : results -> int
(** Paths in the current chunk; path [j] is the [j]-th recorded. *)

(** {2 The newest path}

    These read the chunk's newest path — after {!run}, the publication it
    matched. *)

val get : results -> pid -> (int * int) list
(** Matching occurrence pairs for [pid]; [[]] if the predicate was not
    matched. One-variable predicates duplicate the occurrence ([(o, o)]);
    length predicates report [(0, 0)]. Pairs are listed newest-first
    (reverse recording order). Allocates — meant for tests and explanation
    output, not the match loop. *)

val get_packed : results -> pid -> int list
(** Like {!get} but with each pair packed by {!pack}. Allocates the list. *)

val iter_pairs : results -> pid -> (int -> unit) -> unit
(** [iter_pairs res pid f] calls [f] on each packed pair recorded for
    [pid], newest first, without allocating. *)

val head : results -> pid -> int
(** Index of the newest cell recorded for [pid], or [-1] if the predicate
    was not matched. Cell [c] holds its packed pair at [(cells res).(2*c)]
    and the index of the next (older) cell of the same path at
    [(cells res).(2*c+1)]; a negative index terminates. *)

val cells : results -> int array
(** The backing cell arena for {!head} and {!head_on} traversals. Only
    indices reached from a head of the current chunk are meaningful. *)

val is_matched : results -> pid -> bool

val matched_count : results -> int
(** Number of predicates matched by the newest path; counted on each
    call, in the number the chunk matched. *)

(** {2 Any path of the chunk} *)

val path_mask : results -> pid -> int
(** Bit [j] is set iff [pid] matched on path [j] of the chunk. *)

val matched_on : results -> pid -> int -> bool
(** [matched_on res pid j] tests bit [j] of {!path_mask}. *)

val head_on : results -> pid -> int -> int
(** [head_on res pid j] is {!head} for path [j]: the newest cell [pid]
    recorded on it, or [-1]. Costs one step per cell [pid] recorded on
    the chunk's later paths. *)

val get_packed_on : results -> pid -> int -> int list
(** {!get_packed} for path [j]. Allocates the list. *)

val chunk_matched_count : results -> int
(** Number of distinct predicates matched on any path of the chunk. *)

val chunk_matched_pid : results -> int -> pid
(** [chunk_matched_pid res i], for [0 <= i < chunk_matched_count res], is
    the [i]-th distinct pid the chunk matched, in first-match order. The
    expression index dispatches its trie roots from these. *)

val pack : int -> int -> int
(** [pack o1 o2] is the occurrence pair as one immediate int,
    [(o1 lsl 31) lor o2]. Each occurrence must lie in [0 .. 2^31 - 1].
    Every packed pair — predicate results, the occurrence arenas — uses
    this encoding. *)

val packed_first : int -> int
val packed_second : int -> int
