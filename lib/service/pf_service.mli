(** Domain-parallel filtering service with two parallelism modes.

    The paper frames filtering as a dissemination problem: millions of
    standing XPath subscriptions, a stream of incoming documents, and the
    requirement to keep up with the stream. Matching one document never
    touches another document's state, so the work can be split two ways,
    and the service implements both over OCaml 5 domains:

    - {e document-replicated} ({!mode} [Doc], the default): every worker
      replica holds every subscription; each document is matched by
      exactly one worker. Throughput parallelism — the stream is sharded.
    - {e expression-sharded} ({!mode} [Expr]): the subscription table is
      partitioned across replicas by sid ([owner sid = sid mod N]); every
      document is broadcast to all workers, each matches it against its
      shard, and the last worker to finish merges the per-shard sorted
      sid lists and delivers. Latency parallelism — each replica's
      working set (index size, candidate sets) is N times smaller, at the
      cost of touching the document N times.

    A service owns [N] worker domains, each holding a private replica of
    one engine (any {!Pf_intf.FILTER}), plus one primary replica used to
    validate subscriptions (in [Expr] mode the primary also keeps the
    full table so validation and sid assignment stay mode-independent).
    Documents are submitted into bounded queues (submission blocks when
    full — backpressure, not unbounded buffering) and workers dequeue
    them in batches, taking the service lock once per batch, not once per
    document. Both modes run one worker loop: each document is a job
    with one result slot per shard (one in [Doc] mode, [N] in [Expr]
    mode) and an atomic countdown of the same size; a worker matches
    each dequeued job with the engine's [match_document] /
    [match_string], fills its shard's slot, and the worker that takes the
    countdown to zero merges the slots and delivers at once, outside the
    lock. Failures stay per job: a shard whose matching raises
    contributes [] (a malformed document fails on every shard, so it
    delivers []), the other jobs of the batch are unaffected, and the
    first exception re-raises at {!shutdown}.

    {2 Epoch semantics}

    Subscription changes never race a matching engine. [subscribe] and
    [unsubscribe] append to an ordered update log and apply the change
    synchronously to the primary replica only; each submitted document
    carries the log length at submission time as its {e epoch}. A worker
    applies log entries to its own replica — at batch boundaries, between
    documents — until its replica has seen exactly the updates preceding
    the document it is about to match. Hence:

    - a document observes precisely the subscriptions submitted before it,
      no matter which worker matches it or how far that worker lags;
    - results are {e deterministic}: for any interleaving of
      subscribe/remove/submit, every document's match set is identical to
      a sequential engine fed the same operation order, in either mode
      and at any domain count (the property the test suite checks for 1,
      2 and 4 domains in both modes);
    - sids agree across replicas because {!Pf_intf.FILTER} assigns them
      densely in registration order and every replica applies the same
      log prefix. In [Expr] mode this is also what makes the partition
      coordination-free: the log's j-th [Add] entry carries global sid j,
      so every worker derives ownership (and its own dense local sids,
      whose local-to-global map is strictly increasing — sorted local
      match lists translate to sorted global ones) from the log alone.

    Engines are never shared between domains, so they need no locks —
    the service's only synchronization is the queue mutex plus, in [Expr]
    mode, one atomic countdown per in-flight document deciding which
    worker merges (the merge reads the full per-shard array, so the
    result is independent of finish order).

    Engine-internal state composes for free under this design: each
    replica's engine owns its scratch (predicate results, publication
    arenas, report marks) privately, and because subscription changes
    reach a replica through the epoch-ordered log, each engine applies
    them at exactly the log position the sequential engine would —
    sequential equivalence is preserved verbatim. *)

type t

type mode =
  | Doc  (** document-replicated: full table per worker, one worker per doc *)
  | Expr  (** expression-sharded: table split by [sid mod N], doc broadcast *)

val mode_name : mode -> string
(** ["doc"] or ["expr"]. *)

val mode_of_string : string -> mode option
(** Accepts ["doc"]/["replicated"] and ["expr"]/["sharded"]. *)

val create :
  ?mode:mode ->
  ?domains:int ->
  ?queue_capacity:int ->
  ?batch:int ->
  Pf_intf.filter ->
  t
(** [create (module F)] starts the worker domains. [mode] (default
    [Doc]) selects the parallelism strategy; [domains] (default 1) is the
    number of engine replicas / worker domains; [queue_capacity] (default
    [4 * domains * batch]) bounds each work queue; [batch] (default 8) is
    the maximum number of documents a worker dequeues at once. Raises
    [Invalid_argument] for non-positive parameters. *)

val domains : t -> int
val mode : t -> mode

val subscribe : t -> Pf_xpath.Ast.path -> int
(** Register an expression; returns its sid (the engine's dense sid —
    identical on every replica, global across shards in [Expr] mode).
    Takes effect for every document submitted afterwards. Raises
    {!Pf_intf.Unsupported} if the engine rejects the expression (the
    service is then unchanged). *)

val subscribe_string : t -> string -> int
(** Parse then {!subscribe}. *)

val unsubscribe : t -> int -> bool
(** Remove a subscription. Returns [false] for unknown or already-removed
    sids. Takes effect for every document submitted afterwards. *)

val subscription_count : t -> int
(** Subscriptions accepted so far (including removed ones — sids are
    dense and never reused). *)

val submit : ?trace:Pf_obs.Trace.ctx -> t -> Pf_xml.Tree.t -> (int list -> unit) -> unit
(** [submit t doc deliver] enqueues a document; [deliver] receives the
    sorted sids of the matching subscriptions. Blocks while the queue is
    full. [deliver] runs on a worker domain (in [Expr] mode, on whichever
    worker finished the document last): it must be quick, must not call
    back into [t], and must synchronize any shared state it touches
    itself. Raises [Invalid_argument] after {!shutdown}.

    [trace] attaches a per-document trace context: worker domains record
    scan/match/occurrence spans against it (in [Expr] mode from every
    worker, stitched by trace id), the delivering worker adds
    merge/deliver spans and calls {!Pf_obs.Trace.finish} — the caller
    must not finish the context itself. *)

val submit_raw : ?trace:Pf_obs.Trace.ctx -> t -> string -> (int list -> unit) -> unit
(** Like {!submit} but the document is raw XML text, handed to the
    replica engine's [match_string] — a streaming engine
    ({!Pf_core.Engine.filter} [~stream:Stream]) then matches it straight
    off the SAX event stream, so the document is never parsed into a tree
    anywhere in the pipeline. Malformed XML surfaces like any worker-side
    matching exception: the document delivers [] and the first
    {!Pf_xml.Sax.Parse_error} re-raises at {!shutdown}. *)

val filter_batch : t -> Pf_xml.Tree.t list -> int list list
(** Submit every document, wait for all results, and return the match
    sets in input order. Equivalent to a {!submit} per document plus a
    barrier; documents still spread over all workers. *)

val filter_batch_raw : t -> string list -> int list list
(** {!filter_batch} over raw XML text — a {!submit_raw} per document plus
    a barrier. *)

val drain : t -> unit
(** Block until every document submitted so far has been matched and
    delivered. *)

val shutdown : t -> unit
(** Drain in-flight documents, stop the workers and join their domains.
    Idempotent, and safe to call from several threads concurrently: one
    caller joins the workers, the others block until it is done, so every
    call returns only once the workers have exited. After shutdown,
    {!submit} and {!subscribe} raise; metrics remain readable. *)

(** {1 Metrics} *)

val metrics : t -> Pf_obs.Registry.t
(** The service's own registry (scope ["service"]): counters
    ["documents"] (matched and delivered — counted once per document in
    either mode), ["batches"] (worker dequeues), ["updates_applied"]
    (log entries applied across replicas, primary excluded),
    ["subscribes"], ["unsubscribes"], ["submit_waits"] (submissions that
    blocked on a full queue), ["merges"] (expression-sharded result
    merges: one per document in [Expr] mode, 0 in [Doc] mode); gauges
    ["domains"] and ["queue_high_water"]. *)

val engine_metrics : t -> Pf_obs.Registry.t
(** A fresh snapshot (scope ["service-engines"], unlisted) merging the
    per-worker engine registries plus the primary's: counters, histograms
    and spans sum across replicas, gauges keep the maximum — see
    {!Pf_obs.Registry.merge}. Call only while the workers are quiescent
    (after {!drain} or {!shutdown}) for exact totals. *)
