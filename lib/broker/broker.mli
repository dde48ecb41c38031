(** A selective-dissemination broker on top of any filtering engine.

    The paper's motivating deployment (Section 1): subscribers register
    XPath expressions describing their interests; the broker filters each
    incoming XML document and reports which subscribers it must be
    delivered to, and through which subscriptions.

    System-level concerns the raw engine does not handle live here:

    - {e subscriber bookkeeping}: subscriptions are grouped per subscriber,
      can be cancelled individually or wholesale, and deliveries are
      aggregated per subscriber;
    - {e multi-tenant namespaces}: every subscription and publication is
      scoped to a namespace string; tenants never see each other's
      deliveries and cannot cancel each other's subscriptions;
    - {e covering suppression} (built on {!Pf_core.Containment}): a new
      subscription that is covered by one the same subscriber already
      holds cannot change that subscriber's deliveries, so it is recorded
      but not registered in the engine; when the covering subscription is
      cancelled, its suppressed dependents are activated transparently.
      Covers are found by probing a per-(namespace, subscriber)
      shape-bucket index ({!Pf_core.Subsume.Probe}) rather than scanning
      every live subscription — exact and uncapped, so suppression
      decisions (and replay determinism) are unchanged while subscribing
      n redundant expressions costs o(n²) containment tests.

    {2 One state machine, many transports}

    The broker is driven through a {e command/event} interface:
    {!apply} takes a {!command} and returns the {!event}s it produced,
    and every front-end — the in-process convenience functions below, the
    wire server ({!Pf_net.Server}), the write-ahead-log replayer
    ({!Pf_net.Store}) and the test suites — drives this one state
    machine. Commands and events are plain serializable data, so the wire
    codec and the durability log share one serialization
    ({!Pf_net.Wire}).

    Replay determinism: applying the same command sequence to two fresh
    brokers (same engine configuration) yields identical subscription
    ids, identical suppression decisions and identical deliveries — the
    property WAL recovery relies on. Failed commands change nothing and
    consume no ids.

    The broker is thread-safe: every operation takes an internal lock, so
    connection threads may mutate subscriptions while worker domains
    {!deliveries_of_sids} concurrently. *)

type t

(** {1 Construction}

    The engine is any {!Pf_intf.FILTER}, supplied as a first-class
    module; compose configuration with the engine's own builder, e.g.
    [Broker.create ~filter:(Pf_core.Engine.filter ~stream:Stream ()) ()]. *)

val default_filter : unit -> Pf_intf.filter
(** The predicate engine in its default configuration
    ([Pf_core.Engine.filter ()]: basic-pc-ap, inline attribute filters,
    tree ingest) — the engine a broker runs when none is given, and the
    one [pf-broker] ships. *)

val create : ?filter:Pf_intf.filter -> ?covering_suppression:bool -> unit -> t
(** [filter] defaults to {!default_filter}; [covering_suppression]
    defaults to [true]. *)

(** How the broker reaches an engine when it is not a plain in-process
    {!Pf_intf.FILTER} instance — e.g. a {!Pf_service} whose sid
    assignment and matching run on worker domains. All broker state
    transitions go through these five functions, so anything that
    implements them (and honours the {!Pf_intf.FILTER} sid contract:
    dense sids in registration order, sorted match results) can back a
    broker. *)
type port = {
  port_subscribe : Pf_xpath.Ast.path -> int;
      (** register; returns the engine sid; may raise {!Pf_intf.Unsupported} *)
  port_unsubscribe : int -> bool;
  port_match : Pf_xml.Tree.t -> int list;
  port_match_string : string -> int list;
      (** may raise {!Pf_xml.Sax.Parse_error} *)
  port_engine_metrics : unit -> Pf_obs.Registry.t option;
      (** the engine's registry, when one instance meaningfully exists *)
}

val port_of_filter : Pf_intf.filter -> port
(** Instantiate the filter once and wrap it. *)

val create_over : ?covering_suppression:bool -> port -> t
(** A broker whose engine operations go through [port] — how the wire
    server layers the broker over a domain-parallel {!Pf_service}. *)

(** {1 Subscriptions} *)

type subscription
(** Handle to one registered subscription. *)

val default_ns : string
(** [""] — the namespace every un-scoped operation uses. *)

val subscribe :
  t -> ?ns:string -> subscriber:string -> string -> (subscription, Pf_intf.error) result
(** [subscribe t ~subscriber expr] parses and registers [expr]. Syntax
    errors surface as [Error (Bad_expression _)] and engine rejections as
    [Error (Unsupported_expression _)] — the broker is unchanged and no
    subscription id is consumed. *)

val subscribe_exn : t -> ?ns:string -> subscriber:string -> string -> subscription
(** Raising variant: {!Pf_xpath.Parser.Error} on bad syntax,
    {!Pf_intf.Unsupported} on unsupported constructs. *)

val subscribe_path :
  t -> ?ns:string -> subscriber:string -> Pf_xpath.Ast.path ->
  (subscription, Pf_intf.error) result

val subscribe_path_exn : t -> ?ns:string -> subscriber:string -> Pf_xpath.Ast.path -> subscription

val unsubscribe : t -> subscription -> bool
(** Cancel one subscription; [false] if already cancelled. Suppressed
    dependents of a cancelled covering subscription are re-activated. *)

val unsubscribe_id : t -> ?ns:string -> int -> (bool, Pf_intf.error) result
(** Cancel by subscription id. [Ok true] on cancellation, [Ok false] if
    the subscription was already cancelled (idempotent — a retried
    cancellation is not an error), [Error (Unknown_subscription _)] for
    ids never issued in this namespace (including another tenant's). *)

val drop_subscriber : t -> ?ns:string -> string -> int
(** Cancel all of a subscriber's subscriptions; returns how many. *)

val subscription_id : subscription -> int
(** The broker-assigned id (dense from 0 across all namespaces, never
    reused) — the id wire clients cancel by, stable across WAL/snapshot
    recovery (unlike engine sids, which renumber). *)

val subscriber_of : subscription -> string
val ns_of : subscription -> string
val expression_of : subscription -> Pf_xpath.Ast.path

val find_subscription : t -> ?ns:string -> int -> subscription option

val is_suppressed : t -> subscription -> bool
(** True while the subscription is redundant (covered by another active
    subscription of the same subscriber) and therefore not registered in
    the engine. *)

(** {1 Publishing} *)

type delivery = {
  subscriber : string;
  via : subscription list;
      (** the active subscriptions that matched, ascending id order *)
}

val publish : t -> ?ns:string -> Pf_xml.Tree.t -> delivery list
(** Deliveries for one document, one entry per matching subscriber of
    [ns], sorted by subscriber name. *)

val publish_string : t -> ?ns:string -> string -> delivery list
(** Parse then {!publish}. Raises {!Pf_xml.Sax.Parse_error}. *)

(** {1 The command/event state machine} *)

type command =
  | Subscribe of { ns : string; subscriber : string; expr : string }
  | Unsubscribe of { ns : string; id : int }
  | Drop_subscriber of { ns : string; subscriber : string }
  | Publish of { ns : string; doc : string }

type event =
  | Subscribed of { id : int; suppressed : bool }
  | Unsubscribed of { id : int; existed : bool }
  | Dropped of { count : int }
  | Delivered of { deliveries : (string * int list) list }
      (** (subscriber, matching subscription ids) pairs, subscribers
          sorted ascending, ids ascending *)
  | Failed of { error : Pf_intf.error }

val apply : t -> command -> event list
(** Execute one command; total — failures come back as [Failed], never as
    exceptions. Mutation commands ([Subscribe]/[Unsubscribe]/
    [Drop_subscriber]) that do not fail are exactly the ones a durability
    layer must log; [Publish] never changes subscription state. *)

val is_mutation : command -> bool
(** True for the commands a write-ahead log records. *)

val pp_command : Format.formatter -> command -> unit
val pp_event : Format.formatter -> event -> unit

(** {1 Asynchronous delivery support}

    A wire server does not publish through {!apply} — it submits raw
    documents to a {!Pf_service} and maps the sids coming back on worker
    domains to deliveries. Subscription ids are never reused and the
    sid table is append-only, so the mapping is stable even when the
    subscription was cancelled after the document entered the pipeline
    (epoch ordering means the engine already decided whether the sid
    matches). *)

val deliveries_of_sids : t -> ns:string -> int list -> (string * int list) list
(** Map engine sids (as reported by the engine/service backing this
    broker) to [ns]-scoped (subscriber, subscription id) deliveries, in
    the {!event} [Delivered] shape. Pure — counters untouched. *)

val count_publish : t -> deliveries:int -> unit
(** Record one published document and its delivery count in the broker's
    metrics — the async path's counterpart of the accounting {!publish}
    does itself. *)

(** {1 Snapshots}

    A serializable image of the subscription state (not of delivery
    counters), for the durability layer: {!snapshot} under the broker
    lock, {!load_snapshot} into a freshly created broker on recovery,
    then replay the WAL tail through {!apply}. Engine sids renumber on
    load (the fresh engine assigns its own); subscription ids, namespaces
    and suppression state are preserved exactly. *)

type sub_record = {
  sr_id : int;
  sr_ns : string;
  sr_subscriber : string;
  sr_expr : string;  (** {!Pf_xpath.Parser.to_string} form, re-parsed on load *)
  sr_suppressed_by : int option;
}

type snapshot = {
  snap_next_id : int;
  snap_subs : sub_record list;  (** live subscriptions, ascending id *)
}

val snapshot : t -> snapshot

val load_snapshot : t -> snapshot -> unit
(** Raises [Invalid_argument] if the broker already holds subscriptions
    or the snapshot is internally inconsistent (unparsable expression,
    dangling suppression reference). *)

(** {1 Statistics} *)

type stats = {
  subscribers : int;
  subscriptions : int;  (** active + suppressed *)
  suppressed : int;
  engine_expressions : int;
  distinct_predicates : int;
  documents_published : int;
  deliveries : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val metrics : t -> Pf_obs.Registry.t
(** Metric registry (scope ["broker"]): counters ["documents_published"],
    ["deliveries"], ["covering_suppressions"], ["covers_probes"]
    (containment tests spent probing for covers) and ["promotions"]
    (suppressed subscriptions re-activated after their cover left); gauges
    ["subscriptions"] (Sum), ["suppressed"] (Sum) and
    ["engine_expressions"] (Sum) kept current on every mutation so they
    export to Prometheus alongside the wire server's [net_*] metrics.
    The merge policies are explicit: subscription populations add up
    across broker shards, unlike high-water marks. The underlying
    engine's registry is separate; reach it via the port or the
    process-wide {!Pf_obs.Registry.registries}. Debug events are logged
    on the [predfilter.broker] source. *)
