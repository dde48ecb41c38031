(** The networked dissemination broker.

    Accepts connections on a Unix-domain or TCP socket, speaks the
    {!Pf_net.Wire} protocol, and drives one {!Pf_broker.Broker} state
    machine layered over a domain-parallel {!Pf_service}:

    - {e mutations} (SUBSCRIBE / UNSUBSCRIBE / DROP_SUBSCRIBER) are
      applied under one server lock and, when a data directory is
      configured, logged through {!Pf_net.Store} — the reply frame is
      sent only after the WAL fsync, so an acknowledged mutation
      survives [kill -9];
    - {e publishes} are submitted to the service's bounded queues from
      the connection's reader thread, so when the filtering pipeline
      falls behind, [submit] blocks, the reader stops draining its
      socket, and TCP/socket flow control pushes the backpressure all
      the way to the publisher. RESULTS frames are sent from worker
      domains as documents finish, correlated by request id — they may
      overtake each other, and they may overtake replies to later
      mutations.

    Each connection is handled by one reader thread; writes are
    serialized per connection with a mutex because worker domains and
    the reader thread both send. A connection's default namespace is
    fixed by its HELLO frame; commands carrying an explicit namespace
    override it per command. *)

type listen =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** bind address and port; port 0 picks one *)

val pp_listen : Format.formatter -> listen -> unit

val listen_of_string : string -> (listen, string) result
(** ["unix:/path"], ["tcp:host:port"], or a bare path (treated as
    [unix:]). *)

type config = {
  listen : listen;
  data_dir : string option;  (** [None] — volatile broker, no WAL *)
  snapshot_every : int;
  filter : Pf_intf.filter;
  covering_suppression : bool;
  mode : Pf_service.mode;
  domains : int;
  batch : int;
  validate_documents : bool;
      (** parse documents on the reader thread and reject malformed ones
          with a BAD_DOCUMENT error frame; when off, raw text goes
          straight into the streaming pipeline and malformed documents
          silently deliver to nobody *)
  send_timeout : float;
      (** [SO_SNDTIMEO] in seconds on accepted sockets: a peer that stops
          reading cannot block a worker domain's delivery (or graceful
          shutdown) for longer than this — the write fails and the
          connection is marked dead. [0.] means block forever. *)
  server_name : string;
}

val config :
  ?data_dir:string ->
  ?snapshot_every:int ->
  ?filter:Pf_intf.filter ->
  ?covering_suppression:bool ->
  ?mode:Pf_service.mode ->
  ?domains:int ->
  ?batch:int ->
  ?validate_documents:bool ->
  ?send_timeout:float ->
  ?server_name:string ->
  listen ->
  config
(** Defaults: no data dir, [snapshot_every] 1024,
    {!Pf_broker.Broker.default_filter}, suppression on, [Doc] mode,
    1 domain, batch 8, validation on, send timeout 15 s, name
    ["pf-broker"]. *)

type t

val start : config -> t
(** Bind, recover (if a data dir is configured) and start the accept
    thread. Raises [Unix.Unix_error] if the address cannot be bound. *)

val listen_address : t -> listen
(** The bound address — with the actual port when [Tcp (_, 0)] was
    requested. *)

val broker : t -> Pf_broker.Broker.t
val store : t -> Store.t option

val metrics : t -> Pf_obs.Registry.t
(** Scope ["net"]: counters ["net_connections"], ["net_frames_in"],
    ["net_frames_out"], ["net_bytes_in"], ["net_bytes_out"],
    ["net_publishes"], ["net_mutations"], ["net_protocol_errors"],
    ["net_send_errors"], ["net_bad_documents"]; gauges
    ["net_connections_open"] (Sum), ["net_wal_bytes"] (Max); quantile
    histogram ["net_publish_latency_ns"] (submit-to-delivery-resolution,
    the p50/p99 the load generator and the soak gate read). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, half-close every connection, let
    in-flight publishes deliver, join connection threads, drain and shut
    down the service, snapshot (when durable) and close the store,
    unlink a Unix-domain socket. Idempotent. *)
