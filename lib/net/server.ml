let src = Logs.Src.create "predfilter.net" ~doc:"Broker wire server"

module Log = (val Logs.src_log src : Logs.LOG)
module Broker = Pf_broker.Broker
module Registry = Pf_obs.Registry

type listen = Unix_sock of string | Tcp of string * int

let pp_listen fmt = function
  | Unix_sock path -> Format.fprintf fmt "unix:%s" path
  | Tcp (host, port) -> Format.fprintf fmt "tcp:%s:%d" host port

let listen_of_string s =
  match String.index_opt s ':' with
  | None -> Ok (Unix_sock s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp address %S needs host:port" rest)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "bad port %S" port)))
      | _ -> Ok (Unix_sock s))

type config = {
  listen : listen;
  data_dir : string option;
  snapshot_every : int;
  filter : Pf_intf.filter;
  covering_suppression : bool;
  mode : Pf_service.mode;
  domains : int;
  batch : int;
  validate_documents : bool;
  send_timeout : float;
  server_name : string;
}

let config ?data_dir ?(snapshot_every = 1024) ?(filter = Broker.default_filter ())
    ?(covering_suppression = true) ?(mode = Pf_service.Doc) ?(domains = 1) ?(batch = 8)
    ?(validate_documents = true) ?(send_timeout = 15.) ?(server_name = "pf-broker") listen =
  { listen; data_dir; snapshot_every; filter; covering_suppression; mode; domains; batch;
    validate_documents; send_timeout; server_name }

type metrics = {
  c_connections : Pf_obs.Counter.t;
  c_frames_in : Pf_obs.Counter.t;
  c_frames_out : Pf_obs.Counter.t;
  c_bytes_in : Pf_obs.Counter.t;
  c_bytes_out : Pf_obs.Counter.t;
  c_publishes : Pf_obs.Counter.t;
  c_mutations : Pf_obs.Counter.t;
  c_proto_errors : Pf_obs.Counter.t;
  c_send_errors : Pf_obs.Counter.t;
  c_bad_documents : Pf_obs.Counter.t;
  g_open : Pf_obs.Gauge.t;
  g_wal_bytes : Pf_obs.Gauge.t;
  q_latency : Pf_obs.Qhist.t;
}

let make_metrics reg =
  let c name help = Pf_obs.Counter.make ~registry:reg ~help name in
  {
    c_connections = c "net_connections" "connections accepted";
    c_frames_in = c "net_frames_in" "frames received";
    c_frames_out = c "net_frames_out" "frames sent";
    c_bytes_in = c "net_bytes_in" "bytes received";
    c_bytes_out = c "net_bytes_out" "bytes sent";
    c_publishes = c "net_publishes" "publish commands received";
    c_mutations = c "net_mutations" "mutation commands applied";
    c_proto_errors = c "net_protocol_errors" "connections dropped for protocol violations";
    c_send_errors = c "net_send_errors" "frames lost to dead peer sockets";
    c_bad_documents = c "net_bad_documents" "publishes rejected as malformed XML";
    g_open =
      Pf_obs.Gauge.make ~registry:reg ~help:"connections currently open"
        ~merge:Pf_obs.Gauge.Sum "net_connections_open";
    g_wal_bytes =
      Pf_obs.Gauge.make ~registry:reg ~help:"write-ahead log size" ~merge:Pf_obs.Gauge.Max
        "net_wal_bytes";
    q_latency =
      Pf_obs.Qhist.make ~registry:reg ~help:"publish submit-to-resolution latency"
        "net_publish_latency_ns";
  }

type conn = {
  fd : Unix.file_descr;
  peer : string;
  wlock : Mutex.t;  (* reader thread and worker domains both send *)
  mutable ns : string;
  mutable greeted : bool;
  mutable alive : bool;
  ilock : Mutex.t;
  icond : Condition.t;
  mutable inflight : int;  (* publishes submitted, results not yet sent *)
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  resolved : listen;
  svc : Pf_service.t;
  b : Broker.t;
  st : Store.t option;
  store_lock : Mutex.t;  (* serializes apply + WAL append across connections *)
  reg : Registry.t;
  m : metrics;
  conns_lock : Mutex.t;
  mutable conns : (conn * Thread.t) list;
  running : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  stop_lock : Mutex.t;
  mutable stopped : bool;
}

(* {1 Sending} *)

let write_all fd bytes len =
  let rec go off = if off < len then go (off + Unix.write fd bytes off (len - off)) in
  go 0

let send t conn ~req_id msg =
  let buf = Buffer.create 128 in
  Wire.encode buf ~req_id msg;
  let bytes = Buffer.to_bytes buf in
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if conn.alive then
        try
          write_all conn.fd bytes (Bytes.length bytes);
          Pf_obs.Counter.incr t.m.c_frames_out;
          Pf_obs.Counter.add t.m.c_bytes_out (Bytes.length bytes)
        with Unix.Unix_error _ | Sys_error _ ->
          (* peer went away mid-delivery; the reader thread notices on
             its next read and tears the connection down *)
          conn.alive <- false;
          Pf_obs.Counter.incr t.m.c_send_errors)

(* {1 Command handling} *)

(* Commands with an empty namespace inherit the connection's HELLO
   namespace; an explicit namespace wins (multi-tenant clients can proxy
   for several tenants over one connection). *)
let scoped conn (cmd : Broker.command) : Broker.command =
  match cmd with
  | Broker.Subscribe { ns = ""; subscriber; expr } ->
      Broker.Subscribe { ns = conn.ns; subscriber; expr }
  | Broker.Unsubscribe { ns = ""; id } -> Broker.Unsubscribe { ns = conn.ns; id }
  | Broker.Drop_subscriber { ns = ""; subscriber } ->
      Broker.Drop_subscriber { ns = conn.ns; subscriber }
  | Broker.Publish { ns = ""; doc } -> Broker.Publish { ns = conn.ns; doc }
  | cmd -> cmd

let handle_mutation t conn ~req_id cmd =
  Pf_obs.Counter.incr t.m.c_mutations;
  let events =
    Mutex.lock t.store_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.store_lock)
      (fun () ->
        match t.st with
        | Some st ->
            let events = Store.log st cmd in
            Pf_obs.Gauge.set t.m.g_wal_bytes (float_of_int (Store.wal_size st));
            events
        | None -> Broker.apply t.b cmd)
  in
  List.iter (fun e -> send t conn ~req_id (Wire.Event e)) events

let handle_publish t conn ~req_id ~ns doc =
  Pf_obs.Counter.incr t.m.c_publishes;
  let deliver sids t0 =
    let deliveries = Broker.deliveries_of_sids t.b ~ns sids in
    Broker.count_publish t.b ~deliveries:(List.length deliveries);
    Pf_obs.Qhist.observe t.m.q_latency
      (Int64.to_int (Int64.sub (Registry.now_ns ()) t0));
    send t conn ~req_id (Wire.Event (Broker.Delivered { deliveries }));
    Mutex.lock conn.ilock;
    conn.inflight <- conn.inflight - 1;
    Condition.broadcast conn.icond;
    Mutex.unlock conn.ilock
  in
  let submit_checked f =
    Mutex.lock conn.ilock;
    conn.inflight <- conn.inflight + 1;
    Mutex.unlock conn.ilock;
    match f () with
    | () -> ()
    | exception e ->
        Mutex.lock conn.ilock;
        conn.inflight <- conn.inflight - 1;
        Condition.broadcast conn.icond;
        Mutex.unlock conn.ilock;
        raise e
  in
  if t.cfg.validate_documents then
    match Pf_xml.Sax.parse_document doc with
    | tree ->
        let t0 = Registry.now_ns () in
        submit_checked (fun () -> Pf_service.submit t.svc tree (fun sids -> deliver sids t0))
    | exception Pf_xml.Sax.Parse_error (_, msg) ->
        Pf_obs.Counter.incr t.m.c_bad_documents;
        send t conn ~req_id (Wire.Event (Broker.Failed { error = Pf_intf.Bad_document msg }))
  else begin
    let t0 = Registry.now_ns () in
    submit_checked (fun () -> Pf_service.submit_raw t.svc doc (fun sids -> deliver sids t0))
  end

exception Protocol of Wire.error

let handle_frame t conn ~req_id msg =
  match msg with
  | Wire.Hello { version; ns } ->
      if version <> Wire.version then
        raise (Protocol { offset = 0; reason = Printf.sprintf "unsupported version %d" version });
      conn.ns <- ns;
      conn.greeted <- true;
      send t conn ~req_id (Wire.Welcome { version = Wire.version; server = t.cfg.server_name })
  | _ when not conn.greeted ->
      raise (Protocol { offset = 0; reason = "first frame must be HELLO" })
  | Wire.Command cmd -> (
      match scoped conn cmd with
      | Broker.Publish { ns; doc } -> handle_publish t conn ~req_id ~ns doc
      | cmd -> handle_mutation t conn ~req_id cmd)
  | Wire.Welcome _ | Wire.Event _ ->
      raise (Protocol { offset = 0; reason = "client sent a server-side frame" })

(* {1 Connection reader} *)

let drain_inflight conn =
  Mutex.lock conn.ilock;
  while conn.inflight > 0 do
    Condition.wait conn.icond conn.ilock
  done;
  Mutex.unlock conn.ilock

let reader_loop t conn =
  let buf = ref (Bytes.create 8192) in
  let start = ref 0 in
  (* consumed prefix *)
  let fill = ref 0 in
  (* filled extent *)
  let eof = ref false in
  (try
     while conn.alive && not !eof do
       match Wire.decode !buf ~off:!start ~len:!fill with
       | `Frame (consumed, req_id, msg) ->
           Pf_obs.Counter.incr t.m.c_frames_in;
           start := !start + consumed;
           handle_frame t conn ~req_id msg
       | `Error e -> raise (Protocol e)
       | `Need n ->
           (* compact, grow if the frame cannot fit, then read *)
           if !start > 0 then begin
             Bytes.blit !buf !start !buf 0 (!fill - !start);
             fill := !fill - !start;
             start := 0
           end;
           if !fill + n > Bytes.length !buf then begin
             let bigger = Bytes.create (max (!fill + n) (2 * Bytes.length !buf)) in
             Bytes.blit !buf 0 bigger 0 !fill;
             buf := bigger
           end;
           let got = Unix.read conn.fd !buf !fill (Bytes.length !buf - !fill) in
           if got = 0 then eof := true
           else begin
             fill := !fill + got;
             Pf_obs.Counter.add t.m.c_bytes_in got
           end
     done
   with
  | Protocol e ->
      Pf_obs.Counter.incr t.m.c_proto_errors;
      Log.warn (fun m -> m "%s: protocol error %a, closing" conn.peer Wire.pp_error e);
      send t conn ~req_id:0
        (Wire.Event
           (Broker.Failed
              { error = Pf_intf.Protocol_error (Format.asprintf "%a" Wire.pp_error e) }))
  | Unix.Unix_error (err, _, _) ->
      Log.debug (fun m -> m "%s: read error %s" conn.peer (Unix.error_message err))
  | e ->
      (* anything else (a decoder bug, an engine failure) must still fall
         through to the cleanup below, or the fd and conns entry leak *)
      Pf_obs.Counter.incr t.m.c_proto_errors;
      Log.warn (fun m -> m "%s: connection failed: %s, closing" conn.peer (Printexc.to_string e)));
  (* let in-flight publishes resolve before the write side goes away *)
  drain_inflight conn;
  Mutex.lock conn.wlock;
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_lock;
  t.conns <- List.filter (fun (c, _) -> c != conn) t.conns;
  (* the gauge mirrors the list it is updated under: no read-modify-write
     race with the accept thread *)
  Pf_obs.Gauge.set t.m.g_open (float_of_int (List.length t.conns));
  Mutex.unlock t.conns_lock

let accept_loop t =
  while Atomic.get t.running do
    (* select with a timeout rather than a bare accept: closing the
       listener does not wake a thread blocked in accept on Linux, so
       stop relies on this loop observing the flag *)
    match Unix.select [ t.lsock ] [] [] 0.25 with
    | [], _, _ -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.lsock with
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
        (* listener closed by stop *)
        | exception Unix.Unix_error (err, _, _) ->
            if Atomic.get t.running then
              Log.warn (fun m -> m "accept failed: %s" (Unix.error_message err))
        | fd, addr ->
        let peer =
          match addr with
          | Unix.ADDR_UNIX _ -> "unix-peer"
          | Unix.ADDR_INET (host, port) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
        in
        (* bound blocked sends so a peer that stops reading cannot wedge a
           worker domain (and thereby shutdown) forever; a timed-out write
           raises and the connection is marked dead like any send error *)
        if t.cfg.send_timeout > 0. then
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout
           with Unix.Unix_error _ | Invalid_argument _ -> ());
        let conn =
          { fd; peer; wlock = Mutex.create (); ns = Broker.default_ns; greeted = false;
            alive = true; ilock = Mutex.create (); icond = Condition.create (); inflight = 0 }
        in
        Pf_obs.Counter.incr t.m.c_connections;
        (* spawn under conns_lock: the reader's cleanup also takes it, so
           the conn is in the list (and counted) before it can remove
           itself — no ghost entry when a connection dies instantly *)
        Mutex.lock t.conns_lock;
        let thr = Thread.create (fun () -> reader_loop t conn) () in
        t.conns <- (conn, thr) :: t.conns;
        Pf_obs.Gauge.set t.m.g_open (float_of_int (List.length t.conns));
        Mutex.unlock t.conns_lock)
  done

(* {1 Lifecycle} *)

let service_port svc =
  {
    Broker.port_subscribe = Pf_service.subscribe svc;
    port_unsubscribe = Pf_service.unsubscribe svc;
    port_match =
      (fun doc ->
        match Pf_service.filter_batch svc [ doc ] with [ r ] -> r | _ -> assert false);
    port_match_string =
      (fun s ->
        match Pf_service.filter_batch_raw svc [ s ] with [ r ] -> r | _ -> assert false);
    (* worker replicas are only quiescent at shutdown, so there is no
       one registry to hand out while serving *)
    port_engine_metrics = (fun () -> None);
  }

let bind_listen = function
  | Unix_sock path ->
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_sock path)
  | Tcp (host, port) ->
      let addr =
        if host = "" || host = "*" then Unix.inet_addr_any
        else try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let resolved =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
        | _ -> Tcp (host, port)
      in
      (fd, resolved)

let start cfg =
  let svc = Pf_service.create ~mode:cfg.mode ~domains:cfg.domains ~batch:cfg.batch cfg.filter in
  let make_broker () =
    Broker.create_over ~covering_suppression:cfg.covering_suppression (service_port svc)
  in
  let st, b =
    match cfg.data_dir with
    | Some dir ->
        let st = Store.open_store ~snapshot_every:cfg.snapshot_every ~dir make_broker in
        (Some st, Store.broker st)
    | None -> (None, make_broker ())
  in
  let lsock, resolved = bind_listen cfg.listen in
  let reg = Registry.create "net" in
  let m = make_metrics reg in
  (match st with
  | Some st -> Pf_obs.Gauge.set m.g_wal_bytes (float_of_int (Store.wal_size st))
  | None -> ());
  let t =
    { cfg; lsock; resolved; svc; b; st; store_lock = Mutex.create (); reg; m;
      conns_lock = Mutex.create (); conns = []; running = Atomic.make true;
      accept_thread = None; stop_lock = Mutex.create (); stopped = false }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  Log.info (fun m -> m "listening on %a" pp_listen resolved);
  t

let listen_address t = t.resolved
let broker t = t.b
let store t = t.st
let metrics t = t.reg

let stop t =
  let first =
    Mutex.lock t.stop_lock;
    let first = not t.stopped in
    t.stopped <- true;
    Mutex.unlock t.stop_lock;
    first
  in
  if first then begin
    Atomic.set t.running false;
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some thr -> Thread.join thr | None -> ());
    (* half-close: readers see EOF, wait out their in-flight publishes
       (results still flow on the write side), then close *)
    let conns =
      Mutex.lock t.conns_lock;
      let cs = t.conns in
      Mutex.unlock t.conns_lock;
      cs
    in
    List.iter
      (fun (conn, _) ->
        try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, thr) -> Thread.join thr) conns;
    (try Pf_service.shutdown t.svc
     with Pf_xml.Sax.Parse_error (_, msg) ->
       Log.warn (fun m -> m "unvalidated malformed document in stream: %s" msg));
    (match t.st with
    | Some st ->
        Mutex.lock t.store_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.store_lock)
          (fun () ->
            Store.snapshot_now st;
            Store.close st)
    | None -> ());
    match t.resolved with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end
