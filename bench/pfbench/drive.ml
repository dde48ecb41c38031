(* The untraced run against the broker process: set-up, warm-up, then the
   saturation, light and busy phases from one single-threaded select loop.

   Open-loop documents are timed from their scheduled send time, so a stall
   in the broker (or in this loop) shows up in the latency of every document
   that should have gone out meanwhile; how late the loop actually sent them
   is reported separately as [gen.lag_p99_ms]. *)

module Broker = Pf_broker.Broker
module Wire = Pf_net.Wire

let now_ns = Pf_obs.Registry.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let window = 32

type outcome = {
  e2e : (string * float) list;  (** the gated end-to-end metrics *)
  ungated : (string * float * string) list;
      (** (name, value, unit): printed, but too noisy on a shared host to gate *)
  samples : int * int * int * int;  (** light, busy, subscribe and mutation latency counts *)
  attempted : int;
  failed : int;
  light_backlog_grew : bool;
  gen_lag_p99_ms : float;
  backlogs : int * int;  (** light, busy: most replies outstanding at a segment's last send *)
  dump : (string, float) Hashtbl.t;  (** "scope/name" -> value, broker shutdown dump *)
  subscribes : int;  (** SUBSCRIBE commands the measured broker received *)
  setup_ids : int array;  (** broker ids of the setup subscriptions *)
  delivered : (int, (string * int list) list) Hashtbl.t;  (** gate sample: doc -> RESULTS *)
  churn_exprs : (int, string) Hashtbl.t;  (** mutation-connection subscription id -> XPE *)
  light_first : int;  (** index in [inputs.docs] of the first light-phase document *)
}

(* {1 Publishes} *)

type phase = {
  first : int;
  count : int;
  rate : float option;  (** [None]: closed loop, [window] in flight *)
  lat : Stats.samples;
  mutable sent : int;
  mutable received : int;
  mutable t_start : int64;
  mutable t_last : int64;
  mutable backlog : int;
}

let phase ~first ~count rate lat =
  { first; count; rate; lat; sent = 0; received = 0; t_start = 0L;
    t_last = 0L; backlog = 0 }

let due p i =
  match p.rate with
  | Some r -> Int64.add p.t_start (Int64.of_float (float_of_int i *. 1e9 /. r))
  | None -> 0L

(* {1 Mutations} — the churn connection, or the closed-loop probe *)

type mkind = Sub of string | Unsub

type mutator = {
  mconn : Conn.t;
  mrate : float option;  (** [None]: closed loop, one in flight *)
  pool : string array;
  live : int Queue.t;  (** acked mutation subscriptions, oldest first *)
  exprs : (int, string) Hashtbl.t;
  minflight : (int, mkind * int64) Hashtbl.t;
  mlat : Stats.samples;
  mutable k : int;  (** mutations sent *)
  mutable subs : int;  (** of which SUBSCRIBE *)
  mutable pending_subs : int;
  mutable m_t0 : int64;
  mutable limit : int;  (** stop sending after this many *)
  mutable mfailed : int;
}

let mutator conn ~rate ~pool =
  { mconn = conn; mrate = rate; pool; live = Queue.create (); exprs = Hashtbl.create 256;
    minflight = Hashtbl.create 16; mlat = Stats.samples (); k = 0; subs = 0; pending_subs = 0;
    m_t0 = 0L; limit = max_int; mfailed = 0 }

let mdue m =
  match m.mrate with
  | Some r -> Int64.add m.m_t0 (Int64.of_float (float_of_int m.k *. 1e9 /. r))
  | None -> 0L

(* Subscribe a pool expression as [churn-(j mod 50)]; once more than 100 are
   live, unsubscribe the oldest. An unsubscribe whose target is not acked
   yet waits, still timed from its schedule. *)
let pump_mutator m now =
  let ready () =
    match m.mrate with
    | Some _ -> m.k < m.limit && mdue m <= now
    | None -> m.k < m.limit && Hashtbl.length m.minflight = 0
  in
  let rec go () =
    if ready () then begin
      let sched = match m.mrate with Some _ -> mdue m | None -> now in
      if Queue.length m.live + m.pending_subs > Workload.churn_live_cap then begin
        if not (Queue.is_empty m.live) then begin
          let id = Queue.pop m.live in
          let req = Conn.send m.mconn (Broker.Unsubscribe { ns = Broker.default_ns; id }) in
          Hashtbl.replace m.minflight req (Unsub, sched);
          m.k <- m.k + 1;
          go ()
        end
      end
      else begin
        let expr = m.pool.(m.subs mod Array.length m.pool) in
        let subscriber = Printf.sprintf "churn-%d" (m.subs mod Workload.churn_subscribers) in
        let req =
          Conn.send m.mconn (Broker.Subscribe { ns = Broker.default_ns; subscriber; expr })
        in
        Hashtbl.replace m.minflight req (Sub expr, sched);
        m.subs <- m.subs + 1;
        m.pending_subs <- m.pending_subs + 1;
        m.k <- m.k + 1;
        go ()
      end
    end
  in
  go ()

let on_mutation m t req msg =
  match Hashtbl.find_opt m.minflight req with
  | None -> m.mfailed <- m.mfailed + 1
  | Some (kind, sched) -> (
      Hashtbl.remove m.minflight req;
      Stats.add m.mlat (ms_between sched t);
      match (kind, msg) with
      | Sub expr, Wire.Event (Broker.Subscribed { id; _ }) ->
          m.pending_subs <- m.pending_subs - 1;
          Queue.push id m.live;
          Hashtbl.replace m.exprs id expr
      | Unsub, Wire.Event (Broker.Unsubscribed { existed = true; _ }) -> ()
      | Sub _, _ ->
          m.pending_subs <- m.pending_subs - 1;
          m.mfailed <- m.mfailed + 1
      | Unsub, _ -> m.mfailed <- m.mfailed + 1)

(* {1 The loop} *)

type loop = {
  conn : Conn.t;
  docs : string array;
  inflight : (int, int * int64) Hashtbl.t;  (** req -> (doc index, scheduled ns) *)
  sampled : bool array;
  delivered : (int, (string * int list) list) Hashtbl.t;
  lag : Stats.samples;
  mutable pub_failed : int;
  mutable publishes : int;
}

let pump_phase l p now =
  let rec go () =
    if p.sent < p.count then
      let send sched =
        let i = p.first + p.sent in
        if p.sent = p.count - 1 then p.backlog <- Hashtbl.length l.inflight;
        let req = Conn.send l.conn (Broker.Publish { ns = Broker.default_ns; doc = l.docs.(i) }) in
        Hashtbl.replace l.inflight req (i, sched);
        p.sent <- p.sent + 1;
        l.publishes <- l.publishes + 1
      in
      match p.rate with
      | Some _ ->
          let d = due p p.sent in
          if d <= now then begin
            Stats.add l.lag (ms_between d now);
            send d;
            go ()
          end
      | None ->
          if Hashtbl.length l.inflight < window then begin
            send now;
            go ()
          end
  in
  go ()

let on_publish l p t req msg =
  match Hashtbl.find_opt l.inflight req with
  | None -> l.pub_failed <- l.pub_failed + 1
  | Some (i, sched) -> (
      Hashtbl.remove l.inflight req;
      Stats.add p.lat (ms_between sched t);
      p.received <- p.received + 1;
      p.t_last <- t;
      match msg with
      | Wire.Event (Broker.Delivered { deliveries }) ->
          if l.sampled.(i) then Hashtbl.replace l.delivered i deliveries
      | _ -> l.pub_failed <- l.pub_failed + 1)

(* Run one publish phase to completion (every reply in) while servicing the
   mutator, if any. *)
let run_phase l (m : mutator option) p =
  p.t_start <- now_ns ();
  while p.received < p.count do
    Conn.check_deadline ();
    let now = now_ns () in
    pump_phase l p now;
    Option.iter (fun m -> pump_mutator m now) m;
    Conn.flush l.conn;
    Option.iter (fun m -> Conn.flush m.mconn) m;
    let next =
      List.filter_map Fun.id
        [
          (if p.rate <> None && p.sent < p.count then Some (due p p.sent) else None);
          (match m with
          | Some ({ mrate = Some _; _ } as m) when m.k < m.limit -> Some (mdue m)
          | _ -> None);
        ]
    in
    let timeout =
      match next with
      | [] -> 0.5
      | ds ->
          let next = List.fold_left min Int64.max_int ds in
          Float.max 0. (Int64.to_float (Int64.sub next now) /. 1e9)
    in
    let fds = l.conn :: (match m with Some m -> [ m.mconn ] | None -> []) in
    let r, _, _ =
      Conn.select_retry (List.map Conn.fd fds)
        (List.filter_map (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None) fds)
        timeout
    in
    let t = now_ns () in
    if List.mem (Conn.fd l.conn) r then Conn.read l.conn (on_publish l p t);
    Option.iter
      (fun m -> if List.mem (Conn.fd m.mconn) r then Conn.read m.mconn (on_mutation m t))
      m
  done

(* Closed-loop mutations with nothing else running, until [n] are acked. *)
let run_mutations m n =
  m.limit <- n;
  while m.k < n || Hashtbl.length m.minflight > 0 do
    Conn.check_deadline ();
    pump_mutator m (now_ns ());
    Conn.flush m.mconn;
    let r, _, _ =
      Conn.select_retry [ Conn.fd m.mconn ]
        (if Conn.wants_write m.mconn then [ Conn.fd m.mconn ] else [])
        0.5
    in
    if r <> [] then Conn.read m.mconn (on_mutation m (now_ns ()))
  done

(* {1 Set-up} *)

(* Spawn a broker on an empty data dir and subscribe every setup expression,
   one acked SUBSCRIBE in flight at a time. *)
let setup ~broker_exe ?metrics_out (inputs : Workload.inputs) sub_lat =
  let t0 = now_ns () in
  let child = Child.spawn ~broker_exe ?metrics_out () in
  let conn = Child.connect child in
  let failed = ref 0 in
  let ids =
    Array.mapi
      (fun i expr ->
        let s = now_ns () in
        match
          Conn.call conn
            (Broker.Subscribe { ns = Broker.default_ns; subscriber = inputs.subscribers.(i); expr })
        with
        | Broker.Subscribed { id; _ } ->
            Stats.add sub_lat (ms_between s (now_ns ()));
            id
        | _ ->
            incr failed;
            -1)
      inputs.exprs
  in
  (child, conn, ids, !failed, Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9)

(* {1 Shutdown dump} *)

let parse_dump path =
  let h = Hashtbl.create 128 in
  (match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
      List.iter
        (fun line ->
          match Pf_obs.Json.of_string line with
          | j -> (
              let str k = match Pf_obs.Json.member k j with Some (String s) -> s | _ -> "" in
              match Pf_obs.Json.member "value" j with
              | Some (Int v) -> Hashtbl.replace h (str "scope" ^ "/" ^ str "name") (float_of_int v)
              | Some (Float v) -> Hashtbl.replace h (str "scope" ^ "/" ^ str "name") v
              | _ -> ())
          | exception Pf_obs.Json.Parse_error _ -> ())
        lines
  | exception Sys_error _ -> ());
  h

(* {1 A whole run} *)

let sample_indices ~seed ~first ~last n =
  let st = Random.State.make [| seed; 0x5eed |] in
  let sampled = Array.make last false in
  let span = last - first in
  let n = min n span in
  let k = ref 0 in
  while !k < n do
    let i = first + Random.State.int st span in
    if not sampled.(i) then begin
      sampled.(i) <- true;
      incr k
    end
  done;
  sampled

let run ~broker_exe ~metrics_out (w : Workload.t) (size : Workload.size) ~seed
    (inputs : Workload.inputs) =
  let sub_lat = Stats.samples () in
  let setup_times = ref [] in
  let failed = ref 0 in
  let attempted = ref 0 in
  let set_up ?metrics_out () =
    let child, conn, ids, f, secs = setup ~broker_exe ?metrics_out inputs sub_lat in
    setup_times := secs :: !setup_times;
    attempted := !attempted + Array.length inputs.exprs;
    failed := !failed + f;
    (child, conn, ids)
  in
  let child, conn, setup_ids = set_up ~metrics_out () in
  let rounds = size.rounds in
  let warm = size.warmup and sat = size.saturation in
  let light_first = warm + sat in
  let busy_first = light_first + size.light in
  let total = busy_first + size.busy in
  let l =
    { conn; docs = inputs.docs; inflight = Hashtbl.create 64;
      sampled = sample_indices ~seed ~first:warm ~last:total size.gate_sample;
      delivered = Hashtbl.create 256; lag = Stats.samples (); pub_failed = 0; publishes = 0 }
  in
  let mconn = Child.connect child in
  let m =
    mutator mconn
      ~rate:(if w.churn then Some Workload.churn_rate else None)
      ~pool:inputs.churn_pool
  in
  run_phase l None (phase ~first:0 ~count:warm None (Stats.samples ()));
  let churn = if w.churn then Some m else None in
  m.m_t0 <- now_ns ();
  (* The phases run in [rounds] interleaved slices so that every metric
     pools over the whole run, not one stretch of it: the speed of a shared
     host drifts over seconds. Round r takes slice r of each phase's
     documents. *)
  let slice first count r =
    let lo = count * r / rounds and hi = count * (r + 1) / rounds in
    (first + lo, hi - lo)
  in
  let light_lat = Stats.samples () and busy_lat = Stats.samples () in
  let sat_rates = ref [] and backlogs = ref [] in
  for r = 0 to rounds - 1 do
    let first, count = slice warm sat r in
    let p = phase ~first ~count None (Stats.samples ()) in
    run_phase l churn p;
    let secs = Int64.to_float (Int64.sub p.t_last p.t_start) /. 1e9 in
    sat_rates := (float_of_int count /. secs) :: !sat_rates;
    let first, count = slice light_first size.light r in
    let pl = phase ~first ~count (Some w.light_rate) light_lat in
    run_phase l churn pl;
    let first, count = slice busy_first size.busy r in
    let busy_rate = Workload.busy_share *. Stats.median_of_array (Array.of_list !sat_rates) in
    let pb = phase ~first ~count (Some busy_rate) busy_lat in
    run_phase l churn pb;
    backlogs := (pl.backlog, pb.backlog) :: !backlogs;
    if not w.churn then run_mutations m (size.probe_mutations * (r + 1) / rounds)
  done;
  if w.churn then run_mutations m m.k;
  let rss_kb = Child.vm_hwm_kb child in
  Conn.close conn;
  Conn.close mconn;
  if not (Child.stop child) then incr failed;
  (* the other set-ups come last, so setup_s is a median over the run *)
  for _ = 2 to size.setups do
    let child, conn, _ = set_up () in
    Conn.close conn;
    Child.kill child
  done;
  let dump = parse_dump metrics_out in
  (* conservation: the broker counted exactly what was sent *)
  let mutations = Array.length inputs.exprs + m.k in
  let subscribes = Array.length inputs.exprs + m.subs in
  let counted k = Hashtbl.find_opt dump k in
  List.iter
    (fun (k, expect) -> if counted k <> Some (float_of_int expect) then incr failed)
    [ ("net/net_publishes", l.publishes); ("broker/documents_published", l.publishes);
      ("net/net_mutations", mutations) ];
  attempted := !attempted + l.publishes + m.k;
  failed := !failed + l.pub_failed + m.mfailed + Hashtbl.length l.inflight;
  let q s p = Stats.quantile s p in
  let max_backlog f = List.fold_left (fun acc b -> max acc (f b)) 0 !backlogs in
  {
    e2e =
      [
        ("setup_s", Stats.median_of_array (Array.of_list !setup_times));
        ("subscribe_p50_ms", q sub_lat 0.5);
        (* best burst: the host's slow spells only ever take throughput away *)
        ("throughput_docs_per_s", List.fold_left Float.max 0. !sat_rates);
        (* the churn latencies have two modes, ~0.5 ms and ~2 ms; the median
           falls between them, the 75th percentile inside the upper one *)
        ("mutate_p75_ms", q m.mlat 0.75);
        ("broker_rss_mb", float_of_int rss_kb /. 1024.);
      ];
    ungated =
      [
        ("subscribe_p90_ms", q sub_lat 0.9, "ms");
        ("subscribe_p99_ms", q sub_lat 0.99, "ms");
        ( "throughput_median_docs_per_s",
          Stats.median_of_array (Array.of_list !sat_rates),
          "docs/s" );
        ("publish_p50_ms.light", q light_lat 0.5, "ms");
        ("publish_p90_ms.light", q light_lat 0.9, "ms");
        ("publish_p99_ms.light", q light_lat 0.99, "ms");
        ("publish_p50_ms.busy", q busy_lat 0.5, "ms");
        ("publish_p90_ms.busy", q busy_lat 0.9, "ms");
        ("publish_p99_ms.busy", q busy_lat 0.99, "ms");
        ("mutate_p50_ms", q m.mlat 0.5, "ms");
        ("mutate_p90_ms", q m.mlat 0.9, "ms");
      ];
    samples =
      (Stats.count light_lat, Stats.count busy_lat, Stats.count sub_lat, Stats.count m.mlat);
    attempted = !attempted;
    failed = !failed;
    light_backlog_grew = max_backlog fst > max 8 (size.light / rounds / 5);
    gen_lag_p99_ms = q l.lag 0.99;
    backlogs = (max_backlog fst, max_backlog snd);
    dump;
    subscribes;
    setup_ids;
    delivered = l.delivered;
    churn_exprs = m.exprs;
    light_first;
  }
