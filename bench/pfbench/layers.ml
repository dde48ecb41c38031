(* The traced breakdown: the server's publish path rebuilt in-process, one
   public call per layer, each wrapped in a Pf_obs.Trace span from this
   file (no span inside the program is switched on). Runs after the broker
   process has stopped, so nothing competes with it for the cores.

   Per document: decode the PUBLISH frame, parse the XML (validation on),
   extract the root-to-leaf paths, match, map sids to deliveries, encode
   the RESULTS frame and decode it again as a client would. The engine is
   created with [collect_stats:true] for its stage timers; an identical
   engine without them times the same documents untraced, which gives the
   tracing overhead. *)

module Broker = Pf_broker.Broker
module Engine = Pf_core.Engine
module Wire = Pf_net.Wire
module Trace = Pf_obs.Trace

let now_ns = Pf_obs.Registry.now_ns
let us_between a b = Int64.to_float (Int64.sub b a) /. 1e3

let engine_port e =
  {
    Broker.port_subscribe = Engine.add e;
    port_unsubscribe = Engine.remove e;
    port_match = Engine.match_document e;
    port_match_string = Engine.match_string e;
    port_engine_metrics = (fun () -> Some (Engine.metrics e));
  }

let shipped_engine ?collect_stats () =
  Engine.create ~variant:Pf_core.Expr_index.Access_predicate ?collect_stats ()

let frame msg =
  let b = Buffer.create 4096 in
  Wire.encode b ~req_id:1 msg;
  Buffer.to_bytes b

let decode_frame bytes =
  match Wire.decode bytes ~off:0 ~len:(Bytes.length bytes) with
  | `Frame (_, _, msg) -> msg
  | `Need _ | `Error _ -> failwith "pfbench: wire round trip failed"

(* Per-document samples by metric name. *)
let add tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some s -> Stats.add s v
  | None ->
      let s = Stats.samples () in
      Stats.add s v;
      Hashtbl.add tbl name s

let med tbl name = Stats.quantile (Hashtbl.find tbl name) 0.5

(* The mutation connection replayed in-process for the churn workload, on
   both engines alike: start at the steady state (101 live), then mutate at
   the churn rate against the light-phase document schedule. *)
type churn = {
  mutable k : int;
  mutable subs : int;
  live : (Broker.subscription * Broker.subscription) Queue.t;
}

let churn_step (b, bp) pool c =
  if Queue.length c.live > Workload.churn_live_cap then begin
    let s, sp = Queue.pop c.live in
    ignore (Broker.unsubscribe b s);
    ignore (Broker.unsubscribe bp sp)
  end
  else begin
    let expr = pool.(c.subs mod Array.length pool) in
    let subscriber = Printf.sprintf "churn-%d" (c.subs mod Workload.churn_subscribers) in
    (match (Broker.subscribe b ~subscriber expr, Broker.subscribe bp ~subscriber expr) with
    | Ok s, Ok sp -> Queue.push (s, sp) c.live
    | _ -> ());
    c.subs <- c.subs + 1
  end;
  c.k <- c.k + 1

let engine_counters =
  [ "predicate_probes"; "predicate_hits"; "occurrence_runs"; "backtrack_steps"; "paths" ]

let traced_pass (w : Workload.t) (inputs : Workload.inputs) ~first ~n ~trace_out samples =
  let e = shipped_engine ~collect_stats:true () in
  let plain = shipped_engine () in
  let b = Broker.create_over (engine_port e) in
  let bp = Broker.create_over (engine_port plain) in
  Array.iteri
    (fun i expr ->
      let subscriber = inputs.subscribers.(i) in
      let t0 = now_ns () in
      ignore (Broker.subscribe b ~subscriber expr);
      add samples "broker.subscribe_us" (us_between t0 (now_ns ()));
      ignore (Broker.subscribe bp ~subscriber expr))
    inputs.exprs;
  let churn = { k = 0; subs = 0; live = Queue.create () } in
  if w.churn then
    while Queue.length churn.live <= Workload.churn_live_cap do
      churn_step (b, bp) inputs.churn_pool churn
    done;
  let churn_k0 = churn.k in
  let collector = Trace.create () in
  let reg = Engine.metrics e in
  let counter name =
    float_of_int (Option.value (Pf_obs.Registry.find_counter reg name) ~default:0)
  in
  let totals = Hashtbl.create 8 in
  let total name v =
    Hashtbl.replace totals name (v +. Option.value (Hashtbl.find_opt totals name) ~default:0.)
  in
  let distinct = Hashtbl.create 1024 in
  for j = 0 to n - 1 do
    if w.churn then
      while
        float_of_int (churn.k - churn_k0) /. Workload.churn_rate
        <= float_of_int j /. w.light_rate
      do
        churn_step (b, bp) inputs.churn_pool churn
      done;
    let i = first + j in
    let doc = inputs.docs.(i) in
    let publish = frame (Wire.Command (Broker.Publish { ns = Broker.default_ns; doc })) in
    let ctx = Trace.start ~label:(Printf.sprintf "doc %d" i) collector in
    let span name f = Trace.span ctx name f in
    ignore (span "wire.decode_publish" (fun () -> decode_frame publish));
    let tree = span "sax.parse" (fun () -> Pf_xml.Sax.parse_document doc) in
    let paths = span "path.extract" (fun () -> Pf_xml.Path.of_document tree) in
    List.iter
      (fun p -> Hashtbl.replace distinct (String.concat "/" (Pf_xml.Path.tags p)) ())
      paths;
    let s0 = Engine.stats e in
    let c0 = List.map counter engine_counters in
    let sids = span "engine.match" (fun () -> Engine.match_document e tree) in
    let s1 = Engine.stats e in
    List.iter2
      (fun name v0 ->
        let d = counter name -. v0 in
        add samples ("engine." ^ name) d;
        total name d)
      engine_counters c0;
    total "sids" (float_of_int (List.length sids));
    add samples "engine.predicate_stage_us" ((s1.predicate_ns -. s0.predicate_ns) /. 1e3);
    add samples "engine.expr_stage_us" ((s1.expr_ns -. s0.expr_ns) /. 1e3);
    add samples "engine.collect_stage_us" ((s1.collect_ns -. s0.collect_ns) /. 1e3);
    let deliveries =
      span "broker.deliveries" (fun () ->
          Broker.deliveries_of_sids b ~ns:Broker.default_ns sids)
    in
    add samples "broker.deliveries_per_doc" (float_of_int (List.length deliveries));
    let results =
      span "wire.encode_results" (fun () -> frame (Wire.Event (Broker.Delivered { deliveries })))
    in
    add samples "wire.bytes_out_per_doc" (float_of_int (Bytes.length results));
    ignore (span "wire.decode_results" (fun () -> decode_frame results));
    Trace.finish ctx;
    (* outside the trace: the same match on the engine without stage timers *)
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (Engine.match_document plain tree));
    add samples "plain_match_us" (us_between t0 (now_ns ()))
  done;
  (* span durations are the layer timings: the trace and the metrics agree
     by construction *)
  List.iter
    (fun (tr : Trace.trace) ->
      List.iter
        (fun (sp : Trace.span) ->
          add samples (sp.sp_name ^ "_us") (Int64.to_float sp.sp_dur_ns /. 1e3))
        tr.tr_spans)
    (Trace.traces collector);
  Child.mkdir_p (Filename.dirname trace_out);
  Trace.write_chrome collector trace_out;
  let ratio a b = Hashtbl.find totals a /. Hashtbl.find totals b in
  [
    ("engine.predicate_probes_per_doc", med samples "engine.predicate_probes");
    ("engine.predicate_hit_ratio", ratio "predicate_hits" "predicate_probes");
    ("engine.occurrence_runs_per_doc", med samples "engine.occurrence_runs");
    ("engine.match_ratio", ratio "sids" "occurrence_runs");
    ("engine.backtrack_steps_per_doc", med samples "engine.backtrack_steps");
    ("engine.paths_per_doc", med samples "engine.paths");
    ( "path.distinct_share",
      float_of_int (Hashtbl.length distinct) /. Hashtbl.find totals "paths" );
    ("broker.deliveries_per_doc", med samples "broker.deliveries_per_doc");
    ("wire.bytes_out_per_doc", med samples "wire.bytes_out_per_doc");
  ]

(* Pf_service alone at the light rate, documents parsed up front as the
   server's connection thread does: submit-to-delivery latency, of which
   everything but the match is queue wait and hand-off. *)
let service_pass (w : Workload.t) (inputs : Workload.inputs) ~first ~n =
  let svc = Pf_service.create ~domains:1 ~batch:8 (Gate.shipped_filter ()) in
  let b =
    Broker.create_over
      {
        Broker.port_subscribe = Pf_service.subscribe svc;
        port_unsubscribe = Pf_service.unsubscribe svc;
        port_match = (fun d -> List.hd (Pf_service.filter_batch svc [ d ]));
        port_match_string = (fun s -> List.hd (Pf_service.filter_batch_raw svc [ s ]));
        port_engine_metrics = (fun () -> None);
      }
  in
  Array.iteri
    (fun i expr -> ignore (Broker.subscribe b ~subscriber:inputs.subscribers.(i) expr))
    inputs.exprs;
  let trees = Array.init n (fun j -> Pf_xml.Sax.parse_document inputs.docs.(first + j)) in
  let submitted = Array.make n 0 and delivered = Array.make n 0 in
  let t0 = now_ns () in
  for j = 0 to n - 1 do
    let due = Int64.add t0 (Int64.of_float (float_of_int j *. 1e9 /. w.light_rate)) in
    let wait = Int64.to_float (Int64.sub due (now_ns ())) /. 1e9 in
    if wait > 0. then Unix.sleepf wait;
    submitted.(j) <- Int64.to_int (now_ns ());
    Pf_service.submit svc trees.(j) (fun _ -> delivered.(j) <- Int64.to_int (now_ns ()))
  done;
  Pf_service.drain svc;
  let lat = Stats.samples () in
  Array.iteri (fun j s -> Stats.add lat (float_of_int (delivered.(j) - s) /. 1e3)) submitted;
  let reg = Pf_service.metrics svc in
  let c name = float_of_int (Option.value (Pf_obs.Registry.find_counter reg name) ~default:0) in
  let high_water = Option.value (Pf_obs.Registry.find_gauge reg "queue_high_water") ~default:0. in
  Pf_service.shutdown svc;
  ( Stats.quantile lat 0.5,
    [
      ("service.batched_share", c "batched_documents" /. c "documents");
      ("service.submit_waits", c "submit_waits");
      ("service.queue_high_water", high_water);
    ] )

(* Store.log on a scratch directory: apply + WAL append + fsync. *)
let store_pass (inputs : Workload.inputs) ~n samples =
  let dir = Child.fresh_dir "store" in
  let st =
    Pf_net.Store.open_store ~dir (fun () -> Broker.create ~filter:(Gate.shipped_filter ()) ())
  in
  for i = 0 to min n (Array.length inputs.exprs) - 1 do
    let cmd =
      Broker.Subscribe
        { ns = Broker.default_ns; subscriber = inputs.subscribers.(i); expr = inputs.exprs.(i) }
    in
    let t0 = now_ns () in
    ignore (Pf_net.Store.log st cmd);
    add samples "store.log_us" (us_between t0 (now_ns ()))
  done;
  Pf_net.Store.close st;
  Child.rm_rf dir

let run (w : Workload.t) (size : Workload.size) (inputs : Workload.inputs) (o : Drive.outcome)
    ~trace_out =
  let samples = Hashtbl.create 32 in
  let n = min size.traced_docs size.light in
  let counts = traced_pass w inputs ~first:o.light_first ~n ~trace_out samples in
  Gc.compact ();
  let svc_p50, svc_counts =
    service_pass w inputs ~first:o.light_first ~n:(min n size.service_docs)
  in
  Gc.compact ();
  store_pass inputs ~n:300 samples;
  let red =
    Pf_core.Subsume.redundant_indexed
      (List.map Pf_xpath.Parser.parse (Array.to_list inputs.exprs))
  in
  let dump k = Option.value (Hashtbl.find_opt o.dump k) ~default:nan in
  let subs = float_of_int o.subscribes in
  (* the service pass matches untraced, so its queue wait is what is left
     after the untraced match time; its latency already contains the match *)
  let plain_match_us = med samples "plain_match_us" in
  let light_p50_ms =
    List.find_map
      (fun (name, v, _) -> if name = "publish_p50_ms.light" then Some v else None)
      o.ungated
    |> Option.get
  in
  let layers_us =
    List.fold_left
      (fun acc name -> acc +. med samples name)
      svc_p50
      [ "wire.decode_publish_us"; "sax.parse_us"; "broker.deliveries_us";
        "wire.encode_results_us"; "wire.decode_results_us" ]
  in
  let timings =
    List.concat_map
      (fun name ->
        let s = Hashtbl.find samples name in
        [ (name, Stats.quantile s 0.5); (name ^ ".p99", Stats.quantile s 0.99) ])
      [ "engine.match_us"; "engine.predicate_stage_us"; "engine.expr_stage_us";
        "engine.collect_stage_us"; "sax.parse_us"; "path.extract_us"; "wire.decode_publish_us";
        "broker.deliveries_us"; "wire.encode_results_us"; "wire.decode_results_us";
        "store.log_us"; "broker.subscribe_us" ]
  in
  timings @ counts @ svc_counts
  @ [
      ( "subsume.physical_over_logical",
        float_of_int red.Pf_core.Subsume.red_shapes /. float_of_int red.red_exprs );
      ("service.latency_p50_us", svc_p50);
      ("service.queue_wait_p50_us", svc_p50 -. plain_match_us);
      ("broker.covers_probes_per_sub", dump "broker/covers_probes" /. subs);
      ("broker.suppressed_share", dump "broker/covering_suppressions" /. subs);
      ("unaccounted_share", 1. -. (layers_us /. 1e3 /. light_p50_ms));
      ("trace.overhead_share", (med samples "engine.match_us" /. plain_match_us) -. 1.);
      ("gen.lag_p99_ms", o.gen_lag_p99_ms);
      ("gen.backlog_end", float_of_int (fst o.backlogs));
    ]
