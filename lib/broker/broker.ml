(* The dissemination broker as a transport-agnostic command/event state
   machine (see the mli): subscriber bookkeeping, multi-tenant namespaces
   and covering suppression over any Pf_intf.FILTER, reached through a
   small [port] record so an in-process engine and a domain-parallel
   service plug in the same way.

   Two invariants the networked front-end leans on:

   - [by_sid] is append-only: a cancelled subscription stays resolvable,
     so sids reported by a pipeline the document entered before the
     cancellation still map to deliveries (epoch ordering decided the
     match; the broker only translates it);
   - subscription ids ([uid]) are dense, never reused, and assigned only
     on success — replaying the same command sequence into a fresh broker
     reproduces them exactly, which is what makes the write-ahead log a
     faithful serialization of the state machine. *)

open Pf_xpath

let src = Pf_obs.Events.src "broker" ~doc:"Selective-dissemination broker"

module Log = (val Logs.src_log src : Logs.LOG)

let default_ns = ""

module Probe = Pf_core.Subsume.Probe

type state =
  | Active of int  (* engine sid *)
  | Suppressed of int  (* uid of the covering subscription *)
  | Cancelled

type subscription = {
  uid : int;
  ns : string;
  subscriber : string;
  expr : Ast.path;
  mutable state : state;
}

type port = {
  port_subscribe : Ast.path -> int;
  port_unsubscribe : int -> bool;
  port_match : Pf_xml.Tree.t -> int list;
  port_match_string : string -> int list;
  port_engine_metrics : unit -> Pf_obs.Registry.t option;
}

let port_of_filter (module F : Pf_intf.FILTER) =
  let e = F.create () in
  {
    port_subscribe = F.add e;
    port_unsubscribe = F.remove e;
    port_match = F.match_document e;
    port_match_string = F.match_string e;
    port_engine_metrics = (fun () -> Some (F.metrics e));
  }

type metrics = {
  registry : Pf_obs.Registry.t;
  documents : Pf_obs.Counter.t;
  deliveries : Pf_obs.Counter.t;
  suppressions : Pf_obs.Counter.t;
  covers_probes : Pf_obs.Counter.t;
  promotions : Pf_obs.Counter.t;
  subscriptions_g : Pf_obs.Gauge.t;
  suppressed_g : Pf_obs.Gauge.t;
  engine_exprs_g : Pf_obs.Gauge.t;
}

let make_metrics () =
  let registry = Pf_obs.Registry.create "broker" in
  {
    registry;
    documents =
      Pf_obs.Counter.make ~registry "documents_published" ~help:"documents published";
    deliveries =
      Pf_obs.Counter.make ~registry "deliveries" ~help:"per-subscriber deliveries";
    suppressions =
      Pf_obs.Counter.make ~registry "covering_suppressions"
        ~help:"subscriptions suppressed by a covering subscription at subscribe time";
    covers_probes =
      Pf_obs.Counter.make ~registry "covers_probes"
        ~help:"containment tests made by covering-suppression probes";
    promotions =
      Pf_obs.Counter.make ~registry "promotions"
        ~help:"suppressed subscriptions re-activated after their cover left";
    (* populations add up across broker shards: Sum, not the gauge
       default Max (which is for high-water marks) *)
    subscriptions_g =
      Pf_obs.Gauge.make ~registry "subscriptions" ~merge:Pf_obs.Gauge.Sum
        ~help:"live subscriptions (active + suppressed)";
    suppressed_g =
      Pf_obs.Gauge.make ~registry "suppressed" ~merge:Pf_obs.Gauge.Sum
        ~help:"live subscriptions suppressed by a covering subscription";
    engine_exprs_g =
      Pf_obs.Gauge.make ~registry "engine_expressions" ~merge:Pf_obs.Gauge.Sum
        ~help:"expressions registered in the engine (live subscriptions minus suppressed)";
  }

type t = {
  covering_suppression : bool;
  port : port;
  lock : Mutex.t;
  by_sid : (int, subscription) Hashtbl.t;  (* append-only *)
  by_uid : (int, subscription) Hashtbl.t;
  by_subscriber : (string * string, subscription list ref) Hashtbl.t;  (* (ns, name) *)
  (* shape-bucket candidate index per (ns, subscriber): holds exactly the
     active single-path subscriptions, so find_cover probes the
     expression's tag buckets instead of scanning every subscription *)
  probes : (string * string, subscription Probe.t) Hashtbl.t;
  mutable next_uid : int;
  mutable active_count : int;
  mutable suppressed_count : int;
  m : metrics;
}

let default_filter () = (Pf_core.Engine.filter () :> Pf_intf.filter)

let create_over ?(covering_suppression = true) port =
  {
    covering_suppression;
    port;
    lock = Mutex.create ();
    by_sid = Hashtbl.create 1024;
    by_uid = Hashtbl.create 1024;
    by_subscriber = Hashtbl.create 64;
    probes = Hashtbl.create 64;
    next_uid = 0;
    active_count = 0;
    suppressed_count = 0;
    m = make_metrics ();
  }

let create ?filter ?covering_suppression () =
  let filter = match filter with Some f -> f | None -> default_filter () in
  create_over ?covering_suppression (port_of_filter filter)

let metrics t = t.m.registry

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_gauges t =
  Pf_obs.Gauge.set t.m.subscriptions_g
    (float_of_int (t.active_count + t.suppressed_count));
  Pf_obs.Gauge.set t.m.suppressed_g (float_of_int t.suppressed_count);
  Pf_obs.Gauge.set t.m.engine_exprs_g (float_of_int t.active_count)

let subscription_id sub = sub.uid
let subscriber_of sub = sub.subscriber
let ns_of sub = sub.ns
let expression_of sub = sub.expr

let is_suppressed _t sub =
  match sub.state with Suppressed _ -> true | Active _ | Cancelled -> false

let subscriber_subs t ~ns subscriber =
  match Hashtbl.find_opt t.by_subscriber (ns, subscriber) with
  | Some l -> !l
  | None -> []

let probe_key sub = sub.ns, sub.subscriber

let probe_add (t : t) sub =
  if t.covering_suppression && Ast.is_single_path sub.expr then begin
    let probe =
      match Hashtbl.find_opt t.probes (probe_key sub) with
      | Some p -> p
      | None ->
        let p = Probe.create () in
        Hashtbl.add t.probes (probe_key sub) p;
        p
    in
    Probe.add probe sub.expr ~key:sub.uid sub
  end

let probe_remove (t : t) sub =
  if t.covering_suppression && Ast.is_single_path sub.expr then
    match Hashtbl.find_opt t.probes (probe_key sub) with
    | Some probe -> Probe.remove probe sub.expr ~key:sub.uid
    | None -> ()

(* An active single-path subscription of the same (namespace, subscriber)
   that covers [expr] makes it redundant: it can never add a delivery.
   Candidates come from the shape-bucket probe, uncapped and complete, so
   the suppression decision — and the chosen cover: the newest (largest
   uid) covering subscription, as the former newest-first linear scan
   picked — is identical; only the cost drops from every live
   subscription to the expression's tag buckets. Replayed command logs
   therefore reproduce the same suppression graph. *)
let find_cover (t : t) ~ns ~subscriber (expr : Ast.path) =
  if (not t.covering_suppression) || not (Ast.is_single_path expr) then None
  else
    match Hashtbl.find_opt t.probes (ns, subscriber) with
    | None -> None
    | Some probe ->
      let best = ref None in
      Probe.iter_candidates probe expr (fun uid sub ->
          if
            (match !best with Some b -> uid > b.uid | None -> true)
            && match sub.state with
               | Active _ -> true
               | Suppressed _ | Cancelled -> false
          then begin
            Pf_obs.Counter.incr t.m.covers_probes;
            if Pf_core.Containment.covers sub.expr expr then best := Some sub
          end);
      !best

(* ------------------------------------------------------------------ *)
(* Internal transitions (caller holds the lock). *)

let enroll t sub =
  Hashtbl.add t.by_uid sub.uid sub;
  match Hashtbl.find_opt t.by_subscriber (sub.ns, sub.subscriber) with
  | Some l -> l := sub :: !l
  | None -> Hashtbl.add t.by_subscriber (sub.ns, sub.subscriber) (ref [ sub ])

(* Register in the engine. Called both for fresh subscriptions and when a
   cancelled cover re-homes its dependents. *)
let activate t sub =
  let sid = t.port.port_subscribe sub.expr in
  sub.state <- Active sid;
  t.active_count <- t.active_count + 1;
  Hashtbl.replace t.by_sid sid sub;
  probe_add t sub

(* Raises Pf_intf.Unsupported when the engine rejects the expression; the
   broker is left unchanged and no uid is consumed (covering check and
   engine registration both precede the uid allocation). *)
let subscribe_in t ~ns ~subscriber (expr : Ast.path) =
  match find_cover t ~ns ~subscriber expr with
  | Some cover ->
    let sub = { uid = t.next_uid; ns; subscriber; expr; state = Suppressed cover.uid } in
    t.next_uid <- t.next_uid + 1;
    t.suppressed_count <- t.suppressed_count + 1;
    Pf_obs.Counter.incr t.m.suppressions;
    Log.debug (fun m ->
        m "subscription %d of %s suppressed by covering subscription %d" sub.uid
          subscriber cover.uid);
    enroll t sub;
    set_gauges t;
    sub
  | None ->
    let sub = { uid = t.next_uid; ns; subscriber; expr; state = Cancelled } in
    activate t sub;
    (* uid consumed only after the engine accepted the expression *)
    t.next_uid <- t.next_uid + 1;
    Log.debug (fun m -> m "subscription %d of %s active" sub.uid subscriber);
    enroll t sub;
    set_gauges t;
    sub

let deactivate t sub =
  (match sub.state with
  | Active sid ->
    ignore (t.port.port_unsubscribe sid : bool);
    t.active_count <- t.active_count - 1;
    probe_remove t sub
    (* by_sid keeps the entry: in-flight documents may still report it *)
  | Suppressed _ -> t.suppressed_count <- t.suppressed_count - 1
  | Cancelled -> ());
  sub.state <- Cancelled

let unsubscribe_in t sub =
  match sub.state with
  | Cancelled -> false
  | Suppressed _ ->
    deactivate t sub;
    set_gauges t;
    true
  | Active _ ->
    let uid = sub.uid in
    deactivate t sub;
    (* re-home the subscriptions this one was suppressing: another active
       subscription may still cover them, otherwise they enter the engine *)
    List.iter
      (fun dependent ->
        match dependent.state with
        | Suppressed cover_uid when cover_uid = uid -> (
          match
            find_cover t ~ns:dependent.ns ~subscriber:dependent.subscriber dependent.expr
          with
          | Some cover -> dependent.state <- Suppressed cover.uid
          | None -> (
            t.suppressed_count <- t.suppressed_count - 1;
            try
              activate t dependent;
              Pf_obs.Counter.incr t.m.promotions
            with Pf_intf.Unsupported msg ->
              (* only reachable with an engine whose subset is narrower
                 than the containment checker's (never the default
                 engine): the dependent cannot be registered, so it is
                 cancelled rather than silently kept *)
              dependent.state <- Cancelled;
              Log.warn (fun m ->
                  m "subscription %d could not re-activate (%s); cancelled"
                    dependent.uid msg)))
        | Suppressed _ | Active _ | Cancelled -> ())
      (subscriber_subs t ~ns:sub.ns sub.subscriber);
    set_gauges t;
    true

let unsubscribe_id_in t ~ns id =
  match Hashtbl.find_opt t.by_uid id with
  | Some sub when sub.ns = ns -> Ok (unsubscribe_in t sub)
  | Some _ | None -> Error (Pf_intf.Unknown_subscription id)

let drop_subscriber_in t ~ns subscriber =
  let subs = subscriber_subs t ~ns subscriber in
  let n =
    List.fold_left
      (fun acc sub ->
        match sub.state with
        | Cancelled -> acc
        | Active _ | Suppressed _ ->
          (* no re-homing: a cover's dependents belong to the same
             (namespace, subscriber) and are dropped in this same pass *)
          deactivate t sub;
          acc + 1)
      0 subs
  in
  Hashtbl.remove t.by_subscriber (ns, subscriber);
  Hashtbl.remove t.probes (ns, subscriber);
  set_gauges t;
  n

(* ------------------------------------------------------------------ *)
(* Delivery resolution *)

(* Group matching sids into per-subscriber deliveries within [ns]. [sids]
   arrive sorted; via-lists are sorted by uid because re-activated
   subscriptions hold fresh sids (sid order /= uid order), and uids are
   the identity that survives recovery. The matched subscriptions go into
   one array sorted by (subscriber, uid), which is then cut into one run
   per subscriber — no per-document table, no sort per subscriber. *)
(* The subscriptions behind [sids] in namespace [ns]: the only step of
   delivery resolution that reads mutable broker state. *)
let lookup_in t ~ns sids =
  Array.of_list
    (List.filter_map
       (fun sid ->
         match Hashtbl.find_opt t.by_sid sid with
         | Some sub when String.equal sub.ns ns -> Some sub
         | Some _ | None -> None)
       sids)

(* Group looked-up subscriptions by subscriber, in subscriber order, each
   group in uid order. Reads only immutable fields, so it needs no lock. *)
let group subs =
  Array.sort
    (fun s1 s2 ->
      let c = String.compare s1.subscriber s2.subscriber in
      if c <> 0 then c else Int.compare s1.uid s2.uid)
    subs;
  (* cut from the back so each run's list comes out in uid order *)
  let rec runs i acc =
    if i < 0 then acc
    else begin
      let subscriber = subs.(i).subscriber in
      let rec run j via =
        if j >= 0 && String.equal subs.(j).subscriber subscriber then
          run (j - 1) (subs.(j) :: via)
        else j, via
      in
      let j, via = run i [] in
      runs j ((subscriber, via) :: acc)
    end
  in
  runs (Array.length subs - 1) []

type delivery = {
  subscriber : string;
  via : subscription list;
}

let publish_sids_in t ~ns sids =
  Pf_obs.Counter.incr t.m.documents;
  let deliveries =
    List.map (fun (subscriber, via) -> { subscriber; via }) (group (lookup_in t ~ns sids))
  in
  Pf_obs.Counter.add t.m.deliveries (List.length deliveries);
  Log.debug (fun m ->
      m "published document: %d matching sids, %d deliveries" (List.length sids)
        (List.length deliveries));
  deliveries

(* ------------------------------------------------------------------ *)
(* Public operations *)

let subscribe_path_exn t ?(ns = default_ns) ~subscriber expr =
  with_lock t (fun () -> subscribe_in t ~ns ~subscriber expr)

let subscribe_exn t ?ns ~subscriber expr =
  subscribe_path_exn t ?ns ~subscriber (Parser.parse expr)

let subscribe_path t ?(ns = default_ns) ~subscriber expr =
  with_lock t (fun () ->
      match subscribe_in t ~ns ~subscriber expr with
      | sub -> Ok sub
      | exception Pf_intf.Unsupported msg -> Error (Pf_intf.Unsupported_expression msg))

let subscribe t ?ns ~subscriber expr =
  match Parser.parse expr with
  | exception Parser.Error msg -> Error (Pf_intf.Bad_expression msg)
  | path -> subscribe_path t ?ns ~subscriber path

let unsubscribe t sub = with_lock t (fun () -> unsubscribe_in t sub)

let unsubscribe_id t ?(ns = default_ns) id =
  with_lock t (fun () -> unsubscribe_id_in t ~ns id)

let drop_subscriber t ?(ns = default_ns) subscriber =
  with_lock t (fun () -> drop_subscriber_in t ~ns subscriber)

let find_subscription t ?(ns = default_ns) id =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.by_uid id with
      | Some sub when sub.ns = ns -> Some sub
      | Some _ | None -> None)

let publish t ?(ns = default_ns) doc =
  (* the match runs under the broker lock: the synchronous in-process
     path serializes publishes against mutations by construction (the
     wire server pipelines through Pf_service instead and only takes
     this lock to resolve sids) *)
  with_lock t (fun () -> publish_sids_in t ~ns (t.port.port_match doc))

let publish_string t ?(ns = default_ns) src =
  with_lock t (fun () -> publish_sids_in t ~ns (t.port.port_match_string src))

let deliveries_of_sids t ~ns sids =
  (* only the lookup holds the lock: mutations contend with it at the
     publish rate *)
  let subs = with_lock t (fun () -> lookup_in t ~ns sids) in
  List.map (fun (s, via) -> s, List.map (fun sub -> sub.uid) via) (group subs)

let count_publish t ~deliveries =
  Pf_obs.Counter.incr t.m.documents;
  Pf_obs.Counter.add t.m.deliveries deliveries

(* ------------------------------------------------------------------ *)
(* Command/event state machine *)

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
  | Failed of { error : Pf_intf.error }

let is_mutation = function
  | Subscribe _ | Unsubscribe _ | Drop_subscriber _ -> true
  | Publish _ -> false

let apply t command =
  with_lock t (fun () ->
      match command with
      | Subscribe { ns; subscriber; expr } -> (
        match Parser.parse expr with
        | exception Parser.Error msg -> [ Failed { error = Pf_intf.Bad_expression msg } ]
        | path -> (
          match subscribe_in t ~ns ~subscriber path with
          | sub ->
            [ Subscribed { id = sub.uid; suppressed = is_suppressed t sub } ]
          | exception Pf_intf.Unsupported msg ->
            [ Failed { error = Pf_intf.Unsupported_expression msg } ]))
      | Unsubscribe { ns; id } -> (
        match unsubscribe_id_in t ~ns id with
        | Ok existed -> [ Unsubscribed { id; existed } ]
        | Error error -> [ Failed { error } ])
      | Drop_subscriber { ns; subscriber } ->
        [ Dropped { count = drop_subscriber_in t ~ns subscriber } ]
      | Publish { ns; doc } -> (
        match t.port.port_match_string doc with
        | exception Pf_xml.Sax.Parse_error (pos, msg) ->
          [ Failed
              {
                error =
                  Pf_intf.Bad_document
                    (Format.asprintf "%s (%a)" msg Pf_xml.Sax.pp_position pos);
              };
          ]
        | sids ->
          let deliveries = publish_sids_in t ~ns sids in
          [ Delivered
              {
                deliveries =
                  List.map
                    (fun d -> d.subscriber, List.map (fun s -> s.uid) d.via)
                    deliveries;
              };
          ]))

let pp_command fmt = function
  | Subscribe { ns; subscriber; expr } ->
    Format.fprintf fmt "subscribe[%s] %s: %s" ns subscriber expr
  | Unsubscribe { ns; id } -> Format.fprintf fmt "unsubscribe[%s] #%d" ns id
  | Drop_subscriber { ns; subscriber } -> Format.fprintf fmt "drop[%s] %s" ns subscriber
  | Publish { ns; doc } -> Format.fprintf fmt "publish[%s] (%d bytes)" ns (String.length doc)

let pp_event fmt = function
  | Subscribed { id; suppressed } ->
    Format.fprintf fmt "subscribed #%d%s" id (if suppressed then " (suppressed)" else "")
  | Unsubscribed { id; existed } ->
    Format.fprintf fmt "unsubscribed #%d%s" id (if existed then "" else " (already)")
  | Dropped { count } -> Format.fprintf fmt "dropped %d" count
  | Delivered { deliveries } -> Format.fprintf fmt "delivered to %d" (List.length deliveries)
  | Failed { error } -> Format.fprintf fmt "failed: %s" (Pf_intf.error_message error)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type sub_record = {
  sr_id : int;
  sr_ns : string;
  sr_subscriber : string;
  sr_expr : string;
  sr_suppressed_by : int option;
}

type snapshot = {
  snap_next_id : int;
  snap_subs : sub_record list;
}

let snapshot t =
  with_lock t (fun () ->
      let subs =
        Hashtbl.fold
          (fun _ sub acc ->
            match sub.state with
            | Cancelled -> acc
            | Active _ ->
              {
                sr_id = sub.uid;
                sr_ns = sub.ns;
                sr_subscriber = sub.subscriber;
                sr_expr = Parser.to_string sub.expr;
                sr_suppressed_by = None;
              }
              :: acc
            | Suppressed cover ->
              {
                sr_id = sub.uid;
                sr_ns = sub.ns;
                sr_subscriber = sub.subscriber;
                sr_expr = Parser.to_string sub.expr;
                sr_suppressed_by = Some cover;
              }
              :: acc)
          t.by_uid []
        |> List.sort (fun a b -> compare a.sr_id b.sr_id)
      in
      { snap_next_id = t.next_uid; snap_subs = subs })

let load_snapshot t snap =
  with_lock t (fun () ->
      if t.next_uid <> 0 || Hashtbl.length t.by_uid <> 0 then
        invalid_arg "Broker.load_snapshot: broker is not fresh";
      List.iter
        (fun sr ->
          if sr.sr_id < 0 || sr.sr_id >= snap.snap_next_id then
            invalid_arg
              (Printf.sprintf "Broker.load_snapshot: subscription id %d out of range"
                 sr.sr_id);
          let expr =
            match Parser.parse sr.sr_expr with
            | exception Parser.Error msg ->
              invalid_arg
                (Printf.sprintf "Broker.load_snapshot: unparsable expression %S: %s"
                   sr.sr_expr msg)
            | p -> p
          in
          let sub =
            { uid = sr.sr_id; ns = sr.sr_ns; subscriber = sr.sr_subscriber; expr;
              state = Cancelled }
          in
          (match sr.sr_suppressed_by with
          | None -> (
            try activate t sub
            with Pf_intf.Unsupported msg ->
              invalid_arg
                (Printf.sprintf
                   "Broker.load_snapshot: engine rejected %S (%s) — snapshot taken \
                    with a wider engine?"
                   sr.sr_expr msg))
          | Some cover ->
            (match Hashtbl.find_opt t.by_uid cover with
            | Some c
              when c.ns = sr.sr_ns
                   && c.subscriber = sr.sr_subscriber
                   && (match c.state with Active _ -> true | _ -> false) ->
              ()
            | _ ->
              invalid_arg
                (Printf.sprintf
                   "Broker.load_snapshot: subscription %d suppressed by %d, which is \
                    not an earlier active subscription of the same subscriber"
                   sr.sr_id cover));
            sub.state <- Suppressed cover;
            t.suppressed_count <- t.suppressed_count + 1);
          enroll t sub)
        snap.snap_subs;
      t.next_uid <- snap.snap_next_id;
      set_gauges t;
      Log.debug (fun m ->
          m "loaded snapshot: %d subscriptions, next id %d" (List.length snap.snap_subs)
            snap.snap_next_id))

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stats = {
  subscribers : int;
  subscriptions : int;
  suppressed : int;
  engine_expressions : int;
  distinct_predicates : int;
  documents_published : int;
  deliveries : int;
}

let stats t =
  with_lock t (fun () ->
      let subscribers = ref 0 in
      Hashtbl.iter
        (fun _ subs ->
          if
            List.exists
              (fun s ->
                match s.state with Cancelled -> false | Active _ | Suppressed _ -> true)
              !subs
          then incr subscribers)
        t.by_subscriber;
      let distinct_predicates =
        match t.port.port_engine_metrics () with
        | None -> 0
        | Some reg -> (
          match Pf_obs.Registry.find_gauge reg "distinct_predicates" with
          | Some v -> int_of_float v
          | None -> 0)
      in
      {
        subscribers = !subscribers;
        subscriptions = t.active_count + t.suppressed_count;
        suppressed = t.suppressed_count;
        engine_expressions = t.active_count;
        distinct_predicates;
        documents_published = Pf_obs.Counter.get t.m.documents;
        deliveries = Pf_obs.Counter.get t.m.deliveries;
      })

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>subscribers: %d@,subscriptions: %d (%d suppressed by covering)@,\
     engine expressions: %d@,distinct predicates: %d@,documents published: %d@,\
     deliveries: %d@]"
    s.subscribers s.subscriptions s.suppressed s.engine_expressions s.distinct_predicates
    s.documents_published s.deliveries
