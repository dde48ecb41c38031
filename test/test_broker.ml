(* Tests for the dissemination broker. *)

open Pf_broker

let doc = Pf_xml.Sax.parse_document "<a><b n=\"1\"><c/></b><d/></a>"
let doc_src = "<a><b n=\"1\"><c/></b><d/></a>"

let delivery_names ds = List.map (fun d -> d.Broker.subscriber) ds

let test_basic_delivery () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  let _ = Broker.subscribe_exn b ~subscriber:"bob" "/a/x" in
  let _ = Broker.subscribe_exn b ~subscriber:"carol" "b[@n = 1]" in
  let ds = Broker.publish b doc in
  Alcotest.(check (list string)) "subscribers" [ "alice"; "carol" ] (delivery_names ds)

let test_delivery_via () =
  let b = Broker.create () in
  let s1 = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  let s2 = Broker.subscribe_exn b ~subscriber:"alice" "/a/d" in
  let _s3 = Broker.subscribe_exn b ~subscriber:"alice" "/a/x" in
  match Broker.publish b doc with
  | [ { Broker.subscriber = "alice"; via } ] ->
    Alcotest.(check int) "two matching subscriptions" 2 (List.length via);
    Alcotest.(check bool) "s1 via" true (List.memq s1 via);
    Alcotest.(check bool) "s2 via" true (List.memq s2 via)
  | _ -> Alcotest.fail "expected one delivery to alice"

let test_covering_suppression () =
  let b = Broker.create () in
  let general = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let specific = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  Alcotest.(check bool) "specific suppressed" true (Broker.is_suppressed b specific);
  Alcotest.(check bool) "general active" false (Broker.is_suppressed b general);
  let st = Broker.stats b in
  Alcotest.(check int) "one engine expression" 1 st.Broker.engine_expressions;
  Alcotest.(check int) "two subscriptions" 2 st.Broker.subscriptions;
  (* deliveries unaffected by suppression *)
  Alcotest.(check (list string)) "delivered" [ "alice" ]
    (delivery_names (Broker.publish b doc))

let test_suppression_not_across_subscribers () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let bobs = Broker.subscribe_exn b ~subscriber:"bob" "/a/b/c" in
  Alcotest.(check bool) "bob's is active" false (Broker.is_suppressed b bobs)

let test_unsubscribe_reactivates () =
  let b = Broker.create () in
  let general = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let specific = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  Alcotest.(check bool) "suppressed at first" true (Broker.is_suppressed b specific);
  Alcotest.(check bool) "unsubscribe general" true (Broker.unsubscribe b general);
  Alcotest.(check bool) "specific re-activated" false (Broker.is_suppressed b specific);
  Alcotest.(check (list string)) "still delivered via specific" [ "alice" ]
    (delivery_names (Broker.publish b doc));
  Alcotest.(check bool) "double unsubscribe" false (Broker.unsubscribe b general)

let test_reactivation_finds_other_cover () =
  let b = Broker.create () in
  let g1 = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let g2 = Broker.subscribe_exn b ~subscriber:"alice" "//c" in
  let specific = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  (* covered by g1 (insertion order); dropping g1 re-homes it under g2 *)
  Alcotest.(check bool) "g2 is itself covered by nothing... active" false
    (Broker.is_suppressed b g2);
  Alcotest.(check bool) "drop g1" true (Broker.unsubscribe b g1);
  Alcotest.(check bool) "still suppressed (g2 covers)" true (Broker.is_suppressed b specific);
  Alcotest.(check (list string)) "delivery survives" [ "alice" ]
    (delivery_names (Broker.publish b doc))

let test_duplicate_subscription_suppressed () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a/b" in
  let dup = Broker.subscribe_exn b ~subscriber:"alice" "/a/b" in
  Alcotest.(check bool) "duplicate suppressed (covering is reflexive)" true
    (Broker.is_suppressed b dup)

let test_drop_subscriber () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let _ = Broker.subscribe_exn b ~subscriber:"bob" "/a/d" in
  Alcotest.(check int) "two cancelled" 2 (Broker.drop_subscriber b "alice");
  Alcotest.(check (list string)) "only bob left" [ "bob" ]
    (delivery_names (Broker.publish b doc));
  Alcotest.(check int) "nothing to drop twice" 0 (Broker.drop_subscriber b "alice")

let test_suppression_disabled () =
  let b = Broker.create ~covering_suppression:false () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let specific = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  Alcotest.(check bool) "not suppressed" false (Broker.is_suppressed b specific);
  Alcotest.(check int) "both in the engine" 2 (Broker.stats b).Broker.engine_expressions

let test_composed_filter () =
  (* the replacement for the old config record: engine options compose
     through the filter builder, including ones the record never had *)
  let b =
    Broker.create
      ~filter:(Pf_core.Engine.filter ~stream:Pf_core.Engine.Stream ~path_cache:true ()
                 :> Pf_intf.filter)
      ()
  in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  Alcotest.(check (list string)) "streaming engine delivers" [ "alice" ]
    (delivery_names (Broker.publish_string b doc_src))

let test_stats () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  let _ = Broker.subscribe_exn b ~subscriber:"bob" "/a/d" in
  ignore (Broker.publish b doc);
  let st = Broker.stats b in
  Alcotest.(check int) "subscribers" 2 st.Broker.subscribers;
  Alcotest.(check int) "subscriptions" 3 st.Broker.subscriptions;
  Alcotest.(check int) "suppressed" 1 st.Broker.suppressed;
  Alcotest.(check int) "engine expressions" 2 st.Broker.engine_expressions;
  Alcotest.(check int) "documents" 1 st.Broker.documents_published;
  Alcotest.(check int) "deliveries" 2 st.Broker.deliveries

let test_gauges () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let sub = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  let reg = Broker.metrics b in
  let gauge name =
    match Pf_obs.Registry.find_gauge reg name with
    | Some v -> int_of_float v
    | None -> Alcotest.fail ("missing gauge " ^ name)
  in
  Alcotest.(check int) "subscriptions gauge" 2 (gauge "subscriptions");
  Alcotest.(check int) "suppressed gauge" 1 (gauge "suppressed");
  Alcotest.(check int) "engine gauge" 1 (gauge "engine_expressions");
  ignore (Broker.unsubscribe b sub);
  Alcotest.(check int) "subscriptions gauge after unsubscribe" 1 (gauge "subscriptions");
  Alcotest.(check int) "suppressed gauge after unsubscribe" 0 (gauge "suppressed")

(* {1 Result-returning variants} *)

let test_subscribe_errors () =
  let b = Broker.create () in
  (match Broker.subscribe b ~subscriber:"alice" "/a[" with
  | Error (Pf_intf.Bad_expression _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Pf_intf.error_message e)
  | Ok _ -> Alcotest.fail "bad syntax accepted");
  (match Broker.subscribe b ~subscriber:"alice" "/a/b" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid rejected: %s" (Pf_intf.error_message e));
  (* failures consume no ids: the next subscription is dense *)
  let s = Broker.subscribe_exn b ~subscriber:"alice" "/a/c" in
  Alcotest.(check int) "ids stay dense across failures" 1 (Broker.subscription_id s)

let test_unsubscribe_id () =
  let b = Broker.create () in
  let s = Broker.subscribe_exn b ~subscriber:"alice" "/a/b" in
  let id = Broker.subscription_id s in
  Alcotest.(check bool) "cancel" true (Broker.unsubscribe_id b id = Ok true);
  Alcotest.(check bool) "idempotent retry" true (Broker.unsubscribe_id b id = Ok false);
  (match Broker.unsubscribe_id b 999 with
  | Error (Pf_intf.Unknown_subscription 999) -> ()
  | _ -> Alcotest.fail "expected Unknown_subscription");
  (* an id from another tenant's namespace is unknown, not cancellable *)
  let s2 = Broker.subscribe_exn b ~ns:"tenant-a" ~subscriber:"alice" "/a/b" in
  match Broker.unsubscribe_id b ~ns:"tenant-b" (Broker.subscription_id s2) with
  | Error (Pf_intf.Unknown_subscription _) -> ()
  | _ -> Alcotest.fail "cross-tenant cancel must fail"

(* {1 Namespaces} *)

let test_namespace_isolation () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~ns:"t1" ~subscriber:"alice" "/a/b/c" in
  let _ = Broker.subscribe_exn b ~ns:"t2" ~subscriber:"alice" "/a/b/c" in
  let _ = Broker.subscribe_exn b ~ns:"t2" ~subscriber:"bob" "/a/d" in
  Alcotest.(check (list string)) "t1 sees only t1" [ "alice" ]
    (delivery_names (Broker.publish b ~ns:"t1" doc));
  Alcotest.(check (list string)) "t2 sees only t2" [ "alice"; "bob" ]
    (delivery_names (Broker.publish b ~ns:"t2" doc));
  Alcotest.(check (list string)) "default ns sees nothing" []
    (delivery_names (Broker.publish b doc));
  (* suppression never crosses namespaces even for one subscriber name *)
  let s = Broker.subscribe_exn b ~ns:"t3" ~subscriber:"alice" "/a/b/c" in
  Alcotest.(check bool) "no cross-ns suppression" false (Broker.is_suppressed b s)

(* {1 Command/event state machine} *)

let test_apply_roundtrip () =
  let b = Broker.create () in
  let ev c = Broker.apply b c in
  (match ev (Broker.Subscribe { ns = ""; subscriber = "alice"; expr = "/a//c" }) with
  | [ Broker.Subscribed { id = 0; suppressed = false } ] -> ()
  | _ -> Alcotest.fail "subscribe event");
  (match ev (Broker.Subscribe { ns = ""; subscriber = "alice"; expr = "/a/b/c" }) with
  | [ Broker.Subscribed { id = 1; suppressed = true } ] -> ()
  | _ -> Alcotest.fail "suppressed subscribe event");
  (match ev (Broker.Publish { ns = ""; doc = doc_src }) with
  | [ Broker.Delivered { deliveries = [ ("alice", [ 0 ]) ] } ] -> ()
  | _ -> Alcotest.fail "publish event");
  (match ev (Broker.Subscribe { ns = ""; subscriber = "alice"; expr = "/a[" }) with
  | [ Broker.Failed { error = Pf_intf.Bad_expression _ } ] -> ()
  | _ -> Alcotest.fail "failed subscribe event");
  (match ev (Broker.Publish { ns = ""; doc = "<broken" }) with
  | [ Broker.Failed { error = Pf_intf.Bad_document _ } ] -> ()
  | _ -> Alcotest.fail "failed publish event");
  (match ev (Broker.Unsubscribe { ns = ""; id = 0 }) with
  | [ Broker.Unsubscribed { id = 0; existed = true } ] -> ()
  | _ -> Alcotest.fail "unsubscribe event");
  match ev (Broker.Drop_subscriber { ns = ""; subscriber = "alice" }) with
  | [ Broker.Dropped { count = 1 } ] -> ()
  | _ -> Alcotest.fail "drop event"

let test_replay_determinism () =
  let cmds =
    [
      Broker.Subscribe { ns = ""; subscriber = "alice"; expr = "/a//c" };
      Broker.Subscribe { ns = ""; subscriber = "alice"; expr = "/a/b/c" };
      Broker.Subscribe { ns = "t"; subscriber = "bob"; expr = "/a/d" };
      Broker.Subscribe { ns = ""; subscriber = "carol"; expr = "bad[" };
      Broker.Unsubscribe { ns = ""; id = 0 };
      Broker.Subscribe { ns = ""; subscriber = "carol"; expr = "/a/d" };
      Broker.Publish { ns = ""; doc = doc_src };
      Broker.Publish { ns = "t"; doc = doc_src };
    ]
  in
  let run () =
    let b = Broker.create () in
    List.concat_map (Broker.apply b) cmds
  in
  Alcotest.(check bool) "same command stream, same events" true (run () = run ())

let test_snapshot_roundtrip () =
  let b = Broker.create () in
  let _ = Broker.subscribe_exn b ~subscriber:"alice" "/a//c" in
  let s = Broker.subscribe_exn b ~subscriber:"alice" "/a/b/c" in
  let _ = Broker.subscribe_exn b ~ns:"t2" ~subscriber:"bob" "/a/d" in
  ignore (Broker.unsubscribe_id b (Broker.subscription_id s));
  let s2 = Broker.subscribe_exn b ~subscriber:"carol" "/a/d" in
  let snap = Broker.snapshot b in
  let b2 = Broker.create () in
  Broker.load_snapshot b2 snap;
  Alcotest.(check bool) "deliveries identical" true
    (delivery_names (Broker.publish b doc) = delivery_names (Broker.publish b2 doc));
  Alcotest.(check bool) "t2 deliveries identical" true
    (delivery_names (Broker.publish b ~ns:"t2" doc)
    = delivery_names (Broker.publish b2 ~ns:"t2" doc));
  (* ids continue from where the snapshot left off *)
  let s3 = Broker.subscribe_exn b2 ~subscriber:"dave" "/a/b" in
  Alcotest.(check int) "next id preserved" (Broker.subscription_id s2 + 1)
    (Broker.subscription_id s3)

(* property: suppression never changes the set of delivered subscribers *)
let prop_suppression_transparent =
  QCheck2.Test.make ~name:"covering suppression is delivery-transparent" ~count:200
    ~print:(fun (paths, d) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ Gen_helpers.doc_print d)
    QCheck2.Gen.(
      pair (list_size (int_range 1 10) Gen_helpers.single_path_gen) Gen_helpers.doc_gen)
    (fun (paths, d) ->
      let run suppression =
        let b = Broker.create ~covering_suppression:suppression () in
        (* two subscribers sharing the workload halves *)
        List.iteri
          (fun i p ->
            ignore
              (Broker.subscribe_path_exn b
                 ~subscriber:(if i mod 2 = 0 then "even" else "odd")
                 p))
          paths;
        List.map (fun dl -> dl.Broker.subscriber) (Broker.publish b d)
      in
      run true = run false)

(* property: unsubscribing and resubscribing is delivery-equivalent *)
let prop_churn_consistent =
  QCheck2.Test.make ~name:"unsubscribe all = empty deliveries" ~count:200
    ~print:(fun (paths, d) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ Gen_helpers.doc_print d)
    QCheck2.Gen.(
      pair (list_size (int_range 1 8) Gen_helpers.single_path_gen) Gen_helpers.doc_gen)
    (fun (paths, d) ->
      let b = Broker.create () in
      let subs =
        List.map (fun p -> Broker.subscribe_path_exn b ~subscriber:"s" p) paths
      in
      let before = Broker.publish b d <> [] in
      List.iter (fun s -> ignore (Broker.unsubscribe b s)) subs;
      let after = Broker.publish b d in
      (* after cancelling everything nothing is delivered, regardless of
         what was delivered before *)
      after = [] && (before || true))

(* property: a snapshot of any subscribe/unsubscribe history restores a
   broker with identical deliveries *)
let prop_snapshot_faithful =
  QCheck2.Test.make ~name:"snapshot/load preserves deliveries" ~count:100
    ~print:(fun (paths, d) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ Gen_helpers.doc_print d)
    QCheck2.Gen.(
      pair (list_size (int_range 1 10) Gen_helpers.single_path_gen) Gen_helpers.doc_gen)
    (fun (paths, d) ->
      let b = Broker.create () in
      List.iteri
        (fun i p ->
          let s =
            Broker.subscribe_path_exn b
              ~subscriber:(if i mod 2 = 0 then "even" else "odd")
              p
          in
          (* cancel every third to exercise suppressed/re-homed states *)
          if i mod 3 = 2 then ignore (Broker.unsubscribe b s))
        paths;
      let b2 = Broker.create () in
      Broker.load_snapshot b2 (Broker.snapshot b);
      let shape ds =
        List.map
          (fun dl ->
            (dl.Broker.subscriber, List.map Broker.subscription_id dl.Broker.via))
          ds
      in
      shape (Broker.publish b d) = shape (Broker.publish b2 d))

(* property: delivery resolution is the historical per-subscriber table
   grouping. The broker runs over a recording port so every engine sid
   it hands out — including the fresh sids of subscriptions re-activated
   when their cover leaves — is known; [reference] is that grouping,
   copied here over (ns, subscriber, uid) records. *)
type sub_op =
  | Sub of int * int * Pf_xpath.Ast.path  (* namespace, subscriber, expression *)
  | Unsub of int  (* index into the subscriptions made so far *)

let reference by_sid ~ns sids =
  let per_subscriber : (string, (string * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sid ->
      match Hashtbl.find_opt by_sid sid with
      | Some (sns, subscriber, uid) when sns = ns -> (
        match Hashtbl.find_opt per_subscriber subscriber with
        | Some l -> l := (subscriber, uid) :: !l
        | None -> Hashtbl.add per_subscriber subscriber (ref [ subscriber, uid ]))
      | Some _ | None -> ())
    sids;
  Hashtbl.fold
    (fun subscriber via acc ->
      (subscriber, List.sort (fun (_, u1) (_, u2) -> compare u1 u2) !via) :: acc)
    per_subscriber []
  |> List.sort (fun (s1, _) (s2, _) -> String.compare s1 s2)
  |> List.map (fun (s, via) -> s, List.map snd via)

let prop_resolution_matches_reference =
  let namespaces = [| ""; "tenant" |] and subscribers = [| "ann"; "bob"; "cy" |] in
  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun n s p -> Sub (n, s, p))
              (int_range 0 1) (int_range 0 2) Gen_helpers.single_path_gen );
          1, map (fun i -> Unsub i) (int_range 0 31);
        ])
  in
  QCheck2.Test.make ~name:"delivery resolution = per-subscriber grouping" ~count:300
    ~print:(fun (ops, _) ->
      String.concat " ; "
        (List.map
           (function
             | Sub (n, s, p) ->
               Printf.sprintf "%s/%s:%s" namespaces.(n) subscribers.(s)
                 (Gen_helpers.path_print p)
             | Unsub i -> "-" ^ string_of_int i)
           ops))
    QCheck2.Gen.(pair (list_size (int_range 1 30) op_gen) (list_size (int_range 0 40) bool))
    (fun (ops, picks) ->
      (* every engine registration, newest first: (sid, the expression) *)
      let issued = ref [] in
      let port =
        {
          Broker.port_subscribe =
            (fun e ->
              let sid = List.length !issued in
              issued := (sid, e) :: !issued;
              sid);
          port_unsubscribe = (fun _ -> true);
          port_match = (fun _ -> []);
          port_match_string = (fun _ -> []);
          port_engine_metrics = (fun () -> None);
        }
      in
      let b = Broker.create_over port in
      let subs = ref [||] in
      List.iter
        (function
          | Sub (n, s, p) ->
            (* a private copy of the expression, so a registration is
               traced back to its subscription by physical identity *)
            let p = Pf_xpath.Parser.parse (Pf_xpath.Parser.to_string p) in
            let sub =
              Broker.subscribe_path_exn b ~ns:namespaces.(n) ~subscriber:subscribers.(s) p
            in
            subs := Array.append !subs [| sub |]
          | Unsub i ->
            if Array.length !subs > 0 then
              ignore (Broker.unsubscribe b !subs.(i mod Array.length !subs) : bool))
        ops;
      let by_sid = Hashtbl.create 16 in
      List.iter
        (fun (sid, e) ->
          Array.iter
            (fun sub ->
              if Broker.expression_of sub == e then
                Hashtbl.replace by_sid sid
                  (Broker.ns_of sub, Broker.subscriber_of sub, Broker.subscription_id sub))
            !subs)
        !issued;
      (* a sorted sample of the issued sids [0 .. n-1] and of [n], which
         no registration returned *)
      let n = List.length !issued in
      let sids =
        List.filter (fun sid -> List.nth_opt picks sid = Some true) (List.init (n + 1) Fun.id)
      in
      Array.for_all
        (fun ns -> Broker.deliveries_of_sids b ~ns sids = reference by_sid ~ns sids)
        namespaces)

let () =
  Alcotest.run "broker"
    [
      ( "unit",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "delivery via" `Quick test_delivery_via;
          Alcotest.test_case "covering suppression" `Quick test_covering_suppression;
          Alcotest.test_case "no cross-subscriber suppression" `Quick
            test_suppression_not_across_subscribers;
          Alcotest.test_case "unsubscribe reactivates" `Quick test_unsubscribe_reactivates;
          Alcotest.test_case "reactivation finds another cover" `Quick
            test_reactivation_finds_other_cover;
          Alcotest.test_case "duplicates suppressed" `Quick test_duplicate_subscription_suppressed;
          Alcotest.test_case "drop subscriber" `Quick test_drop_subscriber;
          Alcotest.test_case "suppression disabled" `Quick test_suppression_disabled;
          Alcotest.test_case "composed filter" `Quick test_composed_filter;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "subscribe errors" `Quick test_subscribe_errors;
          Alcotest.test_case "unsubscribe by id" `Quick test_unsubscribe_id;
          Alcotest.test_case "namespace isolation" `Quick test_namespace_isolation;
          Alcotest.test_case "apply round-trip" `Quick test_apply_roundtrip;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [
            prop_suppression_transparent;
            prop_churn_consistent;
            prop_snapshot_faithful;
            prop_resolution_matches_reference;
          ] );
    ]
