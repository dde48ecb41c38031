(* Pf_service: the domain-parallel service must be observationally identical
   to a sequential engine fed the same operation order — for any number of
   domains and any interleaving of subscribe/unsubscribe/submit. The QCheck
   property below drives exactly that comparison; the unit tests cover the
   lifecycle edges (backpressure under shutdown, post-shutdown rejection,
   metric totals). *)

open QCheck2
module FG = Pf_difftest.Feature_gen
module Service = Pf_service

(* ------------------------------------------------------------------ *)
(* Operation sequences: the service's whole API surface, interleaved *)

type op =
  | Subscribe of Pf_xpath.Ast.path
  | Unsubscribe of int  (* index into the sids accepted so far, mod count *)
  | Submit of Pf_xml.Tree.t

let op_gen =
  let open Gen in
  frequency
    [
      (2, FG.path_gen FG.all_features >|= fun p -> Subscribe p);
      (1, int_range 0 20 >|= fun k -> Unsubscribe k);
      (4, FG.doc_gen FG.all_features >|= fun d -> Submit d);
    ]

let ops_gen = Gen.list_size (Gen.int_range 5 30) op_gen

let op_print = function
  | Subscribe p -> "subscribe " ^ FG.path_print p
  | Unsubscribe k -> Printf.sprintf "unsubscribe #%d" k
  | Submit d -> "submit " ^ FG.doc_print d

let ops_print ops = String.concat "\n" (List.map op_print ops)

(* Both runners pick the unsubscribe target the same way: k indexes the
   accepted sids, newest first. *)
let pick sids n k = List.nth sids (k mod n)

let run_sequential ops =
  let module E = Pf_core.Engine in
  let eng = E.create () in
  let sids = ref [] and n = ref 0 in
  let results = ref [] in
  List.iter
    (function
      | Subscribe p ->
        sids := E.add eng p :: !sids;
        incr n
      | Unsubscribe k -> if !n > 0 then ignore (E.remove eng (pick !sids !n k))
      | Submit doc -> results := E.match_document eng doc :: !results)
    ops;
  List.rev !results

let run_service ?mode ~domains ops =
  let svc =
    Service.create ?mode ~domains ~batch:4 (Pf_core.Engine.filter () :> Pf_intf.filter)
  in
  let n_docs =
    List.length (List.filter (function Submit _ -> true | _ -> false) ops)
  in
  let results = Array.make n_docs [] in
  let next = ref 0 in
  let sids = ref [] and n = ref 0 in
  List.iter
    (function
      | Subscribe p ->
        sids := Service.subscribe svc p :: !sids;
        incr n
      | Unsubscribe k -> if !n > 0 then ignore (Service.unsubscribe svc (pick !sids !n k))
      | Submit doc ->
        let slot = !next in
        incr next;
        (* distinct slots; the drain below synchronizes the reads *)
        Service.submit svc doc (fun r -> results.(slot) <- r))
    ops;
  Service.drain svc;
  Service.shutdown svc;
  Array.to_list results

let service_equals_sequential =
  Test.make ~count:30 ~name:"service: any domain count = sequential engine"
    ~print:ops_print ops_gen (fun ops ->
      let expected = run_sequential ops in
      List.for_all
        (fun (mode, domains) ->
          let got = run_service ~mode ~domains ops in
          if got <> expected then
            Test.fail_reportf "mode=%s domains=%d:\nexpected %s\ngot      %s"
              (Service.mode_name mode) domains
              (String.concat "; "
                 (List.map (fun l -> String.concat "," (List.map string_of_int l)) expected))
              (String.concat "; "
                 (List.map (fun l -> String.concat "," (List.map string_of_int l)) got))
          else true)
        [
          Service.Doc, 1; Service.Doc, 2; Service.Doc, 4;
          Service.Expr, 1; Service.Expr, 2; Service.Expr, 4;
        ])

(* filter_batch is just submit + barrier: same answers, input order kept *)
let filter_batch_equals_sequential =
  Test.make ~count:20 ~name:"service: filter_batch = sequential engine"
    ~print:ops_print ops_gen (fun ops ->
      let svc = Service.create ~domains:2 ~batch:2 (Pf_core.Engine.filter () :> Pf_intf.filter) in
      let sids = ref [] and n = ref 0 in
      (* filter_batch needs all documents at once, so compare against the
         sequential run of the reordered sequence: subscriptions first *)
      let subs, docs =
        List.partition (function Submit _ -> false | _ -> true) ops
      in
      let expected = run_sequential (subs @ docs) in
      List.iter
        (function
          | Subscribe p ->
            sids := Service.subscribe svc p :: !sids;
            incr n
          | Unsubscribe k ->
            if !n > 0 then ignore (Service.unsubscribe svc (pick !sids !n k))
          | Submit _ -> ())
        subs;
      let got =
        Service.filter_batch svc
          (List.filter_map (function Submit d -> Some d | _ -> None) docs)
      in
      Service.shutdown svc;
      got = expected)

(* ------------------------------------------------------------------ *)
(* Lifecycle unit tests *)

let doc_a = Pf_xml.Sax.parse_document "<a><b/></a>"

let test_shutdown_under_load () =
  (* tiny queue, many documents: submissions block on backpressure, then
     shutdown must still deliver every accepted document exactly once *)
  let svc =
    Service.create ~domains:2 ~queue_capacity:2 ~batch:1 (Pf_core.Engine.filter () :> Pf_intf.filter)
  in
  let sid = Service.subscribe_string svc "/a" in
  let hits = Atomic.make 0 in
  let total = 200 in
  for _ = 1 to total do
    Service.submit svc doc_a (fun r ->
        if r = [ sid ] then Atomic.incr hits)
  done;
  Service.shutdown svc;
  Alcotest.(check int) "every document delivered, correctly matched" total
    (Atomic.get hits);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pf_service.submit: service is shut down") (fun () ->
      Service.submit svc doc_a ignore);
  Alcotest.check_raises "subscribe after shutdown"
    (Invalid_argument "Pf_service.subscribe: service is shut down") (fun () ->
      ignore (Service.subscribe_string svc "/a"));
  (* idempotent *)
  Service.shutdown svc;
  let waits =
    match Pf_obs.Registry.find_counter (Service.metrics svc) "submit_waits" with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "backpressure engaged at least once" true (waits > 0)

let test_unsupported_leaves_service_unchanged () =
  (* YFilter rejects nested path filters: the subscribe must raise and the
     service must keep working as if nothing happened *)
  let svc = Service.create ~domains:2 ((module Pf_yfilter.Yfilter) : Pf_intf.filter) in
  let sid = Service.subscribe_string svc "/a" in
  (try
     ignore (Service.subscribe_string svc "/a[b/c]");
     Alcotest.fail "nested path filter should be Unsupported"
   with Pf_intf.Unsupported _ -> ());
  Alcotest.(check int) "rejected subscribe not counted" 1
    (Service.subscription_count svc);
  let results = Service.filter_batch svc [ doc_a; doc_a ] in
  Alcotest.(check (list (list int))) "replicas still aligned" [ [ sid ]; [ sid ] ]
    results;
  Service.shutdown svc

let test_unsupported_nested_keeps_replicas_aligned () =
  (* The predicate engine rejects nested filters on wildcard steps from
     deep inside Nested.add's decomposition — after subscribe has already
     started. The rejection must not consume a sid on the primary, or the
     primary would run one sid ahead of the worker replicas and every
     later subscribe would report sids the workers disagree with. *)
  let svc = Service.create ~domains:2 (Pf_core.Engine.filter () :> Pf_intf.filter) in
  let sid_a = Service.subscribe_string svc "/a" in
  (try
     ignore (Service.subscribe_string svc "/a/*[b]");
     Alcotest.fail "nested filter on a wildcard step should be Unsupported"
   with Pf_intf.Unsupported _ -> ());
  Alcotest.(check int) "rejected subscribe not counted" 1
    (Service.subscription_count svc);
  let sid_b = Service.subscribe_string svc "/a/b" in
  Alcotest.(check int) "sids stay dense after a rejected subscribe" (sid_a + 1) sid_b;
  let results = Service.filter_batch svc [ doc_a; doc_a ] in
  Alcotest.(check (list (list int))) "replicas aligned with the primary's sids"
    [ [ sid_a; sid_b ]; [ sid_a; sid_b ] ]
    results;
  Service.shutdown svc

let test_concurrent_shutdown () =
  (* exactly one caller joins the workers; the others must block until it
     is done, and nobody joins a domain twice *)
  let svc = Service.create ~domains:2 (Pf_core.Engine.filter () :> Pf_intf.filter) in
  ignore (Service.subscribe_string svc "/a");
  for _ = 1 to 50 do
    Service.submit svc doc_a ignore
  done;
  let callers = Array.init 3 (fun _ -> Domain.spawn (fun () -> Service.shutdown svc)) in
  Service.shutdown svc;
  Array.iter Domain.join callers;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pf_service.submit: service is shut down") (fun () ->
      Service.submit svc doc_a ignore)

let test_metrics () =
  (* counters balance in both modes: each document counted once, one
     merge per document exactly when results are sharded *)
  List.iter
    (fun mode ->
      let name = Service.mode_name mode in
      let svc = Service.create ~mode ~domains:2 (Pf_core.Engine.filter () :> Pf_intf.filter) in
      let sid_a = Service.subscribe_string svc "/a" in
      let sid_b = Service.subscribe_string svc "//b" in
      ignore (Service.unsubscribe svc sid_b);
      let docs = List.init 20 (fun _ -> doc_a) in
      let results = Service.filter_batch svc docs in
      List.iter
        (fun r -> Alcotest.(check (list int)) (name ^ ": only /a matches") [ sid_a ] r)
        results;
      Service.shutdown svc;
      Alcotest.(check int) "domains" 2 (Service.domains svc);
      Alcotest.(check int) "subscription_count counts accepted sids" 2
        (Service.subscription_count svc);
      let find name =
        match Pf_obs.Registry.find_counter (Service.metrics svc) name with
        | Some n -> n
        | None -> Alcotest.failf "service counter %s missing" name
      in
      Alcotest.(check int) (name ^ ": documents") 20 (find "documents");
      Alcotest.(check int) (name ^ ": merges")
        (match mode with Service.Doc -> 0 | Service.Expr -> find "documents")
        (find "merges");
      Alcotest.(check int) "subscribes" 2 (find "subscribes");
      Alcotest.(check int) "unsubscribes" 1 (find "unsubscribes");
      Alcotest.(check bool) "batches recorded" true (find "batches" > 0);
      (* merged engine view: the worker replicas together processed every
         document once per shard; the primary processed none *)
      let merged = Pf_service.engine_metrics svc in
      Alcotest.(check string) "merged scope" "service-engines"
        (Pf_obs.Registry.scope merged);
      Alcotest.(check (option int)) (name ^ ": engine documents sum across replicas")
        (Some (match mode with Service.Doc -> 20 | Service.Expr -> 40))
        (Pf_obs.Registry.find_counter merged "documents"))
    [ Service.Doc; Service.Expr ]

let test_failures_stay_per_job () =
  (* a malformed document in the middle of a dequeued batch delivers [];
     its neighbours in the same batch still deliver their real match sets,
     and the parse error re-raises at shutdown *)
  let subs = [ "/a"; "/a/b"; "//c"; "/a/*/d" ] in
  let good = [ "<a><b/></a>"; "<a><c><d/></c></a>"; "<a><b><c/></b></a>" ] in
  let malformed = "<a><b></a>" in
  let docs = [ List.nth good 0; malformed; List.nth good 1; List.nth good 2 ] in
  let seq = Pf_core.Engine.create () in
  List.iter (fun x -> ignore (Pf_core.Engine.add_string seq x)) subs;
  let expected =
    List.map
      (fun src ->
        if src = malformed then []
        else Pf_core.Engine.match_document seq (Pf_xml.Sax.parse_document src))
      docs
  in
  List.iter
    (fun (mode, domains) ->
      let label = Printf.sprintf "%s/%d" (Service.mode_name mode) domains in
      let svc =
        Service.create ~mode ~domains ~batch:4 (Pf_core.Engine.filter () :> Pf_intf.filter)
      in
      List.iter (fun x -> ignore (Service.subscribe_string svc x)) subs;
      Alcotest.(check (list (list int)))
        (label ^ ": per-job results") expected
        (Service.filter_batch_raw svc docs);
      match Service.shutdown svc with
      | () -> Alcotest.failf "%s: shutdown did not re-raise the parse error" label
      | exception Pf_xml.Sax.Parse_error _ -> ())
    [
      Service.Doc, 1; Service.Doc, 2; Service.Doc, 3;
      Service.Expr, 1; Service.Expr, 2; Service.Expr, 3;
    ]

let test_expr_mode_under_load () =
  (* expression-sharded: every worker sees every document; delivery still
     happens exactly once per document, even with backpressure engaged *)
  let svc =
    Service.create ~mode:Service.Expr ~domains:4 ~queue_capacity:2 ~batch:3
      (Pf_core.Engine.filter () :> Pf_intf.filter)
  in
  (* sids 0..5 spread over the 4 shards: 0,4 -> w0; 1,5 -> w1; 2 -> w2; 3 -> w3 *)
  let subs = [ "/a"; "//b"; "/a/b"; "/c"; "//a"; "/a[@x='1']" ] in
  let sids = List.map (Service.subscribe_string svc) subs in
  Alcotest.(check (list int)) "dense global sids" [ 0; 1; 2; 3; 4; 5 ] sids;
  let expected = [ 0; 1; 2; 4 ] in
  let hits = Atomic.make 0 in
  let total = 200 in
  for _ = 1 to total do
    Service.submit svc doc_a (fun r -> if r = expected then Atomic.incr hits)
  done;
  Service.shutdown svc;
  Alcotest.(check int) "every document delivered once, shards merged sorted" total
    (Atomic.get hits);
  let find name =
    match Pf_obs.Registry.find_counter (Service.metrics svc) name with
    | Some n -> n
    | None -> Alcotest.failf "service counter %s missing" name
  in
  Alcotest.(check int) "documents counted once each" total (find "documents");
  Alcotest.(check int) "one merge per document" total (find "merges");
  (* every worker replica matched every document *)
  let merged = Service.engine_metrics svc in
  Alcotest.(check (option int)) "engine documents = total * domains"
    (Some (total * 4))
    (Pf_obs.Registry.find_counter merged "documents")

let test_expr_mode_unsubscribe_routing () =
  (* removing a sid must reach the shard that owns it, and only that shard *)
  let svc =
    Service.create ~mode:Service.Expr ~domains:2
      (Pf_core.Engine.filter () :> Pf_intf.filter)
  in
  let sid_a = Service.subscribe_string svc "/a" in
  let sid_b = Service.subscribe_string svc "/a/b" in
  let r1 = Service.filter_batch svc [ doc_a ] in
  Alcotest.(check (list (list int))) "both match" [ [ sid_a; sid_b ] ] r1;
  Alcotest.(check bool) "remove owned by worker 0" true (Service.unsubscribe svc sid_a);
  let r2 = Service.filter_batch svc [ doc_a ] in
  Alcotest.(check (list (list int))) "only b after removal" [ [ sid_b ] ] r2;
  Service.shutdown svc

let () =
  Alcotest.run "service"
    [
      ( "equivalence",
        [
          Gen_helpers.to_alcotest service_equals_sequential;
          Gen_helpers.to_alcotest filter_batch_equals_sequential;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown under load" `Quick test_shutdown_under_load;
          Alcotest.test_case "unsupported subscribe leaves service unchanged" `Quick
            test_unsupported_leaves_service_unchanged;
          Alcotest.test_case "unsupported nested subscribe keeps replicas aligned"
            `Quick test_unsupported_nested_keeps_replicas_aligned;
          Alcotest.test_case "concurrent shutdown" `Quick test_concurrent_shutdown;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "failures stay per job" `Quick test_failures_stay_per_job;
          Alcotest.test_case "expression-sharded under load" `Quick
            test_expr_mode_under_load;
          Alcotest.test_case "expression-sharded unsubscribe routing" `Quick
            test_expr_mode_unsubscribe_routing;
        ] );
    ]
