(* The streaming match path (Engine.Stream) never allocates a tree: paths
   are matched straight off the SAX event stream through arena-refilled
   publications. Its contract is byte-identical match sets to the tree
   oracle — under subscription churn, across the paper's DTD workloads,
   sequentially and through both service shard modes — and SAX parse
   errors surfacing with the same positions the tree parser reports. *)

open QCheck2
module E = Pf_core.Engine
module Service = Pf_service
module Dtd = Pf_workload.Dtd
module Xml_gen = Pf_workload.Xml_gen
module Xpath_gen = Pf_workload.Xpath_gen
module Presets = Pf_workload.Presets

(* ------------------------------------------------------------------ *)
(* Workload pools: a handful of documents and queries per DTD world,
   generated once (deterministic in the preset seeds). Queries include
   attribute filters so the constrained path (postponed checks, attr
   cache keys) is exercised, not just structure. *)

let worlds = [ "nitf"; "psd"; "auction" ]

let dtd_of name =
  match Dtd.by_name name with Some d -> d | None -> failwith ("no DTD " ^ name)

let pool name =
  let dtd = dtd_of name in
  let docs =
    Xml_gen.generate_many dtd
      { (Presets.documents_for name) with Xml_gen.seed = 1234 }
      6
  in
  let queries filters seed =
    Xpath_gen.generate dtd
      {
        Presets.paper_queries with
        Xpath_gen.count = 25;
        filters_per_path = filters;
        seed;
      }
  in
  let exprs = queries 0 11 @ queries 1 12 in
  Array.of_list docs, Array.of_list exprs

let pools = List.map (fun w -> w, pool w) worlds

(* ------------------------------------------------------------------ *)
(* Churn scripts: interleaved subscribe / unsubscribe / submit over a
   world's pools, by index — cheap to generate and print. *)

type op = Subscribe of int | Unsubscribe of int | Submit of int

let ops_gen =
  let open Gen in
  oneofl worlds >>= fun world ->
  let op =
    frequency
      [
        3, (int_range 0 49 >|= fun i -> Subscribe i);
        1, (int_range 0 20 >|= fun k -> Unsubscribe k);
        4, (int_range 0 5 >|= fun i -> Submit i);
      ]
  in
  list_size (int_range 8 30) op >|= fun ops -> world, ops

let ops_print (world, ops) =
  world ^ ": "
  ^ String.concat "; "
      (List.map
         (function
           | Subscribe i -> Printf.sprintf "sub %d" i
           | Unsubscribe k -> Printf.sprintf "unsub #%d" k
           | Submit i -> Printf.sprintf "doc %d" i)
         ops)

(* Both runners pick the unsubscribe target the same way: k indexes the
   accepted sids, newest first. *)
let pick sids n k = List.nth sids (k mod n)

(* Drive one engine through a script. [matcher] is how a submitted
   document reaches the engine: the tree oracle gets the parsed tree, the
   streaming runs get the serialized bytes. *)
let run_engine ~create ~matcher (world, ops) =
  let docs, exprs = List.assoc world pools in
  let eng = create () in
  let sids = ref [] and n = ref 0 in
  let results = ref [] in
  List.iter
    (function
      | Subscribe i ->
        sids := E.add eng exprs.(i mod Array.length exprs) :: !sids;
        incr n
      | Unsubscribe k -> if !n > 0 then ignore (E.remove eng (pick !sids !n k))
      | Submit i -> results := matcher eng docs.(i mod Array.length docs) :: !results)
    ops;
  List.rev !results

let tree_run script =
  run_engine ~create:(fun () -> E.create ()) ~matcher:E.match_document script

let source_of doc = Pf_xml.Print.to_string ~decl:false doc

(* streaming = tree, sequentially, with churn between documents *)
let streaming_equals_tree =
  Test.make ~count:60 ~name:"stream: match sets = tree oracle under churn"
    ~print:ops_print ops_gen (fun script ->
      let expected = tree_run script in
      let stream =
        run_engine
          ~create:(fun () -> E.create ())
          ~matcher:(fun e d -> E.match_stream e (source_of d))
          script
      in
      stream = expected)

(* ------------------------------------------------------------------ *)
(* Service: the raw-payload path hands bytes to the worker domains and the
   streaming engines match off the event stream. Both shard modes at
   1/2/4 domains must equal the sequential tree engine. *)

let run_service ~mode ~domains (world, ops) =
  let docs, exprs = List.assoc world pools in
  let svc =
    Service.create ~mode ~domains ~batch:4
      (E.filter ~stream:E.Stream () :> Pf_intf.filter)
  in
  let n_docs = List.length (List.filter (function Submit _ -> true | _ -> false) ops) in
  let results = Array.make n_docs [] in
  let next = ref 0 in
  let sids = ref [] and n = ref 0 in
  List.iter
    (function
      | Subscribe i ->
        sids := Service.subscribe svc exprs.(i mod Array.length exprs) :: !sids;
        incr n
      | Unsubscribe k -> if !n > 0 then ignore (Service.unsubscribe svc (pick !sids !n k))
      | Submit i ->
        let slot = !next in
        incr next;
        Service.submit_raw svc (source_of docs.(i mod Array.length docs)) (fun r ->
            results.(slot) <- r))
    ops;
  Service.drain svc;
  Service.shutdown svc;
  Array.to_list results

let service_streaming_equals_tree =
  Test.make ~count:12
    ~name:"stream: service raw path, both modes x 1/2/4 domains = tree oracle"
    ~print:ops_print ops_gen (fun script ->
      let expected = tree_run script in
      List.for_all
        (fun (mode, domains) ->
          let got = run_service ~mode ~domains script in
          if got <> expected then
            Test.fail_reportf "mode=%s domains=%d diverged"
              (Service.mode_name mode) domains
          else true)
        [
          Service.Doc, 1; Service.Doc, 2; Service.Doc, 4;
          Service.Expr, 1; Service.Expr, 2; Service.Expr, 4;
        ])

(* ------------------------------------------------------------------ *)
(* SAX parse errors mid-stream: the streaming engine consumes events as
   they are produced, so a malformed tail is hit after earlier paths were
   already matched — the raised position must be exactly the tree
   parser's. *)

let malformed =
  [
    "<a><b></a>";  (* mismatched end tag *)
    "<a><b/>";  (* truncated: a never closes *)
    "<a><b x=1/></a>";  (* unquoted attribute *)
    "<a>text<b></b><c attr=\"v\"></d></a>";  (* error after matchable paths *)
    "";  (* empty input *)
  ]

let test_error_positions () =
  List.iter
    (fun src ->
      let from_tree =
        try
          ignore (Pf_xml.Sax.parse_document src);
          None
        with Pf_xml.Sax.Parse_error (pos, msg) -> Some (pos, msg)
      in
      let eng = E.create () in
      ignore (E.add_string eng "/a/b");
      let from_stream =
        try
          ignore (E.match_stream eng src);
          None
        with Pf_xml.Sax.Parse_error (pos, msg) -> Some (pos, msg)
      in
      match from_tree, from_stream with
      | None, None -> Alcotest.failf "input unexpectedly parsed: %s" src
      | Some (p1, m1), Some (p2, m2) ->
        Alcotest.(check bool)
          (Printf.sprintf "same error for %S (tree %s, stream %s)" src m1 m2)
          true
          (p1 = p2 && m1 = m2)
      | Some _, None -> Alcotest.failf "stream accepted what tree rejected: %s" src
      | None, Some _ -> Alcotest.failf "stream rejected what tree accepted: %s" src)
    malformed

let test_service_error_delivery () =
  (* a malformed streamed document delivers [] and the first Parse_error
     surfaces at shutdown; well-formed documents around it are unaffected *)
  let svc =
    Service.create ~domains:2 (E.filter ~stream:E.Stream () :> Pf_intf.filter)
  in
  let sid = Service.subscribe_string svc "/a/b" in
  let good = ref [] and bad = ref [ -1 ] in
  Service.submit_raw svc "<a><b/></a>" (fun r -> good := r);
  Service.submit_raw svc "<a><b></a>" (fun r -> bad := r);
  Service.drain svc;
  Alcotest.(check (list int)) "well-formed document matched" [ sid ] !good;
  Alcotest.(check (list int)) "malformed document delivered []" [] !bad;
  Alcotest.check_raises "parse error re-raised at shutdown"
    (Pf_xml.Sax.Parse_error
       ( (try
            ignore (Pf_xml.Sax.parse_document "<a><b></a>");
            assert false
          with Pf_xml.Sax.Parse_error (pos, _) -> pos),
         (try
            ignore (Pf_xml.Sax.parse_document "<a><b></a>");
            assert false
          with Pf_xml.Sax.Parse_error (_, msg) -> msg) ))
    (fun () -> Service.shutdown svc)

(* ------------------------------------------------------------------ *)

let qcheck = Gen_helpers.to_alcotest

let () =
  Alcotest.run "streaming"
    [
      ( "equivalence",
        [
          qcheck streaming_equals_tree;
          qcheck service_streaming_equals_tree;
        ] );
      ( "errors",
        [
          Alcotest.test_case "SAX error positions identical mid-stream" `Quick
            test_error_positions;
          Alcotest.test_case "service delivers [] and re-raises at shutdown" `Quick
            test_service_error_delivery;
        ] );
    ]
