(* Cross-engine integration tests over realistic generated workloads: the
   predicate engine (every variant), YFilter and Index-Filter must produce
   identical match sets, document after document, and agree with the
   reference evaluator. *)

open Pf_workload

let variants =
  Pf_core.Expr_index.[ Basic; Prefix_covering; Access_predicate ]

let run_workload ~dtd ~doc_params ~query_params ~ndocs =
  let paths = Xpath_gen.generate dtd query_params in
  let docs = Xml_gen.generate_many dtd doc_params ndocs in
  let engines =
    List.map
      (fun v ->
        let e = Pf_core.Engine.create ~variant:v () in
        List.iter (fun p -> ignore (Pf_core.Engine.add e p)) paths;
        Pf_core.Expr_index.variant_name v, fun d -> Pf_core.Engine.match_document e d)
      variants
  in
  let y = Pf_yfilter.Yfilter.create () in
  List.iter (fun p -> ignore (Pf_yfilter.Yfilter.add y p)) paths;
  let f = Pf_indexfilter.Index_filter.create () in
  List.iter (fun p -> ignore (Pf_indexfilter.Index_filter.add f p)) paths;
  let all =
    engines
    @ [ "yfilter", (fun d -> Pf_yfilter.Yfilter.match_document y d);
        "index-filter", (fun d -> Pf_indexfilter.Index_filter.match_document f d) ]
  in
  let arr = Array.of_list paths in
  List.iteri
    (fun di d ->
      let reference = (snd (List.hd all)) d in
      List.iter
        (fun (name, matcher) ->
          Alcotest.(check (list int))
            (Printf.sprintf "doc %d: %s agrees" di name)
            reference (matcher d))
        (List.tl all);
      (* spot-check against the oracle on the first documents *)
      if di < 2 then begin
        let mset = Hashtbl.create 64 in
        List.iter (fun s -> Hashtbl.replace mset s ()) reference;
        Array.iteri
          (fun sid p ->
            Alcotest.(check bool)
              (Printf.sprintf "doc %d sid %d oracle" di sid)
              (Pf_xpath.Eval.matches p d) (Hashtbl.mem mset sid))
          arr
      end)
    docs

let test_nitf_workload () =
  run_workload ~dtd:(Dtd.nitf_like ()) ~doc_params:Presets.nitf_documents
    ~query_params:{ Xpath_gen.default with Xpath_gen.count = 400 }
    ~ndocs:8

let test_psd_workload () =
  run_workload ~dtd:(Dtd.psd_like ()) ~doc_params:Presets.psd_documents
    ~query_params:{ Xpath_gen.default with Xpath_gen.count = 400; seed = 11 }
    ~ndocs:8

let test_duplicate_workload () =
  run_workload ~dtd:(Dtd.psd_like ()) ~doc_params:Presets.psd_documents
    ~query_params:{ Xpath_gen.default with Xpath_gen.count = 1500; distinct = false; seed = 3 }
    ~ndocs:4

let test_wildcard_heavy_workload () =
  run_workload ~dtd:(Dtd.nitf_like ()) ~doc_params:Presets.nitf_documents
    ~query_params:{ Xpath_gen.default with Xpath_gen.count = 300; wildcard_prob = 0.7; seed = 5 }
    ~ndocs:5

let test_descendant_heavy_workload () =
  run_workload ~dtd:(Dtd.nitf_like ()) ~doc_params:Presets.nitf_documents
    ~query_params:{ Xpath_gen.default with Xpath_gen.count = 300; descendant_prob = 0.7; seed = 6 }
    ~ndocs:5

let test_attr_filter_workload_modes () =
  (* inline vs postponed must agree on a filtered workload, and with yfilter *)
  let dtd = Dtd.nitf_like () in
  let paths =
    Xpath_gen.generate dtd
      { Xpath_gen.default with Xpath_gen.count = 400; filters_per_path = 2; seed = 9 }
  in
  let docs = Xml_gen.generate_many dtd Presets.nitf_documents 6 in
  let inline = Pf_core.Engine.create ~attr_mode:Pf_core.Engine.Inline () in
  let post = Pf_core.Engine.create ~attr_mode:Pf_core.Engine.Postponed () in
  let y = Pf_yfilter.Yfilter.create () in
  List.iter
    (fun p ->
      ignore (Pf_core.Engine.add inline p);
      ignore (Pf_core.Engine.add post p);
      ignore (Pf_yfilter.Yfilter.add y p))
    paths;
  List.iteri
    (fun di d ->
      let mi = Pf_core.Engine.match_document inline d in
      Alcotest.(check (list int)) (Printf.sprintf "doc %d postponed" di) mi
        (Pf_core.Engine.match_document post d);
      Alcotest.(check (list int)) (Printf.sprintf "doc %d yfilter" di) mi
        (Pf_yfilter.Yfilter.match_document y d))
    docs

let test_sax_to_engine_pipeline () =
  (* full pipeline: generate -> serialize -> parse -> filter *)
  let dtd = Dtd.psd_like () in
  let docs = Xml_gen.generate_many dtd Presets.psd_documents 4 in
  let e = Pf_core.Engine.create () in
  let paths = Xpath_gen.generate dtd { Xpath_gen.default with Xpath_gen.count = 200 } in
  List.iter (fun p -> ignore (Pf_core.Engine.add e p)) paths;
  List.iter
    (fun d ->
      let via_string = Pf_core.Engine.match_string e (Pf_xml.Print.to_string d) in
      Alcotest.(check (list int)) "tree and string agree" (Pf_core.Engine.match_document e d)
        via_string)
    docs

let () =
  Alcotest.run "integration"
    [
      ( "cross-engine",
        [
          Alcotest.test_case "NITF workload" `Slow test_nitf_workload;
          Alcotest.test_case "PSD workload" `Slow test_psd_workload;
          Alcotest.test_case "duplicate workload" `Slow test_duplicate_workload;
          Alcotest.test_case "wildcard-heavy" `Slow test_wildcard_heavy_workload;
          Alcotest.test_case "descendant-heavy" `Slow test_descendant_heavy_workload;
          Alcotest.test_case "attribute filters, all modes" `Slow test_attr_filter_workload_modes;
          Alcotest.test_case "sax-to-engine pipeline" `Quick test_sax_to_engine_pipeline;
        ] );
    ]
