(* End-to-end tests for the engine: every variant and attribute mode must
   agree with the reference XPath evaluator on arbitrary expressions and
   documents. *)

open Pf_core

let variants = Expr_index.[ Basic; Prefix_covering; Access_predicate ]
let modes = Engine.[ Inline; Postponed ]

let all_configs =
  List.concat_map (fun v -> List.map (fun m -> v, m) modes) variants

let doc = Pf_xml.Sax.parse_document "<a><b n=\"1\"><c/></b><b n=\"2\"><d/></b></a>"

let test_basic_api () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "/a/b/c" in
  let s2 = Engine.add_string e "/a/b/d" in
  let s3 = Engine.add_string e "/a/x" in
  Alcotest.(check int) "dense sids" 1 s2;
  Alcotest.(check int) "expression count" 3 (Engine.expression_count e);
  Alcotest.(check (list int)) "matches" [ s1; s2 ] (Engine.match_document e doc);
  Alcotest.(check (list int)) "no match for s3" [ s1; s2 ]
    (Engine.match_document e doc);
  ignore s3;
  Alcotest.(check string) "expression recovered" "/a/x"
    (Pf_xpath.Parser.to_string (Engine.expression e s3))

let test_match_string () =
  let e = Engine.create () in
  let s = Engine.add_string e "b[@n = 2]" in
  Alcotest.(check (list int)) "match_string" [ s ]
    (Engine.match_string e "<a><b n=\"2\"/></a>")

let test_match_path () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "a/b" in
  let _s2 = Engine.add_string e "b/a" in
  Alcotest.(check (list int)) "path match" [ s1 ]
    (Engine.match_path e (Pf_xml.Path.of_tags [ "a"; "b" ]))

let test_duplicate_sids () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "/a/b" in
  let s2 = Engine.add_string e "/a/b" in
  Alcotest.(check bool) "distinct sids" true (s1 <> s2);
  Alcotest.(check (list int)) "both reported" [ s1; s2 ]
    (Engine.match_string e "<a><b/></a>")

let test_attr_modes_agree_unit () =
  List.iter
    (fun mode ->
      let e = Engine.create ~attr_mode:mode () in
      let s1 = Engine.add_string e "/a/b[@n = 1]/c" in
      let _ = Engine.add_string e "/a/b[@n = 3]/c" in
      let s3 = Engine.add_string e "b[@n >= 2]" in
      Alcotest.(check (list int)) "inline/postponed" [ s1; s3 ] (Engine.match_document e doc))
    modes

let test_multiple_docs_reset () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "/a/b" in
  let s2 = Engine.add_string e "/x" in
  Alcotest.(check (list int)) "doc 1" [ s1 ] (Engine.match_string e "<a><b/></a>");
  Alcotest.(check (list int)) "doc 2" [ s2 ] (Engine.match_string e "<x/>");
  Alcotest.(check (list int)) "doc 3" [] (Engine.match_string e "<y/>")

let test_stats () =
  let e = Engine.create ~collect_stats:true () in
  let _ = Engine.add_string e "/a/b" in
  ignore (Engine.match_document e doc);
  let st = Engine.stats e in
  Alcotest.(check int) "documents" 1 st.Engine.documents;
  Alcotest.(check int) "paths" 2 st.Engine.paths;
  Alcotest.(check bool) "timed" true (st.Engine.predicate_ns >= 0.);
  Engine.reset_stats e;
  Alcotest.(check int) "reset" 0 (Engine.stats e).Engine.documents

(* reset_stats must zero the whole registry atomically: occurrence_runs as
   reported by the accessor and by the registry counter always agree *)
let test_reset_registry_agreement () =
  let e = Engine.create () in
  let _ = Engine.add_string e "/a/b" in
  let _ = Engine.add_string e "//c" in
  ignore (Engine.match_document e doc);
  let registry_runs () =
    match Pf_obs.Registry.find_counter (Engine.metrics e) "occurrence_runs" with
    | Some n -> n
    | None -> Alcotest.fail "occurrence_runs counter not registered"
  in
  Alcotest.(check bool) "runs nonzero" true (Engine.occurrence_runs e > 0);
  Alcotest.(check int) "accessor = registry" (Engine.occurrence_runs e) (registry_runs ());
  Engine.reset_stats e;
  Alcotest.(check int) "accessor zero after reset" 0 (Engine.occurrence_runs e);
  Alcotest.(check int) "registry zero after reset" 0 (registry_runs ())

(* The predicate_residual_constrained gauge counts constrained predicates
   the anchored index cannot take off the scanned slices (!= or string
   constraints only); it is set when the match image is rebuilt. The
   paper's generated filters are integer =, >= and <=, so they all
   anchor. *)
let test_residual_constrained_gauge () =
  let open Pf_workload in
  let dtd = Dtd.psd_like () in
  let e = Engine.create () in
  let paths =
    Xpath_gen.generate dtd
      { Presets.paper_queries with Xpath_gen.count = 300; filters_per_path = 1 }
  in
  List.iter (fun p -> ignore (Engine.add e p)) paths;
  let residual () =
    match Pf_obs.Registry.find_gauge (Engine.metrics e) "predicate_residual_constrained" with
    | Some v -> v
    | None -> Alcotest.fail "predicate_residual_constrained gauge not registered"
  in
  let docs = Xml_gen.generate_many dtd Presets.psd_documents 2 in
  List.iter (fun d -> ignore (Engine.match_document e d)) docs;
  Alcotest.(check bool) "filters generated" true
    (List.exists
       (fun (p : Pf_xpath.Ast.path) ->
         List.exists (fun (st : Pf_xpath.Ast.step) -> st.Pf_xpath.Ast.filters <> []) p.Pf_xpath.Ast.steps)
       paths);
  Alcotest.(check (float 0.)) "PSD paper_queries: nothing residual" 0. (residual ());
  ignore (Engine.add_string e "/ProteinDatabase//ProteinEntry[@n!=3]");
  ignore (Engine.add_string e "//a[@x=\"s\"]");
  ignore (Engine.match_document e (List.hd docs));
  Alcotest.(check bool) "!= and string constraints are residual" true (residual () >= 2.)

let test_predicate_sharing_across_expressions () =
  let e = Engine.create () in
  let _ = Engine.add_string e "/a/b/c/d" in
  let n1 = Engine.distinct_predicate_count e in
  let _ = Engine.add_string e "b/c" in
  (* b/c encodes to (d(p_b,p_c),=,1), already stored *)
  Alcotest.(check int) "no new predicate" n1 (Engine.distinct_predicate_count e)

let test_remove () =
  List.iter
    (fun variant ->
      let e = Engine.create ~variant () in
      let s1 = Engine.add_string e "/a/b" in
      let s2 = Engine.add_string e "/a/b" in
      let s3 = Engine.add_string e "/a/b/c" in
      Alcotest.(check bool) "remove s1" true (Engine.remove e s1);
      Alcotest.(check bool) "s1 inactive" false (Engine.is_active e s1);
      Alcotest.(check bool) "double remove" false (Engine.remove e s1);
      Alcotest.(check (list int)) "duplicate s2 and s3 still match" [ s2; s3 ]
        (Engine.match_string e "<a><b><c/></b></a>");
      Alcotest.(check bool) "remove s2" true (Engine.remove e s2);
      Alcotest.(check (list int)) "only s3 now" [ s3 ]
        (Engine.match_string e "<a><b><c/></b></a>");
      let s4 = Engine.add_string e "/a/b" in
      Alcotest.(check (list int)) "re-added matches again" [ s3; s4 ]
        (Engine.match_string e "<a><b><c/></b></a>"))
    variants

let test_remove_nested () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "/a[b]/c" in
  let s2 = Engine.add_string e "/a/c" in
  Alcotest.(check (list int)) "both" [ s1; s2 ] (Engine.match_string e "<a><b/><c/></a>");
  Alcotest.(check bool) "remove nested" true (Engine.remove e s1);
  Alcotest.(check (list int)) "nested gone" [ s2 ] (Engine.match_string e "<a><b/><c/></a>")

let test_text_filters_end_to_end () =
  List.iter
    (fun mode ->
      let e = Engine.create ~attr_mode:mode () in
      let s1 = Engine.add_string e "/stock/quote[text() >= 100]" in
      let s2 = Engine.add_string e "quote[text() < 100]" in
      let s3 = Engine.add_string e "/stock/quote[@sym = 1][text() >= 100]" in
      let doc = "<stock><quote sym=\"1\">142</quote></stock>" in
      Alcotest.(check (list int)) "tree" [ s1; s3 ] (Engine.match_string e doc);
      Alcotest.(check (list int)) "stream" [ s1; s3 ] (Engine.match_stream e doc);
      ignore s2)
    modes

let test_match_stream () =
  let e = Engine.create () in
  let s1 = Engine.add_string e "/a/b/c" in
  let _ = Engine.add_string e "/a/x" in
  let s3 = Engine.add_string e "b[@n = 1]" in
  let src = "<a><b n=\"1\"><c/></b></a>" in
  Alcotest.(check (list int)) "stream = string" [ s1; s3 ] (Engine.match_stream e src);
  Alcotest.(check (list int)) "agrees with tree path" (Engine.match_string e src)
    (Engine.match_stream e src)

let prop_stream_equals_tree =
  QCheck2.Test.make ~name:"match_stream = match_string" ~count:300
    ~print:(fun (paths, d) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ Gen_helpers.doc_print d)
    QCheck2.Gen.(
      pair (list_size (int_range 1 8) Gen_helpers.single_path_attr_gen) Gen_helpers.doc_gen)
    (fun (paths, d) ->
      let e = Engine.create () in
      List.iter (fun p -> ignore (Engine.add e p)) paths;
      let src = Pf_xml.Print.to_string d in
      Engine.match_string e src = Engine.match_stream e src)

let test_explain () =
  List.iter
    (fun mode ->
      let e = Engine.create ~attr_mode:mode () in
      let s1 = Engine.add_string e "a//b[@n = 2]" in
      let s2 = Engine.add_string e "/a/x" in
      (match Engine.explain e doc s1 with
      | Some { Engine.expl_path; expl_chain } ->
        Alcotest.(check (list string)) "witness path" [ "a"; "b"; "d" ]
          (Pf_xml.Path.tags expl_path);
        Alcotest.(check int) "one predicate" 1 (List.length expl_chain);
        (match expl_chain with
        | [ (_, (o1, o2)) ] ->
          Alcotest.(check (pair int int)) "occurrences" (1, 1) (o1, o2)
        | _ -> Alcotest.fail "unexpected chain")
      | None -> Alcotest.fail "expected a witness");
      Alcotest.(check bool) "no witness for a non-match" true (Engine.explain e doc s2 = None);
      ignore (Engine.remove e s1);
      Alcotest.(check bool) "no witness after removal" true (Engine.explain e doc s1 = None))
    modes

let test_explain_consistent_with_match () =
  let e = Engine.create () in
  let sids = List.map (Engine.add_string e) [ "/a/b/c"; "b/c"; "/a/b[@n = 1]"; "/x" ] in
  let matched = Engine.match_document e doc in
  List.iter
    (fun sid ->
      Alcotest.(check bool)
        (Printf.sprintf "explain sid %d iff matched" sid)
        (List.mem sid matched)
        (Engine.explain e doc sid <> None))
    sids

let test_unsupported_propagates () =
  let e = Engine.create () in
  match Engine.add_string e "/*[@x = 1]/a" with
  | exception Encoder.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* ------------------------------------------------------------------ *)
(* Oracle agreement properties *)

let check_against_oracle paths docs (variant, mode) =
  let e = Engine.create ~variant ~attr_mode:mode () in
  let sids = List.map (fun p -> Engine.add e p, p) paths in
  List.for_all
    (fun d ->
      let matched = Engine.match_document e d in
      List.for_all
        (fun (sid, p) -> List.mem sid matched = Pf_xpath.Eval.matches p d)
        sids)
    docs

let prop_oracle_single_paths =
  QCheck2.Test.make ~name:"engine = oracle (single paths, all configs)" ~count:300
    ~print:(fun (paths, docs) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ String.concat " % " (List.map Gen_helpers.doc_print docs))
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 8) Gen_helpers.single_path_gen)
        (list_size (int_range 1 3) Gen_helpers.doc_gen))
    (fun (paths, docs) -> List.for_all (check_against_oracle paths docs) all_configs)

let prop_oracle_attr_filters =
  QCheck2.Test.make ~name:"engine = oracle (attribute filters, all configs)" ~count:300
    ~print:(fun (paths, docs) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ String.concat " % " (List.map Gen_helpers.doc_print docs))
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6) Gen_helpers.single_path_attr_gen)
        (list_size (int_range 1 3) Gen_helpers.doc_gen))
    (fun (paths, docs) -> List.for_all (check_against_oracle paths docs) all_configs)

let prop_inline_postponed_agree =
  QCheck2.Test.make ~name:"inline = postponed match sets" ~count:400
    ~print:(fun (paths, d) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ Gen_helpers.doc_print d)
    QCheck2.Gen.(
      pair (list_size (int_range 1 8) Gen_helpers.single_path_attr_gen) Gen_helpers.doc_gen)
    (fun (paths, d) ->
      let run mode =
        let e = Engine.create ~attr_mode:mode () in
        List.iter (fun p -> ignore (Engine.add e p)) paths;
        Engine.match_document e d
      in
      run Engine.Inline = run Engine.Postponed)

let () =
  Alcotest.run "engine"
    [
      ( "api",
        [
          Alcotest.test_case "basics" `Quick test_basic_api;
          Alcotest.test_case "match_string" `Quick test_match_string;
          Alcotest.test_case "match_path" `Quick test_match_path;
          Alcotest.test_case "duplicates get distinct sids" `Quick test_duplicate_sids;
          Alcotest.test_case "attr modes agree" `Quick test_attr_modes_agree_unit;
          Alcotest.test_case "state resets between documents" `Quick test_multiple_docs_reset;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "reset agrees with registry" `Quick
            test_reset_registry_agreement;
          Alcotest.test_case "predicate sharing" `Quick test_predicate_sharing_across_expressions;
          Alcotest.test_case "residual constrained gauge" `Quick
            test_residual_constrained_gauge;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove nested" `Quick test_remove_nested;
          Alcotest.test_case "match_stream" `Quick test_match_stream;
          Alcotest.test_case "text() filters end to end" `Quick test_text_filters_end_to_end;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "explain iff matched" `Quick test_explain_consistent_with_match;
          Alcotest.test_case "unsupported propagates" `Quick test_unsupported_propagates;
        ] );
      ( "oracle",
        List.map Gen_helpers.to_alcotest
          [
            prop_oracle_single_paths;
            prop_oracle_attr_filters;
            prop_inline_postponed_agree;
            prop_stream_equals_tree;
          ] );
    ]
