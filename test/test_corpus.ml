(* Regression corpus: curated (expression, document, expected) triples, one
   distinct behavior each, run against the reference evaluator AND all
   engines/variants. Complements the randomized properties with cases that
   pin down specific semantics decisions. *)

type case = {
  name : string;
  expr : string;
  doc : string;
  expected : bool;
}

let c name expr doc expected = { name; expr; doc; expected }

let corpus =
  [
    (* --- absolute anchoring --- *)
    c "root tag must match" "/a" "<a/>" true;
    c "root tag mismatch" "/b" "<a><b/></a>" false;
    c "absolute needs position 1" "/b" "<a><b/></a>" false;
    c "leading // reaches any depth" "//b" "<a><x><b/></x></a>" true;
    c "leading // includes the root" "//a" "<a/>" true;
    c "deep absolute chain" "/a/b/c/d" "<a><b><c><d/></c></b></a>" true;
    c "absolute stops at wrong branch" "/a/b/c" "<a><x><c/></x><b/></a>" false;
    (* --- relative matching anywhere --- *)
    c "relative matches at root" "a" "<a/>" true;
    c "relative matches deep" "c" "<a><b><c/></b></a>" true;
    c "relative pair mid-document" "b/c" "<a><b><c/></b></a>" true;
    c "relative pair order matters" "c/b" "<a><b><c/></b></a>" false;
    c "relative pair must be adjacent" "a/c" "<a><b><c/></b></a>" false;
    (* --- selection vs leaf: inner nodes are selectable --- *)
    c "match need not reach a leaf" "/a/b" "<a><b><c><d/></c></b></a>" true;
    c "prefix of a long path" "/a" "<a><b><c/></b></a>" true;
    (* --- wildcards --- *)
    c "wildcard matches any tag" "/a/*" "<a><z/></a>" true;
    c "wildcard requires presence" "/a/*" "<a/>" false;
    c "wildcard chain exact depth" "/*/*/*" "<a><b><c/></b></a>" true;
    c "wildcard chain too deep" "/*/*/*/*" "<a><b><c/></b></a>" false;
    c "wildcard between tags" "/a/*/c" "<a><b><c/></b></a>" true;
    c "wildcard between tags mismatch" "/a/*/c" "<a><b><d/></b></a>" false;
    c "trailing wildcards need depth" "a/*/*" "<a><b/></a>" false;
    c "trailing wildcards satisfied" "a/*/*" "<a><b><c/></b></a>" true;
    c "relative all-wildcards is length" "*/*" "<a><b/></a>" true;
    c "length not satisfied" "*/*/*" "<a><b/></a>" false;
    (* --- descendant operator --- *)
    c "descendant includes child" "a//b" "<a><b/></a>" true;
    c "descendant skips levels" "a//d" "<a><b><c><d/></c></b></a>" true;
    c "descendant direction" "d//a" "<a><d/></a>" false;
    c "descendant then child" "/a//c/d" "<a><b><c><d/></c></b></a>" true;
    c "descendant then child broken" "/a//c/d" "<a><b><c/><d/></b></a>" false;
    c "double descendant" "//b//d" "<a><b><c><d/></c></b></a>" true;
    c "descendant after wildcard" "/a/*//e" "<a><b><c><e/></c></b></a>" true;
    c "descendant after wildcard at distance 1" "a/*//d" "<a><b><d/></b></a>" true;
    c "descendant distance with wildcard too shallow" "a/*//d" "<a><d/></a>" false;
    (* --- repeated tags / occurrence discrimination --- *)
    c "same tag nested" "/a/a" "<a><a/></a>" true;
    c "same tag three deep" "a/a/a" "<a><a><a/></a></a>" true;
    c "same tag not present twice" "a/a" "<a><b/></a>" false;
    c "Example 2 positive" "a//b/c" "<a><b><c><a><b><c/></b></a></c></b></a>" true;
    c "Example 2 negative" "c//b//a" "<a><b><c><a><b><c/></b></a></c></b></a>" false;
    c "occurrence chain must connect" "b/b" "<a><b/><b/></a>" false;
    c "occurrence chain connects" "b/b" "<a><b><b/></b></a>" true;
    (* --- branching documents --- *)
    c "one path suffices" "/a/c" "<a><b/><c/></a>" true;
    c "steps may not span sibling branches" "/a/b/c" "<a><b/><c/></a>" false;
    c "deep branch found among siblings" "//e" "<a><b/><c/><d><e/></d></a>" true;
    (* --- attribute filters --- *)
    c "attr equality" "b[@x = 3]" "<a><b x=\"3\"/></a>" true;
    c "attr equality fails" "b[@x = 3]" "<a><b x=\"4\"/></a>" false;
    c "attr missing" "b[@x = 3]" "<a><b/></a>" false;
    c "attr ge" "b[@x >= 3]" "<a><b x=\"7\"/></a>" true;
    c "attr lt" "b[@x < 3]" "<a><b x=\"2\"/></a>" true;
    c "attr ne" "b[@x != 3]" "<a><b x=\"2\"/></a>" true;
    c "attr ne equal value" "b[@x != 3]" "<a><b x=\"3\"/></a>" false;
    c "attr on inner step" "/a[@k = 1]/b" "<a k=\"1\"><b/></a>" true;
    c "attr on inner step fails" "/a[@k = 1]/b" "<a k=\"2\"><b/></a>" false;
    c "two filters conjunction" "b[@x = 1][@y = 2]" "<a><b x=\"1\" y=\"2\"/></a>" true;
    c "two filters one fails" "b[@x = 1][@y = 2]" "<a><b x=\"1\" y=\"3\"/></a>" false;
    c "string attr" "b[@s = \"hi\"]" "<a><b s=\"hi\"/></a>" true;
    c "numeric filter on non-numeric attr" "b[@s = 3]" "<a><b s=\"three\"/></a>" false;
    c "filter satisfied on other occurrence" "b[@x = 1]" "<a><b x=\"2\"/><b x=\"1\"/></a>" true;
    c "structure and filter must co-locate" "/a/b[@x = 1]/c"
      "<a><b x=\"2\"><c/></b><b x=\"1\"/></a>" false;
    (* --- text() filters --- *)
    c "text equality" "b[text() = 5]" "<a><b>5</b></a>" true;
    c "text comparison" "b[text() > 4]" "<a><b>5</b></a>" true;
    c "text absent" "b[text() = 5]" "<a><b/></a>" false;
    c "text string" "b[text() = \"ok\"]" "<a><b>ok</b></a>" true;
    c "text with attr" "b[@x = 1][text() = 5]" "<a><b x=\"1\">5</b></a>" true;
    (* --- nested path filters --- *)
    c "simple existence" "a[b]" "<a><b/></a>" true;
    c "existence fails" "a[b]" "<a><c/></a>" false;
    c "nested chain" "a[b/c]" "<a><b><c/></b></a>" true;
    c "nested chain not sibling" "a[b/c]" "<a><b/><c/></a>" false;
    c "nested then continue" "/a[b]/c" "<a><b/><c/></a>" true;
    c "nested descendant" "a[//d]" "<a><b><c><d/></c></b></a>" true;
    c "nested on non-root step" "/a/b[c]/d" "<a><b><c/><d/></b></a>" true;
    c "nested must share the node" "/a/b[c]/d" "<a><b><c/></b><b><d/></b></a>" false;
    c "same-path witness allowed" "a[b/c]/b/c" "<a><b><c/></b></a>" true;
    c "two-level nesting" "a[b[c]]" "<a><b><c/></b></a>" true;
    c "two-level nesting fails inside" "a[b[c]]" "<a><b><d/></b></a>" false;
    c "paper Figure 3 expression" "/a[*/c[d]/e]//c[d]/e"
      "<a><x><c><d/><e/></c></x><c><d/><e/></c></a>" true;
    c "nested with attr inside" "a[b[@x = 1]]" "<a><b x=\"1\"/></a>" true;
    c "nested wildcard step" "a[*/d]" "<a><c><d/></c></a>" true;
    (* --- whitespace/structure robustness --- *)
    c "whitespace between elements" "/a/b" "<a>\n  <b/>\n</a>" true;
    c "attributes ignored structurally" "/a/b" "<a x=\"1\"><b y=\"2\"/></a>" true;
    c "comment does not break path" "/a/b" "<a><!-- note --><b/></a>" true;
    c "cdata text content" "b[text() = \"<raw>\"]" "<a><b><![CDATA[<raw>]]></b></a>" true;
    c "entity in attribute" "b[@s = \"a&b\"]" "<a><b s=\"a&amp;b\"/></a>" true;
  ]

let engines_for (expr : Pf_xpath.Ast.path) =
  let mk variant attr_mode =
    let name =
      Printf.sprintf "%s%s"
        (Pf_core.Expr_index.variant_name variant)
        (match attr_mode with Pf_core.Engine.Inline -> "" | Pf_core.Engine.Postponed -> "+sp")
    in
    ( name,
      fun () ->
        let e = Pf_core.Engine.create ~variant ~attr_mode () in
        let sid = Pf_core.Engine.add e expr in
        fun doc -> List.mem sid (Pf_core.Engine.match_document e doc) )
  in
  let ours =
    [
      mk Pf_core.Expr_index.Basic Pf_core.Engine.Inline;
      mk Pf_core.Expr_index.Prefix_covering Pf_core.Engine.Inline;
      mk Pf_core.Expr_index.Access_predicate Pf_core.Engine.Inline;
      mk Pf_core.Expr_index.Access_predicate Pf_core.Engine.Postponed;
    ]
  in
  if Pf_xpath.Ast.is_single_path expr then
    ours
    @ [
        ( "yfilter",
          fun () ->
            let y = Pf_yfilter.Yfilter.create () in
            let sid = Pf_yfilter.Yfilter.add y expr in
            fun doc -> List.mem sid (Pf_yfilter.Yfilter.match_document y doc) );
        ( "index-filter",
          fun () ->
            let f = Pf_indexfilter.Index_filter.create () in
            let sid = Pf_indexfilter.Index_filter.add f expr in
            fun doc -> List.mem sid (Pf_indexfilter.Index_filter.match_document f doc) );
      ]
  else ours

let run_case case () =
  let expr = Pf_xpath.Parser.parse case.expr in
  let doc = Pf_xml.Sax.parse_document case.doc in
  Alcotest.(check bool)
    (Printf.sprintf "oracle: %s on %s" case.expr case.doc)
    case.expected
    (Pf_xpath.Eval.matches expr doc);
  List.iter
    (fun (name, make) ->
      let matcher = make () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s on %s" name case.expr case.doc)
        case.expected (matcher doc))
    (engines_for expr)

let () =
  Alcotest.run "corpus"
    [
      ( "cases",
        List.map (fun case -> Alcotest.test_case case.name `Quick (run_case case)) corpus );
    ]
