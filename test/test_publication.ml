(* Tests for the publication encoding of document paths (Section 3.3). *)

open Pf_core

(* Example 1: e = (a,b,c,a,b,c) ->
   (length,6),(a^1,1),(b^1,2),(c^1,3),(a^2,4),(b^2,5),(c^2,6) *)
let test_example_1 () =
  let pub = Publication.of_tags [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  Alcotest.(check int) "length" 6 pub.Publication.length;
  let expect = [ "a", 1, 1; "b", 1, 2; "c", 1, 3; "a", 2, 4; "b", 2, 5; "c", 2, 6 ] in
  List.iteri
    (fun i (tag, occurrence, pos) ->
      let tu = pub.Publication.tuples.(i) in
      Alcotest.(check string) "tag" tag (Symbol.name tu.Publication.tag);
      Alcotest.(check int) "occurrence" occurrence tu.Publication.occurrence;
      Alcotest.(check int) "pos" pos tu.Publication.pos)
    expect

let test_pp () =
  let pub = Publication.of_tags [ "a"; "b"; "a" ] in
  Alcotest.(check string) "paper notation"
    "(length,3), (a^1,1), (b^1,2), (a^2,3)"
    (Format.asprintf "%a" Publication.pp pub)

let test_pos_of_occurrence () =
  let pub = Publication.of_tags [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  let sym = Symbol.intern in
  Alcotest.(check (option int)) "a^2" (Some 4)
    (Publication.pos_of_occurrence pub ~tag:(sym "a") ~occurrence:2);
  Alcotest.(check (option int)) "c^1" (Some 3)
    (Publication.pos_of_occurrence pub ~tag:(sym "c") ~occurrence:1);
  Alcotest.(check (option int)) "missing occurrence" None
    (Publication.pos_of_occurrence pub ~tag:(sym "a") ~occurrence:3);
  Alcotest.(check (option int)) "missing tag" None
    (Publication.pos_of_occurrence pub ~tag:(sym "z") ~occurrence:1)

(* (tag, occurrence) keys use 31 bits for the occurrence: with 16 bits,
   occurrence 70000 of one symbol collided with occurrence 4464 of the
   next *)
let test_pos_of_wide_occurrence () =
  let lo = Symbol.intern "wide_lo" and hi = Symbol.intern "wide_hi" in
  let pub =
    Publication.of_tags
      (List.init 70_000 (fun _ -> "wide_lo") @ List.init 4_464 (fun _ -> "wide_hi"))
  in
  Alcotest.(check (option int)) "lo^70000" (Some 70_000)
    (Publication.pos_of_occurrence pub ~tag:lo ~occurrence:70_000);
  Alcotest.(check (option int)) "hi^4464" (Some 74_464)
    (Publication.pos_of_occurrence pub ~tag:hi ~occurrence:4_464)

let test_of_path_attrs () =
  let doc = Pf_xml.Sax.parse_document "<a x=\"1\"><b y=\"2\"/></a>" in
  match Pf_xml.Path.of_document doc with
  | [ path ] ->
    let pub = Publication.of_path path in
    Alcotest.(check (list (pair string string))) "attrs at 1" [ "x", "1" ]
      (Publication.attrs_at pub ~pos:1);
    Alcotest.(check (list (pair string string))) "attrs at 2" [ "y", "2" ]
      (Publication.attrs_at pub ~pos:2)
  | _ -> Alcotest.fail "one path expected"

let test_structure () =
  let doc = Pf_xml.Sax.parse_document "<a><b/><b><c/></b></a>" in
  let pubs = List.map Publication.of_path (Pf_xml.Path.of_document doc) in
  let structs = List.map (fun p -> Array.to_list p.Publication.structure) pubs in
  Alcotest.(check (list (list int))) "structure tuples" [ [ 1; 1 ]; [ 1; 2; 1 ] ] structs

let prop_roundtrip_positions =
  QCheck2.Test.make ~name:"pos_of_occurrence inverts tuples" ~count:500
    ~print:Gen_helpers.doc_print Gen_helpers.doc_gen (fun doc ->
      List.for_all
        (fun path ->
          let pub = Publication.of_path path in
          Array.for_all
            (fun tu ->
              Publication.pos_of_occurrence pub ~tag:tu.Publication.tag
                ~occurrence:tu.Publication.occurrence
              = Some tu.Publication.pos)
            pub.Publication.tuples)
        (Pf_xml.Path.of_document doc))

let () =
  Alcotest.run "publication"
    [
      ( "unit",
        [
          Alcotest.test_case "Example 1" `Quick test_example_1;
          Alcotest.test_case "pretty printing" `Quick test_pp;
          Alcotest.test_case "pos_of_occurrence" `Quick test_pos_of_occurrence;
          Alcotest.test_case "pos_of_occurrence beyond 2^16" `Quick
            test_pos_of_wide_occurrence;
          Alcotest.test_case "attributes" `Quick test_of_path_attrs;
          Alcotest.test_case "structure tuples" `Quick test_structure;
        ] );
      "properties", List.map Gen_helpers.to_alcotest [ prop_roundtrip_positions ];
    ]
