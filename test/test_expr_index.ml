(* Tests for the expression organizations (Section 4.2.2): the three
   variants must report identical match sets, while differing in how many
   occurrence determination runs they need. *)

open Pf_core

let variants =
  Expr_index.[ Basic; Prefix_covering; Access_predicate ]

(* Build one index per variant over the same expressions and evaluate
   against the same publication; returns (variant, sorted sids, runs). *)
let eval_all exprs tags =
  let idx = Predicate_index.create () in
  let encoded =
    List.map (fun src -> Array.map (Predicate_index.intern idx) (Encoder.encode_string src).Encoder.preds) exprs
  in
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags tags);
  List.map
    (fun variant ->
      let e = Expr_index.create variant in
      List.iteri (fun sid pids -> Expr_index.add e ~sid ~pids) encoded;
      let matched = ref [] in
      Expr_index.eval e res ~doc_tag:0 ~on_match:(fun sid -> matched := sid :: !matched);
      variant, List.sort compare !matched, Expr_index.occurrence_runs e)
    variants

let test_variants_agree_simple () =
  let exprs = [ "/a/b"; "/a/b/c"; "/a/b/c/d"; "a//c"; "/a/x"; "b/c" ] in
  let results = eval_all exprs [ "a"; "b"; "c" ] in
  let expected = [ 0; 1; 3; 5 ] in
  List.iter
    (fun (v, sids, _) ->
      Alcotest.(check (list int)) (Expr_index.variant_name v) expected sids)
    results

let test_covering_reduces_runs () =
  (* /a/b is a predicate-prefix of /a/b/c, which matches: with prefix
     covering the shorter expression must not get its own run *)
  let exprs = [ "/a/b"; "/a/b/c" ] in
  let results = eval_all exprs [ "a"; "b"; "c" ] in
  let runs v = match List.find (fun (v', _, _) -> v' = v) results with _, _, r -> r in
  Alcotest.(check int) "basic runs both" 2 (runs Expr_index.Basic);
  Alcotest.(check int) "pc runs the longest only" 1 (runs Expr_index.Prefix_covering);
  Alcotest.(check int) "pc-ap runs the longest only" 1 (runs Expr_index.Access_predicate)

let test_access_predicate_prunes () =
  (* no x in the path: the whole /x/... cluster is skipped without any
     occurrence run; basic still runs nothing (pid check fails) but pc
     walks the trie *)
  let exprs = [ "/x/y"; "/x/y/z"; "/x/w" ] in
  let results = eval_all exprs [ "a"; "b" ] in
  List.iter
    (fun (v, sids, runs) ->
      Alcotest.(check (list int)) (Expr_index.variant_name v ^ " no match") [] sids;
      Alcotest.(check int) (Expr_index.variant_name v ^ " no runs") 0 runs)
    results

let test_duplicates_share () =
  let e = Expr_index.create Expr_index.Access_predicate in
  let idx = Predicate_index.create () in
  let pids = Array.map (Predicate_index.intern idx) (Encoder.encode_string "/a/b").Encoder.preds in
  Expr_index.add e ~sid:0 ~pids;
  Expr_index.add e ~sid:1 ~pids;
  Expr_index.add e ~sid:2 ~pids;
  Alcotest.(check int) "3 expressions" 3 (Expr_index.expression_count e);
  Alcotest.(check int) "2 trie nodes" 2 (Expr_index.node_count e);
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags [ "a"; "b" ]);
  let matched = ref [] in
  Expr_index.eval e res ~doc_tag:0 ~on_match:(fun sid -> matched := sid :: !matched);
  Alcotest.(check (list int)) "all three sids" [ 0; 1; 2 ] (List.sort compare !matched);
  Alcotest.(check int) "one run serves all duplicates" 1 (Expr_index.occurrence_runs e)

let test_variant_names () =
  List.iter
    (fun v ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Expr_index.variant_name v))
        (Option.map Expr_index.variant_name (Expr_index.variant_of_name (Expr_index.variant_name v))))
    variants;
  Alcotest.(check bool) "unknown" true (Expr_index.variant_of_name "bogus" = None)

let test_empty_pids_rejected () =
  let e = Expr_index.create Expr_index.Basic in
  match Expr_index.add e ~sid:0 ~pids:[||] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty pid sequence should be rejected"

(* property: on random single-path workloads and random linear paths, all
   three variants produce the same match set, and it equals the per-
   expression ground truth *)
let prop_variants_agree =
  let open QCheck2 in
  Test.make ~name:"all variants = ground truth" ~count:500
    ~print:(fun (paths, tags) ->
      String.concat " ; " (List.map Gen_helpers.path_print paths)
      ^ " on " ^ String.concat "/" tags)
    Gen.(
      pair
        (list_size (int_range 1 12) Gen_helpers.single_path_gen)
        (list_size (int_range 1 7) Gen_helpers.tag_gen))
    (fun (paths, tags) ->
      let idx = Predicate_index.create () in
      let encoded =
        List.map
          (fun p -> Array.map (Predicate_index.intern idx) (Encoder.encode p).Encoder.preds)
          paths
      in
      let res = Predicate_index.create_results () in
      let pub = Publication.of_tags tags in
      Predicate_index.run idx res pub;
      let truth =
        List.mapi
          (fun sid pids ->
            let rs = Array.map (Predicate_index.get res) pids in
            if Array.exists (fun l -> l = []) rs then None
            else if Occurrence.matches rs then Some sid
            else None)
          encoded
        |> List.filter_map Fun.id
      in
      List.for_all
        (fun variant ->
          let e = Expr_index.create variant in
          List.iteri (fun sid pids -> Expr_index.add e ~sid ~pids) encoded;
          let matched = ref [] in
          Expr_index.eval e res ~doc_tag:0 ~on_match:(fun sid -> matched := sid :: !matched);
          List.sort compare !matched = truth)
        variants)


(* ------------------------------------------------------------------ *)
(* Equivalence with the node-record trie (Pf_difftest.Expr_ref) over
   random add/remove sequences interleaved with documents, one path per
   walk, the reference under [~sticky:true] and the same tags: a fresh
   tag per path, or one per document. The flat trie must agree exactly
   either way: the same sids on every path and the same occurrence runs,
   backtracking steps, prefix-cover skips and access skips. *)

module Eref = Pf_difftest.Expr_ref

type op =
  | Add of Pf_xpath.Ast.path
  | Remove of int  (* index into the sids added so far *)
  | Doc of string list list  (* a document: its paths' tags *)

let op_gen ~max_paths =
  let open QCheck2.Gen in
  let path_tags = list_size (int_range 1 6) Gen_helpers.tag_gen in
  frequency
    [
      4, map (fun p -> Add p) Gen_helpers.single_path_gen;
      1, map (fun i -> Remove i) (int_range 0 63);
      3, map (fun ps -> Doc ps) (list_size (int_range 1 max_paths) path_tags);
    ]

let op_print = function
  | Add p -> "+" ^ Gen_helpers.path_print p
  | Remove i -> "-" ^ string_of_int i
  | Doc ps -> "[" ^ String.concat " | " (List.map (String.concat "/") ps) ^ "]"

let ops_print ops = String.concat " ; " (List.map op_print ops)

let trie_variants = Expr_index.[ Prefix_covering; Access_predicate ]

let counts (m : Expr_index.metrics) =
  Pf_obs.Counter.(get m.runs, get m.steps, get m.cover_skips, get m.access_skips)

let ref_counts (m : Eref.metrics) =
  Pf_obs.Counter.(get m.runs, get m.steps, get m.cover_skips, get m.access_skips)

let collect eval =
  let got = ref [] in
  eval (fun sid -> got := sid :: !got);
  List.sort compare !got

(* Replay [ops] into a flat index and the reference for [variant]. Each
   document goes through [doc flat oracle pidx ~doc_tag paths], which
   returns false on a divergence; tags are 1000 apart, so [doc] may use
   the ones in between. Returns whether everything agreed, trie shapes
   included, with both metrics records. *)
let replay variant ops ~doc =
  let pidx = Predicate_index.create () in
  let fm = Expr_index.make_metrics () and rm = Eref.make_metrics () in
  let flat = Expr_index.create ~metrics:fm variant in
  let oracle = Eref.create ~metrics:rm variant in
  let added = ref [||] and next_sid = ref 0 and tag = ref 0 in
  let step ok op =
    ok
    &&
    match op with
    | Add p ->
      let pids = Array.map (Predicate_index.intern pidx) (Encoder.encode p).Encoder.preds in
      let sid = !next_sid in
      incr next_sid;
      Expr_index.add flat ~sid ~pids;
      Eref.add oracle ~sid ~pids;
      added := Array.append !added [| sid, pids |];
      true
    | Remove i ->
      Array.length !added = 0
      ||
      let sid, pids = !added.(i mod Array.length !added) in
      Expr_index.remove flat ~sid ~pids = Eref.remove oracle ~sid ~pids
    | Doc paths ->
      tag := !tag + 1000;
      doc flat oracle pidx ~doc_tag:!tag paths
  in
  let ok =
    List.fold_left step true ops
    && Expr_index.expression_count flat = Eref.expression_count oracle
    && Expr_index.node_count flat = Eref.node_count oracle
  in
  ok, fm, rm

(* One path per walk: the flat trie and the reference see the same
   publication under the same tag, the document's or a fresh one per
   path. *)
let per_path_doc ~doc_tags flat oracle pidx ~doc_tag paths =
  let res = Predicate_index.create_results () in
  List.for_all Fun.id
    (List.mapi
       (fun j tags ->
         let tag = if doc_tags then doc_tag else doc_tag + 1 + j in
         Predicate_index.run pidx res (Publication.of_tags tags);
         collect (fun on_match -> Expr_index.eval flat res ~doc_tag:tag ~on_match)
         = collect (fun on_match -> Eref.eval oracle res ~sticky:true ~doc_tag:tag ~on_match))
       paths)

let prop_flat_agrees_with_ref ~doc_tags =
  let open QCheck2 in
  Test.make
    ~name:
      (Printf.sprintf "flat trie = node-record reference (sticky, %s tags)"
         (if doc_tags then "document" else "per-path"))
    ~count:400 ~print:ops_print
    Gen.(list_size (int_range 1 40) (op_gen ~max_paths:4))
    (fun ops ->
      List.for_all
        (fun v ->
          let ok, fm, rm = replay v ops ~doc:(per_path_doc ~doc_tags) in
          ok && counts fm = ref_counts rm)
        trie_variants)

(* Walk [paths] in chunks of [Predicate_index.chunk_capacity], all under
   [doc_tag]; returns the sids each walk reported, sorted, in walk
   order. *)
let chunk_walks e pidx res ~doc_tag paths =
  let walks = ref [] in
  let walk () =
    walks := collect (fun on_match -> Expr_index.eval e res ~doc_tag ~on_match) :: !walks;
    Predicate_index.clear res
  in
  Predicate_index.clear res;
  List.iter
    (fun tags ->
      Predicate_index.run_next pidx res (Publication.of_tags tags);
      if Predicate_index.chunk_paths res = Predicate_index.chunk_capacity then walk ())
    paths;
  if Predicate_index.chunk_paths res > 0 then walk ();
  List.rev !walks

(* The chunk walk must report, per document, exactly the sids the
   reference reports evaluating the document path by path. *)
let chunk_doc flat oracle pidx ~doc_tag paths =
  let res = Predicate_index.create_results () in
  let got =
    List.sort_uniq compare (List.concat (chunk_walks flat pidx res ~doc_tag paths))
  in
  let want =
    List.sort_uniq compare
      (List.concat_map
         (fun tags ->
           Predicate_index.run pidx res (Publication.of_tags tags);
           collect (fun on_match -> Eref.eval oracle res ~sticky:true ~doc_tag ~on_match))
         paths)
  in
  got = want

let prop_chunk_walk_agrees_with_ref =
  let open QCheck2 in
  Test.make ~name:"chunk walk = per-path node-record reference" ~count:150
    ~print:ops_print
    Gen.(list_size (int_range 1 30) (op_gen ~max_paths:150))
    (fun ops ->
      List.for_all
        (fun v ->
          let ok, _, _ = replay v ops ~doc:chunk_doc in
          ok)
        variants)

(* Encode [src] into pids of [idx], as [eval_all] does, for the pins below. *)
let compile idx src =
  Array.map (Predicate_index.intern idx) (Encoder.encode_string src).Encoder.preds

(* A document of [n] paths /a/p0 .. /a/p(n-1) and one expression per
   path index in [only], each matching on its own path alone. Every
   variant must report each in the walk of the chunk holding its path,
   with one walk per chunk. *)
let chunk_pin n only =
  let c = Predicate_index.chunk_capacity in
  let paths = List.init n (fun i -> [ "a"; Printf.sprintf "p%d" i ]) in
  List.iter
    (fun v ->
      let m = Expr_index.make_metrics () in
      let e = Expr_index.create ~metrics:m v in
      let idx = Predicate_index.create () in
      List.iteri
        (fun sid i -> Expr_index.add e ~sid ~pids:(compile idx (Printf.sprintf "/a/p%d" i)))
        only;
      let res = Predicate_index.create_results () in
      let walks = chunk_walks e idx res ~doc_tag:1 paths in
      let name = Printf.sprintf "%s, %d paths" (Expr_index.variant_name v) n in
      Alcotest.(check int) (name ^ ": walks") ((n + c - 1) / c) (List.length walks);
      Alcotest.(check int) (name ^ ": expr_walks") (List.length walks)
        (Pf_obs.Counter.get m.Expr_index.walks);
      List.iteri
        (fun sid i ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: path %d reported in walk %d" name i (i / c))
            [ sid ]
            (List.filter (( = ) sid) (List.nth walks (i / c))))
        only)
    variants

let test_chunk_boundaries () =
  let c = Predicate_index.chunk_capacity in
  List.iter (fun n -> chunk_pin n [ 0; n / 2; n - 1 ]) [ c; c + 1; (2 * c) + 1 ]

(* A sid matching only on the last path of the second chunk. *)
let test_last_path_of_second_chunk () =
  let c = Predicate_index.chunk_capacity in
  chunk_pin ((2 * c) + 1) [ (2 * c) - 1 ]

(* /a/b's predicates match on path 0 but its chain does not (the b
   follows the second a), and /a/b/c matches on path 1 only. In the
   one-chunk walk /a/b's mask holds both paths, and it must be covered
   through its descendant's match on path 1, the higher path, without a
   run of its own; alone, it runs on path 0, fails, then matches on
   path 1. *)
let test_cover_from_higher_path () =
  let paths = [ [ "a"; "x"; "a"; "b" ]; [ "a"; "b"; "c" ] ] in
  let walk exprs =
    let m = Expr_index.make_metrics () in
    let e = Expr_index.create ~metrics:m Expr_index.Access_predicate in
    let idx = Predicate_index.create () in
    List.iteri (fun sid src -> Expr_index.add e ~sid ~pids:(compile idx src)) exprs;
    let res = Predicate_index.create_results () in
    let walks = chunk_walks e idx res ~doc_tag:1 paths in
    walks, Pf_obs.Counter.(get m.Expr_index.runs, get m.Expr_index.cover_skips)
  in
  let walks, (runs, covers) = walk [ "/a/b"; "/a/b/c" ] in
  Alcotest.(check (list (list int))) "both reported" [ [ 0; 1 ] ] walks;
  Alcotest.(check int) "one run, at /a/b/c" 1 runs;
  Alcotest.(check int) "/a/b covered" 1 covers;
  let walks, (runs, covers) = walk [ "/a/b" ] in
  Alcotest.(check (list (list int))) "alone, still reported" [ [ 0 ] ] walks;
  Alcotest.(check int) "path 0 fails, path 1 matches" 2 runs;
  Alcotest.(check int) "nothing to cover it" 0 covers

let eval_tagged e res ~doc_tag =
  collect (fun on_match -> Expr_index.eval e res ~doc_tag ~on_match)

(* Expressions added between walks are seen under the same tag: a new
   node under a reported prefix, and a new sid on a reported node (whose
   other sids are then reported again). *)
let test_add_between_walks () =
  let e = Expr_index.create Expr_index.Access_predicate in
  let idx = Predicate_index.create () in
  let res = Predicate_index.create_results () in
  Expr_index.add e ~sid:0 ~pids:(compile idx "/a/b");
  let run tags ~doc_tag =
    Predicate_index.run idx res (Publication.of_tags tags);
    eval_tagged e res ~doc_tag
  in
  Alcotest.(check (list int)) "doc 1, first path" [ 0 ] (run [ "a"; "b" ] ~doc_tag:1);
  Alcotest.(check (list int)) "doc 1, repeated path" [] (run [ "a"; "b" ] ~doc_tag:1);
  Expr_index.add e ~sid:1 ~pids:(compile idx "/a/b/c");
  Alcotest.(check (list int)) "doc 2 sees the new expression" [ 0; 1 ]
    (run [ "a"; "b"; "c" ] ~doc_tag:2);
  Alcotest.(check (list int)) "doc 2, repeated path" [] (run [ "a"; "b"; "c" ] ~doc_tag:2);
  Expr_index.add e ~sid:2 ~pids:(compile idx "/a/b/d");
  Alcotest.(check (list int)) "a new node under a reported prefix" [ 2 ]
    (run [ "a"; "b"; "d" ] ~doc_tag:2);
  Expr_index.add e ~sid:3 ~pids:(compile idx "/a/b");
  Alcotest.(check (list int)) "a new sid on a reported node" [ 0; 3 ]
    (run [ "a"; "b" ] ~doc_tag:2)

(* A sid-less node passes up only what lies below it. Here the /a/b/c
   node lost its only sid, while /a/b's own chain fails on this path
   (the b under the root a is not the b the second a leads to): a chunk
   of the path twice must not report /a/b through covering. *)
let test_sidless_child_does_not_cover () =
  let e = Expr_index.create Expr_index.Access_predicate in
  let idx = Predicate_index.create () in
  let res = Predicate_index.create_results () in
  Expr_index.add e ~sid:0 ~pids:(compile idx "/a/b");
  let abc = compile idx "/a/b/c" in
  Expr_index.add e ~sid:1 ~pids:abc;
  Alcotest.(check bool) "removed" true (Expr_index.remove e ~sid:1 ~pids:abc);
  let path = [ "a"; "x"; "a"; "b"; "c" ] in
  Alcotest.(check (list (list int))) "two-path chunk" [ [] ]
    (chunk_walks e idx res ~doc_tag:1 [ path; path ])

(* A node whose sids were all removed and which then gains a sid again
   enters its depth bucket once, so prefix covering visits it once per
   pass: one path per walk under a fresh tag, the flat trie must match
   the reference without marks ([~sticky:false]) in sids, runs and
   cover skips. *)
let test_readded_node_bucketed_once () =
  let p = Pf_xpath.Parser.parse in
  let ops =
    [ Add (p "c"); Add (p "a"); Remove 0; Add (p "a"); Add (p "c"); Add (p "a"); Add (p "a");
      Doc [ [ "a"; "c" ] ] ]
  in
  let sizes = ref [||] in
  let unmarked flat oracle pidx ~doc_tag paths =
    sizes := Expr_index.bucket_sizes flat;
    let res = Predicate_index.create_results () in
    List.for_all Fun.id
      (List.mapi
         (fun j tags ->
           Predicate_index.run pidx res (Publication.of_tags tags);
           collect (fun on_match ->
               Expr_index.eval flat res ~doc_tag:(doc_tag + 1 + j) ~on_match)
           = collect (fun on_match -> Eref.eval oracle res ~sticky:false ~doc_tag:0 ~on_match))
         paths)
  in
  let ok, fm, rm = replay Expr_index.Prefix_covering ops ~doc:unmarked in
  Alcotest.(check (array int)) "c and a, once each, at depth 0" [| 2 |] !sizes;
  Alcotest.(check bool) "same sids, each reported once" true ok;
  let runs_covers (runs, _, covers, _) = runs, covers in
  Alcotest.(check (pair int int)) "reference: a run each, no cover" (2, 0)
    (runs_covers (ref_counts rm));
  Alcotest.(check (pair int int)) "flat = reference" (runs_covers (ref_counts rm))
    (runs_covers (counts fm))

let () =
  Alcotest.run "expr_index"
    [
      ( "unit",
        [
          Alcotest.test_case "variants agree" `Quick test_variants_agree_simple;
          Alcotest.test_case "covering reduces runs" `Quick test_covering_reduces_runs;
          Alcotest.test_case "access predicate prunes" `Quick test_access_predicate_prunes;
          Alcotest.test_case "duplicates share structure" `Quick test_duplicates_share;
          Alcotest.test_case "variant names" `Quick test_variant_names;
          Alcotest.test_case "empty pids rejected" `Quick test_empty_pids_rejected;
          Alcotest.test_case "add between walks is seen" `Quick
            test_add_between_walks;
          Alcotest.test_case "sid-less child does not cover" `Quick
            test_sidless_child_does_not_cover;
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "last path of the second chunk" `Quick
            test_last_path_of_second_chunk;
          Alcotest.test_case "cover from a higher path" `Quick test_cover_from_higher_path;
          Alcotest.test_case "re-added node bucketed once" `Quick
            test_readded_node_bucketed_once;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [
            prop_variants_agree;
            prop_flat_agrees_with_ref ~doc_tags:false;
            prop_flat_agrees_with_ref ~doc_tags:true;
            prop_chunk_walk_agrees_with_ref;
          ] );
    ]
