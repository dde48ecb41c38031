(* Tests for the expression organizations (Section 4.2.2): the four
   variants must report identical match sets, while differing in how many
   occurrence determination runs they need. *)

open Pf_core

let variants =
  Expr_index.[ Basic; Prefix_covering; Access_predicate; Shared ]

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
      Expr_index.eval e res ~sticky:false ~doc_tag:0
        ~on_match:(fun sid -> matched := sid :: !matched);
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
  Alcotest.(check int) "pc-ap runs the longest only" 1 (runs Expr_index.Access_predicate);
  Alcotest.(check int) "shared needs no runs" 0 (runs Expr_index.Shared)

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
  Expr_index.eval e res ~sticky:false ~doc_tag:0
        ~on_match:(fun sid -> matched := sid :: !matched);
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
   four variants produce the same match set, and it equals the per-
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
          Expr_index.eval e res ~sticky:false ~doc_tag:0
        ~on_match:(fun sid -> matched := sid :: !matched);
          List.sort compare !matched = truth)
        variants)


(* ------------------------------------------------------------------ *)
(* Equivalence with the node-record trie (Pf_difftest.Expr_ref) over
   random add/remove sequences interleaved with documents. Without
   stickiness the flat trie must agree exactly: the same sids on every
   path and the same occurrence runs, backtracking steps, prefix-cover
   skips and access skips. With stickiness it skips subtrees that have
   nothing left to report for the document, so access skips (and the
   visits the reference does not count) differ, while the sids reported
   on every path and the run, step and cover counts still agree. *)

module Eref = Pf_difftest.Expr_ref

type op =
  | Add of Pf_xpath.Ast.path
  | Remove of int  (* index into the sids added so far *)
  | Doc of string list list  (* a document: its paths' tags *)

let op_gen =
  let open QCheck2.Gen in
  let path_tags = list_size (int_range 1 6) Gen_helpers.tag_gen in
  frequency
    [
      4, map (fun p -> Add p) Gen_helpers.single_path_gen;
      1, map (fun i -> Remove i) (int_range 0 63);
      3, map (fun ps -> Doc ps) (list_size (int_range 1 4) path_tags);
    ]

let op_print = function
  | Add p -> "+" ^ Gen_helpers.path_print p
  | Remove i -> "-" ^ string_of_int i
  | Doc ps -> "[" ^ String.concat " | " (List.map (String.concat "/") ps) ^ "]"

let ops_print ops = String.concat " ; " (List.map op_print ops)

let trie_variants = Expr_index.[ Prefix_covering; Access_predicate; Shared ]

let counts (m : Expr_index.metrics) =
  Pf_obs.Counter.(get m.runs, get m.steps, get m.cover_skips, get m.access_skips)

let ref_counts (m : Eref.metrics) =
  Pf_obs.Counter.(get m.runs, get m.steps, get m.cover_skips, get m.access_skips)

(* Replay [ops] into a flat index and the reference for [variant]; every
   path of a document is one publication, evaluated under the document's
   tag. Returns false at the first path whose reported sids differ, or if
   the counters differ at the end ([access_skips] only without
   stickiness). *)
let replay ~sticky variant ops =
  let pidx = Predicate_index.create () in
  let res = Predicate_index.create_results () in
  let fm = Expr_index.make_metrics () and rm = Eref.make_metrics () in
  let flat = Expr_index.create ~metrics:fm variant in
  let oracle = Eref.create ~metrics:rm variant in
  let added = ref [||] and next_sid = ref 0 and tag = ref 0 in
  let collect eval =
    let got = ref [] in
    eval (fun sid -> got := sid :: !got);
    List.sort compare !got
  in
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
      incr tag;
      let doc_tag = if sticky then !tag else 0 in
      List.for_all
        (fun tags ->
          Predicate_index.run pidx res (Publication.of_tags tags);
          collect (fun on_match -> Expr_index.eval flat res ~sticky ~doc_tag ~on_match)
          = collect (fun on_match -> Eref.eval oracle res ~sticky ~doc_tag ~on_match))
        paths
  in
  List.fold_left step true ops
  && Expr_index.expression_count flat = Eref.expression_count oracle
  && Expr_index.node_count flat = Eref.node_count oracle
  &&
  let r, s, c, a = counts fm and r', s', c', a' = ref_counts rm in
  r = r' && s = s' && c = c' && (sticky || a = a')

let prop_flat_agrees_with_ref ~sticky =
  let open QCheck2 in
  Test.make
    ~name:
      (Printf.sprintf "flat trie = node-record reference (sticky:%b)" sticky)
    ~count:400 ~print:ops_print
    Gen.(list_size (int_range 1 40) op_gen)
    (fun ops -> List.for_all (fun v -> replay ~sticky v ops) trie_variants)

(* Encode [src] into pids of [idx], as [eval_all] does, for the pins below. *)
let compile idx src =
  Array.map (Predicate_index.intern idx) (Encoder.encode_string src).Encoder.preds

let eval_sticky e res ~doc_tag =
  let got = ref [] in
  Expr_index.eval e res ~sticky:true ~doc_tag ~on_match:(fun sid -> got := sid :: !got);
  List.sort compare !got

(* A subtree done in one document is entered again once an expression is
   added under it: in the next document, and even under the same tag. *)
let test_done_subtree_reopened () =
  let m = Expr_index.make_metrics () in
  let e = Expr_index.create ~metrics:m Expr_index.Access_predicate in
  let idx = Predicate_index.create () in
  let res = Predicate_index.create_results () in
  Expr_index.add e ~sid:0 ~pids:(compile idx "/a/b");
  let run tags ~doc_tag =
    Predicate_index.run idx res (Publication.of_tags tags);
    eval_sticky e res ~doc_tag
  in
  Alcotest.(check (list int)) "doc 1, first path" [ 0 ] (run [ "a"; "b" ] ~doc_tag:1);
  let v0 = Pf_obs.Counter.get m.Expr_index.visits in
  Alcotest.(check (list int)) "doc 1, repeated path" [] (run [ "a"; "b" ] ~doc_tag:1);
  Alcotest.(check int) "done root not entered" v0 (Pf_obs.Counter.get m.Expr_index.visits);
  Expr_index.add e ~sid:1 ~pids:(compile idx "/a/b/c");
  Alcotest.(check (list int)) "doc 2 sees the new expression" [ 0; 1 ]
    (run [ "a"; "b"; "c" ] ~doc_tag:2);
  Alcotest.(check (list int)) "doc 2 is done again" [] (run [ "a"; "b"; "c" ] ~doc_tag:2);
  Expr_index.add e ~sid:2 ~pids:(compile idx "/a/b/d");
  Alcotest.(check (list int)) "an add under the same tag reopens the path" [ 2 ]
    (run [ "a"; "b"; "d" ] ~doc_tag:2)

(* A done subtree must read as "not matched" to its parent's covering
   flag. Here the /a/b/c node lost its only sid, so it is done as soon
   as it is entered, while /a/b's own chain fails on this path (the b
   under the root a is not the b the second a leads to): a repeated path
   must not report /a/b through covering. *)
let test_done_child_does_not_cover () =
  let e = Expr_index.create Expr_index.Access_predicate in
  let idx = Predicate_index.create () in
  let res = Predicate_index.create_results () in
  Expr_index.add e ~sid:0 ~pids:(compile idx "/a/b");
  let abc = compile idx "/a/b/c" in
  Expr_index.add e ~sid:1 ~pids:abc;
  Alcotest.(check bool) "removed" true (Expr_index.remove e ~sid:1 ~pids:abc);
  Predicate_index.run idx res (Publication.of_tags [ "a"; "x"; "a"; "b"; "c" ]);
  Alcotest.(check (list int)) "first path" [] (eval_sticky e res ~doc_tag:1);
  Alcotest.(check (list int)) "repeated path" [] (eval_sticky e res ~doc_tag:1)

(* The path-result cache computes each path's complete sid set under a
   tag of its own. A path that shares a done subtree with an earlier path
   of the same document must still report it, or its cache entry would
   miss sids on the next document that reaches it alone. *)
let test_path_cache_tags () =
  let exprs = [ "//b"; "/a//b"; "/a/c"; "//c/b" ] in
  let mk path_cache =
    let e = Engine.create ~path_cache () in
    List.iter (fun x -> ignore (Engine.add_string e x : int)) exprs;
    e
  in
  let cached = mk true and plain = mk false in
  let docs = [ "<a><b/><c><b/></c></a>"; "<a><c><b/></c></a>"; "<a><b/></a>" ] in
  List.iter
    (fun d ->
      Alcotest.(check (list int))
        d (Engine.match_string plain d) (Engine.match_string cached d))
    docs;
  let hits =
    match Pf_obs.Registry.find_counter (Engine.metrics cached) "path_cache_hits" with
    | Some n -> n
    | None -> Alcotest.fail "path_cache_hits not registered"
  in
  Alcotest.(check bool) "later documents answered from the cache" true (hits >= 2)

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
          Alcotest.test_case "done subtree reopened by add" `Quick
            test_done_subtree_reopened;
          Alcotest.test_case "done child does not cover" `Quick
            test_done_child_does_not_cover;
          Alcotest.test_case "path-cache per-path tags" `Quick test_path_cache_tags;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [
            prop_variants_agree;
            prop_flat_agrees_with_ref ~sticky:false;
            prop_flat_agrees_with_ref ~sticky:true;
          ] );
    ]
