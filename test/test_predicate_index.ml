(* Tests for the predicate index (Figure 1) and the predicate matching
   stage (Section 4.1), including Table 1 transcribed verbatim. *)

open Pf_core

let tv = Predicate.tagvar

let sorted_pairs l = List.sort compare l

let check_pairs msg expected actual =
  Alcotest.(check (list (pair int int))) msg (sorted_pairs expected) (sorted_pairs actual)

(* ------------------------------------------------------------------ *)
(* Interning *)

let test_intern_dedup () =
  let idx = Predicate_index.create () in
  let p1 = Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Eq; v = 1 } in
  let p2 = Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Eq; v = 2 } in
  let p3 = Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Ge; v = 1 } in
  let i1 = Predicate_index.intern idx p1 in
  let i1' = Predicate_index.intern idx p1 in
  let i2 = Predicate_index.intern idx p2 in
  let i3 = Predicate_index.intern idx p3 in
  Alcotest.(check int) "same predicate, same pid" i1 i1';
  Alcotest.(check bool) "different value" true (i1 <> i2);
  Alcotest.(check bool) "different op" true (i1 <> i3);
  Alcotest.(check int) "three distinct stored" 3 (Predicate_index.size idx)

let test_intern_constraints_distinct () =
  let idx = Predicate_index.create () in
  let plain = Predicate.Absolute { tag = tv "a"; op = Predicate.Eq; v = 1 } in
  let constrained =
    Predicate.Absolute
      {
        tag = tv ~constraints:[ { Predicate.attr = "x"; cmp = Pf_xpath.Ast.Eq; value = Pf_xpath.Ast.Int 3 } ] "a";
        op = Predicate.Eq;
        v = 1;
      }
  in
  let i1 = Predicate_index.intern idx plain in
  let i2 = Predicate_index.intern idx constrained in
  Alcotest.(check bool) "constraints distinguish predicates" true (i1 <> i2);
  Alcotest.(check int) "constrained re-interned" i2 (Predicate_index.intern idx constrained)

let test_find () =
  let idx = Predicate_index.create () in
  let p = Predicate.Length { v = 3 } in
  Alcotest.(check (option int)) "absent" None (Predicate_index.find idx p);
  let i = Predicate_index.intern idx p in
  Alcotest.(check (option int)) "present" (Some i) (Predicate_index.find idx p);
  Alcotest.(check bool) "predicate recovered" true
    (Predicate.equal (Predicate_index.predicate idx i) p)

(* The paper's overlap example (Section 4.1.2): /a/*/c and */a/*/c/*/*/*
   share (d(p_a,p_c),=,2), stored once *)
let test_shared_predicate () =
  let idx = Predicate_index.create () in
  let e1 = (Encoder.encode_string "/a/*/c").Encoder.preds in
  let e2 = (Encoder.encode_string "*/a/*/c/*/*/*").Encoder.preds in
  let pids1 = Array.map (Predicate_index.intern idx) e1 in
  let pids2 = Array.map (Predicate_index.intern idx) e2 in
  (* /a/*/c = (p_a,=,1) |-> (d(p_a,p_c),=,2)
     */a/*/c/*/*/* = (p_a,>=,2) |-> (d(p_a,p_c),=,2) |-> (p_c-|,>=,3) *)
  Alcotest.(check int) "shared relative pid" pids1.(1) pids2.(1);
  (* (p_a,=,1), (d(p_a,p_c),=,2) shared, (p_a,>=,2), (p_c-|,>=,3) *)
  Alcotest.(check int) "four distinct predicates" 4 (Predicate_index.size idx)

(* ------------------------------------------------------------------ *)
(* Matching rules (Section 4.1.1) *)

let run_on idx tags =
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags tags);
  res

let test_absolute_matching () =
  let idx = Predicate_index.create () in
  let eq2 = Predicate_index.intern idx (Predicate.Absolute { tag = tv "b"; op = Predicate.Eq; v = 2 }) in
  let ge2 = Predicate_index.intern idx (Predicate.Absolute { tag = tv "b"; op = Predicate.Ge; v = 2 }) in
  let eq3 = Predicate_index.intern idx (Predicate.Absolute { tag = tv "b"; op = Predicate.Eq; v = 3 }) in
  let res = run_on idx [ "a"; "b"; "c"; "b" ] in
  check_pairs "(p_b,=,2)" [ 1, 1 ] (Predicate_index.get res eq2);
  check_pairs "(p_b,>=,2)" [ 1, 1; 2, 2 ] (Predicate_index.get res ge2);
  check_pairs "(p_b,=,3)" [] (Predicate_index.get res eq3);
  Alcotest.(check bool) "is_matched" true (Predicate_index.is_matched res eq2);
  Alcotest.(check bool) "not matched" false (Predicate_index.is_matched res eq3)

let test_relative_matching () =
  let idx = Predicate_index.create () in
  let d1 = Predicate_index.intern idx (Predicate.Relative { first = tv "a"; second = tv "b"; op = Predicate.Eq; v = 2 }) in
  let res = run_on idx [ "a"; "c"; "b"; "b" ] in
  (* only (a^1 at 1, b^1 at 3) has distance exactly 2 *)
  check_pairs "(d(p_a,p_b),=,2)" [ 1, 1 ] (Predicate_index.get res d1)

let test_relative_order_matters () =
  let idx = Predicate_index.create () in
  let d = Predicate_index.intern idx (Predicate.Relative { first = tv "b"; second = tv "a"; op = Predicate.Ge; v = 1 }) in
  let res = run_on idx [ "a"; "b" ] in
  check_pairs "b before a required" [] (Predicate_index.get res d)

let test_end_of_path_matching () =
  let idx = Predicate_index.create () in
  let e2 = Predicate_index.intern idx (Predicate.End_of_path { tag = tv "a"; v = 2 }) in
  let res = run_on idx [ "a"; "b"; "a"; "c" ] in
  (* a^1 at pos 1: 4-1>=2 ok; a^2 at pos 3: 4-3=1 < 2 *)
  check_pairs "(p_a-|,>=,2)" [ 1, 1 ] (Predicate_index.get res e2)

let test_length_matching () =
  let idx = Predicate_index.create () in
  let l3 = Predicate_index.intern idx (Predicate.Length { v = 3 }) in
  let l4 = Predicate_index.intern idx (Predicate.Length { v = 4 }) in
  let res = run_on idx [ "a"; "b"; "c" ] in
  check_pairs "(length,>=,3)" [ 0, 0 ] (Predicate_index.get res l3);
  check_pairs "(length,>=,4)" [] (Predicate_index.get res l4)

(* Table 1, verbatim: path (a,b,c,a,b,c), XPEs a//b/c and c//b//a *)
let test_table_1 () =
  let idx = Predicate_index.create () in
  let intern p = Array.map (Predicate_index.intern idx) p.Encoder.preds in
  let e1 = intern (Encoder.encode_string "a//b/c") in
  let e2 = intern (Encoder.encode_string "c//b//a") in
  let res = run_on idx [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  check_pairs "(d(p_a,p_b),>=,1)" [ 1, 1; 1, 2; 2, 2 ] (Predicate_index.get res e1.(0));
  check_pairs "(d(p_b,p_c),=,1)" [ 1, 1; 2, 2 ] (Predicate_index.get res e1.(1));
  check_pairs "(d(p_c,p_b),>=,1)" [ 1, 2 ] (Predicate_index.get res e2.(0));
  check_pairs "(d(p_b,p_a),>=,1)" [ 1, 2 ] (Predicate_index.get res e2.(1))

let test_epoch_reset () =
  let idx = Predicate_index.create () in
  let p = Predicate_index.intern idx (Predicate.Absolute { tag = tv "a"; op = Predicate.Eq; v = 1 }) in
  let res = Predicate_index.create_results () in
  Predicate_index.run idx res (Publication.of_tags [ "a" ]);
  Alcotest.(check bool) "matched on first run" true (Predicate_index.is_matched res p);
  Predicate_index.run idx res (Publication.of_tags [ "b" ]);
  Alcotest.(check bool) "previous results discarded" false (Predicate_index.is_matched res p);
  check_pairs "get returns empty" [] (Predicate_index.get res p);
  Alcotest.(check int) "matched_count" 0 (Predicate_index.matched_count res)

let test_inline_constraints () =
  let idx = Predicate_index.create () in
  let c v = { Predicate.attr = "x"; cmp = Pf_xpath.Ast.Ge; value = Pf_xpath.Ast.Int v } in
  let pid = Predicate_index.intern idx
      (Predicate.Absolute { tag = tv ~constraints:[ c 3 ] "a"; op = Predicate.Eq; v = 1 }) in
  let res = Predicate_index.create_results () in
  let pub_of attrs =
    let doc = Pf_xml.Tree.doc (Pf_xml.Tree.element ~attrs "a") in
    match Pf_xml.Path.of_document doc with [ p ] -> Publication.of_path p | _ -> assert false
  in
  Predicate_index.run idx res (pub_of [ "x", "5" ]);
  Alcotest.(check bool) "x=5 satisfies >=3" true (Predicate_index.is_matched res pid);
  Predicate_index.run idx res (pub_of [ "x", "2" ]);
  Alcotest.(check bool) "x=2 fails" false (Predicate_index.is_matched res pid);
  Predicate_index.run idx res (pub_of []);
  Alcotest.(check bool) "missing attribute fails" false (Predicate_index.is_matched res pid)

(* one tuple [a] carrying [attrs] verbatim (duplicates and all) *)
let pub_with_attrs attrs =
  let pub = Publication.of_tags [ "a" ] in
  pub.Publication.tuples.(0).Publication.attrs <- attrs;
  pub

(* Anchored groups read an attribute exactly as Eval.attr_satisfies does:
   first binding of the name, int_of_string_opt (String.trim v). Every
   comparison is checked against that oracle and against the expected
   integer reading of each value. *)
let anchored_cases () =
  let idx = Predicate_index.create () in
  let cmps = Pf_xpath.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let preds =
    List.concat_map
      (fun cmp ->
        List.map
          (fun v ->
            let c = { Predicate.attr = "x"; cmp; value = Pf_xpath.Ast.Int v } in
            let p = Predicate.Absolute { tag = tv ~constraints:[ c ] "a"; op = Predicate.Eq; v = 1 } in
            p, c, Predicate_index.intern idx p)
          [ 6; 7; 8; 70 ])
      cmps
  in
  let res = Predicate_index.create_results () in
  fun attrs ->
    Predicate_index.run idx res (pub_with_attrs attrs);
    List.map
      (fun (p, c, pid) ->
        Alcotest.(check bool)
          (Format.asprintf "%a on [%s]" Predicate.pp p
             (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ String.escaped v) attrs)))
          (Pf_xpath.Eval.attr_satisfies attrs
             { Pf_xpath.Ast.attr = c.Predicate.attr; cmp = c.Predicate.cmp; value = c.Predicate.value })
          (Predicate_index.is_matched res pid);
        Predicate_index.is_matched res pid)
      preds

let test_anchor_values () =
  let check = anchored_cases () in
  let matched attrs = List.length (List.filter Fun.id (check attrs)) in
  (* values the decimal fast path declines, read by the general parser *)
  let seven = matched [ "x", "7" ] in
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "%S reads as 7" v) seven (matched [ "x", v ]))
    [ " 7"; "+7"; "0x7"; "007" ];
  Alcotest.(check int) "\"7_0\" reads as 70" (matched [ "x", "70" ]) (matched [ "x", "7_0" ]);
  (* unparsable values satisfy no integer comparison, != included *)
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "%S matches nothing" v) 0 (matched [ "x", v ]))
    [ "abc"; "99999999999999999999"; ""; "7 7" ];
  Alcotest.(check int) "missing attribute matches nothing" 0 (matched [ "y", "7" ])

let test_anchor_duplicate_name () =
  let matched = anchored_cases () in
  Alcotest.(check (list bool)) "first binding wins" (matched [ "x", "7" ])
    (matched [ "x", "7"; "x", "70" ]);
  Alcotest.(check (list bool)) "an unparsable first binding hides later ones"
    (matched [ "x", "abc" ])
    (matched [ "x", "abc"; "x", "7" ]);
  Alcotest.(check (list bool)) "other names before the binding are skipped"
    (matched [ "x", "8" ])
    (matched [ "y", "7"; "x", "8"; "x", "6" ])

(* Occurrence pairs are packed into 31 bits per side: a position beyond
   2^16 must read back intact (16-bit packing turned (70000, 70000) into
   (70001, 4464)). *)
let test_wide_occurrences () =
  let idx = Predicate_index.create () in
  let pid =
    Predicate_index.intern idx (Predicate.Absolute { tag = tv "a"; op = Predicate.Eq; v = 70_000 })
  in
  let res = run_on idx (List.init 70_000 (fun _ -> "a")) in
  check_pairs "(p_a,=,70000)" [ 70_000, 70_000 ] (Predicate_index.get res pid);
  Alcotest.(check (list int)) "packed" [ Predicate_index.pack 70_000 70_000 ]
    (Predicate_index.get_packed res pid)

(* property: matching results obey the Section 4.1.1 rules exactly,
   cross-checked against a naive evaluator over the publication *)
let naive_matches (pred : Predicate.t) (pub : Publication.t) =
  let tuples = Array.to_list pub.Publication.tuples in
  let op_holds op diff v =
    match op with Predicate.Eq -> diff = v | Predicate.Ge -> diff >= v
  in
  match pred with
  | Predicate.Absolute { tag; op; v } ->
    List.filter_map
      (fun tu ->
        if tu.Publication.tag = Symbol.intern tag.Predicate.name
           && op_holds op tu.Publication.pos v
        then Some (tu.Publication.occurrence, tu.Publication.occurrence)
        else None)
      tuples
  | Predicate.Relative { first; second; op; v } ->
    List.concat_map
      (fun t1 ->
        List.filter_map
          (fun t2 ->
            if t1.Publication.tag = Symbol.intern first.Predicate.name
               && t2.Publication.tag = Symbol.intern second.Predicate.name
               && t2.Publication.pos > t1.Publication.pos
               && op_holds op (t2.Publication.pos - t1.Publication.pos) v
            then Some (t1.Publication.occurrence, t2.Publication.occurrence)
            else None)
          tuples)
      tuples
  | Predicate.End_of_path { tag; v } ->
    List.filter_map
      (fun tu ->
        if tu.Publication.tag = Symbol.intern tag.Predicate.name
           && pub.Publication.length - tu.Publication.pos >= v
        then Some (tu.Publication.occurrence, tu.Publication.occurrence)
        else None)
      tuples
  | Predicate.Length { v } -> if pub.Publication.length >= v then [ 0, 0 ] else []

let pred_gen =
  let open QCheck2 in
  Gen.(
    oneof
      [
        (Gen_helpers.tag_gen >>= fun t ->
         oneofl [ Predicate.Eq; Predicate.Ge ] >>= fun op ->
         int_range 1 6 >>= fun v ->
         return (Predicate.Absolute { tag = Predicate.tagvar t; op; v }));
        (Gen_helpers.tag_gen >>= fun t1 ->
         Gen_helpers.tag_gen >>= fun t2 ->
         oneofl [ Predicate.Eq; Predicate.Ge ] >>= fun op ->
         int_range 1 5 >>= fun v ->
         return
           (Predicate.Relative
              { first = Predicate.tagvar t1; second = Predicate.tagvar t2; op; v }));
        (Gen_helpers.tag_gen >>= fun t ->
         int_range 1 5 >>= fun v ->
         return (Predicate.End_of_path { tag = Predicate.tagvar t; v }));
        (int_range 1 6 >>= fun v -> return (Predicate.Length { v }));
      ])

let prop_matching_agrees_with_naive =
  let open QCheck2 in
  let tags_gen = Gen.(list_size (int_range 1 7) Gen_helpers.tag_gen) in
  Test.make ~name:"index matching = naive rule evaluation" ~count:2000
    ~print:(fun (preds, tags) ->
      Format.asprintf "%a on %s" Predicate.pp_list preds (String.concat "/" tags))
    Gen.(pair (list_size (int_range 1 5) pred_gen) tags_gen)
    (fun (preds, tags) ->
      let idx = Predicate_index.create () in
      let pids = List.map (Predicate_index.intern idx) preds in
      let pub = Publication.of_tags tags in
      let res = Predicate_index.create_results () in
      Predicate_index.run idx res pub;
      List.for_all2
        (fun pred pid ->
          sorted_pairs (Predicate_index.get res pid)
          = sorted_pairs (naive_matches pred pub))
        preds pids)

(* ------------------------------------------------------------------ *)
(* Equivalence with the pre-rewrite list-slot implementation
   (Pf_difftest.Predicate_ref): the cache-flat index must agree exactly —
   same pids, same packed pairs in the same order, same matched counts,
   same hit totals — including across re-interning churn (which must not
   perturb anything) and mid-sequence growth (which forces a flat-image
   rebuild between documents). Probes are not equal: the flat index visits
   an anchored pid only when its anchor holds, so its probes lie between
   its hits and the reference's probes. *)

module Pref = Pf_difftest.Predicate_ref

(* like [pred_gen] but most predicates carry attribute constraints, so
   every path of the anchored index is exercised: constraints on
   absolute, end-of-path and relative predicates (first, second or both
   variables), all six comparisons, string values (never anchored, so
   they stay on the scanned slices) and tag variables with two
   constraints (an anchor plus a full check) *)
let constraint_gen =
  let open QCheck2 in
  Gen.(
    frequency [ (4, Gen_helpers.attr_name_gen); (1, return Pf_xpath.Ast.text_attr) ]
    >>= fun attr ->
    oneofl Pf_xpath.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] >>= fun cmp ->
    frequency
      [
        (4, int_range 0 5 >|= fun v -> Pf_xpath.Ast.Int v);
        (1, oneofl [ "1"; "3"; "abc" ] >|= fun v -> Pf_xpath.Ast.Str v);
      ]
    >>= fun value -> return { Predicate.attr; cmp; value })

let ctagvar_gen ~min =
  let open QCheck2 in
  Gen.(
    Gen_helpers.tag_gen >>= fun t ->
    list_size (int_range min 2) constraint_gen >>= fun cs ->
    return (Predicate.tagvar ~constraints:cs t))

let cpred_gen =
  let open QCheck2 in
  let op_gen = Gen.oneofl [ Predicate.Eq; Predicate.Ge ] in
  Gen.(
    oneof
      [
        pred_gen;
        (ctagvar_gen ~min:1 >>= fun tag ->
         op_gen >>= fun op ->
         int_range 1 4 >>= fun v -> return (Predicate.Absolute { tag; op; v }));
        (ctagvar_gen ~min:1 >>= fun tag ->
         int_range 1 4 >>= fun v -> return (Predicate.End_of_path { tag; v }));
        (ctagvar_gen ~min:0 >>= fun first ->
         ctagvar_gen ~min:0 >>= fun second ->
         op_gen >>= fun op ->
         int_range 1 4 >>= fun v -> return (Predicate.Relative { first; second; op; v }));
      ])

let pubs_of_docs docs =
  List.concat_map
    (fun d -> List.map Publication.of_path (Pf_xml.Path.of_document d))
    docs

let agree idx res rdx rres pub =
  Predicate_index.run idx res pub;
  Pref.run rdx rres pub;
  Predicate_index.matched_count res = Pref.matched_count rres
  && List.for_all
       (fun pid ->
         Predicate_index.is_matched res pid = Pref.is_matched rres pid
         && Predicate_index.get_packed res pid = Pref.get_packed rres pid)
       (List.init (Predicate_index.size idx) Fun.id)

let counters_agree (m_new : Predicate_index.metrics) (m_old : Pref.metrics) =
  let probes = Pf_obs.Counter.get m_new.Predicate_index.probes
  and hits = Pf_obs.Counter.get m_new.Predicate_index.hits in
  hits = Pf_obs.Counter.get m_old.Pref.hits
  && hits <= probes
  && probes <= Pf_obs.Counter.get m_old.Pref.probes

let equiv_print (batch1, batch2, docs) =
  Format.asprintf "%a then %a on %d docs" Predicate.pp_list batch1 Predicate.pp_list
    batch2 (List.length docs)

let prop_flat_agrees_with_listslot =
  let open QCheck2 in
  Test.make ~name:"flat index = list-slot reference (with churn)" ~count:600
    ~print:equiv_print
    Gen.(
      triple
        (list_size (int_range 1 5) cpred_gen)
        (list_size (int_range 0 4) cpred_gen)
        (list_size (int_range 1 3) Gen_helpers.doc_gen))
    (fun (batch1, batch2, docs) ->
      let m_new = Predicate_index.make_metrics () in
      let m_old = Pref.make_metrics () in
      let idx = Predicate_index.create ~metrics:m_new () in
      let rdx = Pref.create ~metrics:m_old () in
      let pids1 = List.map (Predicate_index.intern idx) batch1 in
      let rpids1 = List.map (Pref.intern rdx) batch1 in
      let res = Predicate_index.create_results () in
      let rres = Pref.create_results () in
      let pubs = pubs_of_docs docs in
      let k = List.length pubs / 2 in
      let before = List.filteri (fun i _ -> i < k) pubs in
      let after = List.filteri (fun i _ -> i >= k) pubs in
      pids1 = rpids1
      && List.for_all (agree idx res rdx rres) before
      && begin
           (* churn: new predicates force a rebuild before the next run;
              re-interning existing ones must change nothing (same pids,
              no divergence) *)
           let pids2 = List.map (Predicate_index.intern idx) batch2 in
           let rpids2 = List.map (Pref.intern rdx) batch2 in
           let again1 = List.map (Predicate_index.intern idx) batch1 in
           let ragain1 = List.map (Pref.intern rdx) batch1 in
           pids2 = rpids2 && again1 = pids1 && ragain1 = rpids1
         end
      && List.for_all (agree idx res rdx rres) after
      && counters_agree m_new m_old)

(* Publications built directly, so tuples can carry what generated
   documents never do: duplicate attribute names and values only the
   general integer parser reads (or nothing reads). *)
let hostile_steps_gen =
  let open QCheck2 in
  let value_gen =
    Gen.oneofl
      [ "0"; "1"; "2"; "3"; "5"; " 2"; "+1"; "0x2"; "1_0"; "-1"; "abc";
        "99999999999999999999"; "" ]
  in
  let attr_gen =
    Gen.(
      pair
        (frequency [ (4, Gen_helpers.attr_name_gen); (1, return Pf_xpath.Ast.text_attr) ])
        value_gen)
  in
  Gen.(list_size (int_range 1 6) (pair Gen_helpers.tag_gen (list_size (int_range 0 3) attr_gen)))

let pub_of_steps steps =
  let pub = Publication.of_tags (List.map fst steps) in
  List.iteri (fun i (_, attrs) -> pub.Publication.tuples.(i).Publication.attrs <- attrs) steps;
  pub

let prop_flat_agrees_on_hostile_attrs =
  let open QCheck2 in
  Test.make ~name:"flat index = list-slot reference (hostile attribute values)" ~count:600
    ~print:(fun (preds, pubs) ->
      Format.asprintf "%a on %s" Predicate.pp_list preds
        (String.concat " | "
           (List.map
              (fun steps ->
                String.concat "/"
                  (List.map
                     (fun (tag, attrs) ->
                       tag
                       ^ String.concat ""
                           (List.map (fun (k, v) -> Printf.sprintf "[%s=%S]" k v) attrs))
                     steps))
              pubs)))
    Gen.(pair (list_size (int_range 1 8) cpred_gen) (list_size (int_range 1 3) hostile_steps_gen))
    (fun (preds, pubs) ->
      let m_new = Predicate_index.make_metrics () in
      let m_old = Pref.make_metrics () in
      let idx = Predicate_index.create ~metrics:m_new () in
      let rdx = Pref.create ~metrics:m_old () in
      let pids = List.map (Predicate_index.intern idx) preds in
      let rpids = List.map (Pref.intern rdx) preds in
      let res = Predicate_index.create_results () in
      let rres = Pref.create_results () in
      pids = rpids
      && List.for_all (fun steps -> agree idx res rdx rres (pub_of_steps steps)) pubs
      && counters_agree m_new m_old)

(* ------------------------------------------------------------------ *)
(* Chunks: a chunk's view of each of its paths must equal a one-path run
   of that path's publication, with predicates interned between two
   paths of the chunk (growing the pid arrays mid-chunk). The newest-path
   accessors must read the chunk's last path, and the chunk-level matched
   pids and masks must be the union of the paths'. *)

let sorted l = List.sort compare l

let prop_chunk_paths_equal_single_runs =
  let open QCheck2 in
  Test.make ~name:"chunk path view = one-path run" ~count:300 ~print:equiv_print
    Gen.(
      triple
        (list_size (int_range 1 5) cpred_gen)
        (list_size (int_range 0 4) cpred_gen)
        (list_size (int_range 1 4) Gen_helpers.doc_gen))
    (fun (batch1, batch2, docs) ->
      let idx = Predicate_index.create () in
      List.iter (fun p -> ignore (Predicate_index.intern idx p : int)) batch1;
      let pubs =
        List.filteri (fun i _ -> i < Predicate_index.chunk_capacity) (pubs_of_docs docs)
      in
      let res = Predicate_index.create_results () in
      let one = Predicate_index.create_results () in
      Predicate_index.clear res;
      let half = List.length pubs / 2 in
      (* per path: (packed pairs of every pid, matched count) *)
      let expected =
        List.mapi
          (fun j pub ->
            if j = half then
              List.iter (fun p -> ignore (Predicate_index.intern idx p : int)) batch2;
            Predicate_index.run_next idx res pub;
            Predicate_index.run idx one pub;
            ( Array.init (Predicate_index.size idx) (Predicate_index.get_packed one),
              Predicate_index.matched_count one ))
          pubs
      in
      let n = Predicate_index.size idx in
      let pairs_at (pairs, _) pid = if pid < Array.length pairs then pairs.(pid) else [] in
      let last = List.nth expected (List.length expected - 1) in
      Predicate_index.chunk_paths res = List.length pubs
      && List.for_all
           (fun pid ->
             let mask = ref 0 in
             List.iteri
               (fun j e -> if pairs_at e pid <> [] then mask := !mask lor (1 lsl j))
               expected;
             Predicate_index.path_mask res pid = !mask
             && Predicate_index.get_packed res pid = pairs_at last pid
             && Predicate_index.is_matched res pid = (pairs_at last pid <> [])
             && List.for_all Fun.id
                  (List.mapi
                     (fun j e ->
                       Predicate_index.get_packed_on res pid j = pairs_at e pid
                       && Predicate_index.matched_on res pid j = (pairs_at e pid <> []))
                     expected))
           (List.init n Fun.id)
      && Predicate_index.matched_count res = snd last
      && sorted
           (List.init (Predicate_index.chunk_matched_count res)
              (Predicate_index.chunk_matched_pid res))
         = List.filter (fun pid -> Predicate_index.path_mask res pid <> 0) (List.init n Fun.id))

let test_chunk_full () =
  let idx = Predicate_index.create () in
  let p = Predicate_index.intern idx (Predicate.Length { v = 1 }) in
  let res = Predicate_index.create_results () in
  Predicate_index.clear res;
  for _ = 1 to Predicate_index.chunk_capacity do
    Predicate_index.run_next idx res (Publication.of_tags [ "a" ])
  done;
  Alcotest.(check int) "matched on every path"
    ((1 lsl Predicate_index.chunk_capacity) - 1)
    (Predicate_index.path_mask res p);
  (match Predicate_index.run_next idx res (Publication.of_tags [ "a" ]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a full chunk must reject another path");
  Predicate_index.run idx res (Publication.of_tags [ "a" ]);
  Alcotest.(check int) "run starts a one-path chunk" 1 (Predicate_index.chunk_paths res)

let () =
  Alcotest.run "predicate_index"
    [
      ( "interning",
        [
          Alcotest.test_case "dedup" `Quick test_intern_dedup;
          Alcotest.test_case "constraints distinguish" `Quick test_intern_constraints_distinct;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "sharing example (Fig 1)" `Quick test_shared_predicate;
        ] );
      ( "matching",
        [
          Alcotest.test_case "absolute" `Quick test_absolute_matching;
          Alcotest.test_case "relative" `Quick test_relative_matching;
          Alcotest.test_case "relative order" `Quick test_relative_order_matters;
          Alcotest.test_case "end-of-path" `Quick test_end_of_path_matching;
          Alcotest.test_case "length" `Quick test_length_matching;
          Alcotest.test_case "Table 1" `Quick test_table_1;
          Alcotest.test_case "epoch reset" `Quick test_epoch_reset;
          Alcotest.test_case "inline constraints" `Quick test_inline_constraints;
          Alcotest.test_case "anchored attribute values" `Quick test_anchor_values;
          Alcotest.test_case "anchored duplicate attribute" `Quick test_anchor_duplicate_name;
          Alcotest.test_case "70,000-tag occurrence pairs" `Quick test_wide_occurrences;
          Alcotest.test_case "full chunk" `Quick test_chunk_full;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [
            prop_matching_agrees_with_naive;
            prop_flat_agrees_with_listslot;
            prop_flat_agrees_on_hostile_attrs;
            prop_chunk_paths_equal_single_runs;
          ] );
    ]
