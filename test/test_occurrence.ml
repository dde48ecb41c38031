(* Tests for the occurrence determination algorithm (Algorithm 1). *)

open Pf_core

let test_table_1_chains () =
  (* a//b/c on (a,b,c,a,b,c): R1 = {(1,1),(1,2),(2,2)}, R2 = {(1,1),(2,2)} —
     the boldface combination (1,1),(1,1) is a true match *)
  let rs = [| [ 1, 1; 1, 2; 2, 2 ]; [ 1, 1; 2, 2 ] |] in
  Alcotest.(check bool) "match" true (Occurrence.matches rs);
  Alcotest.(check bool) "faithful agrees" true (Occurrence.matches_faithful rs);
  (* c//b//a: R1 = {(1,2)}, R2 = {(1,2)} — 2 <> 1, no chain *)
  let rs = [| [ 1, 2 ]; [ 1, 2 ] |] in
  Alcotest.(check bool) "no match" false (Occurrence.matches rs);
  Alcotest.(check bool) "faithful agrees (no)" false (Occurrence.matches_faithful rs)

let test_empty_cases () =
  Alcotest.(check bool) "no predicates" false (Occurrence.matches [||]);
  Alcotest.(check bool) "faithful no predicates" false (Occurrence.matches_faithful [||]);
  Alcotest.(check bool) "empty R_i" false (Occurrence.matches [| [ 1, 1 ]; [] |]);
  Alcotest.(check bool) "faithful empty R_i" false
    (Occurrence.matches_faithful [| [ 1, 1 ]; [] |]);
  Alcotest.(check bool) "single" true (Occurrence.matches [| [ 3, 4 ] |]);
  Alcotest.(check bool) "faithful single" true (Occurrence.matches_faithful [| [ 3, 4 ] |])

let test_backtracking_needed () =
  (* the first choice (1,2) dead-ends; backtracking must find (1,1)->(1,3) *)
  let rs = [| [ 1, 2; 1, 1 ]; [ 1, 3 ] |] in
  Alcotest.(check bool) "backtrack" true (Occurrence.matches rs);
  Alcotest.(check bool) "faithful backtrack" true (Occurrence.matches_faithful rs);
  (* deep backtracking across three levels *)
  let rs = [| [ 1, 1; 1, 2 ]; [ 1, 5; 2, 3 ]; [ 3, 4 ] |] in
  Alcotest.(check bool) "deep" true (Occurrence.matches rs);
  Alcotest.(check bool) "faithful deep" true (Occurrence.matches_faithful rs)

let test_discontinuous () =
  (* the paper's pruning example: (1,1) then (2,3) is not a candidate *)
  let rs = [| [ 1, 1 ]; [ 2, 3 ] |] in
  Alcotest.(check bool) "discontinuous" false (Occurrence.matches rs)

let test_iter_chains_enumerates () =
  let rs = [| [ 1, 1; 1, 2 ]; [ 1, 3; 2, 3; 2, 4 ] |] in
  let chains = ref [] in
  let found =
    Occurrence.iter_chains rs (fun c ->
        chains := Array.to_list c :: !chains;
        false)
  in
  Alcotest.(check bool) "no chain accepted" false found;
  Alcotest.(check (list (list (pair int int))))
    "all valid chains enumerated"
    [ [ 1, 1; 1, 3 ]; [ 1, 2; 2, 3 ]; [ 1, 2; 2, 4 ] ]
    (List.rev !chains)

let test_iter_chains_stops_on_accept () =
  let rs = [| [ 1, 1; 1, 2 ]; [ 1, 3; 2, 3 ] |] in
  let count = ref 0 in
  let found =
    Occurrence.iter_chains rs (fun _ ->
        incr count;
        true)
  in
  Alcotest.(check bool) "accepted" true found;
  Alcotest.(check int) "stopped after first" 1 !count

let prop_implementations_agree =
  QCheck2.Test.make ~name:"DFS = faithful Algorithm 1" ~count:5000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      Occurrence.matches rs = Occurrence.matches_faithful rs)

let prop_matches_iff_chain_exists =
  QCheck2.Test.make ~name:"matches <=> a valid chain exists (brute force)" ~count:3000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      (* brute force: try all combinations *)
      let n = Array.length rs in
      let rec brute i prev =
        if i >= n then true
        else
          List.exists (fun (o1, o2) -> (i = 0 || o1 = prev) && brute (i + 1) o2) rs.(i)
      in
      Occurrence.matches rs = (n > 0 && brute 0 (-1)))

let prop_iter_chains_consistent =
  QCheck2.Test.make ~name:"iter_chains finds a chain iff matches" ~count:3000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      let found = Occurrence.iter_chains rs (fun _ -> true) in
      found = Occurrence.matches rs)

(* ------------------------------------------------------------------ *)
(* Brute-force oracle: enumerate the full cartesian product of occurrence
   assignments — one pair from each R_i, no pruning, no sharing — and test
   the chain constraint on each assignment. Exponential, but exact; the
   generators keep |R_1| * ... * |R_n| small enough to enumerate. *)

let all_assignments rs =
  let n = Array.length rs in
  let acc = ref [] in
  let rec go i chain =
    if i = n then acc := List.rev chain :: !acc
    else List.iter (fun p -> go (i + 1) (p :: chain)) rs.(i)
  in
  if n > 0 then go 0 [];
  List.rev !acc

let chain_ok chain =
  let rec ok = function
    | (_, o2) :: ((o1', _) :: _ as rest) -> o2 = o1' && ok rest
    | _ -> true
  in
  ok chain

let brute_matches rs = List.exists chain_ok (all_assignments rs)

let prop_cartesian_oracle =
  QCheck2.Test.make ~name:"matches = naive cartesian enumeration" ~count:3000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      Occurrence.matches rs = brute_matches rs)

let prop_cartesian_oracle_dense =
  (* longer chains over a dense occurrence range: most pairs connect, so
     dead ends appear deep and the backtracking is heavily exercised *)
  QCheck2.Test.make ~name:"dense repeated-tag results: all implementations = oracle"
    ~count:1000 ~print:Gen_helpers.results_print Gen_helpers.dense_results_gen
    (fun rs ->
      let want = brute_matches rs in
      Occurrence.matches rs = want && Occurrence.matches_faithful rs = want)

let prop_iter_chains_complete =
  (* iter_chains must enumerate exactly the valid assignments, in order *)
  QCheck2.Test.make ~name:"iter_chains = the valid cartesian assignments"
    ~count:1000 ~print:Gen_helpers.results_print Gen_helpers.dense_results_gen
    (fun rs ->
      let enumerated = ref [] in
      ignore
        (Occurrence.iter_chains rs (fun c ->
             enumerated := Array.to_list c :: !enumerated;
             false));
      List.rev !enumerated = List.filter chain_ok (all_assignments rs))

(* Repeated-tag document paths: a tiny {a,b} alphabet makes the same tag
   recur along one path, so occurrence numbers repeat and the engine's
   occurrence determination must backtrack. The reference evaluator on
   document paths is the oracle. *)
let prop_engine_matches_eval_on_repeated_tags =
  let open QCheck2 in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 6) Gen_helpers.repeated_tag_path_gen)
      (Gen.list_size (Gen.int_range 1 4) Gen_helpers.repeated_tag_doc_path_gen)
  in
  let print (exprs, dps) =
    String.concat " ; " (List.map Gen_helpers.path_print exprs)
    ^ " @ "
    ^ String.concat " ; "
        (List.map
           (fun dp ->
             String.concat "/"
               (Array.to_list
                  (Array.map (fun (s : Pf_xml.Path.step) -> s.Pf_xml.Path.tag)
                     dp.Pf_xml.Path.steps)))
           dps)
  in
  Test.make ~name:"engine = eval on repeated-tag document paths" ~count:1000 ~print gen
    (fun (exprs, dps) ->
      List.for_all
        (fun variant ->
          let eng = Engine.create ~variant () in
          let ids = List.map (Engine.add eng) exprs in
          List.for_all
            (fun dp ->
              let matched = Engine.match_path eng dp in
              List.for_all2
                (fun id e ->
                  List.mem id matched = Pf_xpath.Eval.matches_doc_path e dp)
                ids exprs)
            dps)
        [ Expr_index.Basic; Expr_index.Access_predicate ])

(* ------------------------------------------------------------------ *)
(* Packed arena: the flat reusable representation must agree with the
   list-based implementations on every entry point. One arena shared by
   all cases exercises the cross-document reuse (epoch/cursor reset), not
   just a fresh structure. *)

let shared_arena = Occurrence.create_arena ()

let prop_packed_agrees_with_lists =
  QCheck2.Test.make ~name:"packed arena = list matches (both algorithms)" ~count:5000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      let a = shared_arena in
      Occurrence.load a rs;
      Occurrence.matches_packed a = Occurrence.matches rs
      && Occurrence.matches_faithful_packed a = Occurrence.matches_faithful rs)

let prop_packed_agrees_dense =
  QCheck2.Test.make ~name:"packed arena = list matches (dense repeated tags)"
    ~count:1000 ~print:Gen_helpers.results_print Gen_helpers.dense_results_gen
    (fun rs ->
      let a = shared_arena in
      Occurrence.load a rs;
      Occurrence.matches_packed a = Occurrence.matches rs
      && Occurrence.matches_faithful_packed a = Occurrence.matches_faithful rs)

let prop_iter_chains_packed_agrees =
  QCheck2.Test.make ~name:"packed chain enumeration = list enumeration" ~count:2000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      let a = shared_arena in
      Occurrence.load a rs;
      let packed = ref [] in
      ignore
        (Occurrence.iter_chains_packed a (fun c n ->
             packed :=
               List.init n (fun i ->
                   ( Predicate_index.packed_first c.(i),
                     Predicate_index.packed_second c.(i) ))
               :: !packed;
             false));
      let listed = ref [] in
      ignore
        (Occurrence.iter_chains rs (fun c ->
             listed := Array.to_list c :: !listed;
             false));
      List.rev !packed = List.rev !listed)

let prop_chains_are_valid =
  QCheck2.Test.make ~name:"every enumerated chain satisfies the constraints" ~count:2000
    ~print:Gen_helpers.results_print Gen_helpers.results_gen (fun rs ->
      let ok = ref true in
      ignore
        (Occurrence.iter_chains rs (fun chain ->
             for i = 1 to Array.length chain - 1 do
               if fst chain.(i) <> snd chain.(i - 1) then ok := false
             done;
             Array.iteri (fun i pair -> if not (List.mem pair rs.(i)) then ok := false) chain;
             false));
      !ok)

let () =
  Alcotest.run "occurrence"
    [
      ( "unit",
        [
          Alcotest.test_case "Table 1 chains (Example 2)" `Quick test_table_1_chains;
          Alcotest.test_case "empty cases" `Quick test_empty_cases;
          Alcotest.test_case "backtracking" `Quick test_backtracking_needed;
          Alcotest.test_case "discontinuous occurrences" `Quick test_discontinuous;
          Alcotest.test_case "iter_chains enumerates" `Quick test_iter_chains_enumerates;
          Alcotest.test_case "iter_chains stops on accept" `Quick test_iter_chains_stops_on_accept;
        ] );
      ( "properties",
        List.map Gen_helpers.to_alcotest
          [
            prop_implementations_agree;
            prop_matches_iff_chain_exists;
            prop_iter_chains_consistent;
            prop_chains_are_valid;
            prop_packed_agrees_with_lists;
            prop_packed_agrees_dense;
            prop_iter_chains_packed_agrees;
          ] );
      ( "brute-force oracle",
        List.map Gen_helpers.to_alcotest
          [
            prop_cartesian_oracle;
            prop_cartesian_oracle_dense;
            prop_iter_chains_complete;
            prop_engine_matches_eval_on_repeated_tags;
          ] );
    ]
