(* Bench_compare: the regression gate over two BENCH_results.json
   documents — metric classification, thresholds, host comparability. *)

module J = Pf_obs.Json
module C = Pf_bench.Bench_compare

(* A miniature results document in the predfilter-bench/1 schema; the
   interesting leaves mirror what bench/main.exe records. *)
let doc ?(cores = 1) ?(p99 = 300_000) ?(ms = 10.) ?(docs_per_s = 8_000.)
    ?(hit_ratio = 0.95) ?(identical = true) ?(minor_words = 1e6) () =
  J.Obj
    [
      "schema", J.String "predfilter-bench/1";
      "scale", J.String "scaled";
      "seed", J.Int 7;
      ( "experiments",
        J.Obj
          [
            ( "path-cache",
              J.Obj
                [
                  "hardware_cores", J.Int cores;
                  "shard_mode", J.String "doc+expr";
                  ( "nitf",
                    J.Obj
                      [
                        ( "cached",
                          J.Obj
                            [
                              "ms", J.Float ms;
                              "docs_per_s", J.Float docs_per_s;
                              "hit_ratio", J.Float hit_ratio;
                              "minor_words", J.Float minor_words;
                              "identical_matches", J.Bool identical;
                              ( "latency_ns",
                                J.Obj
                                  [
                                    "count", J.Int 80;
                                    "p50", J.Int 90_000;
                                    "p99", J.Int p99;
                                  ] );
                            ] );
                      ] );
                ] );
          ] );
    ]

let check_ok msg expected v =
  Alcotest.(check bool) msg expected (C.ok v);
  if not expected then
    Alcotest.(check bool) (msg ^ ": something was reported") true
      (v.C.failures <> [] || v.C.incomparable <> [])

let test_identical () =
  let d = doc () in
  let v = C.compare_json d d in
  check_ok "identical runs pass" true v;
  Alcotest.(check (list string)) "no failures" [] v.C.failures;
  Alcotest.(check (list string)) "no incomparability" [] v.C.incomparable

let test_p99_regression () =
  (* doubled p99 must trip the default 30% gate *)
  let v = C.compare_json (doc ()) (doc ~p99:600_000 ()) in
  check_ok "p99 regression fails" false v;
  Alcotest.(check bool) "failure names the leaf" true
    (List.exists
       (fun line ->
         String.length line > 0
         &&
         let has sub =
           let n = String.length sub and m = String.length line in
           let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
           go 0
         in
         has "latency_ns/p99")
       v.C.failures)

let test_within_threshold () =
  (* +20% sits inside the default 30% band; improvements never gate *)
  check_ok "small drift passes" true (C.compare_json (doc ()) (doc ~p99:360_000 ()));
  check_ok "improvement passes" true
    (C.compare_json (doc ()) (doc ~p99:100_000 ~ms:5. ~docs_per_s:16_000. ()));
  (* tighter threshold catches the same drift *)
  check_ok "tight threshold catches it" false
    (C.compare_json ~threshold:0.10 (doc ()) (doc ~p99:360_000 ()))

let test_throughput_regression () =
  (* docs_per_s is higher-is-better *)
  check_ok "throughput drop fails" false
    (C.compare_json (doc ()) (doc ~docs_per_s:4_000. ()))

let test_must_hold () =
  (* a broken identity check gates no matter what *)
  let v =
    C.compare_json ~gate_timing:false (doc ()) (doc ~identical:false ())
  in
  check_ok "identity break fails even without timing gate" false v

let test_host_mismatch () =
  let v = C.compare_json (doc ~cores:1 ()) (doc ~cores:8 ()) in
  Alcotest.(check bool) "core-count change is incomparable" true
    (v.C.incomparable <> []);
  Alcotest.(check bool) "not ok" false (C.ok v)

let test_gate_timing_off () =
  (* across hosts, timing regressions downgrade to warnings but the
     scale-free metrics still gate *)
  let old_d = doc ~cores:1 () in
  let timing_worse = doc ~cores:8 ~p99:900_000 ~ms:40. () in
  let v = C.compare_json ~gate_timing:false old_d timing_worse in
  Alcotest.(check (list string)) "timing not gated" [] v.C.failures;
  Alcotest.(check bool) "but warned about" true (v.C.warnings <> []);
  let free_worse = doc ~cores:8 ~hit_ratio:0.4 ~minor_words:3e6 () in
  let v = C.compare_json ~gate_timing:false old_d free_worse in
  Alcotest.(check bool) "hit ratio still gates" true
    (List.exists
       (fun line ->
         let has sub =
           let n = String.length sub and m = String.length line in
           let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
           go 0
         in
         has "hit_ratio")
       v.C.failures);
  Alcotest.(check bool) "allocation still gates" true
    (List.exists
       (fun line ->
         let has sub =
           let n = String.length sub and m = String.length line in
           let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
           go 0
         in
         has "minor_words")
       v.C.failures)

let test_run_exit_codes () =
  let write d =
    let path = Filename.temp_file "pf_compare" ".json" in
    let oc = open_out path in
    output_string oc (J.to_string d);
    close_out oc;
    path
  in
  let old_p = write (doc ()) in
  let bad_p = write (doc ~p99:900_000 ()) in
  let alien_p = write (doc ~cores:8 ()) in
  let missing_p = Filename.temp_file "pf_compare" ".json" in
  Sys.remove missing_p;
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ old_p; bad_p; alien_p ])
    (fun () ->
      Alcotest.(check int) "clean run exits 0" 0 (C.run old_p old_p);
      Alcotest.(check int) "regression exits 1" 1 (C.run old_p bad_p);
      Alcotest.(check int) "unreadable exits 2" 2 (C.run old_p missing_p);
      Alcotest.(check int) "host mismatch exits 3" 3 (C.run old_p alien_p);
      Alcotest.(check int) "host mismatch ungated exits 0" 0
        (C.run ~gate_timing:false old_p alien_p))

let test_trie_visits () =
  (* the expression walk's work profile is scale-free: more trie nodes
     entered per document gates even across hosts, fewer passes *)
  let occ visits =
    J.Obj
      [
        "schema", J.String "predfilter-bench/1";
        "scale", J.String "scaled";
        "seed", J.Int 7;
        ( "experiments",
          J.Obj
            [
              ( "occurrence-alloc",
                J.Obj
                  [
                    "hardware_cores", J.Int 1;
                    "shard_mode", J.String "sequential";
                    "trie_visits_per_doc", J.Float visits;
                  ] );
            ] );
      ]
  in
  check_ok "more visits fail" false (C.compare_json ~gate_timing:false (occ 50.) (occ 80.));
  check_ok "fewer visits pass" true (C.compare_json ~gate_timing:false (occ 50.) (occ 20.))

let () =
  Alcotest.run "compare"
    [
      ( "compare",
        [
          Alcotest.test_case "identical" `Quick test_identical;
          Alcotest.test_case "p99 regression" `Quick test_p99_regression;
          Alcotest.test_case "threshold band" `Quick test_within_threshold;
          Alcotest.test_case "throughput regression" `Quick test_throughput_regression;
          Alcotest.test_case "identity invariant" `Quick test_must_hold;
          Alcotest.test_case "host mismatch" `Quick test_host_mismatch;
          Alcotest.test_case "gate-timing off" `Quick test_gate_timing_off;
          Alcotest.test_case "run exit codes" `Quick test_run_exit_codes;
          Alcotest.test_case "trie visits gate" `Quick test_trie_visits;
        ] );
    ]
