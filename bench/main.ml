(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus the ablation called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- all experiments, scaled sizes
     dune exec bench/main.exe -- --full       -- paper-scale sizes (slow)
     dune exec bench/main.exe -- fig6a fig9   -- selected experiments
     dune exec bench/main.exe -- micro        -- bechamel micro-benchmarks

   Absolute times differ from the paper (2002 Xeon + C vs. this container +
   OCaml); the reproduced quantities are scaling shapes and algorithm
   orderings. EXPERIMENTS.md records paper-vs-measured per experiment. *)

open Pf_workload
module B = Pf_bench.Bench_util
module J = Pf_obs.Json

let full = ref false
let seed = ref 7

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every experiment records key/value pairs
   under its own name; the driver writes them all to BENCH_results.json
   so runs can be diffed and plotted without scraping the tables. *)

let current_exp = ref ""
let recorded : (string * (string * J.t) list ref) list ref = ref []

let record key v =
  match List.assoc_opt !current_exp !recorded with
  | Some l -> l := (key, v) :: !l
  | None -> recorded := (!current_exp, ref [ key, v ]) :: !recorded

let recorded_has key =
  match List.assoc_opt !current_exp !recorded with
  | Some l -> List.mem_assoc key !l
  | None -> false

(* Latency-percentile snapshot of one quantile histogram in [reg], as the
   compact JSON object Export.registry_json produces for it. *)
let latency_json reg name =
  match Pf_obs.Export.registry_json reg with
  | J.Obj fields -> (
    match List.assoc_opt name fields with Some v -> v | None -> J.Null)
  | _ -> J.Null

let json_of_series (s : B.series) =
  J.Obj
    [
      "label", J.String s.B.label;
      ( "points",
        J.List (List.map (fun (x, y) -> J.List [ J.Float x; J.Float y ]) s.B.points) );
    ]

let record_series key series = record key (J.List (List.map json_of_series series))

let write_results path =
  let experiments =
    List.rev_map (fun (name, fields) -> name, J.Obj (List.rev !fields)) !recorded
  in
  let doc =
    J.Obj
      [
        "schema", J.String "predfilter-bench/1";
        "scale", J.String (if !full then "paper" else "scaled");
        "seed", J.Int !seed;
        "experiments", J.Obj experiments;
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nresults written to %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Workload construction *)

let queries dtd ?(distinct = true) ?(w = 0.2) ?(dop = 0.2) ?(filters = 0) count =
  Xpath_gen.generate dtd
    {
      Presets.paper_queries with
      Xpath_gen.count;
      distinct;
      wildcard_prob = w;
      descendant_prob = dop;
      filters_per_path = filters;
      seed = !seed;
    }

let documents dtd_name n =
  let dtd = match Dtd.by_name dtd_name with Some d -> d | None -> assert false in
  Xml_gen.generate_many dtd
    { (Presets.documents_for dtd_name) with Xml_gen.seed = !seed + 1000 }
    n

let dtd_of = function
  | "nitf" -> Dtd.nitf_like ()
  | "psd" -> Dtd.psd_like ()
  | _ -> assert false

let build (algo : B.algorithm) qs =
  List.iter algo.B.add qs;
  algo.B.finish_build ()

let match_percentage (algo : B.algorithm) docs nexprs =
  let total = List.fold_left (fun acc d -> acc + algo.B.match_doc d) 0 docs in
  100. *. float total /. float (nexprs * List.length docs)

(* ------------------------------------------------------------------ *)
(* Table 1: the predicate matching example *)

let table1 () =
  Printf.printf "\n== Table 1: predicate matching results ==\n";
  Printf.printf "   XML path: (a,b,c,a,b,c); XPEs: a//b/c and c//b//a\n\n";
  let idx = Pf_core.Predicate_index.create () in
  let exprs = [ "a//b/c"; "c//b//a" ] in
  let encoded =
    List.map
      (fun src ->
        ( src,
          Array.map
            (fun p -> p, Pf_core.Predicate_index.intern idx p)
            (Pf_core.Encoder.encode_string src).Pf_core.Encoder.preds ))
      exprs
  in
  let res = Pf_core.Predicate_index.create_results () in
  Pf_core.Predicate_index.run idx res
    (Pf_core.Publication.of_tags [ "a"; "b"; "c"; "a"; "b"; "c" ]);
  List.iter
    (fun (src, preds) ->
      Array.iteri
        (fun i (pred, pid) ->
          let pairs =
            List.sort compare (Pf_core.Predicate_index.get res pid)
            |> List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
            |> String.concat ", "
          in
          Format.printf "  %-9s %-22s %s@."
            (if i = 0 then src else "")
            (Format.asprintf "%a" Pf_core.Predicate.pp pred)
            pairs)
        preds;
      (* occurrence determination verdict, as in Example 2 *)
      let rs = Array.map (fun (_, pid) -> Pf_core.Predicate_index.get res pid) preds in
      Printf.printf "  %-9s => %s\n" ""
        (if Pf_core.Occurrence.matches rs then "match" else "noMatch"))
    encoded

(* ------------------------------------------------------------------ *)
(* Figure 6: varying the number of distinct XPEs *)

let sweep_algorithms ~algos ~counts ~make_queries ~docs ~title ~x_label =
  (* generate each workload size once and share it across algorithms *)
  let columns =
    List.map
      (fun count ->
        let qs = make_queries count in
        ( float count,
          List.map
            (fun make_algo ->
              let algo = make_algo () in
              build algo qs;
              let ms = B.filter_time_ms algo docs in
              algo.B.name, (ms, latency_json algo.B.metrics "doc_latency_ns"))
            algos ))
      counts
  in
  let labels = List.map (fun make_algo -> (make_algo ()).B.name) algos in
  let series =
    List.map
      (fun label ->
        {
          B.label;
          points = List.map (fun (x, cells) -> x, fst (List.assoc label cells)) columns;
        })
      labels
  in
  (* per-engine latency percentiles at each sweep point, for the compare
     gate (the series points above are means) *)
  record "latency_ns_by_engine"
    (J.List
       (List.map
          (fun (x, cells) ->
            J.Obj
              [
                "count", J.Float x;
                "engines", J.Obj (List.map (fun (name, (_, lat)) -> name, lat) cells);
              ])
          columns));
  B.print_table ~title ~x_label ~y_label:"ms per document" series;
  series

let paper_algos =
  [
    (fun () -> B.predicate_engine ~variant:Pf_core.Expr_index.Basic ());
    (fun () -> B.predicate_engine ~variant:Pf_core.Expr_index.Prefix_covering ());
    (fun () -> B.predicate_engine ~variant:Pf_core.Expr_index.Access_predicate ());
    (fun () -> B.yfilter ());
    (fun () -> B.index_filter ());
  ]

let fig6 name dtd_name counts ndocs =
  let dtd = dtd_of dtd_name in
  let docs = documents dtd_name ndocs in
  (* report the workload's match percentage (the regime driver) *)
  let probe_count = List.nth counts (List.length counts - 1) in
  let probe = B.predicate_engine () in
  let probe_qs = queries dtd probe_count in
  build probe probe_qs;
  let pct = match_percentage probe docs (List.length probe_qs) in
  record "dtd" (J.String dtd_name);
  record "documents" (J.Int ndocs);
  record "match_percentage" (J.Float pct);
  record "probe_engine_counters" (Pf_obs.Export.registry_json probe.B.metrics);
  B.print_kv
    ~title:(Printf.sprintf "%s setup (%s)" name dtd_name)
    [
      "documents", string_of_int ndocs;
      "avg tags/document",
      string_of_int
        (List.fold_left (fun a d -> a + Pf_xml.Tree.count_elements d) 0 docs / ndocs);
      "L, W, DO, D", "6, 0.2, 0.2, distinct";
      "match percentage", Printf.sprintf "%.1f%%" pct;
    ];
  record_series "series"
    (sweep_algorithms ~algos:paper_algos ~counts
       ~make_queries:(fun c -> queries dtd c)
       ~docs
       ~title:
         (Printf.sprintf "%s: distinct XPEs, %s DTD (paper Figure 6%s)" name
            (String.uppercase_ascii dtd_name)
            (if dtd_name = "nitf" then "a" else "b"))
       ~x_label:"#XPEs")

let fig6a () =
  let counts = if !full then [ 25_000; 50_000; 75_000; 100_000; 125_000 ] else [ 5_000; 15_000; 30_000; 50_000 ] in
  fig6 "fig6a" "nitf" counts (if !full then 500 else 60)

let fig6b () =
  let counts = if !full then [ 1_000; 2_500; 5_000; 7_500; 10_000 ] else [ 1_000; 2_500; 5_000; 10_000 ] in
  fig6 "fig6b" "psd" counts (if !full then 500 else 60)

(* ------------------------------------------------------------------ *)
(* Figure 7: duplicate expression workloads *)

let fig7 () =
  let counts =
    if !full then [ 500_000; 1_000_000; 2_000_000; 3_500_000; 5_000_000 ]
    else [ 50_000; 100_000; 200_000 ]
  in
  let dtd = dtd_of "psd" in
  let ndocs = if !full then 500 else 20 in
  let docs = documents "psd" ndocs in
  let qs_of c = queries dtd ~distinct:false c in
  let largest = qs_of (List.nth counts (List.length counts - 1)) in
  B.print_kv ~title:"fig7 setup (PSD, duplicates)"
    [
      "documents", string_of_int ndocs;
      "D", "false (duplicates kept)";
      "distinct at largest size",
      string_of_int (Xpath_gen.distinct_count largest);
    ];
  record "documents" (J.Int ndocs);
  record "distinct_at_largest" (J.Int (Xpath_gen.distinct_count largest));
  record_series "series"
    (sweep_algorithms ~algos:paper_algos ~counts ~make_queries:qs_of ~docs
       ~title:"fig7: duplicate XPEs, PSD DTD (paper Figure 7)"
       ~x_label:"#XPEs")

(* ------------------------------------------------------------------ *)
(* Figure 8: wildcard and descendant probability sweeps *)

let fig8_sweep ~vary () =
  let count = if !full then 2_000_000 else 100_000 in
  let probs = [ 0.0; 0.2; 0.4; 0.6; 0.8; 0.9 ] in
  let dtd = dtd_of "nitf" in
  let ndocs = if !full then 500 else 20 in
  let docs = documents "nitf" ndocs in
  (* the paper omits Index-Filter from the wildcard sweep (its index
     streams degenerate under wildcards); we keep it for the DO sweep *)
  let algos =
    [
      (fun () -> B.predicate_engine ~variant:Pf_core.Expr_index.Access_predicate ());
      (fun () -> B.yfilter ());
    ]
    @ (if vary = `Descendant then [ (fun () -> B.index_filter ()) ] else [])
  in
  let make_queries p =
    match vary with
    | `Wildcard -> queries dtd ~distinct:false ~w:p count
    | `Descendant -> queries dtd ~distinct:false ~dop:p count
  in
  let name, what =
    match vary with
    | `Wildcard -> "fig8", "wildcard probability W"
    | `Descendant -> "fig8-do", "descendant probability DO"
  in
  (* also report distinct predicate counts across the sweep: the paper
     explains the curve by the rise-then-fall of distinct predicates *)
  let distinct_preds =
    List.map
      (fun p ->
        let e = Pf_core.Engine.create () in
        List.iter (fun q -> ignore (Pf_core.Engine.add e q)) (make_queries p);
        p, Pf_core.Engine.distinct_predicate_count e)
      probs
  in
  B.print_kv
    ~title:(Printf.sprintf "%s: distinct predicates vs %s" name what)
    (List.map (fun (p, n) -> Printf.sprintf "%.1f" p, string_of_int n) distinct_preds);
  record "distinct_predicates"
    (J.List (List.map (fun (p, n) -> J.List [ J.Float p; J.Int n ]) distinct_preds));
  let lat_cells = ref [] in
  let series =
    List.map
      (fun make_algo ->
        let label = (make_algo ()).B.name in
        let points =
          List.map
            (fun p ->
              let algo = make_algo () in
              build algo (make_queries p);
              let ms = B.filter_time_ms algo docs in
              lat_cells :=
                J.Obj
                  [
                    "engine", J.String label;
                    "prob", J.Float p;
                    "latency_ns", latency_json algo.B.metrics "doc_latency_ns";
                  ]
                :: !lat_cells;
              p, ms)
            probs
        in
        { B.label; points })
      algos
  in
  record "latency_ns_by_engine" (J.List (List.rev !lat_cells));
  B.print_table
    ~title:(Printf.sprintf "%s: varying %s, NITF, %d XPEs (paper Figure 8)" name what count)
    ~x_label:what ~y_label:"ms per document" series;
  record_series "series" series

let fig8 () = fig8_sweep ~vary:`Wildcard ()
let fig8_do () = fig8_sweep ~vary:`Descendant ()

(* ------------------------------------------------------------------ *)
(* Figure 9: attribute-based filters, inline vs selection postponed *)

let fig9_one dtd_name () =
  let dtd = dtd_of dtd_name in
  let counts = if !full then [ 25_000; 50_000; 100_000 ] else [ 10_000; 25_000 ] in
  let ndocs = if !full then 200 else 20 in
  let docs = documents dtd_name ndocs in
  let algos =
    [
      ( "inline-1",
        fun () -> B.predicate_engine ~attr_mode:Pf_core.Engine.Inline () );
      ( "inline-2",
        fun () -> B.predicate_engine ~attr_mode:Pf_core.Engine.Inline () );
      ( "sp-1",
        fun () -> B.predicate_engine ~attr_mode:Pf_core.Engine.Postponed () );
      ( "sp-2",
        fun () -> B.predicate_engine ~attr_mode:Pf_core.Engine.Postponed () );
      ("yfilter-sp-1", fun () -> B.yfilter ());
      ("yfilter-sp-2", fun () -> B.yfilter ());
    ]
  in
  let filters_of label = if String.length label > 0 && label.[String.length label - 1] = '2' then 2 else 1 in
  let lat_cells = ref [] in
  let series =
    List.map
      (fun (label, make_algo) ->
        let points =
          List.map
            (fun count ->
              let qs = queries dtd ~filters:(filters_of label) count in
              let algo = make_algo () in
              build algo qs;
              let ms = B.filter_time_ms algo docs in
              lat_cells :=
                J.Obj
                  [
                    "engine", J.String label;
                    "count", J.Int count;
                    "latency_ns", latency_json algo.B.metrics "doc_latency_ns";
                  ]
                :: !lat_cells;
              float count, ms)
            counts
        in
        { B.label; points })
      algos
  in
  record
    (Printf.sprintf "latency_ns_by_engine_%s" dtd_name)
    (J.List (List.rev !lat_cells));
  B.print_table
    ~title:
      (Printf.sprintf
         "fig9 (%s): attribute filters per path, inline vs selection postponed (paper Figure 9)"
         (String.uppercase_ascii dtd_name))
    ~x_label:"#XPEs" ~y_label:"ms per document" series;
  record_series (Printf.sprintf "series_%s" dtd_name) series

let fig9 () =
  fig9_one "nitf" ();
  fig9_one "psd" ()

(* ------------------------------------------------------------------ *)
(* Figure 10: matching cost breakdown *)

let fig10 () =
  let counts =
    if !full then [ 1_000_000; 2_000_000; 3_000_000; 4_000_000; 5_000_000 ]
    else [ 100_000; 250_000; 500_000 ]
  in
  let dtd = dtd_of "nitf" in
  let ndocs = if !full then 200 else 15 in
  let docs = documents "nitf" ndocs in
  (* parse time, reported separately as in the paper *)
  let sources = List.map Pf_xml.Print.to_string docs in
  let (), parse_ms =
    B.time_ms (fun () -> List.iter (fun s -> ignore (Pf_xml.Sax.parse_document s)) sources)
  in
  Printf.printf "\n-- fig10: average parse time: %.0f microseconds/document --\n"
    (1000. *. parse_ms /. float ndocs);
  record "parse_us_per_doc" (J.Float (1000. *. parse_ms /. float ndocs));
  let lat_cells = ref [] in
  let rows =
    List.map
      (fun count ->
        let e =
          Pf_core.Engine.create ~variant:Pf_core.Expr_index.Access_predicate
            ~collect_stats:true ()
        in
        List.iter
          (fun q -> ignore (Pf_core.Engine.add e q))
          (queries dtd ~distinct:false count);
        List.iter (fun d -> ignore (Pf_core.Engine.match_document e d)) docs;
        lat_cells :=
          J.Obj
            [
              "xpes", J.Int count;
              "latency_ns", latency_json (Pf_core.Engine.metrics e) "doc_latency_ns";
            ]
          :: !lat_cells;
        let st = Pf_core.Engine.stats e in
        let per_doc ns = ns /. 1e6 /. float ndocs in
        ( count,
          per_doc st.Pf_core.Engine.predicate_ns,
          per_doc st.Pf_core.Engine.expr_ns,
          per_doc st.Pf_core.Engine.collect_ns,
          Pf_core.Engine.distinct_predicate_count e ))
      counts
  in
  record "latency_ns_by_count" (J.List (List.rev !lat_cells));
  B.print_table
    ~title:"fig10: cost breakdown, NITF duplicates (paper Figure 10)"
    ~x_label:"#XPEs" ~y_label:"ms per document"
    [
      { B.label = "predicate-matching";
        points = List.map (fun (c, p, _, _, _) -> float c, p) rows };
      { B.label = "expr-matching";
        points = List.map (fun (c, _, x, _, _) -> float c, x) rows };
      { B.label = "collect/other";
        points = List.map (fun (c, _, _, o, _) -> float c, o) rows };
    ];
  B.print_kv ~title:"fig10: distinct predicates stored"
    (List.map
       (fun (c, _, _, _, n) -> Printf.sprintf "%d XPEs" c, string_of_int n)
       rows);
  record "rows"
    (J.List
       (List.map
          (fun (c, p, x, o, n) ->
            J.Obj
              [
                "xpes", J.Int c;
                "predicate_ms_per_doc", J.Float p;
                "expr_ms_per_doc", J.Float x;
                "collect_ms_per_doc", J.Float o;
                "distinct_predicates", J.Int n;
              ])
          rows))

(* ------------------------------------------------------------------ *)
(* Ablation: occurrence-run sharing (our extension) *)

let ablation () =
  let count = if !full then 500_000 else 50_000 in
  List.iter
    (fun dtd_name ->
      let dtd = dtd_of dtd_name in
      let docs = documents dtd_name (if !full then 200 else 20) in
      let qs = queries dtd count in
      let run name variant dedup_paths =
        let e = Pf_core.Engine.create ~variant ~dedup_paths () in
        List.iter (fun q -> ignore (Pf_core.Engine.add e q)) qs;
        let (), ms =
          B.time_ms (fun () ->
              List.iter (fun d -> ignore (Pf_core.Engine.match_document e d)) docs)
        in
        ( name,
          ms /. float (List.length docs),
          Pf_core.Engine.occurrence_runs e,
          Pf_obs.Export.registry_json (Pf_core.Engine.metrics e) )
      in
      let rows =
        List.map
          (fun variant ->
            run (Pf_core.Expr_index.variant_name variant) variant false)
          Pf_core.Expr_index.[ Basic; Prefix_covering; Access_predicate; Shared ]
        @ [
            run "basic-pc-ap+dedup" Pf_core.Expr_index.Access_predicate true;
            run "shared+dedup" Pf_core.Expr_index.Shared true;
          ]
      in
      Printf.printf "\n== ablation (%s, %d XPEs): occurrence determination runs ==\n"
        (String.uppercase_ascii dtd_name) (List.length qs);
      Printf.printf "%16s %14s %16s\n" "variant" "ms/doc" "occurrence runs";
      List.iter
        (fun (name, ms, runs, _) -> Printf.printf "%16s %14.3f %16d\n" name ms runs)
        rows;
      record (Printf.sprintf "rows_%s" dtd_name)
        (J.List
           (List.map
              (fun (name, ms, runs, counters) ->
                J.Obj
                  [
                    "variant", J.String name;
                    "ms_per_doc", J.Float ms;
                    "occurrence_runs", J.Int runs;
                    "counters", counters;
                  ])
              rows)))
    [ "nitf"; "psd" ]

(* ------------------------------------------------------------------ *)
(* Insertion throughput (extension): the paper notes "XPath insertion time
   is an interesting metric, but not considered here" and argues its
   insertions are constant-time per predicate; this experiment measures
   registration throughput across all engines, plus removal for ours. *)

let insertion () =
  let count = if !full then 500_000 else 100_000 in
  let dtd = dtd_of "nitf" in
  let qs = queries dtd count in
  let n = List.length qs in
  Printf.printf "\n== insertion: registering %d distinct NITF expressions ==\n" n;
  Printf.printf "%16s %12s %16s\n" "engine" "total (ms)" "per expr (us)";
  List.iter
    (fun make_algo ->
      let algo : B.algorithm = make_algo () in
      let (), ms = B.time_ms (fun () -> build algo qs) in
      Printf.printf "%16s %12.1f %16.2f\n" algo.B.name ms (1000. *. ms /. float n);
      record algo.B.name
        (J.Obj [ "total_ms", J.Float ms; "us_per_expr", J.Float (1000. *. ms /. float n) ]))
    paper_algos;
  (* removal: constant-time per expression (trie sid-list update) *)
  let e = Pf_core.Engine.create () in
  let sids = List.map (Pf_core.Engine.add e) qs in
  let (), ms =
    B.time_ms (fun () -> List.iter (fun sid -> ignore (Pf_core.Engine.remove e sid)) sids)
  in
  Printf.printf "%16s %12.1f %16.2f   (Engine.remove)\n" "removal" ms
    (1000. *. ms /. float n);
  record "removal"
    (J.Obj [ "total_ms", J.Float ms; "us_per_expr", J.Float (1000. *. ms /. float n) ])

(* ------------------------------------------------------------------ *)
(* Service throughput (extension): the dissemination scenario scaled out
   over domains. One engine, one subscription set, the same document
   stream — filtered sequentially and then through Pf_service in both
   parallelism modes (document-replicated and expression-sharded) at 1, 2
   and 4 worker domains. Documents/second per configuration, with a
   match-set identity check against the sequential run (the speedup must
   not come from answering differently). Speedups depend on available
   cores: with [hardware_cores] = 1 every configuration collapses to
   sequential throughput minus coordination overhead, and the recorded
   ["bound"] names the stage that caps scaling. *)

let service () =
  let count = if !full then 100_000 else 20_000 in
  let ndocs = if !full then 400 else 120 in
  let dtd = dtd_of "nitf" in
  let qs = queries dtd count in
  let docs = documents "nitf" ndocs in
  let eng = Pf_core.Engine.create () in
  List.iter (fun q -> ignore (Pf_core.Engine.add eng q)) qs;
  let expected = List.map (Pf_core.Engine.match_document eng) docs in
  let (), seq_ms =
    B.time_ms (fun () ->
        List.iter (fun d -> ignore (Pf_core.Engine.match_document eng d)) docs)
  in
  let throughput ms = float ndocs /. (ms /. 1000.) in
  let cores = Domain.recommended_domain_count () in
  record "xpes" (J.Int (List.length qs));
  record "documents" (J.Int ndocs);
  record "hardware_cores" (J.Int cores);
  record "shard_mode" (J.String "doc+expr");
  record "sequential"
    (J.Obj
       [
         "ms", J.Float seq_ms;
         "docs_per_s", J.Float (throughput seq_ms);
         "latency_ns", latency_json (Pf_core.Engine.metrics eng) "doc_latency_ns";
       ]);
  let rows =
    List.concat_map
      (fun mode ->
        List.map
          (fun domains ->
            let svc =
              Pf_service.create ~mode ~domains ~batch:8
                (Pf_core.Engine.filter () :> Pf_intf.filter)
            in
            List.iter (fun q -> ignore (Pf_service.subscribe svc q)) qs;
            (* first pass doubles as warm-up and as the identity check *)
            let identical = Pf_service.filter_batch svc docs = expected in
            (* reset so the recorded submit-to-delivery percentiles cover
               the timed pass only, not the warm-up; drain first — it
               returns only once every worker has flushed its latency
               batch, so no warm-up stragglers land after the reset *)
            Pf_service.drain svc;
            Pf_obs.Registry.reset (Pf_service.metrics svc);
            let (), ms =
              B.time_ms (fun () -> ignore (Pf_service.filter_batch svc docs))
            in
            Pf_service.shutdown svc;
            (* read after shutdown: workers flush their latency batches
               before exiting, so the histogram covers every document *)
            let lat = latency_json (Pf_service.metrics svc) "latency_ns" in
            mode, domains, ms, identical, lat)
          [ 1; 2; 4 ])
      [ Pf_service.Doc; Pf_service.Expr ]
  in
  Printf.printf "\n== service: %d XPEs, %d documents, NITF (sequential: %.0f docs/s) ==\n"
    (List.length qs) ndocs (throughput seq_ms);
  Printf.printf "%8s %8s %12s %14s %12s %12s\n" "mode" "domains" "ms" "docs/s" "vs seq"
    "identical";
  List.iter
    (fun (mode, domains, ms, identical, _) ->
      Printf.printf "%8s %8d %12.1f %14.0f %11.2fx %12b\n" (Pf_service.mode_name mode)
        domains ms (throughput ms) (seq_ms /. ms) identical)
    rows;
  (* the recommendation comes from the rows just measured, not from the
     core count: the best configuration that actually beat sequential, or
     "stay sequential" (1) when none did *)
  let best_mode, best_domains, best_ms, _, _ =
    List.fold_left
      (fun (bm, bd, bms, bi, bl) (m, d, ms, i, l) ->
        if ms < bms then m, d, ms, i, l else bm, bd, bms, bi, bl)
      (List.hd rows) (List.tl rows)
  in
  let recommended = if best_ms < seq_ms then best_domains else 1 in
  record "recommended_domains" (J.Int recommended);
  record "recommended_mode"
    (J.String (if best_ms < seq_ms then Pf_service.mode_name best_mode else "sequential"));
  let bound =
    if cores <= 1 then
      Printf.sprintf
        "matching is CPU-bound and the host exposes %d hardware core(s): all domains \
         time-share one core, so parallel speedup is structurally capped at 1.0x and \
         every configuration pays queue+merge coordination on top of sequential work; \
         re-run on a multi-core host for scaling"
        cores
    else if best_ms >= seq_ms then
      "coordination (queue lock + per-document delivery) outweighs per-domain matching \
       work at this workload size"
    else
      Printf.sprintf "best measured: %s mode at %d domains, %.2fx vs sequential"
        (Pf_service.mode_name best_mode) best_domains (seq_ms /. best_ms)
  in
  Printf.printf "   bound: %s\n" bound;
  Printf.printf "   recommended: %s\n"
    (if recommended = 1 && best_ms >= seq_ms then "sequential (1 domain)"
     else Printf.sprintf "%s mode, %d domains" (Pf_service.mode_name best_mode) recommended);
  record "bound" (J.String bound);
  record "rows"
    (J.List
       (List.map
          (fun (mode, domains, ms, identical, lat) ->
            J.Obj
              [
                "mode", J.String (Pf_service.mode_name mode);
                "domains", J.Int domains;
                "ms", J.Float ms;
                "docs_per_s", J.Float (throughput ms);
                "speedup_vs_sequential", J.Float (seq_ms /. ms);
                "identical_matches", J.Bool identical;
                "latency_ns", lat;
              ])
          rows));
  if List.exists (fun (_, _, _, identical, _) -> not identical) rows then begin
    Printf.printf "service: MATCH-SET MISMATCH against sequential engine\n";
    exit 1
  end;
  (* subscription-heavy sweep: the regime expr-mode sharding targets —
     the Presets.heavy_subscriptions table (duplicates allowed) against
     the skewed NITF stream, where the per-replica working set is what
     limits throughput. Recorded under "heavy"; on multi-core hosts CI
     asserts expr mode keeps up with doc mode at the top domain count
     here. *)
  let hqs =
    Xpath_gen.generate dtd { Presets.heavy_subscriptions with Xpath_gen.seed = !seed }
  in
  let hndocs = if !full then 120 else 40 in
  let hdocs = documents "nitf" hndocs in
  let heng = Pf_core.Engine.create () in
  List.iter (fun q -> ignore (Pf_core.Engine.add heng q)) hqs;
  let hexpected = List.map (Pf_core.Engine.match_document heng) hdocs in
  let (), hseq_ms =
    B.time_ms (fun () ->
        List.iter (fun d -> ignore (Pf_core.Engine.match_document heng d)) hdocs)
  in
  let hthroughput ms = float hndocs /. (ms /. 1000.) in
  let hrows =
    List.concat_map
      (fun mode ->
        List.map
          (fun domains ->
            let svc =
              Pf_service.create ~mode ~domains ~batch:8
                (Pf_core.Engine.filter () :> Pf_intf.filter)
            in
            List.iter (fun q -> ignore (Pf_service.subscribe svc q)) hqs;
            let identical = Pf_service.filter_batch svc hdocs = hexpected in
            Pf_service.drain svc;
            Pf_obs.Registry.reset (Pf_service.metrics svc);
            let (), ms =
              B.time_ms (fun () -> ignore (Pf_service.filter_batch svc hdocs))
            in
            Pf_service.shutdown svc;
            mode, domains, ms, identical)
          [ 1; 2; 4 ])
      [ Pf_service.Doc; Pf_service.Expr ]
  in
  Printf.printf
    "\n== service (heavy): %d XPEs, %d documents, NITF (sequential: %.0f docs/s) ==\n"
    (List.length hqs) hndocs (hthroughput hseq_ms);
  Printf.printf "%8s %8s %12s %14s %12s %12s\n" "mode" "domains" "ms" "docs/s" "vs seq"
    "identical";
  List.iter
    (fun (mode, domains, ms, identical) ->
      Printf.printf "%8s %8d %12.1f %14.0f %11.2fx %12b\n" (Pf_service.mode_name mode)
        domains ms (hthroughput ms) (hseq_ms /. ms) identical)
    hrows;
  let ms_of want_mode want_domains =
    List.find_map
      (fun (m, d, ms, _) -> if m = want_mode && d = want_domains then Some ms else None)
      hrows
  in
  let expr_vs_doc =
    match ms_of Pf_service.Expr 4, ms_of Pf_service.Doc 4 with
    | Some e, Some d -> d /. e
    | _ -> 0.
  in
  let hbound =
    if cores <= 1 then
      Printf.sprintf
        "single hardware core (%d): all domains time-share, shard-mode comparison is \
         meaningless here; re-run on a multi-core host"
        cores
    else
      Printf.sprintf "expr/doc throughput ratio at 4 domains: %.2fx" expr_vs_doc
  in
  Printf.printf "   bound: %s\n" hbound;
  record "heavy"
    (J.Obj
       [
         "xpes", J.Int (List.length hqs);
         "documents", J.Int hndocs;
         "sequential_ms", J.Float hseq_ms;
         "expr_vs_doc_at_4_domains", J.Float expr_vs_doc;
         "bound", J.String hbound;
         ( "rows",
           J.List
             (List.map
                (fun (mode, domains, ms, identical) ->
                  J.Obj
                    [
                      "mode", J.String (Pf_service.mode_name mode);
                      "domains", J.Int domains;
                      "ms", J.Float ms;
                      "docs_per_s", J.Float (hthroughput ms);
                      "speedup_vs_sequential", J.Float (hseq_ms /. ms);
                      "identical_matches", J.Bool identical;
                    ])
                hrows) );
       ]);
  if List.exists (fun (_, _, _, identical) -> not identical) hrows then begin
    Printf.printf "service (heavy): MATCH-SET MISMATCH against sequential engine\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Occurrence-determination allocation (extension): the packed arena must
   make the occurrence stage allocation-free in steady state. Three
   passes over the same publications — predicate matching alone, plus
   packed-arena occurrence determination, plus list-based occurrence
   determination — measured in minor-heap words per publication. The
   difference (packed - run_only) is the occurrence stage's own
   allocation, which should be ~0; the list variant shows what the arena
   replaced. A fourth pass runs the engine's expression stage itself —
   the access-predicate trie walk over chunks of each document's paths,
   one tag per document — and records its allocation and the trie nodes
   it enters. *)

let occurrence_alloc () =
  let dtd = dtd_of "nitf" in
  let idx = Pf_core.Predicate_index.create () in
  let exprs =
    List.filter_map
      (fun q ->
        match Pf_core.Encoder.encode q with
        | enc ->
          Some (Array.map (fun p -> Pf_core.Predicate_index.intern idx p) enc.Pf_core.Encoder.preds)
        | exception _ -> None)
      (queries dtd (if !full then 5_000 else 2_000))
  in
  let docs_pubs =
    List.map
      (fun d -> List.map Pf_core.Publication.of_path (Pf_xml.Path.of_document d))
      (documents "nitf" (if !full then 50 else 20))
  in
  let pubs = List.concat docs_pubs in
  let npubs = List.length pubs in
  let res = Pf_core.Predicate_index.create_results () in
  let arena = Pf_core.Occurrence.create_arena () in
  (* closure-free row filling, as in the engines: partial applications in
     this loop would dominate exactly the allocation being measured *)
  let fill_row i pid =
    Pf_core.Occurrence.start_row arena i;
    Pf_core.Occurrence.push_chain arena
      (Pf_core.Predicate_index.cells res)
      (Pf_core.Predicate_index.head res pid);
    Pf_core.Occurrence.row_len arena i > 0
  in
  let rec fill_rows pids n i = i >= n || (fill_row i pids.(i) && fill_rows pids n (i + 1)) in
  let match_one pids =
    Pf_core.Occurrence.clear arena;
    if fill_rows pids (Array.length pids) 0 then
      ignore (Pf_core.Occurrence.matches_packed arena : bool)
  in
  let pass_run_only () =
    List.iter (fun pub -> Pf_core.Predicate_index.run idx res pub) pubs
  in
  let pass_packed () =
    List.iter
      (fun pub ->
        Pf_core.Predicate_index.run idx res pub;
        List.iter match_one exprs)
      pubs
  in
  let pass_list () =
    List.iter
      (fun pub ->
        Pf_core.Predicate_index.run idx res pub;
        List.iter
          (fun pids ->
            let rs = Array.map (fun pid -> Pf_core.Predicate_index.get res pid) pids in
            ignore (Pf_core.Occurrence.matches rs : bool))
          exprs)
      pubs
  in
  let walk_metrics = Pf_core.Expr_index.make_metrics () in
  let walk =
    Pf_core.Expr_index.create ~metrics:walk_metrics Pf_core.Expr_index.Access_predicate
  in
  List.iteri (fun sid pids -> Pf_core.Expr_index.add walk ~sid ~pids) exprs;
  let on_match (_ : int) = () in
  let doc_tag = ref 0 in
  let walk_chunk () =
    Pf_core.Expr_index.eval walk res ~doc_tag:!doc_tag ~on_match;
    Pf_core.Predicate_index.clear res
  in
  let walk_pub pub =
    Pf_core.Predicate_index.run_next idx res pub;
    if Pf_core.Predicate_index.chunk_paths res = Pf_core.Predicate_index.chunk_capacity then
      walk_chunk ()
  in
  let pass_walk () =
    List.iter
      (fun doc ->
        incr doc_tag;
        Pf_core.Predicate_index.clear res;
        List.iter walk_pub doc;
        if Pf_core.Predicate_index.chunk_paths res > 0 then walk_chunk ())
      docs_pubs
  in
  (* warm-up grows the scratch structures to their steady-state size *)
  pass_packed ();
  pass_list ();
  pass_walk ();
  let reps = 3 in
  let minor_per_doc pass =
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      pass ()
    done;
    (Gc.minor_words () -. before) /. float (reps * npubs)
  in
  let run_only = minor_per_doc pass_run_only in
  let packed = minor_per_doc pass_packed in
  let listed = minor_per_doc pass_list in
  let visits0 = Pf_obs.Counter.get walk_metrics.Pf_core.Expr_index.visits in
  let walked = minor_per_doc pass_walk in
  let visits_per_doc =
    float (Pf_obs.Counter.get walk_metrics.Pf_core.Expr_index.visits - visits0)
    /. float (reps * npubs)
  in
  Printf.printf
    "\n== occurrence-alloc: %d XPE predicate rows, %d publications (minor words/doc) ==\n"
    (List.length exprs) npubs;
  Printf.printf "%24s %18.1f\n" "predicate-run only" run_only;
  Printf.printf "%24s %18.1f   (occurrence stage: %.1f)\n" "run + packed arena" packed
    (packed -. run_only);
  Printf.printf "%24s %18.1f   (occurrence stage: %.1f)\n" "run + list-based" listed
    (listed -. run_only);
  Printf.printf "%24s %18.1f   (expression walk: %.1f, %.1f trie visits/doc)\n"
    "run + trie walk" walked (walked -. run_only) visits_per_doc;
  record "publications" (J.Int npubs);
  record "exprs" (J.Int (List.length exprs));
  record "minor_words_per_doc_run_only" (J.Float run_only);
  record "minor_words_per_doc_packed" (J.Float packed);
  record "minor_words_per_doc_list" (J.Float listed);
  record "occurrence_stage_minor_words_per_doc_packed" (J.Float (packed -. run_only));
  record "occurrence_stage_minor_words_per_doc_list" (J.Float (listed -. run_only));
  record "expr_walk_minor_words_per_doc" (J.Float (walked -. run_only));
  record "trie_visits_per_doc" (J.Float visits_per_doc)

(* ------------------------------------------------------------------ *)
(* Predicate-match (extension): the cache-flat predicate image on two
   predicate sets — unconstrained NITF paper_queries (the scanned slices)
   and PSD paper_queries with one attribute filter per path (the anchored
   attribute groups). Each set reports probes and hits per document
   (scale-free — CI gates them), minor-heap words per document (the
   stage must be allocation-free in steady state) and ns per document. *)

type predicate_stage = {
  ps_pubs : int;
  ps_preds : int;
  ps_probes : float;  (* per document *)
  ps_hits : float;
  ps_single_words : float;
  ps_single_ns : float;
}

let measure_predicate_stage ~dtd_name ~filters =
  let module PI = Pf_core.Predicate_index in
  let dtd = dtd_of dtd_name in
  let m = PI.make_metrics () in
  let idx = PI.create ~metrics:m () in
  List.iter
    (fun q ->
      match Pf_core.Encoder.encode q with
      | enc -> Array.iter (fun p -> ignore (PI.intern idx p : int)) enc.Pf_core.Encoder.preds
      | exception _ -> ())
    (queries dtd ~filters (if !full then 5_000 else 2_000));
  let pubs =
    Array.of_list
      (List.concat_map
         (fun d -> List.map Pf_core.Publication.of_path (Pf_xml.Path.of_document d))
         (documents dtd_name (if !full then 50 else 20)))
  in
  let npubs = Array.length pubs in
  let npids = PI.size idx in
  let res = PI.create_results () in
  let pass_single () =
    Array.iter (fun pub -> PI.run idx res pub) pubs
  in
  (* probe/hit profile of one pass over the stream *)
  let probes0 = Pf_obs.Counter.get m.PI.probes and hits0 = Pf_obs.Counter.get m.PI.hits in
  pass_single ();
  let probes_per_doc =
    float (Pf_obs.Counter.get m.PI.probes - probes0) /. float npubs
  and hits_per_doc = float (Pf_obs.Counter.get m.PI.hits - hits0) /. float npubs in
  (* warm-up above grew every scratch structure; measure steady state *)
  let reps = 3 in
  let minor_per_doc pass =
    pass ();
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      pass ()
    done;
    (Gc.minor_words () -. before) /. float (reps * npubs)
  in
  let single_words = minor_per_doc pass_single in
  let ns_per_doc pass =
    let (), ms = B.time_ms (fun () -> for _ = 1 to reps do pass () done) in
    ms *. 1e6 /. float (reps * npubs)
  in
  let single_ns = ns_per_doc pass_single in
  {
    ps_pubs = npubs;
    ps_preds = npids;
    ps_probes = probes_per_doc;
    ps_hits = hits_per_doc;
    ps_single_words = single_words;
    ps_single_ns = single_ns;
  }

let predicate_stage_fields ps =
  [
    "publications", J.Int ps.ps_pubs;
    "predicates", J.Int ps.ps_preds;
    "probes_per_doc", J.Float ps.ps_probes;
    "hits_per_doc", J.Float ps.ps_hits;
    "minor_words_per_doc_single", J.Float ps.ps_single_words;
    "ns_per_doc_single", J.Float ps.ps_single_ns;
  ]

let predicate_match () =
  let plain = measure_predicate_stage ~dtd_name:"nitf" ~filters:0 in
  let constrained = measure_predicate_stage ~dtd_name:"psd" ~filters:1 in
  Printf.printf
    "\n== predicate-match: flat image (unconstrained: %d predicates, %d publications; \
     constrained: %d predicates, %d publications) ==\n"
    plain.ps_preds plain.ps_pubs constrained.ps_preds constrained.ps_pubs;
  Printf.printf "%26s %14s %14s\n" "" "unconstrained" "constrained";
  let row label f = Printf.printf "%26s %14.1f %14.1f\n" label (f plain) (f constrained) in
  row "probes/doc" (fun p -> p.ps_probes);
  row "hits/doc" (fun p -> p.ps_hits);
  row "minor words/doc single" (fun p -> p.ps_single_words);
  row "ns/doc single" (fun p -> p.ps_single_ns);
  (* the unconstrained set keeps the experiment's top-level keys *)
  List.iter (fun (k, v) -> record k v) (predicate_stage_fields plain);
  record "constrained" (J.Obj (predicate_stage_fields constrained))

(* ------------------------------------------------------------------ *)
(* Document-ingest allocation (extension): the zero-copy SAX driver and
   the arena-backed path scanner must bring the ingest side near the
   allocation floor the occurrence stage already reached. Two passes over
   the same serialized documents — tree ingest (parse_document +
   of_document, what match_document costs) and streaming scan (the
   reusable scanner behind match_stream) — in minor-heap words per
   document. fold_of_string is reported too: it shows what the per-path
   snapshots cost on top of the scan. *)

let ingest_alloc () =
  let ndocs = if !full then 50 else 20 in
  let docs = documents "nitf" ndocs in
  let sources = List.map Pf_xml.Print.to_string docs in
  let paths_seen = ref 0 in
  let scanner = Pf_xml.Path.create_scanner () in
  let pass_tree () =
    List.iter
      (fun s ->
        List.iter
          (fun _ -> incr paths_seen)
          (Pf_xml.Path.of_document (Pf_xml.Sax.parse_document s)))
      sources
  in
  let pass_fold () =
    List.iter
      (fun s ->
        Pf_xml.Path.fold_of_string s ~init:() ~f:(fun () _ -> incr paths_seen))
      sources
  in
  let pass_scan () =
    List.iter (fun s -> Pf_xml.Path.scan scanner s ~f:(fun _ -> incr paths_seen)) sources
  in
  let noop_handler =
    {
      Pf_xml.Sax.zc_start = (fun _ _ -> ());
      zc_end = (fun _ -> ());
      zc_text = (fun _ _ _ -> ());
    }
  in
  let pass_sax () = List.iter (fun s -> Pf_xml.Sax.fold_zc s noop_handler) sources in
  (* warm-up: grow the scanner arenas and intern the vocabulary *)
  pass_tree ();
  pass_scan ();
  paths_seen := 0;
  pass_scan ();
  let paths_per_doc = float !paths_seen /. float ndocs in
  let minor_per_doc pass =
    let reps = 3 in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      pass ()
    done;
    (Gc.minor_words () -. before) /. float (reps * ndocs)
  in
  let tree = minor_per_doc pass_tree in
  let folded = minor_per_doc pass_fold in
  let scanned = minor_per_doc pass_scan in
  let sax = minor_per_doc pass_sax in
  let ratio = if tree > 0. then scanned /. tree else 0. in
  (* stream-match: the pipeline end-to-end with expressions registered —
     tree-mode matching (parse + of_document + match) against the fully
     streaming mode (arena publications refilled off the event stream).
     Match sets must be identical; the streaming side's minor words per
     document are the whole point of the mode, so both are recorded and
     the ratio is gated in CI perf-smoke (<= 10% of tree). *)
  let qs = queries (dtd_of "nitf") 200 in
  let tree_eng = Pf_core.Engine.create () in
  let stream_eng = Pf_core.Engine.create () in
  List.iter (fun q -> ignore (Pf_core.Engine.add tree_eng q)) qs;
  List.iter (fun q -> ignore (Pf_core.Engine.add stream_eng q)) qs;
  let identical =
    List.for_all
      (fun s ->
        Pf_core.Engine.match_string tree_eng s
        = Pf_core.Engine.match_stream stream_eng s)
      sources
  in
  let pass_match_tree () =
    List.iter (fun s -> ignore (Pf_core.Engine.match_string tree_eng s)) sources
  in
  let pass_match_stream () =
    List.iter (fun s -> ignore (Pf_core.Engine.match_stream stream_eng s)) sources
  in
  (* the identity pass above doubled as warm-up for both engines *)
  let match_tree = minor_per_doc pass_match_tree in
  let match_stream = minor_per_doc pass_match_stream in
  let match_ratio = if match_tree > 0. then match_stream /. match_tree else 0. in
  Printf.printf
    "\n== ingest-alloc: %d NITF documents, %.1f paths/doc (minor words/doc) ==\n" ndocs
    paths_per_doc;
  Printf.printf "%28s %18.1f\n" "tree (parse + of_document)" tree;
  Printf.printf "%28s %18.1f\n" "fold_of_string" folded;
  Printf.printf "%28s %18.1f\n" "sax (fold_zc, no-op)" sax;
  Printf.printf "%28s %18.1f   (%.2f%% of tree)\n" "scan (reused scanner)" scanned
    (100. *. ratio);
  Printf.printf "%28s %18.1f   (%d XPEs)\n" "match, tree mode" match_tree
    (List.length qs);
  Printf.printf "%28s %18.1f   (%.2f%% of tree, identical %b)\n" "match, streaming"
    match_stream
    (100. *. match_ratio)
    identical;
  record "documents" (J.Int ndocs);
  record "paths_per_doc" (J.Float paths_per_doc);
  record "minor_words_per_doc_tree" (J.Float tree);
  record "minor_words_per_doc_fold" (J.Float folded);
  record "minor_words_per_doc_sax" (J.Float sax);
  record "minor_words_per_doc_scan" (J.Float scanned);
  record "scan_over_tree_ratio" (J.Float ratio);
  record "stream_match"
    (J.Obj
       [
         "xpes", J.Int (List.length qs);
         "minor_words_per_doc_tree_match", J.Float match_tree;
         "minor_words_per_doc_stream_match", J.Float match_stream;
         "stream_over_tree_match_ratio", J.Float match_ratio;
         "identical_matches", J.Bool identical;
       ]);
  if not identical then begin
    Printf.printf "  FAILED: streaming match sets diverge from tree mode\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Path-result cache (extension): DTD-driven streams repeat root-to-leaf
   paths across documents, so the cross-document cache should convert
   most per-path predicate+occurrence work into one hashtable probe. The
   cache on/off sweep runs over the nitf and psd workloads; every
   configuration's match sets are checked byte-identical against the
   uncached sequential engine, including the cached engine behind both
   Pf_service shard modes at 1/2/4 domains. *)

let path_cache_exp () =
  let timed_with_gc f =
    let s0 = Gc.quick_stat () in
    let (), ms = B.time_ms f in
    let s1 = Gc.quick_stat () in
    ms, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_words -. s0.Gc.major_words
  in
  let failed = ref false in
  (* the service rows below exercise both shard modes *)
  record "shard_mode" (J.String "doc+expr");
  List.iter
    (fun (dtd_name, count, ndocs) ->
      let dtd = dtd_of dtd_name in
      let qs = queries dtd count in
      let docs = documents dtd_name ndocs in
      let throughput ms = float ndocs /. (ms /. 1000.) in
      (* uncached baseline: expected match sets + timing *)
      let base = Pf_core.Engine.create () in
      List.iter (fun q -> ignore (Pf_core.Engine.add base q)) qs;
      let expected = List.map (Pf_core.Engine.match_document base) docs in
      let base_ms, base_minor, base_major =
        timed_with_gc (fun () ->
            List.iter (fun d -> ignore (Pf_core.Engine.match_document base d)) docs)
      in
      (* cached engine: the identity check runs from a cold cache (misses
         populate it), the timed pass then measures the warm steady state *)
      let cached = Pf_core.Engine.create ~path_cache:true () in
      List.iter (fun q -> ignore (Pf_core.Engine.add cached q)) qs;
      let identical_cold =
        List.map (Pf_core.Engine.match_document cached) docs = expected
      in
      let cache_ms, cache_minor, cache_major =
        timed_with_gc (fun () ->
            List.iter (fun d -> ignore (Pf_core.Engine.match_document cached d)) docs)
      in
      let counter name =
        Option.value ~default:0
          (Pf_obs.Registry.find_counter (Pf_core.Engine.metrics cached) name)
      in
      let hits = counter "path_cache_hits" and misses = counter "path_cache_misses" in
      let hit_ratio =
        if hits + misses = 0 then 0. else float hits /. float (hits + misses)
      in
      (* the cached engine behind the service: every shard mode and domain
         count must still answer exactly like the sequential uncached
         engine (replica caches are private; expression shards cache their
         shard-local results) *)
      let svc_rows =
        List.concat_map
          (fun mode ->
            List.map
              (fun domains ->
                let svc =
                  Pf_service.create ~mode ~domains ~batch:8
                    (Pf_core.Engine.filter ~path_cache:true () :> Pf_intf.filter)
                in
                List.iter (fun q -> ignore (Pf_service.subscribe svc q)) qs;
                let identical = Pf_service.filter_batch svc docs = expected in
                let (), ms =
                  B.time_ms (fun () -> ignore (Pf_service.filter_batch svc docs))
                in
                Pf_service.shutdown svc;
                mode, domains, ms, identical)
              [ 1; 2; 4 ])
          [ Pf_service.Doc; Pf_service.Expr ]
      in
      Printf.printf
        "\n== path-cache (%s): %d XPEs, %d documents ==\n"
        (String.uppercase_ascii dtd_name)
        (List.length qs) ndocs;
      Printf.printf "%14s %12s %14s %14s %12s\n" "engine" "ms" "docs/s" "minor w/doc"
        "identical";
      Printf.printf "%14s %12.1f %14.0f %14.0f %12s\n" "uncached" base_ms
        (throughput base_ms)
        (base_minor /. float ndocs)
        "-";
      Printf.printf "%14s %12.1f %14.0f %14.0f %12b\n" "cached" cache_ms
        (throughput cache_ms)
        (cache_minor /. float ndocs)
        identical_cold;
      Printf.printf "   speedup %.2fx, hit ratio %.3f (%d hits / %d misses)\n"
        (base_ms /. cache_ms) hit_ratio hits misses;
      Printf.printf "%8s %8s %12s %14s %12s\n" "mode" "domains" "ms" "docs/s" "identical";
      List.iter
        (fun (mode, domains, ms, identical) ->
          Printf.printf "%8s %8d %12.1f %14.0f %12b\n" (Pf_service.mode_name mode)
            domains ms (throughput ms) identical)
        svc_rows;
      record (Printf.sprintf "%s" dtd_name)
        (J.Obj
           [
             "xpes", J.Int (List.length qs);
             "documents", J.Int ndocs;
             ( "uncached",
               J.Obj
                 [
                   "ms", J.Float base_ms;
                   "docs_per_s", J.Float (throughput base_ms);
                   "minor_words", J.Float base_minor;
                   "major_words", J.Float base_major;
                   "latency_ns", latency_json (Pf_core.Engine.metrics base) "doc_latency_ns";
                 ] );
             ( "cached",
               J.Obj
                 [
                   "ms", J.Float cache_ms;
                   "docs_per_s", J.Float (throughput cache_ms);
                   "minor_words", J.Float cache_minor;
                   "major_words", J.Float cache_major;
                   "hits", J.Int hits;
                   "misses", J.Int misses;
                   "hit_ratio", J.Float hit_ratio;
                   "invalidations", J.Int (counter "path_cache_invalidations");
                   "identical_matches", J.Bool identical_cold;
                   ( "latency_ns",
                     latency_json (Pf_core.Engine.metrics cached) "doc_latency_ns" );
                 ] );
             "speedup_cached_vs_uncached", J.Float (base_ms /. cache_ms);
             ( "service_rows",
               J.List
                 (List.map
                    (fun (mode, domains, ms, identical) ->
                      J.Obj
                        [
                          "mode", J.String (Pf_service.mode_name mode);
                          "domains", J.Int domains;
                          "ms", J.Float ms;
                          "docs_per_s", J.Float (throughput ms);
                          "identical_matches", J.Bool identical;
                        ])
                    svc_rows) );
           ]);
      if
        (not identical_cold)
        || List.exists (fun (_, _, _, identical) -> not identical) svc_rows
      then failed := true)
    (if !full then [ "nitf", 50_000, 300; "psd", 10_000, 300 ]
     else [ "nitf", 10_000, 80; "psd", 3_000, 80 ]);
  if !failed then begin
    Printf.printf "path-cache: MATCH-SET MISMATCH against the uncached engine\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure, exercising
   the per-document kernel of the corresponding experiment. *)

let micro () =
  let open Bechamel in
  let mk_engine variant dtd_name count =
    let e = Pf_core.Engine.create ~variant () in
    List.iter (fun q -> ignore (Pf_core.Engine.add e q)) (queries (dtd_of dtd_name) count);
    e
  in
  let doc_of name = List.hd (documents name 1) in
  let nitf_doc = doc_of "nitf" and psd_doc = doc_of "psd" in
  let engine_nitf = mk_engine Pf_core.Expr_index.Access_predicate "nitf" 25_000 in
  let engine_psd = mk_engine Pf_core.Expr_index.Access_predicate "psd" 5_000 in
  let engine_shared = mk_engine Pf_core.Expr_index.Shared "psd" 5_000 in
  let yf = B.yfilter () in
  build yf (queries (dtd_of "nitf") 25_000);
  let idxf = B.index_filter () in
  build idxf (queries (dtd_of "nitf") 25_000);
  let attr_engine =
    let e = Pf_core.Engine.create ~attr_mode:Pf_core.Engine.Inline () in
    List.iter
      (fun q -> ignore (Pf_core.Engine.add e q))
      (queries (dtd_of "nitf") ~filters:1 25_000);
    e
  in
  let table1_idx = Pf_core.Predicate_index.create () in
  List.iter
    (fun src ->
      Array.iter
        (fun p -> ignore (Pf_core.Predicate_index.intern table1_idx p))
        (Pf_core.Encoder.encode_string src).Pf_core.Encoder.preds)
    [ "a//b/c"; "c//b//a" ];
  let table1_res = Pf_core.Predicate_index.create_results () in
  let table1_pub = Pf_core.Publication.of_tags [ "a"; "b"; "c"; "a"; "b"; "c" ] in
  let tests =
    [
      Test.make ~name:"table1:predicate-matching"
        (Staged.stage (fun () ->
             Pf_core.Predicate_index.run table1_idx table1_res table1_pub));
      Test.make ~name:"fig6a:pc-ap-nitf-25k"
        (Staged.stage (fun () -> Pf_core.Engine.match_document engine_nitf nitf_doc));
      Test.make ~name:"fig6a:yfilter-nitf-25k"
        (Staged.stage (fun () -> yf.B.match_doc nitf_doc));
      Test.make ~name:"fig6a:index-filter-nitf-25k"
        (Staged.stage (fun () -> idxf.B.match_doc nitf_doc));
      Test.make ~name:"fig6b:pc-ap-psd-5k"
        (Staged.stage (fun () -> Pf_core.Engine.match_document engine_psd psd_doc));
      Test.make ~name:"fig9:inline-attrs-nitf-25k"
        (Staged.stage (fun () -> Pf_core.Engine.match_document attr_engine nitf_doc));
      Test.make ~name:"ablation:shared-psd-5k"
        (Staged.stage (fun () -> Pf_core.Engine.match_document engine_shared psd_doc));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "\n== bechamel micro-benchmarks (per-document kernels) ==\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-32s %12.0f ns/run\n" name est;
            record name (J.Float est)
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        stats)
    tests;
  flush stdout

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Subsumption (extension): the redundancy-skewed workload against the
   subsumption index. A base pool of distinct expressions is re-drawn
   with respelling/widening/narrowing mutations (Presets.
   redundant_subscriptions), the regime real subscription tables live in.
   One engine takes the workload directly; one takes it behind
   Subsume.Make. Reported: physical/logical ratio (the sharing the
   canonicalizer + alias probes recover), subscribe throughput, match
   throughput (the subsumed engine matches shapes, not subscriptions),
   and the covers-probe count per expression (must stay O(1) — the probe
   is capped, so total probes are linear, not quadratic). The fan-out
   must be byte-identical to the unsubsumed engine on every document;
   a mismatch fails the run. *)

let subsumption_exp () =
  let count = if !full then 100_000 else 20_000 in
  let ndocs = if !full then 200 else 60 in
  let dtd = dtd_of "nitf" in
  let qs =
    Xpath_gen.generate_redundant dtd
      { Presets.redundant_subscriptions with Xpath_gen.count }
  in
  let n = List.length qs in
  let docs = documents "nitf" ndocs in
  let throughput ms = float ndocs /. (ms /. 1000.) in
  (* unsubsumed baseline: one engine expression per subscription *)
  let base = Pf_core.Engine.create () in
  let (), base_sub_ms =
    B.time_ms (fun () -> List.iter (fun q -> ignore (Pf_core.Engine.add base q)) qs)
  in
  (* subsumed: the same engine behind the shape table *)
  let module Sub = Pf_core.Subsume.Make (Pf_core.Engine.Filter) in
  let sub = Sub.create () in
  let (), sub_sub_ms =
    B.time_ms (fun () -> List.iter (fun q -> ignore (Sub.add sub q)) qs)
  in
  (* fan-out identity, one document at a time — retaining both full
     match-set lists across the timed passes below would hand them GC
     pressure that isn't theirs; this pass doubles as warm-up *)
  let identical =
    List.for_all
      (fun d -> Sub.match_document sub d = Pf_core.Engine.match_document base d)
      docs
  in
  (* the physical floor: a plain engine holding one expression per
     distinct canonical form — what the subsumed engine's inner matching
     costs without the fan-out translation *)
  let floor_eng = Pf_core.Engine.create () in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun q ->
      let key = Pf_xpath.Canonical.key q in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        ignore (Pf_core.Engine.add floor_eng (Pf_xpath.Canonical.normalize q))
      end)
    qs;
  List.iter (fun d -> ignore (Pf_core.Engine.match_document floor_eng d)) docs;
  Gc.compact ();
  (* three repetitions, timed per document with the engines interleaved:
     this host's background load drifts by tens of percent over
     multi-second spans, so whole-pass timings compare different load
     regimes. Matching the same document on all three engines
     back-to-back exposes every engine to the same ~100ms load window;
     the per-engine repetition minimum then discards loaded repetitions *)
  let base_ms = ref infinity and sub_ms = ref infinity and floor_ms = ref infinity in
  for _ = 1 to 3 do
    let acc = [| 0.; 0.; 0. |] in
    let timed slot f =
      let t0 = Unix.gettimeofday () in
      f ();
      acc.(slot) <- acc.(slot) +. (Unix.gettimeofday () -. t0)
    in
    let cur = ref (List.hd docs) in
    let run = function
      | 0 -> timed 0 (fun () -> ignore (Pf_core.Engine.match_document base !cur))
      | 1 -> timed 1 (fun () -> ignore (Sub.match_document sub !cur))
      | _ -> timed 2 (fun () -> ignore (Pf_core.Engine.match_document floor_eng !cur))
    in
    (* rotate the engine order per document: the engines' working sets
       evict each other between matches, so a fixed order would charge
       the cold-cache penalty to whichever engine always runs after the
       100k-expression baseline trie *)
    List.iteri
      (fun i d ->
        cur := d;
        run (i mod 3);
        run ((i + 1) mod 3);
        run ((i + 2) mod 3))
      docs;
    base_ms := Float.min !base_ms (acc.(0) *. 1000.);
    sub_ms := Float.min !sub_ms (acc.(1) *. 1000.);
    floor_ms := Float.min !floor_ms (acc.(2) *. 1000.)
  done;
  let base_ms = !base_ms and sub_ms = !sub_ms and floor_ms = !floor_ms in
  let st = Sub.stats sub in
  let ratio = float st.Pf_core.Subsume.shapes /. float st.Pf_core.Subsume.logical in
  let probes_per_expr = float st.Pf_core.Subsume.covers_probes /. float n in
  let speedup = base_ms /. sub_ms in
  Printf.printf
    "\n== subsumption: %d redundant NITF XPEs, %d documents ==\n" n ndocs;
  Printf.printf "   shapes %d / logical %d = %.3f physical/logical\n"
    st.Pf_core.Subsume.shapes st.Pf_core.Subsume.logical ratio;
  Printf.printf
    "   dedup %d, alias %d, dag edges %d, covered shapes %d, promotions/retirements 0/0\n"
    st.Pf_core.Subsume.dedup_hits st.Pf_core.Subsume.alias_hits
    st.Pf_core.Subsume.dag_edges st.Pf_core.Subsume.covered_shapes;
  Printf.printf "   covers probes %d (%.1f per expr, %d truncated inserts)\n"
    st.Pf_core.Subsume.covers_probes probes_per_expr
    st.Pf_core.Subsume.probe_truncations;
  Printf.printf "%14s %14s %14s %14s %12s\n" "engine" "subscribe ms" "match ms"
    "docs/s" "identical";
  Printf.printf "%14s %14.1f %14.1f %14.0f %12s\n" "unsubsumed" base_sub_ms base_ms
    (throughput base_ms) "-";
  Printf.printf "%14s %14.1f %14.1f %14.0f %12b\n" "subsumed" sub_sub_ms sub_ms
    (throughput sub_ms) identical;
  Printf.printf "%14s %14s %14.1f %14.0f %12s\n" "shape floor" "-" floor_ms
    (throughput floor_ms) "-";
  Printf.printf "   match speedup %.2fx (fan-out overhead %.1f ms)\n" speedup
    (sub_ms -. floor_ms);
  record "xpes" (J.Int n);
  record "documents" (J.Int ndocs);
  record "shapes" (J.Int st.Pf_core.Subsume.shapes);
  record "logical" (J.Int st.Pf_core.Subsume.logical);
  record "physical_over_logical" (J.Float ratio);
  record "dedup_hits" (J.Int st.Pf_core.Subsume.dedup_hits);
  record "alias_hits" (J.Int st.Pf_core.Subsume.alias_hits);
  record "dag_edges" (J.Int st.Pf_core.Subsume.dag_edges);
  record "covered_shapes" (J.Int st.Pf_core.Subsume.covered_shapes);
  record "covers_probes" (J.Int st.Pf_core.Subsume.covers_probes);
  record "covers_probes_per_expr" (J.Float probes_per_expr);
  record "probe_truncations" (J.Int st.Pf_core.Subsume.probe_truncations);
  record "subscribe_ms_unsubsumed" (J.Float base_sub_ms);
  record "subscribe_ms_subsumed" (J.Float sub_sub_ms);
  record "match_ms_unsubsumed" (J.Float base_ms);
  record "match_ms_subsumed" (J.Float sub_ms);
  record "match_ms_shape_floor" (J.Float floor_ms);
  record "docs_per_s_unsubsumed" (J.Float (throughput base_ms));
  record "docs_per_s_subsumed" (J.Float (throughput sub_ms));
  record "match_speedup_subsumed" (J.Float speedup);
  record "identical_matches" (J.Bool identical);
  record "latency_ns_unsubsumed"
    (latency_json (Pf_core.Engine.metrics base) "doc_latency_ns");
  record "latency_ns_subsumed" (latency_json (Sub.metrics sub) "doc_latency_ns");
  if not identical then begin
    Printf.printf "subsumption: FAN-OUT MISMATCH against the unsubsumed engine\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* net-broker: the networked dissemination path end to end. A durable
   wire server (WAL + snapshot in a temp dir) over a Unix socket,
   NITF workload: subscriptions registered through SUBSCRIBE frames,
   documents published through a pipelined window of PUBLISH frames.
   Latency percentiles come from the server's net_publish_latency_ns
   histogram (submit to delivery resolution). Two identity gates:
   every wire delivery must equal what an in-process broker answers
   for the same document, and a stop/recover cycle over the same data
   dir must reproduce the deliveries exactly. p50/p99 land in
   BENCH_results.json so `bench -- compare` SLO-gates the wire path
   like any other experiment. *)

let net_broker () =
  let dtd_name = "nitf" in
  let nexprs, ndocs = if !full then 10_000, 400 else 2_000, 120 in
  let window = 32 in
  let qs = queries (dtd_of dtd_name) nexprs in
  let exprs = List.map Pf_xpath.Parser.to_string qs in
  let docs =
    List.map (fun d -> Pf_xml.Print.to_string ~decl:false d) (documents dtd_name ndocs)
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pfbench-net-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:rm_rf @@ fun () ->
  let sock = Filename.concat dir "broker.sock" in
  let start () =
    Pf_net.Server.start
      (Pf_net.Server.config ~data_dir:dir ~domains:2 (Pf_net.Server.Unix_sock sock))
  in
  (* publish every document through a pipelined window; deliveries per
     document index, total wall time *)
  let publish_all c =
    let deliveries = Array.make (List.length docs) [] in
    let inflight = Queue.create () in
    let settle () =
      let req, i = Queue.pop inflight in
      match Pf_net.Client.await c req with
      | Ok ds -> deliveries.(i) <- ds
      | Error e -> failwith (Pf_intf.error_message e)
    in
    let (), ms =
      B.time_ms (fun () ->
          List.iteri
            (fun i doc ->
              if Queue.length inflight >= window then settle ();
              Queue.add (Pf_net.Client.publish_async c doc, i) inflight)
            docs;
          while not (Queue.is_empty inflight) do
            settle ()
          done)
    in
    deliveries, ms
  in
  (* pass 1: subscribe over the wire, publish, read the latency histogram *)
  let srv = start () in
  let c = Pf_net.Client.connect (Pf_net.Server.listen_address srv) in
  let suppressed = ref 0 and rejected = ref 0 in
  let (), sub_ms =
    B.time_ms (fun () ->
        List.iteri
          (fun i expr ->
            match
              Pf_net.Client.subscribe c ~subscriber:(Printf.sprintf "s%d" (i mod 97)) expr
            with
            | Ok (_, sup) -> if sup then incr suppressed
            | Error _ -> incr rejected)
          exprs)
  in
  let wire, pub_ms = publish_all c in
  let wire_latency = latency_json (Pf_net.Server.metrics srv) "net_publish_latency_ns" in
  let wal_bytes, snapshots =
    match Pf_net.Server.store srv with
    | Some st -> Pf_net.Store.wal_size st, Pf_net.Store.snapshots_taken st
    | None -> 0, 0
  in
  Pf_net.Client.close c;
  Pf_net.Server.stop srv;
  (* pass 2: recover from snapshot + WAL, republish without resubscribing *)
  let srv2 = start () in
  let recovered =
    match Pf_net.Server.store srv2 with Some st -> Pf_net.Store.recovered_records st | None -> 0
  in
  let c2 = Pf_net.Client.connect (Pf_net.Server.listen_address srv2) in
  let wire2, pub2_ms = publish_all c2 in
  Pf_net.Client.close c2;
  Pf_net.Server.stop srv2;
  let identical_after_restart = wire = wire2 in
  (* identity gate: an in-process broker over the same engine must
     produce the same deliveries document for document *)
  let b = Pf_broker.Broker.create () in
  List.iteri
    (fun i expr ->
      ignore
        (Pf_broker.Broker.apply b
           (Pf_broker.Broker.Subscribe
              { ns = ""; subscriber = Printf.sprintf "s%d" (i mod 97); expr })))
    exprs;
  let inprocess =
    List.map
      (fun doc ->
        match Pf_broker.Broker.apply b (Pf_broker.Broker.Publish { ns = ""; doc }) with
        | [ Pf_broker.Broker.Delivered { deliveries } ] -> deliveries
        | _ -> assert false)
      docs
  in
  let identical_vs_inprocess = Array.to_list wire = inprocess in
  let throughput ms = float ndocs /. (ms /. 1000.) in
  Printf.printf "\n== net-broker (%s): %d XPEs over the wire, %d documents ==\n"
    (String.uppercase_ascii dtd_name) (List.length exprs) ndocs;
  Printf.printf "   subscribe %.1f ms (%d suppressed, %d rejected), WAL %d B, %d snapshot(s)\n"
    sub_ms !suppressed !rejected wal_bytes snapshots;
  Printf.printf "%18s %12s %14s %12s\n" "pass" "ms" "docs/s" "identical";
  Printf.printf "%18s %12.1f %14.0f %12s\n" "wire" pub_ms (throughput pub_ms) "-";
  Printf.printf "%18s %12.1f %14.0f %12b\n" "wire (recovered)" pub2_ms (throughput pub2_ms)
    identical_after_restart;
  Printf.printf "   recovery replayed %d WAL record(s); in-process identity %b\n" recovered
    identical_vs_inprocess;
  record "experiment"
    (J.Obj
       [
         "xpes", J.Int (List.length exprs);
         "documents", J.Int ndocs;
         "window", J.Int window;
         "suppressed", J.Int !suppressed;
         "rejected", J.Int !rejected;
         "subscribe_ms", J.Float sub_ms;
         "publish_ms", J.Float pub_ms;
         "docs_per_s", J.Float (throughput pub_ms);
         "publish_ms_recovered", J.Float pub2_ms;
         "wal_bytes", J.Int wal_bytes;
         "snapshots", J.Int snapshots;
         "recovered_records", J.Int recovered;
         "identical_after_restart", J.Bool identical_after_restart;
         "identical_vs_inprocess", J.Bool identical_vs_inprocess;
         "latency_ns", wire_latency;
       ]);
  if not (identical_after_restart && identical_vs_inprocess) then begin
    Printf.printf "net-broker: DELIVERY MISMATCH\n";
    exit 1
  end

let experiments =
  [
    "table1", table1;
    "fig6a", fig6a;
    "fig6b", fig6b;
    "fig7", fig7;
    "fig8", fig8;
    "fig8-do", fig8_do;
    "fig9", fig9;
    "fig10", fig10;
    "ablation", ablation;
    "insertion", insertion;
    "service", service;
    "occurrence-alloc", occurrence_alloc;
    "predicate-match", predicate_match;
    "ingest-alloc", ingest_alloc;
    "path-cache", path_cache_exp;
    "subsumption", subsumption_exp;
    "net-broker", net_broker;
    "micro", micro;
  ]

(* `bench -- compare old.json new.json` — regression-gate one results
   file against another; see Bench_compare for classification rules. *)
let compare_cli argv =
  let threshold = ref 0.30 and gate_timing = ref true and files = ref [] in
  let n = Array.length argv in
  let bad msg =
    Printf.eprintf
      "compare: %s\nusage: compare OLD.json NEW.json [--threshold T] [--gate-timing on|off]\n"
      msg;
    exit 2
  in
  let i = ref 2 in
  while !i < n do
    (match argv.(!i) with
    | "--threshold" ->
      if !i + 1 >= n then bad "--threshold needs a value";
      (match float_of_string_opt argv.(!i + 1) with
      | Some t when t > 0. -> threshold := t
      | _ -> bad (Printf.sprintf "bad threshold %S" argv.(!i + 1)));
      incr i
    | "--gate-timing" ->
      if !i + 1 >= n then bad "--gate-timing needs on or off";
      (match argv.(!i + 1) with
      | "on" -> gate_timing := true
      | "off" -> gate_timing := false
      | s -> bad (Printf.sprintf "bad --gate-timing %S (try on or off)" s));
      incr i
    | f -> files := f :: !files);
    incr i
  done;
  match List.rev !files with
  | [ old_path; new_path ] ->
    exit
      (Pf_bench.Bench_compare.run ~threshold:!threshold ~gate_timing:!gate_timing
         old_path new_path)
  | _ -> bad "expected exactly two results files"

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "compare" then compare_cli Sys.argv;
  let selected = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--full" -> full := true
        | "--seed" -> ()
        | arg when List.mem_assoc arg experiments -> selected := arg :: !selected
        | arg when int_of_string_opt arg <> None -> seed := int_of_string arg
        | arg ->
          Printf.eprintf "unknown experiment %S; available: %s\n" arg
            (String.concat ", " (List.map fst experiments));
          exit 2)
    Sys.argv;
  let to_run =
    if !selected = [] then experiments
    else List.filter (fun (n, _) -> List.mem n !selected) experiments
  in
  Printf.printf "predfilter benchmark harness (%s scale, seed %d)\n"
    (if !full then "paper" else "scaled")
    !seed;
  List.iter
    (fun (name, f) ->
      current_exp := name;
      let s0 = Gc.quick_stat () in
      let (), s = B.time f in
      (* allocation pressure per experiment: words allocated on the minor
         heap and promoted/allocated on the major heap while it ran *)
      let s1 = Gc.quick_stat () in
      record "gc_minor_words" (J.Float (s1.Gc.minor_words -. s0.Gc.minor_words));
      record "gc_major_words" (J.Float (s1.Gc.major_words -. s0.Gc.major_words));
      record "elapsed_s" (J.Float s);
      (* host identity, so `compare` can refuse timing diffs across
         incomparable machines; experiments that shard record their own *)
      if not (recorded_has "hardware_cores") then
        record "hardware_cores" (J.Int (Domain.recommended_domain_count ()));
      if not (recorded_has "shard_mode") then
        record "shard_mode" (J.String "sequential");
      Printf.printf "\n[%s completed in %.1f s]\n%!" name s)
    to_run;
  write_results "BENCH_results.json"
