(* Pf_obs: registry arithmetic, histogram bucketing, exporter round-trips
   and cross-engine metric invariants on a Figure-9-style workload. *)

open Pf_obs

let unlisted name = Registry.create ~list:false name

(* ------------------------------------------------------------------ *)
(* Registry arithmetic *)

let test_counter () =
  let r = unlisted "t" in
  let c = Counter.make ~registry:r "hits" in
  Alcotest.(check int) "fresh" 0 (Counter.get c);
  Counter.incr c;
  Counter.add c 41;
  Alcotest.(check int) "incr+add" 42 (Counter.get c);
  Alcotest.(check string) "name" "hits" (Counter.name c);
  Registry.reset r;
  Alcotest.(check int) "reset" 0 (Counter.get c);
  Alcotest.(check (option int)) "find_counter" (Some 0) (Registry.find_counter r "hits");
  Alcotest.(check (option int)) "find_counter miss" None (Registry.find_counter r "nope")

let test_gauge () =
  let r = unlisted "t" in
  let g = Gauge.make ~registry:r "depth" in
  Gauge.set g 3.;
  Gauge.set_max g 2.;
  Alcotest.(check (float 0.)) "set_max keeps max" 3. (Gauge.get g);
  Gauge.set_max g 7.;
  Alcotest.(check (float 0.)) "set_max raises" 7. (Gauge.get g);
  Registry.reset r;
  Alcotest.(check (float 0.)) "reset" 0. (Gauge.get g)

let test_histogram_buckets () =
  (* power-of-two bounds: observation n lands in the first bucket whose
     bound is >= n *)
  Alcotest.(check int) "0" 0 (Histogram.bucket_index 0);
  Alcotest.(check int) "1" 0 (Histogram.bucket_index 1);
  Alcotest.(check int) "2" 1 (Histogram.bucket_index 2);
  Alcotest.(check int) "3" 2 (Histogram.bucket_index 3);
  Alcotest.(check int) "4" 2 (Histogram.bucket_index 4);
  Alcotest.(check int) "5" 3 (Histogram.bucket_index 5);
  Alcotest.(check int) "1024" 10 (Histogram.bucket_index 1024);
  Alcotest.(check int) "1025" 11 (Histogram.bucket_index 1025);
  Alcotest.(check bool) "huge lands in overflow" true (Histogram.bucket_index max_int >= 30)

let test_histogram_cumulative () =
  let r = unlisted "t" in
  let h = Histogram.make ~registry:r "len" in
  List.iter (Histogram.observe h) [ 1; 2; 2; 5 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 0.)) "sum" 10. (Histogram.sum h);
  let cum = Histogram.cumulative h in
  (* cumulative counts never decrease and end at the total under +inf *)
  let last_bound, last_count = List.nth cum (List.length cum - 1) in
  Alcotest.(check bool) "last bound is +inf" true (last_bound = infinity);
  Alcotest.(check int) "last count is total" 4 last_count;
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone cum);
  Alcotest.(check int) "le 1" 1 (List.assoc 1. cum);
  Alcotest.(check int) "le 2" 3 (List.assoc 2. cum);
  Alcotest.(check int) "le 8" 4 (List.assoc 8. cum)

let test_span () =
  let r = unlisted "t" in
  let s = Span.make ~registry:r "stage_ns" in
  Span.add s 1_500_000L;
  Span.add s 500_000L;
  Alcotest.(check int64) "ns accumulates" 2_000_000L (Span.ns s);
  Alcotest.(check (float 1e-9)) "ms" 2.0 (Span.ms s);
  let x = Span.time s (fun () -> 42) in
  Alcotest.(check int) "time returns" 42 x;
  Alcotest.(check bool) "time adds" true (Span.ns s >= 2_000_000L);
  Registry.reset r;
  Alcotest.(check int64) "reset" 0L (Span.ns s)

let test_scope_uniquification () =
  let r1 = Registry.create "uniq_test" in
  let r2 = Registry.create "uniq_test" in
  Alcotest.(check string) "first" "uniq_test" (Registry.scope r1);
  Alcotest.(check string) "second" "uniq_test#2" (Registry.scope r2);
  let scopes = List.map Registry.scope (Registry.registries ()) in
  Alcotest.(check bool) "both listed" true
    (List.mem "uniq_test" scopes && List.mem "uniq_test#2" scopes)

(* ------------------------------------------------------------------ *)
(* Quantile histograms *)

let test_qhist_basic () =
  let r = unlisted "t" in
  let q = Qhist.make ~registry:r "lat" in
  Alcotest.(check int) "empty quantile" 0 (Qhist.quantile q 0.5);
  Alcotest.(check int) "empty min" 0 (Qhist.min_value q);
  List.iter (Qhist.observe q) [ 5; 7; 7; 30; 1000 ];
  Alcotest.(check int) "count" 5 (Qhist.count q);
  Alcotest.(check (float 0.)) "sum" 1049. (Qhist.sum q);
  Alcotest.(check int) "min" 5 (Qhist.min_value q);
  Alcotest.(check int) "max" 1000 (Qhist.max_value q);
  (* values below 32 get a bucket each, so small quantiles are exact *)
  Alcotest.(check int) "p20 exact" 5 (Qhist.quantile q 0.2);
  Alcotest.(check int) "p50 exact" 7 (Qhist.quantile q 0.5);
  Alcotest.(check int) "p80 exact" 30 (Qhist.quantile q 0.8);
  let p99 = Qhist.quantile q 0.99 in
  Alcotest.(check bool) "p99 within 1/32 above max" true
    (p99 >= 1000 && p99 <= 1000 + (1000 / 32) + 1);
  (* negative observations clamp to 0 *)
  Qhist.observe q (-3);
  Alcotest.(check int) "clamped min" 0 (Qhist.min_value q);
  Registry.reset r;
  Alcotest.(check int) "reset count" 0 (Qhist.count q);
  Alcotest.(check int) "reset quantile" 0 (Qhist.quantile q 0.99)

let test_qhist_buckets () =
  (* every value reads back from its bucket within 1/32 relative error,
     and bucket_value is the largest value mapping to that bucket *)
  List.iter
    (fun v ->
      let i = Qhist.bucket_index v in
      let rep = Qhist.bucket_value i in
      Alcotest.(check bool)
        (Printf.sprintf "v=%d rep>=v" v)
        true (rep >= v);
      Alcotest.(check bool)
        (Printf.sprintf "v=%d rep within 1/32" v)
        true
        (rep - v <= (v / 32) + 1);
      Alcotest.(check int)
        (Printf.sprintf "rep of %d self-maps" v)
        i
        (Qhist.bucket_index rep))
    [ 0; 1; 31; 32; 33; 63; 64; 100; 1023; 1024; 65_537; 1_000_000; max_int / 2 ]

let test_qhist_cumulative () =
  let r = unlisted "t" in
  let q = Qhist.make ~registry:r "lat" in
  List.iter (Qhist.observe q) [ 1; 1; 2; 500 ];
  let cum = Qhist.cumulative q in
  let last_bound, last_count = List.nth cum (List.length cum - 1) in
  Alcotest.(check bool) "terminal +inf" true (last_bound = infinity);
  Alcotest.(check int) "terminal total" 4 last_count;
  let rec monotone = function
    | (b1, c1) :: ((b2, c2) :: _ as rest) ->
      b1 < b2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in bound and count" true (monotone cum);
  (* exact small buckets: le(1)=2, le(2)=3 *)
  Alcotest.(check int) "le 1" 2 (List.assoc 1. cum);
  Alcotest.(check int) "le 2" 3 (List.assoc 2. cum)

(* QCheck: quantile readouts against the sorted-sample order statistic,
   and distribution mergeability. *)

let sorted_oracle sample p =
  let sorted = List.sort compare sample in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
  List.nth sorted (rank - 1)

let prop_qhist_quantile_oracle =
  QCheck2.Test.make ~name:"qhist p50/p90/p99 within 1/32 of sorted sample"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 200) (int_bound 2_000_000))
    (fun sample ->
      let q = Qhist.make "lat" in
      List.iter (Qhist.observe q) sample;
      List.for_all
        (fun p ->
          let truth = sorted_oracle sample p in
          let read = Qhist.quantile q p in
          truth <= read && read - truth <= (truth / 32) + 1)
        [ 0.5; 0.9; 0.99; 0.999 ])

let prop_qhist_merge_associative =
  QCheck2.Test.make ~name:"registry merge is associative" ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 50) (int_bound 100_000))
        (list_size (int_range 0 50) (int_bound 100_000))
        (list_size (int_range 0 50) (int_bound 100_000)))
    (fun (xs, ys, zs) ->
      let mk obs =
        let r = unlisted "part" in
        let q = Qhist.make ~registry:r "lat" in
        let c = Counter.make ~registry:r "n" in
        let g = Gauge.make ~registry:r "sz" ~merge:Gauge.Sum in
        let w = Gauge.make ~registry:r "hw" in
        List.iter (Qhist.observe q) obs;
        Counter.add c (List.length obs);
        Gauge.set g (float_of_int (List.length obs));
        Gauge.set w (float_of_int (List.fold_left max 0 obs));
        r
      in
      let a = mk xs and b = mk ys and c = mk zs in
      let left =
        Registry.merge ~list:false ~scope:"m"
          [ Registry.merge ~list:false ~scope:"m" [ a; b ]; c ]
      in
      let right =
        Registry.merge ~list:false ~scope:"m"
          [ a; Registry.merge ~list:false ~scope:"m" [ b; c ] ]
      in
      (* prometheus exposition prints every bucket, so equality there is
         equality of the full merged distributions, not just quantiles *)
      Export.prometheus left = Export.prometheus right)

let test_gauge_merge_policy () =
  let mk v =
    let r = unlisted "part" in
    let s = Gauge.make ~registry:r "cache_entries" ~merge:Gauge.Sum in
    let m = Gauge.make ~registry:r "high_water" in
    Gauge.set s v;
    Gauge.set m v;
    r
  in
  let merged = Registry.merge ~list:false ~scope:"m" [ mk 3.; mk 5. ] in
  let value name =
    match Json.member name (Export.registry_json merged) with
    | Some (Json.Float f) -> f
    | Some (Json.Int n) -> float_of_int n
    | _ -> Alcotest.fail (name ^ " missing from merged registry")
  in
  Alcotest.(check (float 0.)) "Sum gauges add" 8. (value "cache_entries");
  Alcotest.(check (float 0.)) "Max gauges keep the max" 5. (value "high_water")

(* ------------------------------------------------------------------ *)
(* Exporters *)

let sample_registry () =
  let r = unlisted "sample" in
  let c = Counter.make ~registry:r "runs" ~help:"runs so far" in
  let g = Gauge.make ~registry:r "depth" in
  let h = Histogram.make ~registry:r "chain" in
  let s = Span.make ~registry:r "stage_ns" in
  Counter.add c 17;
  Gauge.set g 4.;
  List.iter (Histogram.observe h) [ 1; 3 ];
  Span.add s 2_000_000L;
  r

let test_jsonl_roundtrip () =
  let r = sample_registry () in
  let lines = String.split_on_char '\n' (String.trim (Export.jsonl r)) in
  Alcotest.(check int) "one line per metric" 4 (List.length lines);
  let parsed = List.map Json.of_string lines in
  List.iter
    (fun j ->
      Alcotest.(check (option string))
        "scope" (Some "sample")
        (match Json.member "scope" j with Some (Json.String s) -> Some s | _ -> None))
    parsed;
  let by_name name =
    List.find
      (fun j -> Json.member "name" j = Some (Json.String name))
      parsed
  in
  Alcotest.(check bool) "counter value" true
    (Json.member "value" (by_name "runs") = Some (Json.Int 17));
  Alcotest.(check bool) "span ns" true
    (Json.member "ns" (by_name "stage_ns") = Some (Json.Int 2_000_000));
  (match Json.member "count" (by_name "chain") with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "histogram count");
  (* registry_json compact snapshot parses back too *)
  let snap = Json.of_string (Json.to_string (Export.registry_json r)) in
  Alcotest.(check bool) "snapshot runs" true
    (Json.member "runs" snap = Some (Json.Int 17))

let test_prometheus_format () =
  let r = sample_registry () in
  let text = Export.prometheus r in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter sample" true (contains "predfilter_sample_runs 17");
  Alcotest.(check bool) "help line" true
    (contains "# HELP predfilter_sample_runs runs so far");
  Alcotest.(check bool) "type line" true (contains "# TYPE predfilter_sample_runs counter");
  Alcotest.(check bool) "span as seconds counter" true
    (contains "predfilter_sample_stage_ns_seconds_total 0.002");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (contains "predfilter_sample_chain_bucket{le=\"+Inf\"} 2")

let test_summary_line () =
  let r = unlisted "digest" in
  let c = Counter.make ~registry:r "hits" in
  let z = Counter.make ~registry:r "misses" in
  ignore z;
  Counter.add c 3;
  let line = Export.summary_line r in
  let contains sub =
    let n = String.length sub and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "scope shown" true (contains "[digest]");
  Alcotest.(check bool) "nonzero shown" true (contains "hits=3");
  Alcotest.(check bool) "zeros elided" false (contains "misses")

let test_build_info () =
  let text = Export.build_info () in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "gauge type" true (contains "# TYPE predfilter_build_info gauge");
  Alcotest.(check bool) "version label" true
    (contains (Printf.sprintf "version=\"%s\"" Export.version));
  Alcotest.(check bool) "ocaml version label" true
    (contains (Printf.sprintf "ocaml_version=\"%s\"" Sys.ocaml_version));
  Alcotest.(check bool) "value 1" true (contains "} 1");
  (* prometheus_all leads with it *)
  let all = Export.prometheus_all () in
  Alcotest.(check bool) "prometheus_all starts with build info" true
    (String.length all >= String.length text
    && String.sub all 0 (String.length text) = text)

let test_qhist_prometheus () =
  let r = unlisted "qh" in
  let q = Qhist.make ~registry:r "lat_ns" ~help:"latency" in
  List.iter (Qhist.observe q) [ 1; 2; 1000 ];
  let text = Export.prometheus r in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "histogram type" true
    (contains "# TYPE predfilter_qh_lat_ns histogram");
  Alcotest.(check bool) "buckets" true (contains "predfilter_qh_lat_ns_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "+Inf bucket" true
    (contains "predfilter_qh_lat_ns_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "sum" true (contains "predfilter_qh_lat_ns_sum 1003");
  Alcotest.(check bool) "count" true (contains "predfilter_qh_lat_ns_count 3");
  (* a histogram family may not mix in quantile-labeled series *)
  Alcotest.(check bool) "no quantile series" false (contains "quantile=")

(* ------------------------------------------------------------------ *)
(* Per-document tracing *)

let span_names tr = List.rev_map (fun sp -> sp.Trace.sp_name) tr.Trace.tr_spans

let test_trace_nesting () =
  let t = Trace.create () in
  let ctx = Trace.start ~label:"doc.xml" t in
  Alcotest.(check bool) "no ambient yet" true (Trace.ambient () = None);
  Trace.set_ambient ctx;
  Alcotest.(check bool) "ambient set" true (Trace.ambient () = Some ctx);
  let x =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "thunk value" 42 x;
  (* spans record even when the thunk raises *)
  (try Trace.with_span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.clear_ambient ();
  Alcotest.(check bool) "ambient cleared" true (Trace.ambient () = None);
  Alcotest.(check int) "with_span outside a trace is a no-op" 7
    (Trace.with_span "ignored" (fun () -> 7));
  Trace.finish ctx;
  match Trace.traces t with
  | [ tr ] ->
    Alcotest.(check string) "label" "doc.xml" tr.Trace.tr_label;
    (* spans append when they close, so the inner span precedes its parent *)
    Alcotest.(check (list string)) "span names" [ "inner"; "outer"; "raiser" ]
      (span_names tr);
    let find name = List.find (fun sp -> sp.Trace.sp_name = name) tr.Trace.tr_spans in
    let outer = find "outer" and inner = find "inner" and raiser = find "raiser" in
    Alcotest.(check int) "outer is a root child" 0 outer.Trace.sp_parent;
    Alcotest.(check int) "inner nests under outer" outer.Trace.sp_id
      inner.Trace.sp_parent;
    Alcotest.(check int) "raiser recorded as root child" 0 raiser.Trace.sp_parent;
    Alcotest.(check bool) "durations non-negative" true
      (List.for_all (fun sp -> sp.Trace.sp_dur_ns >= 0L) tr.Trace.tr_spans);
    Alcotest.(check bool) "trace spans its spans" true
      (List.for_all
         (fun sp -> sp.Trace.sp_t0_ns >= tr.Trace.tr_t0_ns)
         tr.Trace.tr_spans)
  | trs -> Alcotest.fail (Printf.sprintf "expected 1 trace, got %d" (List.length trs))

let test_trace_retention () =
  let t = Trace.create ~keep:(`Slowest 2) () in
  for i = 1 to 5 do
    let ctx = Trace.start ~label:(Printf.sprintf "d%d" i) t in
    Trace.finish ctx
  done;
  Alcotest.(check int) "kept" 2 (List.length (Trace.traces t));
  Alcotest.(check int) "dropped" 3 (Trace.dropped t);
  match Trace.slowest t with
  | None -> Alcotest.fail "slowest empty"
  | Some s ->
    Alcotest.(check bool) "slowest is the max kept" true
      (List.for_all (fun tr -> tr.Trace.tr_dur_ns <= s.Trace.tr_dur_ns) (Trace.traces t))

let test_trace_chrome_export () =
  let t = Trace.create () in
  let ctx = Trace.start ~label:"a.xml" t in
  Trace.set_ambient ctx;
  ignore (Trace.with_span "parse" (fun () -> Sys.opaque_identity 1));
  Trace.clear_ambient ();
  Trace.finish ctx;
  (* the export must survive a JSON round-trip and keep the catapult shape *)
  let j = Json.of_string (Json.to_string (Trace.to_chrome_json t)) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let phase e = match Json.member "ph" e with Some (Json.String s) -> s | _ -> "?" in
  Alcotest.(check bool) "has process_name metadata" true
    (List.exists
       (fun e ->
         phase e = "M" && Json.member "name" e = Some (Json.String "process_name"))
       events);
  let xs = List.filter (fun e -> phase e = "X") events in
  Alcotest.(check int) "root + one span" 2 (List.length xs);
  List.iter
    (fun e ->
      List.iter
        (fun key ->
          if Json.member key e = None then Alcotest.fail (key ^ " missing"))
        [ "name"; "ts"; "dur"; "pid"; "tid" ])
    xs;
  Alcotest.(check bool) "span carries gc args" true
    (List.exists
       (fun e ->
         match Json.member "args" e with
         | Some args -> Json.member "gc_minor_words" args <> None
         | None -> false)
       xs)

(* Cross-domain stitching: submit traced documents through the service at
   two domains in both shard modes; every document must come back as one
   trace whose spans cover the pipeline stages, with the expression-
   sharded mode contributing spans from multiple workers plus a merge. *)
let service_traces mode =
  let dtd = Pf_workload.Dtd.nitf_like () in
  let qs =
    Pf_workload.Xpath_gen.generate dtd
      { Pf_workload.Presets.paper_queries with Pf_workload.Xpath_gen.count = 50; seed = 3 }
  in
  let docs =
    Pf_workload.Xml_gen.generate_many dtd
      { (Pf_workload.Presets.documents_for "nitf") with Pf_workload.Xml_gen.seed = 4 }
      4
  in
  let svc =
    Pf_service.create ~mode ~domains:2 (Pf_core.Engine.filter () :> Pf_intf.filter)
  in
  List.iter (fun q -> ignore (Pf_service.subscribe svc q)) qs;
  let t = Trace.create () in
  List.iteri
    (fun i doc ->
      let ctx = Trace.start ~label:(Printf.sprintf "doc%d" i) t in
      Pf_service.submit ~trace:ctx svc doc (fun _ -> ()))
    docs;
  Pf_service.shutdown svc;
  List.length docs, Trace.traces t

let test_trace_service_doc_mode () =
  let ndocs, trs = service_traces Pf_service.Doc in
  Alcotest.(check int) "one finished trace per document" ndocs (List.length trs);
  List.iter
    (fun tr ->
      let names = span_names tr in
      List.iter
        (fun stage ->
          Alcotest.(check bool) (stage ^ " present") true (List.mem stage names))
        [ "scan"; "match"; "occurrence"; "deliver" ])
    trs

let test_trace_service_expr_mode () =
  let ndocs, trs = service_traces Pf_service.Expr in
  Alcotest.(check int) "one finished trace per document" ndocs (List.length trs);
  List.iter
    (fun tr ->
      let names = span_names tr in
      List.iter
        (fun stage ->
          Alcotest.(check bool) (stage ^ " present") true (List.mem stage names))
        [ "scan"; "match"; "merge"; "deliver" ];
      (* both expression shards matched the document, so its stitched
         trace carries spans from at least two distinct domains *)
      let tids =
        List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_tid) tr.Trace.tr_spans)
      in
      Alcotest.(check bool) "spans from >= 2 domains" true (List.length tids >= 2))
    trs

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let test_json_parser () =
  let rt v = Json.of_string (Json.to_string v) in
  let v =
    Json.Obj
      [
        "a", Json.Int 1;
        "b", Json.List [ Json.Null; Json.Bool true; Json.Float 2.5 ];
        "s", Json.String "he \"said\"\n";
      ]
  in
  Alcotest.(check bool) "roundtrip" true (rt v = v);
  Alcotest.(check bool) "nan is null" true
    (Json.of_string (Json.to_string (Json.Float Float.nan)) = Json.Null);
  Alcotest.(check bool) "trailing garbage rejected" true
    (match Json.of_string "1 2" with
    | _ -> false
    | exception Json.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Cross-engine invariants on a small Figure-9-style workload: filtered
   expressions over generated documents, run through every engine. *)

let workload () =
  let dtd = Pf_workload.Dtd.nitf_like () in
  let qs =
    Pf_workload.Xpath_gen.generate dtd
      {
        Pf_workload.Presets.paper_queries with
        Pf_workload.Xpath_gen.count = 400;
        filters_per_path = 1;
        seed = 11;
      }
  in
  let docs =
    Pf_workload.Xml_gen.generate_many dtd
      { (Pf_workload.Presets.documents_for "nitf") with Pf_workload.Xml_gen.seed = 12 }
      5
  in
  qs, docs

let counter_of registry name =
  match Registry.find_counter registry name with
  | Some n -> n
  | None -> Alcotest.fail (Printf.sprintf "counter %s not registered" name)

let run_variant variant qs docs =
  let e = Pf_core.Engine.create ~variant () in
  List.iter (fun q -> ignore (Pf_core.Engine.add e q)) qs;
  let matches =
    List.fold_left (fun acc d -> acc + List.length (Pf_core.Engine.match_document e d)) 0 docs
  in
  matches, Pf_core.Engine.metrics e

let test_cross_engine_invariants () =
  let qs, docs = workload () in
  let m_basic, r_basic = run_variant Pf_core.Expr_index.Basic qs docs in
  let m_ap, r_ap = run_variant Pf_core.Expr_index.Access_predicate qs docs in
  Alcotest.(check int) "variants agree on matches" m_basic m_ap;
  let runs_basic = counter_of r_basic "occurrence_runs" in
  let runs_ap = counter_of r_ap "occurrence_runs" in
  Alcotest.(check bool) "runs nonzero" true (runs_basic > 0 && runs_ap > 0);
  (* prefix covering + access predicates can only prune runs *)
  Alcotest.(check bool) "ap prunes runs" true (runs_ap <= runs_basic);
  Alcotest.(check bool) "ap skipped something" true
    (counter_of r_ap "access_skips" + counter_of r_ap "prefix_cover_skips" > 0);
  Alcotest.(check bool) "ap entered trie nodes" true (counter_of r_ap "trie_visits" > 0);
  List.iter
    (fun r ->
      let probes = counter_of r "predicate_probes" in
      let hits = counter_of r "predicate_hits" in
      let paths = counter_of r "paths" in
      let docs_n = counter_of r "documents" in
      Alcotest.(check bool) "hits <= probes" true (hits <= probes);
      Alcotest.(check bool) "documents counted" true (docs_n = List.length docs);
      Alcotest.(check bool) "paths >= documents" true (paths >= docs_n);
      (* each run probes the predicate index at most once per path/expr *)
      let runs = counter_of r "occurrence_runs" in
      Alcotest.(check bool) "runs bounded" true (runs <= paths * List.length qs))
    [ r_basic; r_ap ]

(* Per document, on the default engine and on the Postponed one:
   [documents] counts it once, [paths] counts its root-to-leaf paths, and
   the expression stage walks a chunk of up to [chunk_capacity] paths at
   once inline (ceil(n/C) walks), but every path alone with postponed
   attribute checks (n walks). *)
let test_expr_walks_law () =
  let qs, docs = workload () in
  let c = Pf_core.Predicate_index.chunk_capacity in
  let check name ~walks_for e =
    List.iter (fun q -> ignore (Pf_core.Engine.add e q)) qs;
    let r = Pf_core.Engine.metrics e in
    List.fold_left
      (fun widest d ->
        let w0 = counter_of r "expr_walks" and p0 = counter_of r "paths" in
        let d0 = counter_of r "documents" in
        ignore (Pf_core.Engine.match_document e d : int list);
        let n = List.length (Pf_xml.Path.of_document d) in
        Alcotest.(check int) (name ^ ": one document") 1 (counter_of r "documents" - d0);
        Alcotest.(check int) (name ^ ": its paths") n (counter_of r "paths" - p0);
        Alcotest.(check int)
          (Printf.sprintf "%s: a document of %d paths" name n)
          (walks_for n)
          (counter_of r "expr_walks" - w0);
        max widest n)
      0 docs
  in
  let widest = check "inline" ~walks_for:(fun n -> (n + c - 1) / c) (Pf_core.Engine.create ()) in
  Alcotest.(check bool) "some document spans chunks" true (widest > c);
  ignore
    (check "postponed" ~walks_for:Fun.id
       (Pf_core.Engine.create ~attr_mode:Pf_core.Engine.Postponed ())
      : int)

(* Every counter, gauge, histogram and span an engine registers, from the
   engine itself and from its predicate and expression indexes. A metric
   whose subject is deleted must go with it rather than linger as a name
   that always reads 0. *)
let test_engine_metric_names () =
  let names e =
    List.sort compare
      (List.map
         (fun (s : Registry.sample) -> s.Registry.name)
         (Registry.samples (Pf_core.Engine.metrics e)))
  in
  let expected =
    List.sort compare
      [
        (* engine *)
        "paths"; "documents"; "stream_documents"; "predicate_stage_ns"; "expr_stage_ns";
        "collect_stage_ns"; "doc_latency_ns"; "distinct_predicates";
        (* predicate index *)
        "predicate_probes"; "predicate_hits"; "predicate_residual_constrained";
        (* expression index *)
        "occurrence_runs"; "backtrack_steps"; "prefix_cover_skips"; "access_skips";
        "trie_visits"; "expr_walks"; "chain_length";
      ]
  in
  Alcotest.(check (list string)) "default engine" expected (names (Pf_core.Engine.create ()));
  Alcotest.(check (list string)) "postponed basic engine" expected
    (names
       (Pf_core.Engine.create ~variant:Pf_core.Expr_index.Basic
          ~attr_mode:Pf_core.Engine.Postponed ()))

let test_baseline_metrics () =
  let qs, docs = workload () in
  let single_path = List.filter Pf_xpath.Ast.is_single_path qs in
  let y = Pf_yfilter.Yfilter.create () in
  let f = Pf_indexfilter.Index_filter.create () in
  List.iter (fun q -> ignore (Pf_yfilter.Yfilter.add y q)) single_path;
  List.iter (fun q -> ignore (Pf_indexfilter.Index_filter.add f q)) single_path;
  let my =
    List.fold_left
      (fun acc d -> acc + List.length (Pf_yfilter.Yfilter.match_document y d))
      0 docs
  in
  let mf =
    List.fold_left
      (fun acc d -> acc + List.length (Pf_indexfilter.Index_filter.match_document f d))
      0 docs
  in
  Alcotest.(check int) "baselines agree" my mf;
  let ry = Pf_yfilter.Yfilter.metrics y and rf = Pf_indexfilter.Index_filter.metrics f in
  Alcotest.(check int) "yfilter documents" (List.length docs) (counter_of ry "documents");
  Alcotest.(check int) "indexfilter documents" (List.length docs) (counter_of rf "documents");
  Alcotest.(check int) "yfilter matches counter" my (counter_of ry "matches");
  Alcotest.(check int) "indexfilter matches counter" mf (counter_of rf "matches");
  Alcotest.(check bool) "yfilter did work" true
    (counter_of ry "nfa_transitions" > 0 && counter_of ry "state_activations" > 0);
  Alcotest.(check bool) "indexfilter did work" true
    (counter_of rf "stream_advances" >= counter_of rf "nodes_visited")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram cumulative" `Quick test_histogram_cumulative;
          Alcotest.test_case "span" `Quick test_span;
          Alcotest.test_case "scope uniquification" `Quick test_scope_uniquification;
        ] );
      ( "qhist",
        [
          Alcotest.test_case "basics" `Quick test_qhist_basic;
          Alcotest.test_case "bucket error bound" `Quick test_qhist_buckets;
          Alcotest.test_case "cumulative" `Quick test_qhist_cumulative;
          Alcotest.test_case "gauge merge policy" `Quick test_gauge_merge_policy;
          Gen_helpers.to_alcotest prop_qhist_quantile_oracle;
          Gen_helpers.to_alcotest prop_qhist_merge_associative;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_trace_nesting;
          Alcotest.test_case "slowest-n retention" `Quick test_trace_retention;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
          Alcotest.test_case "service doc mode" `Quick test_trace_service_doc_mode;
          Alcotest.test_case "service expr mode" `Quick test_trace_service_expr_mode;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "qhist exposition" `Quick test_qhist_prometheus;
          Alcotest.test_case "build info" `Quick test_build_info;
          Alcotest.test_case "summary line" `Quick test_summary_line;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "engines",
        [
          Alcotest.test_case "cross-engine invariants" `Quick test_cross_engine_invariants;
          Alcotest.test_case "expression walks per document" `Quick test_expr_walks_law;
          Alcotest.test_case "engine metric names" `Quick test_engine_metric_names;
          Alcotest.test_case "baseline metrics" `Quick test_baseline_metrics;
        ] );
    ]
