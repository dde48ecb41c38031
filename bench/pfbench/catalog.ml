(* Every metric pfbench reports, with its unit. BENCHMARK.json names the
   same metrics; the smoke test checks the two lists agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("subscribe_p50_ms", "ms");
    ("throughput_docs_per_s", "docs/s");
    ("mutate_p75_ms", "ms");
    ("broker_rss_mb", "MB");
  ]

(* Timings come as a per-document median plus a [.p99] companion. *)
let timed name = [ (name, "us"); (name ^ ".p99", "us") ]

let per_layer =
  List.concat
    [
      timed "engine.match_us";
      timed "engine.predicate_stage_us";
      timed "engine.expr_stage_us";
      timed "engine.collect_stage_us";
      [
        ("engine.predicate_probes_per_doc", "count");
        ("engine.predicate_hit_ratio", "ratio");
        ("engine.occurrence_runs_per_doc", "count");
        ("engine.match_ratio", "ratio");
        ("engine.backtrack_steps_per_doc", "count");
        ("engine.paths_per_doc", "count");
      ];
      timed "sax.parse_us";
      timed "path.extract_us";
      timed "wire.decode_publish_us";
      [ ("path.distinct_share", "ratio"); ("subsume.physical_over_logical", "ratio") ];
      timed "broker.deliveries_us";
      [ ("broker.deliveries_per_doc", "count") ];
      timed "wire.encode_results_us";
      timed "wire.decode_results_us";
      [
        ("wire.bytes_out_per_doc", "bytes");
        ("service.latency_p50_us", "us");
        ("service.queue_wait_p50_us", "us");
        ("service.batched_share", "ratio");
        ("service.submit_waits", "count");
        ("service.queue_high_water", "count");
      ];
      timed "store.log_us";
      timed "broker.subscribe_us";
      [
        ("broker.covers_probes_per_sub", "count");
        ("broker.suppressed_share", "ratio");
        ("unaccounted_share", "ratio");
        ("trace.overhead_share", "ratio");
        ("gen.lag_p99_ms", "ms");
        ("gen.backlog_end", "count");
      ];
    ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer
