(* pf-filter: filter XML documents against a file of XPath expressions.

   Expressions are read one per line (blank lines and #-comments ignored);
   each XML document given on the command line is matched and the matching
   expressions reported. *)

open Cmdliner

let read_expressions path =
  let ic = open_in path in
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc (lineno + 1)
      else go ((lineno, line) :: acc) (lineno + 1)
  in
  go [] 1

let run engine_name shard_mode domains batch subsumption stream quiet count_only
    metrics_fmt trace_srcs trace_out trace_slowest exprs_file docs =
  let subsumption =
    match subsumption with
    | "on" -> true
    | "off" -> false
    | s ->
      Printf.eprintf "bad --subsumption %S (try on or off)\n" s;
      exit 2
  in
  if stream && Pf_core.Expr_index.variant_of_name engine_name = None then begin
    Printf.eprintf "--stream applies to the predicate-engine variants only, not %S\n"
      engine_name;
    exit 2
  end;
  let mode =
    match Pf_service.mode_of_string shard_mode with
    | Some m -> m
    | None ->
      Printf.eprintf "unknown shard mode %S (try doc or expr)\n" shard_mode;
      exit 2
  in
  let metrics_fmt =
    match metrics_fmt with
    | None -> None
    | Some name -> (
      match Pf_obs.Export.format_of_name name with
      | Some f -> Some f
      | None ->
        Printf.eprintf "unknown metrics format %S (try console, json or prom)\n" name;
        exit 2)
  in
  if trace_srcs <> [] then begin
    Pf_obs.Events.install_reporter ();
    List.iter
      (fun name ->
        if not (Pf_obs.Events.enable name) then begin
          Printf.eprintf "unknown trace source %S; known sources: %s\n" name
            (String.concat ", " (Pf_obs.Events.known_sources ()));
          exit 2
        end)
      trace_srcs
  end;
  if domains < 1 || batch < 1 then begin
    Printf.eprintf "--domains and --batch must be >= 1\n";
    exit 2
  end;
  if trace_slowest < 0 then begin
    Printf.eprintf "--trace-slowest must be >= 0\n";
    exit 2
  end;
  (* per-document trace collection, only when an output file is wanted;
     0 (the default) keeps every document's trace *)
  let collector =
    match trace_out with
    | None -> None
    | Some _ ->
      Some
        (Pf_obs.Trace.create
           ~keep:(if trace_slowest = 0 then `All else `Slowest trace_slowest)
           ())
  in
  (* every engine goes through Pf_intf.FILTER now, so per-expression match
     reporting works uniformly — including the yfilter/index-filter
     baselines, which used to report counts only *)
  let filter =
    (* stage timings are wanted whenever metrics are exported *)
    match
      Pf_bench.Bench_util.filter_of_name ~collect_stats:(metrics_fmt <> None)
        ~stream:(if stream then Pf_core.Engine.Stream else Pf_core.Engine.Tree)
        engine_name
    with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown engine %S\n" engine_name;
      exit 2
  in
  (* the subsumption index wraps any engine: logical sids out, hash-consed
     physical registration in — match answers are byte-identical *)
  let filter = if subsumption then Pf_core.Subsume.filter filter else filter in
  let svc = Pf_service.create ~mode ~domains ~batch filter in
  let exprs = read_expressions exprs_file in
  let table = Hashtbl.create (List.length exprs) in
  List.iter
    (fun (lineno, src) ->
      match Pf_xpath.Parser.parse src with
      | exception Pf_xpath.Parser.Error msg ->
        Printf.eprintf "%s:%d: %s\n" exprs_file lineno msg;
        exit 2
      | p -> (
        try Hashtbl.add table (Pf_service.subscribe svc p) src
        with Pf_intf.Unsupported msg | Invalid_argument msg ->
          Printf.eprintf "%s:%d: unsupported expression: %s\n" exprs_file lineno msg;
          exit 2))
    exprs;
  (* submit each document as soon as it parses: backpressure on the
     service queue bounds how many parsed trees are alive at once, so a
     long document list streams instead of materializing every tree *)
  let docs = Array.of_list docs in
  let results = Array.make (Array.length docs) [] in
  Array.iteri
    (fun i doc_path ->
      (* the trace opens before the parse so the "parse" span lands in it
         (recorded on this domain); workers stitch their spans in by
         trace id and the delivering worker finishes the trace *)
      let ctx =
        match collector with
        | None -> None
        | Some c ->
          let ctx = Pf_obs.Trace.start ~label:doc_path c in
          Pf_obs.Trace.set_ambient ctx;
          Some ctx
      in
      if stream then begin
        (* --stream: the raw text goes to the workers; a streaming engine
           matches it straight off the SAX event stream, so nothing is
           parsed into a tree anywhere. A malformed document surfaces when
           the worker hits it — reported at shutdown below. *)
        Pf_obs.Trace.clear_ambient ();
        let src = In_channel.with_open_bin doc_path In_channel.input_all in
        Pf_service.submit_raw ?trace:ctx svc src (fun sids -> results.(i) <- sids)
      end
      else
        let parsed =
          Fun.protect ~finally:Pf_obs.Trace.clear_ambient (fun () ->
              try
                Ok
                  (Pf_xml.Sax.parse_document
                     (In_channel.with_open_bin doc_path In_channel.input_all))
              with Pf_xml.Sax.Parse_error (pos, msg) -> Error (pos, msg))
        in
        match parsed with
        | Error (pos, msg) ->
          Printf.eprintf "%s: %s (%s)\n" doc_path msg
            (Format.asprintf "%a" Pf_xml.Sax.pp_position pos);
          exit 2
        | Ok doc -> Pf_service.submit ?trace:ctx svc doc (fun sids -> results.(i) <- sids))
    docs;
  Pf_service.drain svc;
  (match collector, trace_out with
  | Some c, Some path ->
    Pf_obs.Trace.write_chrome c path;
    if not quiet then
      Printf.eprintf "wrote %d trace(s) to %s\n" (List.length (Pf_obs.Trace.traces c)) path
  | _ -> ());
  let exit_code = ref 1 in
  Array.iteri
    (fun i doc_path ->
      let matched = results.(i) in
      if matched <> [] then exit_code := 0;
      if count_only then Printf.printf "%s: %d\n" doc_path (List.length matched)
      else if not quiet then
        List.iter
          (fun sid -> Printf.printf "%s: %s\n" doc_path (Hashtbl.find table sid))
          matched)
    docs;
  (* a worker-side parse error (raw submission) re-raises here: report it
     like the eager parse path does and fail the run *)
  (try Pf_service.shutdown svc
   with Pf_xml.Sax.Parse_error (pos, msg) ->
     Printf.eprintf "parse error in a streamed document: %s (%s)\n" msg
       (Format.asprintf "%a" Pf_xml.Sax.pp_position pos);
     exit 2);
  (match metrics_fmt with
  | None -> ()
  | Some fmt ->
    (* per-stage span timings, summed across the engine replicas (the
       spans are populated because collect_stats is on whenever metrics
       are exported) *)
    let merged = Pf_service.engine_metrics svc in
    let spans =
      List.filter_map
        (fun (s : Pf_obs.Registry.sample) ->
          match s.Pf_obs.Registry.value with
          | Pf_obs.Registry.Sample_span ns -> Some (s.Pf_obs.Registry.name, ns)
          | _ -> None)
        (Pf_obs.Registry.samples merged)
    in
    if spans <> [] then begin
      let ndocs = max 1 (Array.length docs) in
      Printf.printf "# stage timings (%s mode, %d domain(s), summed across replicas)\n"
        (Pf_service.mode_name (Pf_service.mode svc))
        (Pf_service.domains svc);
      List.iter
        (fun (name, ns) ->
          Printf.printf "# %-24s %10.3f ms total %10.1f us/doc\n" name
            (Int64.to_float ns /. 1e6)
            (Int64.to_float ns /. 1e3 /. float ndocs))
        spans
    end;
    Pf_obs.Export.print fmt);
  exit !exit_code

let engine_arg =
  let doc =
    "Filtering engine: basic, basic-pc or basic-pc-ap (the predicate engine's \
     expression organizations of the paper, Section 4.2.2), yfilter or \
     index-filter."
  in
  Arg.(value & opt string "basic-pc-ap" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let shard_mode_arg =
  let doc =
    "Service parallelism mode: $(b,doc) (document-replicated — every worker \
     holds every expression, each document is matched by one worker) or \
     $(b,expr) (expression-sharded — the expression set is partitioned \
     across workers, every document is broadcast and the per-shard results \
     merged)."
  in
  Arg.(value & opt string "doc" & info [ "shard-mode" ] ~docv:"MODE" ~doc)

let domains_arg =
  let doc =
    "Worker domains. With $(docv) > 1 the documents are spread over $(docv) \
     engine replicas running in parallel (results stay in input order)."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let batch_arg =
  let doc = "Maximum documents a worker domain dequeues at once." in
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc)

let subsumption_arg =
  let doc =
    "Subsumption index: $(b,on) canonicalizes and hash-conses subscriptions \
     so semantically equal expressions share one physical expression in the \
     engine, with matches fanned back out to the original subscription ids \
     (byte-identical answers); $(b,off) (default) registers every \
     subscription verbatim. Works with every engine and shard mode."
  in
  Arg.(value & opt string "off" & info [ "subsumption" ] ~docv:"on|off" ~doc)

let stream_arg =
  let doc =
    "Fully streaming matching: documents are sent to the workers as raw XML \
     text and matched straight off the SAX event stream — no document tree \
     is ever built, and per-path publications are reused from an arena. \
     Predicate-engine variants only. Malformed documents are reported after \
     the stream drains (exit 2) instead of before submission."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-match output.")

let count_arg =
  Arg.(value & flag & info [ "c"; "count" ] ~doc:"Print match counts only.")

let metrics_arg =
  let doc =
    "After filtering, dump every metric registry to stdout in $(docv) format: \
     $(b,console) (aligned table), $(b,json) (JSON Lines, one object per metric) \
     or $(b,prom) (Prometheus text exposition). Also enables per-stage timing \
     collection in the predicate engine."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let trace_arg =
  let doc =
    "Enable debug tracing for a subsystem (repeatable): engine, \
     predicate_index, nested — or $(b,all). Events go to stderr."
  in
  Arg.(value & opt_all string [] & info [ "trace" ] ~docv:"SRC" ~doc)

let trace_out_arg =
  let doc =
    "Write a per-document trace to $(docv) in Chrome trace-event JSON \
     (load in Perfetto or chrome://tracing): one process row per document \
     with parse/scan/match/occurrence/merge/deliver spans, GC \
     word deltas attached."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_slowest_arg =
  let doc =
    "With $(b,--trace-out), retain only the $(docv) slowest documents' \
     traces (0, the default, keeps all)."
  in
  Arg.(value & opt int 0 & info [ "trace-slowest" ] ~docv:"N" ~doc)

let exprs_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"EXPRESSIONS" ~doc:"File of XPath expressions, one per line.")

let docs_arg =
  Arg.(
    non_empty
    & pos_right 0 file []
    & info [] ~docv:"XML" ~doc:"XML documents to filter.")

let cmd =
  let doc = "filter XML documents against a set of XPath expressions" in
  let info = Cmd.info "pf-filter" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ engine_arg $ shard_mode_arg $ domains_arg $ batch_arg
      $ subsumption_arg $ stream_arg $ quiet_arg $ count_arg $ metrics_arg $ trace_arg
      $ trace_out_arg $ trace_slowest_arg $ exprs_arg $ docs_arg)

let () = exit (Cmd.eval cmd)
