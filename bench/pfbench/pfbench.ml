(* pfbench: drive the shipped pf-broker from outside, at fixed rates, and
   report end-to-end metrics (or, with --trace 1, a per-layer breakdown).
   See README.md for the workloads, the metrics and how to read the trace. *)

open Cmdliner
module Json = Pf_obs.Json

let default_broker = "_build/default/bin/pf_broker.exe"

type opts = {
  broker : string;
  seconds : float;
  trace : bool;
  smoke : bool;
  trace_out : string option;
}

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** what the JSON line reports *)
}

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.Obj
                   [ ("value", Json.Float v); ("unit", Json.String (Catalog.unit_of name)) ] ))
             r.metrics) );
    ]

let print_metric (name, v) = Printf.printf "  %-34s %14.6f %s\n" name v (Catalog.unit_of name)

exception Invalid_run of string

(* One run of one workload: the untraced broker run, the correctness gate
   and, when tracing, the in-process breakdown. *)
let run_once opts (w : Workload.t) ~seed =
  Conn.deadline := Unix.gettimeofday () +. 170.;
  let w = if opts.smoke then Workload.for_smoke w else w in
  let size = Workload.size_for w ~seconds:opts.seconds ~smoke:opts.smoke in
  let inputs = Workload.generate w size ~seed in
  let tag = Printf.sprintf "%s/%s-seed%d" Child.root w.name seed in
  Child.mkdir_p Child.root;
  Printf.printf "pfbench %s seed %d: %d subscriptions, %d documents, %d set-ups\n%!" w.name seed
    (Array.length inputs.exprs) (Array.length inputs.docs) size.setups;
  let o =
    Drive.run ~broker_exe:opts.broker ~metrics_out:(tag ^ ".broker-metrics.jsonl") w size ~seed
      inputs
  in
  let mismatches = Gate.check inputs o in
  let failed = o.failed + mismatches in
  let light, busy = o.backlogs in
  let n_light, n_busy, n_sub, n_mut = o.samples in
  Printf.printf "  samples: light %d, busy %d, subscribe %d, mutation %d\n" n_light n_busy n_sub
    n_mut;
  Printf.printf
    "  generator: lag p99 %.3f ms; replies outstanding at a segment's last send: light %d, busy \
     %d\n"
    o.gen_lag_p99_ms light busy;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  (ungated) %-24s %14.6f %s\n" name v unit)
    o.ungated;
  Printf.printf
    "  correctness gate: %d sampled documents, %d mismatches; failed_share %g (%d of %d)\n%!"
    (Hashtbl.length o.delivered) mismatches
    (float_of_int failed /. float_of_int (max 1 o.attempted))
    failed o.attempted;
  if o.light_backlog_grew && not opts.smoke then
    raise
      (Invalid_run
         (Printf.sprintf "light-phase backlog grew to %d replies: the broker did not keep up"
            light));
  let layers =
    if opts.trace then begin
      let trace_out = Option.value opts.trace_out ~default:(tag ^ ".trace.json") in
      let l = Layers.run w size inputs o ~trace_out in
      Printf.printf "  chrome trace: %s\n" trace_out;
      l
    end
    else []
  in
  let metrics =
    if opts.smoke then o.e2e @ layers else if opts.trace then layers else o.e2e
  in
  List.iter print_metric metrics;
  { workload = w.name; seed; correct = failed = 0; attempted = o.attempted; failed; metrics }

(* {1 Repeated runs and their spread} *)

type summary = { median : float; q1 : float; q3 : float; lo : float; hi : float }

let summarize values =
  let a = Array.of_list values in
  let q1, median, q3 = Stats.quartiles a in
  { median; q1; q3; lo = Array.fold_left Float.min infinity a;
    hi = Array.fold_left Float.max neg_infinity a }

let spread s = (s.hi -. s.lo) /. Float.abs s.median
let iqr_share s = (s.q3 -. s.q1) /. Float.abs s.median

let print_summary name unit s =
  Printf.printf "  %-34s median %12.6f  q1 %12.6f  q3 %12.6f  max/min spread %6.3f  iqr %6.3f %s\n"
    name s.median s.q1 s.q3 (spread s) (iqr_share s) unit

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines with
  | lines ->
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.trim (String.sub l 0 i) = "model name" ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        lines
      |> Option.value ~default:"unknown"
  | exception Sys_error _ -> "unknown"

let repeat_json opts ~n ~seed (per_workload : (string * result list) list) =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.String (cpu_model ()));
      ("seconds", Json.Float opts.seconds);
      ("trace", Json.Int (if opts.trace then 1 else 0));
      ("runs_per_workload", Json.Int n);
      ("first_seed", Json.Int seed);
      ( "workloads",
        Json.Obj
          (List.map
             (fun (name, results) ->
               let metric_names = List.map fst (List.hd results).metrics in
               ( name,
                 Json.Obj
                   [
                     ("seeds", Json.List (List.map (fun r -> Json.Int r.seed) results));
                     ("failed", Json.List (List.map (fun r -> Json.Int r.failed) results));
                     ( "metrics",
                       Json.Obj
                         (List.map
                            (fun m ->
                              let values = List.map (fun r -> List.assoc m r.metrics) results in
                              let s = summarize values in
                              ( m,
                                Json.Obj
                                  [
                                    ("unit", Json.String (Catalog.unit_of m));
                                    ("values", Json.List (List.map (fun v -> Json.Float v) values));
                                    ("median", Json.Float s.median);
                                    ("q1", Json.Float s.q1);
                                    ("q3", Json.Float s.q3);
                                    ("spread", Json.Float (spread s));
                                    ("iqr_share", Json.Float (iqr_share s));
                                  ] ))
                            metric_names) );
                   ] ))
             per_workload) );
    ]

(* {1 compare} *)

let read_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | j -> j
  | exception (Sys_error msg | Json.Parse_error msg) ->
      Printf.eprintf "pfbench: cannot read %s: %s\n" path msg;
      exit 2

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None ->
      Printf.eprintf "pfbench: missing %S\n" k;
      exit 2

let to_float = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan
let to_list = function Json.List l -> l | _ -> []
let to_string = function Json.String s -> s | _ -> ""
let fields = function Json.Obj kvs -> kvs | _ -> []

(* End-to-end metric specs from BENCHMARK.json: (name, unit, better, bound). *)
let bench_specs spec =
  List.map
    (fun m ->
      ( to_string (member_exn "name" m),
        to_string (member_exn "unit" m),
        to_string (member_exn "better" m),
        to_float (member_exn "bound" m) ))
    (to_list (member_exn "end_to_end" spec))

let compare_cmd bench_json a b =
  let spec = read_json bench_json in
  let ja = member_exn "workloads" (read_json a) and jb = member_exn "workloads" (read_json b) in
  let regressions = ref 0 in
  Printf.printf "%-22s %-24s %12s %12s %8s %7s %7s  %s\n" "workload" "metric" "A median"
    "B median" "worse" "spread" "bound" "verdict";
  List.iter
    (fun (wname, wa) ->
      match Json.member wname jb with
      | None -> Printf.printf "%-22s missing from %s\n" wname b
      | Some wb ->
          List.iter
            (fun (name, _unit, better, bound) ->
              let values j =
                match Json.member name (member_exn "metrics" j) with
                | Some m -> List.map to_float (to_list (member_exn "values" m))
                | None -> []
              in
              match (values wa, values wb) with
              | [], _ | _, [] -> Printf.printf "%-22s %-24s missing\n" wname name
              | va, vb ->
                  let sa = summarize va and sb = summarize vb in
                  let sign = if better = "lower" then 1. else -1. in
                  let worse = sign *. (sb.median -. sa.median) /. Float.abs sa.median in
                  let sp = Float.max (spread sa) (spread sb) in
                  let b_beats_all =
                    if better = "lower" then sb.hi < sa.lo else sb.lo > sa.hi
                  in
                  let verdict =
                    if sp > bound then if b_beats_all then "better" else "unresolved"
                    else if worse > bound then (incr regressions; "WORSE")
                    else if -.worse > bound then "better"
                    else "ok"
                  in
                  Printf.printf "%-22s %-24s %12.4f %12.4f %+8.3f %7.3f %7.3f  %s\n" wname name
                    sa.median sb.median worse sp bound verdict)
            (bench_specs spec))
    (fields ja);
  if !regressions > 0 then exit 1

(* {1 smoke} — the shape of the output, never its timings *)

let smoke_check bench_json (results : result list) =
  let spec = read_json bench_json in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expected =
    List.concat_map
      (fun key ->
        List.map
          (fun m -> (to_string (member_exn "name" m), to_string (member_exn "unit" m)))
          (to_list (member_exn key spec)))
      [ "end_to_end"; "per_layer" ]
  in
  let names = List.map (fun m -> to_string (member_exn "name" m)) in
  if
    List.sort compare (names (to_list (member_exn "workloads" spec)))
    <> List.sort compare (List.map (fun (w : Workload.t) -> w.name) Workload.all)
  then problem "BENCHMARK.json workloads differ from pfbench's";
  List.iter
    (fun r ->
      let line = Json.to_string (result_json r) in
      match Json.of_string line with
      | exception Json.Parse_error msg ->
          problem "%s: result line does not parse: %s" r.workload msg
      | j ->
          let printed = member_exn "metrics" j in
          List.iter
            (fun (name, unit) ->
              match Json.member name printed with
              | None -> problem "%s: %s not printed" r.workload name
              | Some m ->
                  if to_string (member_exn "unit" m) <> unit then
                    problem "%s: %s printed in %s, BENCHMARK.json says %s" r.workload name
                      (to_string (member_exn "unit" m)) unit;
                  if Float.is_nan (to_float (member_exn "value" m)) then
                    problem "%s: %s has no value" r.workload name)
            expected;
          if to_float (member_exn "failed" j) <> 0. then
            problem "%s: failed_share is not 0 (%d failed)" r.workload r.failed)
    results;
  match !problems with
  | [] -> print_endline "pfbench smoke: ok"
  | ps ->
      List.iter (Printf.eprintf "pfbench smoke: %s\n") (List.rev ps);
      exit 1

(* {1 Command line} *)

let main broker seconds trace traced workload seed repeat out smoke bench_json trace_out =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let opts = { broker; seconds; trace = trace = 1 || traced || smoke; smoke; trace_out } in
  let workloads =
    match workload with
    | None -> Workload.all
    | Some name -> (
        match Workload.find name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "pfbench: unknown workload %S\n" name;
            exit 2)
  in
  if not (Sys.file_exists broker) then begin
    Printf.eprintf "pfbench: broker binary %s not found (dune build ./bin/pf_broker.exe)\n"
      broker;
    exit 2
  end;
  let seeds = List.init repeat (fun k -> seed + k) in
  match
    List.map
      (fun (w : Workload.t) -> (w.name, List.map (fun seed -> run_once opts w ~seed) seeds))
      workloads
  with
  | exception Invalid_run msg ->
      Printf.eprintf "pfbench: run invalid: %s\n" msg;
      exit 3
  | exception (Conn.Closed msg | Failure msg) ->
      Printf.eprintf "pfbench: run failed: %s\n" msg;
      exit 2
  | per_workload ->
      let results = List.concat_map snd per_workload in
      if smoke then smoke_check bench_json results
      else if repeat > 1 then begin
        List.iter
          (fun (name, rs) ->
            Printf.printf "%s: %d runs, seeds %d..%d\n" name repeat seed (seed + repeat - 1);
            let names = List.map fst (List.hd rs).metrics in
            List.iter
              (fun m ->
                print_summary m (Catalog.unit_of m)
                  (summarize (List.map (fun r -> List.assoc m r.metrics) rs)))
              names)
          per_workload;
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Json.to_string (repeat_json opts ~n:repeat ~seed per_workload));
                output_char oc '\n'))
          out
      end
      else List.iter (fun r -> print_endline (Json.to_string (result_json r))) results;
      if List.exists (fun r -> not r.correct) results then exit 1

let broker_arg =
  Arg.(
    value & opt string default_broker
    & info [ "broker" ] ~docv:"EXE" ~doc:"The pf-broker binary to drive.")

let seconds_arg =
  Arg.(value & opt float 24. & info [ "seconds" ] ~docv:"S"
         ~doc:"Measured time per run, split over the saturation, light and busy phases.")

let trace_arg =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
         ~doc:"1: print the per-layer metrics of a traced in-process pass instead.")

let traced_arg = Arg.(value & flag & info [ "traced" ] ~doc:"Same as $(b,--trace 1).")

let workload_arg =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
         ~doc:"nitf-selective, psd-dense or nitf-redundant-churn (default: all three).")

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let repeat_arg =
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
         ~doc:"Run N times (seeds SEED, SEED+1, ...); summarize each metric's spread.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"With $(b,--repeat): write every run's values and the summary as JSON.")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ]
         ~doc:"300 subscriptions, 60 documents per phase; check the output against BENCHMARK.json.")

let bench_json_arg =
  Arg.(value & opt string "BENCHMARK.json" & info [ "bench-json" ] ~docv:"FILE"
         ~doc:"The benchmark definition (metric names, units, bounds).")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Chrome trace of the traced pass (default .pfbench/WORKLOAD-seedN.trace.json).")

let run_term =
  Term.(
    const main $ broker_arg $ seconds_arg $ trace_arg $ traced_arg $ workload_arg $ seed_arg
    $ repeat_arg $ out_arg $ smoke_arg $ bench_json_arg $ trace_out_arg)

let compare_term =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  Term.(const compare_cmd $ bench_json_arg $ file 0 "A.json" $ file 1 "B.json")

let () =
  let info = Cmd.info "pfbench" ~doc:"open-loop benchmark of pf-broker" in
  let compare =
    Cmd.v
      (Cmd.info "compare"
         ~doc:"Compare two $(b,--repeat --out) files under BENCHMARK.json's bounds.")
      compare_term
  in
  exit (Cmd.eval (Cmd.group ~default:run_term info [ compare ]))
