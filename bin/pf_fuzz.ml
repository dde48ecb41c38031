(* pf-fuzz: cross-engine differential fuzzing.

   Generates random (world, document set, XPE set) workloads, runs every
   engine in the roster on identical inputs and reports any divergence
   from the reference evaluator. Divergences are shrunk to minimal
   reproducers; with --save they are written as replayable .case files
   (the committed corpus under test/corpus/difftest is replayed by the
   test_difftest suite). Exit status: 0 = no divergence, 1 = divergence
   found, 2 = usage error. *)

open Cmdliner

let run seed cases time_budget worlds features max_exprs max_docs all_variants save_dir
    json_out replays quiet =
  let features =
    match Pf_difftest.Feature_gen.features_of_string features with
    | Ok f -> f
    | Error msg ->
      Printf.eprintf "--features: %s\n" msg;
      exit 2
  in
  let worlds =
    match worlds with
    | [] -> Pf_difftest.Difftest.all_worlds
    | ws ->
      List.concat_map
        (fun w ->
          match w with
          | "all" -> Pf_difftest.Difftest.all_worlds
          | w when List.mem w Pf_difftest.Difftest.all_worlds -> [ w ]
          | w ->
            Printf.eprintf "--dtd: unknown world %S (expected %s or all)\n" w
              (String.concat ", " Pf_difftest.Difftest.all_worlds);
            exit 2)
        ws
  in
  let log line = if not quiet then Printf.eprintf "%s\n%!" line in
  if replays <> [] then begin
    (* replay mode: check committed cases instead of fuzzing *)
    let cases =
      List.concat_map
        (fun path ->
          if Sys.is_directory path then Pf_difftest.Case.load_dir path
          else [ Pf_difftest.Case.load path ])
        replays
    in
    if cases = [] then begin
      Printf.eprintf "no .case files found under %s\n" (String.concat ", " replays);
      exit 2
    end;
    let bad = ref 0 in
    List.iter
      (fun (c : Pf_difftest.Case.t) ->
        match Pf_difftest.Difftest.check_case ~all_variants c with
        | [] -> log (Printf.sprintf "%s: ok" c.Pf_difftest.Case.name)
        | divs ->
          incr bad;
          List.iter
            (fun d ->
              Printf.printf "%s: %s\n" c.Pf_difftest.Case.name
                (Format.asprintf "%a" Pf_difftest.Difftest.pp_divergence d))
            divs)
      cases;
    Printf.printf "replayed %d cases, %d divergent\n" (List.length cases) !bad;
    exit (if !bad = 0 then 0 else 1)
  end;
  let config =
    {
      Pf_difftest.Difftest.seed;
      cases;
      time_budget;
      worlds;
      features;
      max_exprs;
      max_docs;
      all_variants;
      save_dir;
    }
  in
  let report = Pf_difftest.Difftest.run ~log config in
  let json =
    Pf_obs.Json.to_string (Pf_difftest.Difftest.report_json config report)
  in
  (match json_out with
  | None -> ()
  | Some "-" -> print_endline json
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    output_string oc "\n";
    close_out oc);
  let n_failures = List.length report.Pf_difftest.Difftest.failures in
  Printf.printf "pf_fuzz: %d cases (seed %d, worlds %s, features %s), %d divergent, %.0f ms\n"
    report.Pf_difftest.Difftest.cases_run seed (String.concat "," worlds)
    (Pf_difftest.Feature_gen.features_to_string features)
    n_failures report.Pf_difftest.Difftest.elapsed_ms;
  List.iter
    (fun (name, ms) -> Printf.printf "  %-20s %8.1f ms\n" name ms)
    report.Pf_difftest.Difftest.engine_ms;
  List.iter
    (fun (f : Pf_difftest.Difftest.divergence_report) ->
      Printf.printf "divergent case %d (%s, %d shrink steps)%s:\n%s"
        f.Pf_difftest.Difftest.case_index f.Pf_difftest.Difftest.world
        f.Pf_difftest.Difftest.shrink_steps
        (match f.Pf_difftest.Difftest.saved_to with
        | Some p -> Printf.sprintf " [saved to %s]" p
        | None -> "")
        (Pf_difftest.Case.to_string f.Pf_difftest.Difftest.shrunk))
    report.Pf_difftest.Difftest.failures;
  exit (if n_failures = 0 then 0 else 1)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let cases_arg =
  Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc:"Number of fuzz cases.")

let budget_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "time-budget" ] ~docv:"SECS"
        ~doc:"Stop after this many wall-clock seconds (0 = unlimited).")

let dtd_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "d"; "dtd" ] ~docv:"WORLD"
        ~doc:
          "Workload world (repeatable): $(b,nitf), $(b,psd), $(b,auction) (DTD-driven \
           realistic workloads), $(b,small) (adversarial small-alphabet world) or \
           $(b,all). Default: all, rotating per case.")

let features_arg =
  Arg.(
    value
    & opt string "all"
    & info [ "features" ] ~docv:"LIST"
        ~doc:
          "XPE/document feature toggles: $(b,all), $(b,none), or a comma-separated \
           subset of wildcards,descendants,attrs,nested,text.")

let max_exprs_arg =
  Arg.(value & opt int 24 & info [ "max-exprs" ] ~docv:"N" ~doc:"Expressions per case (1..N).")

let max_docs_arg =
  Arg.(value & opt int 3 & info [ "max-docs" ] ~docv:"N" ~doc:"Documents per case (1..N).")

let all_variants_arg =
  Arg.(
    value & flag
    & info [ "all-variants" ]
        ~doc:
          "Extend the roster with engine-pc (prefix covering), engine-stream (SAX \
           ingest), the service in both shard modes (tree and streaming replicas) \
           and the subsumption index (alone and behind the service).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"DIR"
        ~doc:
          "Write each shrunk divergence as a .case file under $(docv) (use \
           test/corpus/difftest to promote reproducers into the committed corpus).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a machine-readable JSON summary to $(docv) ($(b,-) = stdout).")

let replay_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "replay" ] ~docv:"PATH"
        ~doc:
          "Replay .case files ($(docv) is a file or a directory; repeatable) instead \
           of fuzzing.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-divergence progress output.")

let cmd =
  let doc = "differential fuzzing of the XPath filtering engines" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random workloads, runs the reference evaluator, the predicate \
         engine (two configurations), YFilter and Index-Filter on identical inputs, \
         and reports any divergence or crash. Divergences are shrunk to minimal \
         reproducers (drop XPEs/documents, prune subtrees, shorten paths, strip \
         filters) that can be committed as replayable regression cases.";
    ]
  in
  Cmd.v
    (Cmd.info "pf-fuzz" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ seed_arg $ cases_arg $ budget_arg $ dtd_arg $ features_arg
      $ max_exprs_arg $ max_docs_arg $ all_variants_arg $ save_arg $ json_arg
      $ replay_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
