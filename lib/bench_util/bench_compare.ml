(* Regression detector over two BENCH_results.json files.

   Every numeric leaf of the per-experiment records is classified by its
   key: timing metrics (milliseconds, nanoseconds, docs/s, latency
   percentiles, speedups) regress only against runs from a comparable
   host and are gated by a relative threshold; scale-free metrics
   (hit ratios, GC words, identity checks) are deterministic properties
   of the code and gate unconditionally. Two runs are comparable when
   schema, scale and every experiment's recorded hardware_cores and
   shard_mode agree — otherwise timing diffs are meaningless and the
   comparison is refused (or, with [gate_timing] off, downgraded to
   warnings so a CI job can still gate the scale-free metrics against a
   baseline committed from a different machine). *)

module J = Pf_obs.Json

type verdict = {
  incomparable : string list;  (* schema/scale/host mismatches *)
  failures : string list;  (* gated regressions *)
  warnings : string list;  (* ungated timing drift, structural notes *)
}

let ok v = v.incomparable = [] && v.failures = []

(* ------------------------------------------------------------------ *)
(* Classification *)

type metric =
  | Timing_lower  (* lower is better: ms, ns, latency percentiles *)
  | Timing_higher  (* higher is better: docs/s, speedup *)
  | Free_lower  (* scale-free, lower is better: GC words *)
  | Free_higher  (* scale-free, higher is better: hit ratio *)
  | Must_hold  (* boolean invariant: true may not become false *)
  | Ignore

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let has_suffix ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

(* [path] is the slash-joined location of the leaf inside its experiment;
   [exp] the experiment name. The last path segment drives most rules. *)
let classify ~exp path =
  let base =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  if base = "identical_matches" then Must_hold
  else if base = "hit_ratio" then Free_higher
  else if has_sub ~sub:"minor_words" base || has_sub ~sub:"major_words" base
          || has_sub ~sub:"gc_" base
  then Free_lower
  else if base = "probes_per_doc" || base = "hits_per_doc" then
    (* deterministic work profile of the predicate stage on the seeded
       workload: growth means the index got less selective *)
    Free_lower
  else if base = "trie_visits_per_doc" then
    (* deterministic work profile of the expression stage: growth means
       the trie walk enters nodes it used to skip *)
    Free_lower
  else if base = "physical_over_logical" || base = "covers_probes_per_expr" then
    (* deterministic sharing profile of the subsumption index on the
       seeded redundant workload: a rising ratio means lost sharing, a
       rising per-expression probe count means the candidate probe is
       drifting super-linear *)
    Free_lower
  else if has_sub ~sub:"docs_per_s" base || has_sub ~sub:"speedup" base then
    Timing_higher
  else if
    (* latency percentile readouts from quantile histograms *)
    List.mem base [ "p50"; "p90"; "p99"; "p999"; "mean"; "min"; "max" ]
    && (has_sub ~sub:"latency" path || has_sub ~sub:"_ns" path)
  then Timing_lower
  else if
    has_suffix ~suffix:"_ms" base || base = "ms"
    || has_sub ~sub:"ms_per" base
    || has_suffix ~suffix:"_ns" base
    || has_sub ~sub:"ns_per" base
    || has_sub ~sub:"us_per" base
    || has_suffix ~suffix:"_us" base
    || base = "elapsed_s"
  then Timing_lower
  else if exp = "micro" && not (has_sub ~sub:"/" path) then
    (* bechamel estimates are recorded directly under the test name *)
    Timing_lower
  else Ignore

(* ------------------------------------------------------------------ *)
(* Flattening *)

let rec leaves prefix (v : J.t) acc =
  match v with
  | J.Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        leaves (if prefix = "" then k else prefix ^ "/" ^ k) v acc)
      acc fields
  | J.List items ->
    (* list positions are structural (series points, sweep rows); numeric
       elements inside them stay comparable by index *)
    snd
      (List.fold_left
         (fun (i, acc) v -> i + 1, leaves (Printf.sprintf "%s/%d" prefix i) v acc)
         (0, acc) items)
  | J.Int _ | J.Float _ | J.Bool _ -> (prefix, v) :: acc
  | J.Null | J.String _ -> acc

let number = function
  | J.Int n -> Some (float_of_int n)
  | J.Float f -> Some f
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Comparison *)

let experiments doc =
  match J.member "experiments" doc with
  | Some (J.Obj fields) -> fields
  | _ -> []

let string_member key doc =
  match J.member key doc with
  | Some (J.String s) -> Some s
  | Some (J.Int n) -> Some (string_of_int n)
  | _ -> None

(* hardware_cores / shard_mode / scale mismatches make timing diffs
   meaningless *)
let comparability old_doc new_doc =
  let top = ref [] in
  List.iter
    (fun key ->
      match string_member key old_doc, string_member key new_doc with
      | Some a, Some b when a <> b ->
        top := Printf.sprintf "%s: %S vs %S" key a b :: !top
      | _ -> ())
    [ "schema"; "scale" ];
  let olds = experiments old_doc and news = experiments new_doc in
  List.iter
    (fun (name, old_exp) ->
      match List.assoc_opt name news with
      | None -> ()
      | Some new_exp ->
        List.iter
          (fun key ->
            match
              ( J.member key old_exp |> Option.map J.to_string,
                J.member key new_exp |> Option.map J.to_string )
            with
            | Some a, Some b when a <> b ->
              top := Printf.sprintf "%s/%s: %s vs %s" name key a b :: !top
            | _ -> ())
          [ "hardware_cores"; "shard_mode" ])
    olds;
  List.rev !top

let compare_json ?(threshold = 0.30) ?(gate_timing = true) old_doc new_doc =
  let incomparable = comparability old_doc new_doc in
  let failures = ref [] and warnings = ref [] in
  let olds = experiments old_doc and news = experiments new_doc in
  List.iter
    (fun (exp, old_exp) ->
      match List.assoc_opt exp news with
      | None -> warnings := Printf.sprintf "%s: missing from new results" exp :: !warnings
      | Some new_exp ->
        let old_leaves = leaves "" old_exp [] in
        let new_leaves = leaves "" new_exp [] in
        List.iter
          (fun (path, old_v) ->
            match List.assoc_opt path new_leaves with
            | None -> ()
            | Some new_v -> (
              let cls = classify ~exp path in
              match cls, old_v, new_v with
              | Must_hold, J.Bool true, J.Bool false ->
                failures :=
                  Printf.sprintf "%s/%s: invariant broken (true -> false)" exp path
                  :: !failures
              | (Timing_lower | Timing_higher | Free_lower | Free_higher), _, _ -> (
                match number old_v, number new_v with
                | Some o, Some n when o > 0. ->
                  let rel =
                    match cls with
                    | Timing_lower | Free_lower -> (n -. o) /. o
                    | _ -> (o -. n) /. o
                  in
                  if rel > threshold then begin
                    let line =
                      Printf.sprintf "%s/%s: %g -> %g (%+.0f%%)" exp path o n
                        (100. *. rel)
                    in
                    let timing = cls = Timing_lower || cls = Timing_higher in
                    if timing && not gate_timing then
                      warnings := (line ^ " [timing, not gated]") :: !warnings
                    else failures := line :: !failures
                  end
                | _ -> ())
              | _ -> ()))
          old_leaves)
    olds;
  { incomparable; failures = List.rev !failures; warnings = List.rev !warnings }

(* ------------------------------------------------------------------ *)
(* CLI entry (bench/main.exe -- compare old.json new.json) *)

let load path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | doc -> Ok doc
  | exception Sys_error msg -> Error msg
  | exception J.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)

let run ?(threshold = 0.30) ?(gate_timing = true) old_path new_path =
  match load old_path, load new_path with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "compare: %s\n" msg;
    2
  | Ok old_doc, Ok new_doc ->
    let v = compare_json ~threshold ~gate_timing old_doc new_doc in
    List.iter (fun w -> Printf.printf "warn: %s\n" w) v.warnings;
    if v.incomparable <> [] then begin
      List.iter
        (fun line -> Printf.printf "incomparable: %s\n" line)
        v.incomparable;
      if gate_timing then begin
        Printf.printf
          "results come from incomparable hosts/configurations; re-run the \
           baseline on this host or pass --gate-timing off\n";
        3
      end
      else begin
        Printf.printf
          "hosts differ; timing metrics were reported as warnings only\n";
        if v.failures = [] then 0
        else begin
          List.iter (fun line -> Printf.printf "REGRESSION %s\n" line) v.failures;
          Printf.printf "%d regression(s) beyond %.0f%%\n" (List.length v.failures)
            (100. *. threshold);
          1
        end
      end
    end
    else if v.failures = [] then begin
      Printf.printf "compare: no regressions beyond %.0f%% (%s vs %s)\n"
        (100. *. threshold) old_path new_path;
      0
    end
    else begin
      List.iter (fun line -> Printf.printf "REGRESSION %s\n" line) v.failures;
      Printf.printf "%d regression(s) beyond %.0f%%\n" (List.length v.failures)
        (100. *. threshold);
      1
    end
