(* Subscription churn — continuous insertion and removal under load.

   The paper argues (contrasting with compiled automata like XPush) that
   predicate-based filtering supports cheap online updates: insertion is
   constant-time per predicate and removal touches a single trie node.
   This example interleaves document matching with subscription churn and
   uses the streaming matcher (no document tree is ever built).

   Run with:  dune exec examples/subscription_churn.exe *)

let () =
  let dtd = Pf_workload.Dtd.nitf_like () in
  let engine = Pf_core.Engine.create () in
  let rng = Random.State.make [| 2026 |] in
  (* initial population *)
  let initial =
    Pf_workload.Xpath_gen.generate dtd
      { Pf_workload.Presets.paper_queries with Pf_workload.Xpath_gen.count = 50_000 }
  in
  let (), build_ms =
    Pf_bench.Bench_util.time_ms (fun () ->
        List.iter (fun p -> ignore (Pf_core.Engine.add engine p)) initial)
  in
  Printf.printf "registered %d subscriptions in %.0f ms (%.1f us each)\n"
    (List.length initial) build_ms
    (1000. *. build_ms /. float (List.length initial));

  (* live sid pool for churn *)
  let live = ref (List.mapi (fun i _ -> i) initial) in
  let fresh =
    let pool =
      Array.of_list
        (Pf_workload.Xpath_gen.generate dtd
           { Pf_workload.Presets.paper_queries with
             Pf_workload.Xpath_gen.count = 10_000; seed = 31 })
    in
    fun () -> pool.(Random.State.int rng (Array.length pool))
  in
  let docs =
    List.map Pf_xml.Print.to_string
      (Pf_workload.Xml_gen.generate_many dtd Pf_workload.Presets.nitf_documents 300)
  in
  let matches = ref 0 and added = ref 0 and removed = ref 0 in
  let (), run_ms =
    Pf_bench.Bench_util.time_ms (fun () ->
        List.iter
          (fun src ->
            (* filter the incoming document from its raw text *)
            matches := !matches + List.length (Pf_core.Engine.match_stream engine src);
            (* churn: 20 removals and 20 insertions per document *)
            for _ = 1 to 20 do
              match !live with
              | [] -> ()
              | sid :: rest ->
                if Pf_core.Engine.remove engine sid then incr removed;
                live := rest
            done;
            for _ = 1 to 20 do
              let sid = Pf_core.Engine.add engine (fresh ()) in
              live := !live @ [ sid ];
              incr added
            done)
          docs)
  in
  Printf.printf
    "streamed %d documents with churn: %d matches, +%d/-%d subscriptions, %.2f ms/doc\n"
    (List.length docs) !matches !added !removed
    (run_ms /. float (List.length docs));
  Printf.printf "engine now holds %d registered sids, %d distinct predicates\n"
    (Pf_core.Engine.expression_count engine)
    (Pf_core.Engine.distinct_predicate_count engine)
;
  print_endline ("metrics: " ^ Pf_obs.Export.summary_line (Pf_core.Engine.metrics engine))
