(* pf-broker: serve the dissemination broker over a Unix or TCP socket.

   Speaks the length-prefixed binary protocol of Pf_net.Wire; with
   --data-dir, subscription mutations are write-ahead-logged and
   snapshotted so a restart (or kill -9) resumes with the acknowledged
   subscription state. *)

open Cmdliner

let run listen_str data_dir snapshot_every engine_name shard_mode domains batch
    no_validate no_covering metrics_fmt name =
  let listen =
    match Pf_net.Server.listen_of_string listen_str with
    | Ok l -> l
    | Error msg ->
        Printf.eprintf "bad --listen: %s\n" msg;
        exit 2
  in
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
    | Some fmt -> (
        match Pf_obs.Export.format_of_name fmt with
        | Some f -> Some f
        | None ->
            Printf.eprintf "unknown metrics format %S (try console, json or prom)\n" fmt;
            exit 2)
  in
  let filter =
    match Pf_bench.Bench_util.filter_of_name engine_name with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown engine %S\n" engine_name;
        exit 2
  in
  if domains < 1 || batch < 1 || snapshot_every < 1 then begin
    Printf.eprintf "--domains, --batch and --snapshot-every must be >= 1\n";
    exit 2
  end;
  let cfg =
    Pf_net.Server.config ?data_dir ~snapshot_every ~filter ~covering_suppression:(not no_covering)
      ~mode ~domains ~batch ~validate_documents:(not no_validate) ~server_name:name listen
  in
  let srv = Pf_net.Server.start cfg in
  Printf.eprintf "pf-broker: listening on %s%s\n%!"
    (Format.asprintf "%a" Pf_net.Server.pp_listen (Pf_net.Server.listen_address srv))
    (match data_dir with Some d -> Printf.sprintf " (data dir %s)" d | None -> " (volatile)");
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.2
  done;
  Printf.eprintf "pf-broker: shutting down\n%!";
  Pf_net.Server.stop srv;
  (* every listed registry: broker, net, service and engine scopes *)
  match metrics_fmt with None -> () | Some fmt -> Pf_obs.Export.print fmt

let listen_arg =
  let doc =
    "Listen address: $(b,unix:/path/to.sock), $(b,tcp:host:port) (port 0 \
     picks an ephemeral one), or a bare filesystem path (unix)."
  in
  Arg.(value & opt string "unix:/tmp/pf-broker.sock" & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let data_dir_arg =
  let doc =
    "Durability directory (WAL + snapshots). Subscription mutations are \
     acknowledged only after the write-ahead log is fsync'd; restarting \
     over the same directory recovers them. Without this flag the broker \
     is volatile."
  in
  Arg.(value & opt (some string) None & info [ "d"; "data-dir" ] ~docv:"DIR" ~doc)

let snapshot_every_arg =
  let doc = "Snapshot and truncate the WAL every $(docv) logged mutations." in
  Arg.(value & opt int 1024 & info [ "snapshot-every" ] ~docv:"N" ~doc)

let engine_arg =
  let doc =
    "Filtering engine (as in pf-filter): basic, basic-pc or basic-pc-ap (the \
     predicate engine's expression organizations), yfilter or index-filter."
  in
  Arg.(value & opt string "basic-pc-ap" & info [ "e"; "engine" ] ~docv:"NAME" ~doc)

let shard_mode_arg =
  let doc = "Service parallelism: $(b,doc) (document-replicated) or $(b,expr) (expression-sharded)." in
  Arg.(value & opt string "doc" & info [ "shard-mode" ] ~docv:"MODE" ~doc)

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")

let batch_arg =
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc:"Worker dequeue batch size.")

let no_validate_arg =
  let doc =
    "Skip parsing documents on the connection thread; raw text goes \
     straight into the filtering pipeline (malformed documents then \
     deliver to nobody instead of provoking a BAD_DOCUMENT error)."
  in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let no_covering_arg =
  Arg.(value & flag & info [ "no-covering" ] ~doc:"Disable covering suppression.")

let metrics_arg =
  let doc = "On shutdown, dump broker and wire metrics in $(docv) format (console, json or prom)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let name_arg =
  Arg.(value & opt string "pf-broker" & info [ "name" ] ~docv:"NAME" ~doc:"Server name sent in WELCOME.")

let cmd =
  let doc = "serve the XPath dissemination broker over a socket" in
  let info = Cmd.info "pf-broker" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ listen_arg $ data_dir_arg $ snapshot_every_arg $ engine_arg $ shard_mode_arg
      $ domains_arg $ batch_arg $ no_validate_arg $ no_covering_arg $ metrics_arg $ name_arg)

let () = exit (Cmd.eval cmd)
