(* The broker under test as a child process, and the scratch directories
   it runs in. Everything lives under [.pfbench/] in the working directory:
   the benchmark reads and writes nothing outside it. *)

let root = ".pfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh scratch directory, unique per process and call. *)
let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d = Printf.sprintf "%s/%s-%d-%d" root tag (Unix.getpid ()) !k in
    rm_rf d;
    mkdir_p d;
    d

type t = { pid : int; dir : string; sock : string }

(* Pids not yet reaped: killed and reaped at exit, whatever path exits. *)
let live : int list ref = ref []

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live;
  live := []

let () = at_exit kill_all

(* Start [broker_exe] with the shipped defaults except listen address, data
   dir, one worker domain and the JSON metrics dump on shutdown. The dump
   (stdout) goes to [metrics_out], by default inside the broker's scratch
   directory, which goes away with the broker; stderr goes to
   [dir]/broker.log. *)
let spawn ~broker_exe ?metrics_out () =
  let dir = fresh_dir "broker" in
  let sock = dir ^ "/s.sock" in
  let metrics_out = Option.value metrics_out ~default:(dir ^ "/metrics.jsonl") in
  let out = Unix.openfile metrics_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err =
    Unix.openfile (dir ^ "/broker.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [| broker_exe; "-l"; "unix:" ^ sock; "-d"; dir ^ "/data"; "--domains"; "1";
       "--metrics"; "json" |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process broker_exe args Unix.stdin out err)
  in
  live := pid :: !live;
  { pid; dir; sock }

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) t.pid) !live;
      true
  | exception Unix.Unix_error _ -> true

let log_tail t =
  match In_channel.with_open_text (t.dir ^ "/broker.log") In_channel.input_all with
  | s -> if String.length s > 2000 then String.sub s (String.length s - 2000) 2000 else s
  | exception Sys_error _ -> ""

(* Connect once the broker listens; a relative socket path keeps it under
   the 108-byte sun_path limit wherever the checkout lives. *)
let connect t =
  let give_up = Unix.gettimeofday () +. 30. in
  let rec go () =
    match Conn.connect t.sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if exited t then failwith ("broker exited during start-up:\n" ^ log_tail t);
        if Unix.gettimeofday () > give_up then failwith "broker did not start listening";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Peak resident set size (VmHWM) in KiB, from /proc. *)
let vm_hwm_kb t =
  let status = Printf.sprintf "/proc/%d/status" t.pid in
  In_channel.with_open_text status In_channel.input_lines
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.value ~default:0

(* A discarded set-up broker: nothing of it is kept, so no orderly
   shutdown is waited for. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid;
  live := List.filter (( <> ) t.pid) !live;
  rm_rf t.dir

(* SIGTERM, then wait for the broker's own orderly shutdown (snapshot and
   metrics dump); SIGKILL only if it takes longer than 30 s. Returns whether
   it exited cleanly. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > give_up then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap t.pid;
          false
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let clean = wait () in
  live := List.filter (( <> ) t.pid) !live;
  rm_rf t.dir;
  clean
