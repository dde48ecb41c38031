(* A non-blocking wire-protocol connection for one select loop.

   Pf_net.Client blocks in write and read, so it cannot keep an open-loop
   schedule: a send would wait behind the broker's flow control and every
   later document would go out late. Here sends only append to an outbound
   buffer, [flush] writes what the socket takes, and [read] decodes whatever
   frames have arrived. *)

module Broker = Pf_broker.Broker
module Wire = Pf_net.Wire

exception Closed of string

type t = {
  fd : Unix.file_descr;
  mutable out : Bytes.t;
  mutable out_start : int;
  mutable out_fill : int;
  mutable inb : Bytes.t;
  mutable in_start : int;
  mutable in_fill : int;
  mutable next_req : int;
  scratch : Buffer.t;
}

let fd t = t.fd

let make fd =
  { fd; out = Bytes.create 65536; out_start = 0; out_fill = 0; inb = Bytes.create 65536;
    in_start = 0; in_fill = 0; next_req = 1; scratch = Buffer.create 16384 }

(* Make room for [n] more bytes in a (buffer, start, fill) triple by
   compacting and, when that is not enough, doubling. *)
let reserve buf start fill n =
  let len = fill - start in
  let b =
    if len + n <= Bytes.length buf then buf
    else Bytes.create (max (len + n) (2 * Bytes.length buf))
  in
  if start > 0 || b != buf then Bytes.blit buf start b 0 len;
  (b, len)

let enqueue t msg =
  let req_id = t.next_req in
  t.next_req <- req_id + 1;
  Buffer.clear t.scratch;
  Wire.encode t.scratch ~req_id msg;
  let n = Buffer.length t.scratch in
  if t.out_fill + n > Bytes.length t.out then begin
    let b, len = reserve t.out t.out_start t.out_fill n in
    t.out <- b;
    t.out_start <- 0;
    t.out_fill <- len
  end;
  Buffer.blit t.scratch 0 t.out t.out_fill n;
  t.out_fill <- t.out_fill + n;
  req_id

let send t cmd = enqueue t (Wire.Command cmd)
let wants_write t = t.out_fill > t.out_start

let flush t =
  let rec go () =
    if wants_write t then
      match Unix.write t.fd t.out t.out_start (t.out_fill - t.out_start) with
      | n ->
          t.out_start <- t.out_start + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> raise (Closed (Unix.error_message e))
  in
  go ();
  if t.out_start = t.out_fill then begin
    t.out_start <- 0;
    t.out_fill <- 0
  end

(* Read what the socket holds and hand every complete frame to [f]. *)
let read t f =
  let rec decode () =
    match Wire.decode t.inb ~off:t.in_start ~len:t.in_fill with
    | `Frame (consumed, req_id, msg) ->
        t.in_start <- t.in_start + consumed;
        f req_id msg;
        decode ()
    | `Error e -> raise (Closed (Format.asprintf "%a" Wire.pp_error e))
    | `Need n -> n
  in
  let rec fill () =
    let need = decode () in
    let b, len = reserve t.inb t.in_start t.in_fill (max need 16384) in
    t.inb <- b;
    t.in_start <- 0;
    t.in_fill <- len;
    match Unix.read t.fd t.inb t.in_fill (Bytes.length t.inb - t.in_fill) with
    | 0 -> raise (Closed "connection closed by the broker")
    | got ->
        t.in_fill <- t.in_fill + got;
        fill ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> raise (Closed (Unix.error_message e))
  in
  fill ()

(* Wall-clock time (Unix.gettimeofday) after which every wait gives up, so a
   wedged broker fails the run instead of hanging it. *)
let deadline = ref infinity

let check_deadline () =
  if Unix.gettimeofday () > !deadline then raise (Closed "run deadline passed")

let rec select_retry r w timeout =
  match Unix.select r w [] timeout with
  | x -> x
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w timeout

(* One request, one reply: the acked SUBSCRIBEs of the setup phase. *)
let call t cmd =
  let req = send t cmd in
  let reply = ref None in
  while !reply = None do
    check_deadline ();
    flush t;
    let _ = select_retry [ t.fd ] (if wants_write t then [ t.fd ] else []) 1.0 in
    read t (fun rid msg ->
        match msg with
        | Wire.Event ev when rid = req -> reply := Some ev
        | _ -> raise (Closed "unexpected frame during a synchronous call"))
  done;
  Option.get !reply

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  let t = make fd in
  let req = enqueue t (Wire.Hello { version = Wire.version; ns = Broker.default_ns }) in
  let welcomed = ref false in
  while not !welcomed do
    check_deadline ();
    flush t;
    let _ = select_retry [ fd ] [] 1.0 in
    read t (fun rid msg ->
        match msg with
        | Wire.Welcome _ when rid = req -> welcomed := true
        | _ -> raise (Closed "expected WELCOME"))
  done;
  t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
