(* Domain-parallel filtering: N worker domains, each with a private engine
   replica, in one of two parallelism modes.

   [Doc] (document-replicated): every replica holds every subscription and
   each document goes to exactly one worker — throughput parallelism by
   sharding the stream.

   [Expr] (expression-sharded): subscriptions are partitioned across
   replicas by global sid ([owner g = g mod N]) and every document is
   broadcast to all workers; each matches the document against its shard
   and the last worker to finish merges the per-shard sorted sid lists —
   latency parallelism by sharding the subscription table, with an N-times
   smaller per-replica working set.

   Concurrency design, in one paragraph: engines are replicated, never
   shared, so they stay lock-free internally; the only shared mutable state
   is the service record below, and every field of it is read and written
   under [lock] (per-job merge state uses an [Atomic] countdown). Subscription
   changes go into an append-only update log and are applied to the primary
   replica immediately (validation + sid assignment) and to each worker's
   replica lazily, between documents, up to exactly the log prefix a
   document saw when it was submitted — so a worker never matches against a
   replica that is ahead of or behind the document's epoch, and match sets
   are deterministic regardless of the number of domains or the mode. *)

type update = Add of Pf_xpath.Ast.path | Remove of int

type mode = Doc | Expr

let mode_name = function Doc -> "doc" | Expr -> "expr"

let mode_of_string = function
  | "doc" | "replicated" -> Some Doc
  | "expr" | "sharded" -> Some Expr
  | _ -> None

(* A submitted document: parsed, or raw XML text handed to the replica's
   [match_string] — which a streaming engine matches straight off the SAX
   event stream, so the service never parses it either. Parse errors in a
   [Raw] payload surface on the worker like any other matching exception:
   the job delivers [] and the exception re-raises at [shutdown]. *)
type payload = Tree of Pf_xml.Tree.t | Raw of string

(* One submitted document in flight. [parts] has one slot per shard — 1 in [Doc] mode,
   N in [Expr] — and the worker matching shard [k] fills slot [k] with the
   global sids its replica matched (sorted); the worker that takes
   [remaining] to zero merges the slots and delivers. The merge reads the
   full parts array, so the result is independent of finish order. *)
type job = {
  doc : payload;
  epoch : int;  (* update-log length at submission *)
  parts : int list array;
  remaining : int Atomic.t;
  t_submit : int64;  (* monotonic ns, for end-to-end latency *)
  trace : Pf_obs.Trace.ctx option;
  deliver : int list -> unit;
}

(* An engine instance packed with its operations; the existential keeps the
   service polymorphic in the engine's representation type. *)
type replica = Replica : (module Pf_intf.FILTER with type t = 'a) * 'a -> replica

type metrics = {
  registry : Pf_obs.Registry.t;
  documents : Pf_obs.Counter.t;
  batches : Pf_obs.Counter.t;
  updates_applied : Pf_obs.Counter.t;
  subscribes : Pf_obs.Counter.t;
  unsubscribes : Pf_obs.Counter.t;
  submit_waits : Pf_obs.Counter.t;
  merges : Pf_obs.Counter.t;
  domains_gauge : Pf_obs.Gauge.t;
  queue_high_water : Pf_obs.Gauge.t;
  latency : Pf_obs.Qhist.t;
}

let make_metrics () =
  let registry = Pf_obs.Registry.create "service" in
  {
    registry;
    documents =
      Pf_obs.Counter.make ~registry "documents" ~help:"documents matched and delivered";
    batches = Pf_obs.Counter.make ~registry "batches" ~help:"worker batch dequeues";
    updates_applied =
      Pf_obs.Counter.make ~registry "updates_applied"
        ~help:"subscription log entries applied to worker replicas";
    subscribes = Pf_obs.Counter.make ~registry "subscribes" ~help:"subscriptions accepted";
    unsubscribes =
      Pf_obs.Counter.make ~registry "unsubscribes" ~help:"subscriptions removed";
    submit_waits =
      Pf_obs.Counter.make ~registry "submit_waits"
        ~help:"submissions that blocked on a full queue (backpressure)";
    merges =
      Pf_obs.Counter.make ~registry "merges"
        ~help:"expression-sharded result merges performed";
    domains_gauge = Pf_obs.Gauge.make ~registry "domains" ~help:"worker domains";
    queue_high_water =
      Pf_obs.Gauge.make ~registry "queue_high_water" ~help:"maximum queue depth seen";
    latency =
      Pf_obs.Qhist.make ~registry "latency_ns"
        ~help:"end-to-end per-document latency, submit to delivery, nanoseconds";
  }

type t = {
  lock : Mutex.t;
  not_empty : Condition.t;  (* workers wait here for documents *)
  not_full : Condition.t;  (* submitters wait here for queue space *)
  idle : Condition.t;  (* drainers wait here for quiescence; late shutdown
                          callers wait here for the joining one *)
  mode : mode;
  queues : job Queue.t array;
      (* one per shard: a single shared queue in [Doc] mode, one queue per
         worker in [Expr] mode *)
  capacity : int;
  batch : int;
  n_domains : int;
  mutable updates : update array;  (* append-only log, grown under lock *)
  mutable n_updates : int;
  mutable n_subs : int;
  mutable in_flight : int;  (* dequeued worker-jobs, not yet accounted done *)
  mutable stopping : bool;
  mutable stopped : bool;
  mutable failure : exn option;  (* first worker-side exception, re-raised at shutdown *)
  primary : replica;
  replica_registries : Pf_obs.Registry.t list;  (* primary first, then workers *)
  mutable workers : unit Domain.t array;
  m : metrics;
}

let log_update t u =
  if t.n_updates >= Array.length t.updates then begin
    let bigger = Array.make (max 16 (2 * Array.length t.updates)) u in
    Array.blit t.updates 0 bigger 0 t.n_updates;
    t.updates <- bigger
  end;
  t.updates.(t.n_updates) <- u;
  t.n_updates <- t.n_updates + 1

(* ------------------------------------------------------------------ *)
(* Worker loop *)

(* Merge two disjoint sorted sid lists. *)
let rec merge2 a b =
  match a, b with
  | [], r | r, [] -> r
  | x :: xs, y :: ys -> if x < y then x :: merge2 xs b else y :: merge2 a ys

(* Worker [w] matches shard [k] — [k = 0] in [Doc] mode, [k = w] in
   [Expr] mode — reading queue [k] and filling slot [k] of each job's
   parts. Its replica holds global sid [g] iff [g mod S = k], with [S]
   the shard count: every sid in [Doc] mode. The log's j-th Add entry
   carries global sid j (the primary assigns sids densely and only
   accepted adds are logged), so ownership is derivable from the log
   alone; no extra coordination is needed and every worker agrees on the
   partition at every epoch. The replica assigns its own sids densely in
   owned-add order (the FILTER contract), so owned global [g] is local
   [g / S] and local [l] is global [l * S + k]: strictly increasing, so a
   sorted local match list maps to a sorted global one, and the identity
   in [Doc] mode. *)
let worker t w r =
  match r with
  | Replica ((module F), inst) ->
    let n_shards = Array.length t.queues in
    let shard = match t.mode with Doc -> 0 | Expr -> w in
    let queue = t.queues.(shard) in
    let applied = ref 0 in  (* position in the full update log *)
    let adds_seen = ref 0 in  (* Add entries among them = next global sid *)
    let apply = function
      | Add p ->
        let g = !adds_seen in
        incr adds_seen;
        if g mod n_shards = shard then begin
          let l = F.add inst p in
          assert (l = g / n_shards)
        end
      | Remove g ->
        if g mod n_shards = shard then ignore (F.remove inst (g / n_shards) : bool)
    in
    let running = ref true in
    while !running do
      Mutex.lock t.lock;
      while Queue.is_empty queue && not t.stopping do
        Condition.wait t.not_empty t.lock
      done;
      if Queue.is_empty queue then begin
        (* stopping, and the queue is drained: exit *)
        running := false;
        Mutex.unlock t.lock
      end
      else begin
        let n = min t.batch (Queue.length queue) in
        (* explicit pops: the batch must be in FIFO order (Array.init does
           not guarantee evaluation order) for the epoch bound below *)
        let jobs = Array.make n (Queue.pop queue) in
        for i = 1 to n - 1 do
          jobs.(i) <- Queue.pop queue
        done;
        t.in_flight <- t.in_flight + n;
        (* snapshot the log slice this batch needs: epochs are nondecreasing
           in queue order, so the last job bounds them all *)
        let base = !applied in
        let upto = max base jobs.(n - 1).epoch in
        let pending = Array.sub t.updates base (upto - base) in
        Condition.broadcast t.not_full;
        Mutex.unlock t.lock;
        let first_error = ref None in
        let fail e = if !first_error = None then first_error := Some e in
        (* worker-local latency buffer: Qhist.observe is unsynchronized,
           so observations flush into the shared histogram under the
           post-batch lock *)
        let lats = ref [] in
        let delivered = ref 0 in
        let deliver job =
          incr delivered;
          let merge () = Array.fold_left merge2 [] job.parts in
          let sids =
            match t.mode, job.trace with
            | Expr, Some ctx -> Pf_obs.Trace.span ctx "merge" merge
            | _ -> merge ()
          in
          (try
             match job.trace with
             | None -> job.deliver sids
             | Some ctx -> Pf_obs.Trace.span ctx "deliver" (fun () -> job.deliver sids)
           with e ->
             fail e;
             (* deliver something so waiters (filter_batch, drain) never
                hang; the exception resurfaces at shutdown *)
             (try job.deliver [] with _ -> ()));
          (match job.trace with
          | None -> ()
          | Some ctx -> Pf_obs.Trace.finish ctx);
          lats := Int64.to_int (Int64.sub (Pf_obs.Span.now ()) job.t_submit) :: !lats
        in
        Array.iter
          (fun job ->
            let part =
              try
                (* catch the replica up to the document's epoch before
                   matching — never further *)
                while !applied < job.epoch do
                  apply pending.(!applied - base);
                  incr applied
                done;
                (* spans recorded here carry this worker's domain id and
                   the job's trace id; the delivering worker stitches them *)
                (match job.trace with
                | None -> ()
                | Some ctx -> Pf_obs.Trace.set_ambient ctx);
                let locals =
                  Fun.protect ~finally:Pf_obs.Trace.clear_ambient (fun () ->
                      match job.doc with
                      | Tree d -> F.match_document inst d
                      | Raw s -> F.match_string inst s)
                in
                if n_shards = 1 then locals
                else List.map (fun l -> (l * n_shards) + shard) locals
              with e ->
                fail e;
                []
            in
            job.parts.(shard) <- part;
            if Atomic.fetch_and_add job.remaining (-1) = 1 then deliver job)
          jobs;
        Mutex.lock t.lock;
        t.in_flight <- t.in_flight - n;
        (* a document counts once, at the worker that delivered it *)
        Pf_obs.Counter.add t.m.documents !delivered;
        (match t.mode with
        | Doc -> ()
        | Expr -> Pf_obs.Counter.add t.m.merges !delivered);
        Pf_obs.Counter.incr t.m.batches;
        Pf_obs.Counter.add t.m.updates_applied (!applied - base);
        List.iter (Pf_obs.Qhist.observe t.m.latency) !lats;
        (match !first_error with
        | Some e when t.failure = None -> t.failure <- Some e
        | _ -> ());
        if t.in_flight = 0 && Array.for_all Queue.is_empty t.queues then
          Condition.broadcast t.idle;
        Mutex.unlock t.lock
      end
    done

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let create ?(mode = Doc) ?(domains = 1) ?queue_capacity ?(batch = 8)
    (filter : Pf_intf.filter) =
  let (module F) = filter in
  if domains < 1 then invalid_arg "Pf_service.create: domains must be >= 1";
  if batch < 1 then invalid_arg "Pf_service.create: batch must be >= 1";
  let capacity =
    match queue_capacity with
    | None -> 4 * domains * batch
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Pf_service.create: queue_capacity must be >= 1"
  in
  (* every replica is created here, on the caller's domain: registry
     creation mutates the global listed-registry table, which is not
     domain-safe, and doing it eagerly keeps worker startup allocation-free *)
  let primary = Replica ((module F), F.create ()) in
  let worker_replicas = List.init domains (fun _ -> Replica ((module F), F.create ())) in
  let registry_of = function Replica ((module F), inst) -> F.metrics inst in
  let m = make_metrics () in
  let t =
    {
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      idle = Condition.create ();
      mode;
      queues =
        Array.init
          (match mode with Doc -> 1 | Expr -> domains)
          (fun _ -> Queue.create ());
      capacity;
      batch;
      n_domains = domains;
      updates = [||];
      n_updates = 0;
      n_subs = 0;
      in_flight = 0;
      stopping = false;
      stopped = false;
      failure = None;
      primary;
      replica_registries = List.map registry_of (primary :: worker_replicas);
      workers = [||];
      m;
    }
  in
  Pf_obs.Gauge.set m.domains_gauge (float_of_int domains);
  t.workers <-
    Array.of_list
      (List.mapi (fun w r -> Domain.spawn (fun () -> worker t w r)) worker_replicas);
  t

let domains t = t.n_domains
let mode t = t.mode

let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then begin
    (* another caller owns the join (stopping is only ever set here):
       wait until it finishes so shutdown never returns with workers
       still running, and never join the same domain twice *)
    while not t.stopped do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock
  end
  else begin
    t.stopping <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    Mutex.lock t.lock;
    t.stopped <- true;
    let failure = t.failure in
    t.failure <- None;
    Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    match failure with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Subscriptions *)

let subscribe t p =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Pf_service.subscribe: service is shut down"
  end;
  match t.primary with
  | Replica ((module F), inst) -> (
    (* the primary validates: if it rejects, nothing is logged and every
       replica stays aligned *)
    match F.add inst p with
    | exception e ->
      Mutex.unlock t.lock;
      raise e
    | sid ->
      log_update t (Add p);
      t.n_subs <- t.n_subs + 1;
      Pf_obs.Counter.incr t.m.subscribes;
      Mutex.unlock t.lock;
      sid)

let subscribe_string t s = subscribe t (Pf_xpath.Parser.parse s)

let unsubscribe t sid =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Pf_service.unsubscribe: service is shut down"
  end;
  match t.primary with
  | Replica ((module F), inst) ->
    let removed = F.remove inst sid in
    if removed then begin
      log_update t (Remove sid);
      Pf_obs.Counter.incr t.m.unsubscribes
    end;
    Mutex.unlock t.lock;
    removed

let subscription_count t =
  Mutex.lock t.lock;
  let n = t.n_subs in
  Mutex.unlock t.lock;
  n

(* ------------------------------------------------------------------ *)
(* Document stream *)

let queue_depth t = Array.fold_left (fun acc q -> max acc (Queue.length q)) 0 t.queues

let submit_payload ?trace t doc deliver =
  Mutex.lock t.lock;
  let reject () =
    Mutex.unlock t.lock;
    invalid_arg "Pf_service.submit: service is shut down"
  in
  if t.stopping then reject ();
  if queue_depth t >= t.capacity then begin
    Pf_obs.Counter.incr t.m.submit_waits;
    while queue_depth t >= t.capacity && not t.stopping do
      Condition.wait t.not_full t.lock
    done
  end;
  if t.stopping then reject ();
  let n_shards = Array.length t.queues in
  let job =
    {
      doc;
      epoch = t.n_updates;
      parts = Array.make n_shards [];
      remaining = Atomic.make n_shards;
      t_submit = Pf_obs.Span.now ();
      trace;
      deliver;
    }
  in
  Array.iter (fun q -> Queue.add job q) t.queues;
  (* one shared queue: any one worker can take the job; per-worker
     queues: every worker has it *)
  if n_shards = 1 then Condition.signal t.not_empty
  else Condition.broadcast t.not_empty;
  Pf_obs.Gauge.set_max t.m.queue_high_water (float_of_int (queue_depth t));
  Mutex.unlock t.lock

let submit ?trace t doc deliver = submit_payload ?trace t (Tree doc) deliver
let submit_raw ?trace t src deliver = submit_payload ?trace t (Raw src) deliver

let drain t =
  Mutex.lock t.lock;
  let quiescent () = t.in_flight = 0 && Array.for_all Queue.is_empty t.queues in
  while not (quiescent ()) do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let filter_batch_payload t docs =
  let docs = Array.of_list docs in
  let n = Array.length docs in
  let results = Array.make n [] in
  let remaining = Atomic.make n in
  let done_lock = Mutex.create () in
  let done_cond = Condition.create () in
  Array.iteri
    (fun i doc ->
      submit_payload t doc (fun sids ->
          results.(i) <- sids;
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock done_lock;
            Condition.broadcast done_cond;
            Mutex.unlock done_lock
          end))
    docs;
  Mutex.lock done_lock;
  while Atomic.get remaining > 0 do
    Condition.wait done_cond done_lock
  done;
  Mutex.unlock done_lock;
  Array.to_list results

let filter_batch t docs = filter_batch_payload t (List.map (fun d -> Tree d) docs)
let filter_batch_raw t srcs = filter_batch_payload t (List.map (fun s -> Raw s) srcs)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics t = t.m.registry

let engine_metrics t =
  Pf_obs.Registry.merge ~scope:"service-engines" t.replica_registries
