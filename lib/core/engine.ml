open Pf_xpath

let src = Pf_obs.Events.src "engine" ~doc:"Predicate-based filtering engine"

module Log = (val Logs.src_log src : Logs.LOG)

type attr_mode = Inline | Postponed

(* How documents reach the matching loop. [Tree] materializes the
   document tree (the difftest oracle's mode); [Stream] is fully
   streaming — reusable publications are refilled straight from the step
   stack at each leaf's end-tag event, so matching a document allocates
   neither a tree nor per-path tuples. *)
type ingest = Tree | Stream

(* Postponed attribute constraints for one expression: per predicate, the
   variable tag symbols and the constraints to check once a structural
   match is found. A name slot is -1 when its constraint list is empty
   (never consulted). *)
type post = {
  names1 : Symbol.t array;
  names2 : Symbol.t array;
  pcons1 : Predicate.attr_constraint list array;
  pcons2 : Predicate.attr_constraint list array;
}

type kind =
  | Single of { pids : int array; post : post option }
  | Nested_expr

type expr_info = { source : Ast.path; kind : kind; mutable active : bool }

type stats = {
  mutable predicate_ns : float;
  mutable expr_ns : float;
  mutable collect_ns : float;
  mutable paths : int;
  mutable documents : int;
}

(* All engine metrics live in one registry (scope "engine"), so one
   registry reset zeroes every counter, histogram and stage timer of this
   engine — including the counters owned by the predicate and expression
   indexes. *)
type metrics = {
  registry : Pf_obs.Registry.t;
  paths : Pf_obs.Counter.t;
  documents : Pf_obs.Counter.t;
  stream_documents : Pf_obs.Counter.t;
  predicate_span : Pf_obs.Span.t;
  expr_span : Pf_obs.Span.t;
  collect_span : Pf_obs.Span.t;
  latency : Pf_obs.Qhist.t;
  distinct_preds : Pf_obs.Gauge.t;
  pm : Predicate_index.metrics;
  em : Expr_index.metrics;
}

let make_metrics () =
  let registry = Pf_obs.Registry.create "engine" in
  {
    registry;
    paths = Pf_obs.Counter.make ~registry "paths" ~help:"document paths processed";
    documents = Pf_obs.Counter.make ~registry "documents" ~help:"documents processed";
    stream_documents =
      Pf_obs.Counter.make ~registry "stream_documents"
        ~help:"documents matched fully streaming (no tree, arena publications)";
    predicate_span =
      Pf_obs.Span.make ~registry "predicate_stage_ns"
        ~help:"predicate matching stage time";
    expr_span =
      Pf_obs.Span.make ~registry "expr_stage_ns"
        ~help:"expression matching (occurrence determination) stage time";
    collect_span =
      Pf_obs.Span.make ~registry "collect_stage_ns"
        ~help:"result collection, nested finish and attribute post-checks";
    latency =
      Pf_obs.Qhist.make ~registry "doc_latency_ns"
        ~help:"end-to-end per-document match latency, nanoseconds";
    distinct_preds =
      (* Max: document-replicated workers hold identical predicate tables,
         so their merged value is the table size, not N times it *)
      Pf_obs.Gauge.make ~registry "distinct_predicates" ~merge:Pf_obs.Gauge.Max
        ~help:"distinct predicates stored in the shared predicate index";
    pm = Predicate_index.make_metrics ~registry ();
    em = Expr_index.make_metrics ~registry ();
  }

type t = {
  variant : Expr_index.variant;
  attr_mode : attr_mode;
  collect_stats : bool;
  pidx : Predicate_index.t;
  results : Predicate_index.results;
  eidx : Expr_index.t;
  nested : Nested.t;
  exprs : expr_info Vec.t;
  mutable plain : Bytes.t;
      (* sid -> '\001' iff active, single-path and without postponed
         checks: its structural matches are matches, read from one byte
         rather than through [exprs] *)
  chains : Occurrence.arena;
      (* scratch for postponed-mode chain enumeration; distinct from the
         expression index's own arena, which is live mid-descent when the
         on_match callback fires *)
  m : metrics;
  mutable sid_stamp : int array;
  mutable doc_epoch : int;
  scanner : Pf_xml.Path.scanner;  (* reused by match_stream across documents *)
  pub_arena : Publication.arena;  (* reused by match_stream across documents *)
}

let create ?(variant = Expr_index.Access_predicate) ?(attr_mode = Inline)
    ?(collect_stats = false) () =
  let m = make_metrics () in
  let pidx = Predicate_index.create ~metrics:m.pm () in
  {
    variant;
    attr_mode;
    collect_stats;
    pidx;
    results = Predicate_index.create_results ();
    eidx = Expr_index.create ~metrics:m.em variant;
    nested = Nested.create pidx;
    exprs =
      Vec.create
        ~dummy:{ source = Ast.path [ Ast.step (Ast.Tag "x") ]; kind = Nested_expr; active = false }
        ();
    plain = Bytes.empty;
    chains = Occurrence.create_arena ();
    m;
    sid_stamp = [||];
    doc_epoch = 0;
    scanner = Pf_xml.Path.create_scanner ();
    pub_arena = Publication.create_arena ();
  }

let variant t = t.variant
let attr_mode t = t.attr_mode
let metrics t = t.m.registry

(* Compatibility view over the registry: a fresh record per call, with the
   same fields the old mutable [stats] had. *)
let stats t =
  {
    predicate_ns = Int64.to_float (Pf_obs.Span.ns t.m.predicate_span);
    expr_ns = Int64.to_float (Pf_obs.Span.ns t.m.expr_span);
    collect_ns = Int64.to_float (Pf_obs.Span.ns t.m.collect_span);
    paths = Pf_obs.Counter.get t.m.paths;
    documents = Pf_obs.Counter.get t.m.documents;
  }

let reset_stats t = Pf_obs.Registry.reset t.m.registry

let expression_count t = Vec.length t.exprs
let distinct_predicate_count t = Predicate_index.size t.pidx
let occurrence_runs t = Expr_index.occurrence_runs t.eidx

let expression t sid = (Vec.get t.exprs sid).source

let build_post (enc : Encoder.t) =
  if Array.exists Predicate.has_constraints enc.Encoder.preds then begin
    let n = Array.length enc.Encoder.preds in
    let names1 = Array.make n (-1) and names2 = Array.make n (-1) in
    let pcons1 = Array.make n [] and pcons2 = Array.make n [] in
    Array.iteri
      (fun i p ->
        let c1, c2 = Predicate.constraints_of p in
        (match p with
        | Predicate.Absolute { tag; _ } | Predicate.End_of_path { tag; _ } ->
          let sym = Symbol.intern tag.Predicate.name in
          names1.(i) <- sym;
          names2.(i) <- sym
        | Predicate.Relative { first; second; _ } ->
          names1.(i) <- Symbol.intern first.Predicate.name;
          names2.(i) <- Symbol.intern second.Predicate.name
        | Predicate.Length _ -> ());
        (* constraints_of duplicates one-variable constraints on both
           sides; checking one side suffices *)
        match p with
        | Predicate.Relative _ ->
          pcons1.(i) <- c1;
          pcons2.(i) <- c2
        | Predicate.Absolute _ | Predicate.End_of_path _ ->
          pcons1.(i) <- c1
        | Predicate.Length _ -> ())
      enc.Encoder.preds;
    Some { names1; names2; pcons1; pcons2 }
  end
  else None

let add t (p : Ast.path) =
  let info =
    if Ast.is_single_path p then begin
      let enc = Encoder.encode p in
      match t.attr_mode with
      | Inline ->
        let pids = Array.map (Predicate_index.intern t.pidx) enc.Encoder.preds in
        { source = p; kind = Single { pids; post = None }; active = true }
      | Postponed ->
        let pids =
          Array.map
            (fun pred -> Predicate_index.intern t.pidx (Predicate.strip pred))
            enc.Encoder.preds
        in
        { source = p; kind = Single { pids; post = build_post enc }; active = true }
    end
    else { source = p; kind = Nested_expr; active = true }
  in
  (* register in the matching index *before* consuming a sid: Nested.add
     validates the decomposition and can raise Unsupported, and a rejected
     add must leave the engine unchanged (the Pf_intf.FILTER contract —
     otherwise a service primary would run one sid ahead of its worker
     replicas after a rejected subscribe) *)
  let sid = Vec.length t.exprs in
  (match info.kind with
  | Single { pids; _ } -> Expr_index.add t.eidx ~sid ~pids
  | Nested_expr -> Nested.add t.nested ~sid p);
  ignore (Vec.push t.exprs info : int);
  if sid >= Bytes.length t.plain then begin
    let b = Bytes.make (max 16 (2 * (sid + 1))) '\000' in
    Bytes.blit t.plain 0 b 0 (Bytes.length t.plain);
    t.plain <- b
  end;
  (match info.kind with
  | Single { post = None; _ } -> Bytes.set t.plain sid '\001'
  | Single { post = Some _; _ } | Nested_expr -> ());
  Pf_obs.Gauge.set t.m.distinct_preds (float_of_int (Predicate_index.size t.pidx));
  Log.debug (fun m -> m "registered sid %d: %s" sid (Parser.to_string p));
  sid

let add_string t s = add t (Parser.parse s)

let remove t sid =
  if sid < 0 || sid >= Vec.length t.exprs then false
  else begin
    let info = Vec.get t.exprs sid in
    if not info.active then false
    else begin
      let removed =
        match info.kind with
        | Single { pids; _ } -> Expr_index.remove t.eidx ~sid ~pids
        | Nested_expr -> Nested.remove t.nested ~sid
      in
      if removed then begin
        info.active <- false;
        Bytes.set t.plain sid '\000'
      end;
      removed
    end
  end

let is_active t sid = sid >= 0 && sid < Vec.length t.exprs && (Vec.get t.exprs sid).active

let ensure_stamp t =
  let n = Vec.length t.exprs in
  if Array.length t.sid_stamp < n then begin
    let bigger = Array.make (max n (2 * Array.length t.sid_stamp)) 0 in
    Array.blit t.sid_stamp 0 bigger 0 (Array.length t.sid_stamp);
    t.sid_stamp <- bigger
  end

(* Check an expression's postponed attribute constraints against one
   occurrence chain (packed pairs, length [n]): each constrained
   variable's occurrence is mapped back to its tuple and the tuple's
   attributes are tested. *)
let chain_satisfies post pub chain n =
  let ok_side names cons i occ =
    match cons.(i) with
    | [] -> true
    | cs -> (
      match Publication.pos_of_occurrence pub ~tag:names.(i) ~occurrence:occ with
      | Some pos -> Predicate.check_constraints cs (Publication.attrs_at pub ~pos)
      | None -> false)
  in
  let rec go i =
    i >= n
    ||
    let p = chain.(i) in
    ok_side post.names1 post.pcons1 i (Predicate_index.packed_first p)
    && ok_side post.names2 post.pcons2 i (Predicate_index.packed_second p)
    && go (i + 1)
  in
  go 0

(* Fill the engine's chain arena with the candidate sets of [pids] on
   [res]'s newest path; false (short-circuiting) if any predicate
   recorded no pair. *)
let fill_chains t res pids =
  let a = t.chains in
  Occurrence.clear a;
  let cells = Predicate_index.cells res in
  let n = Array.length pids in
  let rec fetch i =
    i >= n
    || (Occurrence.start_row a i;
        Occurrence.push_chain a cells (Predicate_index.head res pids.(i));
        Occurrence.row_len a i > 0 && fetch (i + 1))
  in
  fetch 0

(* Whether a structural match of [sid] is a match on [pub], the newest
   path of [t.results]. A plain sid accepts from one byte; a postponed
   one checks its attribute constraints against the occurrence chains. *)
let accepts t sid pub =
  Bytes.get t.plain sid <> '\000'
  ||
  match (Vec.get t.exprs sid).kind with
  | Single { pids; post = Some post } ->
    fill_chains t t.results pids
    && Occurrence.iter_chains_packed t.chains (chain_satisfies post pub)
  | Single { post = None; _ } -> true
  | Nested_expr -> assert false

(* Core per-document matching loop; [iter_pubs] drives the document's
   root-to-leaf publications through it — materialized from a tree, or
   refilled in place off a SAX parse. A streamed publication only needs
   to stay valid while its own callback runs: everything below either
   finishes with the publication before returning or copies what it keeps
   (the predicate stage's pairs, the match set). *)
let empty_pub = Publication.of_tags []

let match_iter t iter_pubs =
  let lat0 = Pf_obs.Span.now () in
  (* read the ambient trace once per document; the untraced fast path
     then pays only these branch tests, never a closure allocation *)
  let traced = Pf_obs.Trace.ambient () <> None in
  ensure_stamp t;
  t.doc_epoch <- t.doc_epoch + 1;
  let doc_id = t.doc_epoch in
  let acc = ref [] in
  let mark sid =
    if t.sid_stamp.(sid) <> doc_id then begin
      t.sid_stamp.(sid) <- doc_id;
      acc := sid :: !acc
    end
  in
  let timed = t.collect_stats in
  let nested_active = not (Nested.is_empty t.nested) in
  if nested_active then Nested.begin_document t.nested;
  (* The publication [on_match] below consults for postponed attribute
     checks. A mutable slot (written by [process]) rather than a captured
     argument, so [on_match] is one closure per document instead of one
     per path — on the streaming path, per-path closures were the
     residual allocation after the arenas. *)
  let cur_pub = ref empty_pub in
  let on_match sid = if t.sid_stamp.(sid) <> doc_id && accepts t sid !cur_pub then mark sid in
  (* Inline matches are accepted unconditionally, so the predicate stage
     fills a chunk of the document's paths and one walk under the
     document's tag evaluates them together. Postponed checks read the
     path's publication, so there every path is walked alone, under a tag
     of its own. *)
  let chunked = t.attr_mode = Inline in
  Predicate_index.clear t.results;
  let walk () =
    let doc_tag =
      if chunked then doc_id
      else begin
        t.doc_epoch <- t.doc_epoch + 1;
        t.doc_epoch
      end
    in
    (* the traced path pays a closure for the span; the plain path calls
       the evaluator directly and allocates nothing *)
    if traced then
      Pf_obs.Trace.with_span "occurrence" (fun () ->
          Expr_index.eval t.eidx t.results ~doc_tag ~on_match)
    else Expr_index.eval t.eidx t.results ~doc_tag ~on_match;
    Predicate_index.clear t.results
  in
  let process pub =
    Pf_obs.Counter.incr t.m.paths;
    cur_pub := pub;
    let t0 = if timed then Pf_obs.Span.now () else 0L in
    if traced then
      Pf_obs.Trace.with_span "match" (fun () ->
          Predicate_index.run_next t.pidx t.results pub)
    else Predicate_index.run_next t.pidx t.results pub;
    let t1 = if timed then Pf_obs.Span.now () else 0L in
    if nested_active then Nested.observe_path t.nested t.results pub;
    if
      (not chunked)
      || Predicate_index.chunk_paths t.results = Predicate_index.chunk_capacity
    then walk ();
    if timed then begin
      let t2 = Pf_obs.Span.now () in
      Pf_obs.Span.add t.m.predicate_span (Int64.sub t1 t0);
      Pf_obs.Span.add t.m.expr_span (Int64.sub t2 t1)
    end
  in
  iter_pubs process;
  (* the document's last, partial chunk *)
  if Predicate_index.chunk_paths t.results > 0 then begin
    let t1 = if timed then Pf_obs.Span.now () else 0L in
    walk ();
    if timed then Pf_obs.Span.add t.m.expr_span (Int64.sub (Pf_obs.Span.now ()) t1)
  end;
  let t2 = if timed then Pf_obs.Span.now () else 0L in
  if nested_active then Nested.finish_document t.nested ~on_match:mark;
  let result = List.sort compare !acc in
  if timed then
    Pf_obs.Span.add t.m.collect_span (Int64.sub (Pf_obs.Span.now ()) t2);
  Pf_obs.Counter.incr t.m.documents;
  Pf_obs.Qhist.observe t.m.latency
    (Int64.to_int (Int64.sub (Pf_obs.Span.now ()) lat0));
  Log.debug (fun m ->
      m "document %d: %d expressions matched (%d paths so far)" doc_id
        (List.length result)
        (Pf_obs.Counter.get t.m.paths));
  result

let match_paths t paths =
  match_iter t (fun f -> List.iter (fun p -> f (Publication.of_path p)) paths)

let match_document t doc =
  match_paths t (Pf_obs.Trace.with_span "scan" (fun () -> Pf_xml.Path.of_document doc))

let match_string t s = match_document t (Pf_xml.Sax.parse_document s)

let match_stream t src =
  (* fully streaming: the step stack from [Path.stream] refills the
     engine-owned publication arena in place, so matching a document
     allocates neither a tree nor per-path tuples. Sound because the
     matching loop finishes with each publication before its callback
     returns (see [match_iter]); the span covers the fused
     parse+extract+match drive, which has no separable "scan" phase. *)
  Pf_obs.Counter.incr t.m.stream_documents;
  Pf_obs.Trace.with_span "stream-match" (fun () ->
      match_iter t (fun f ->
          Pf_xml.Path.stream t.scanner src ~f:(fun steps n ->
              f (Publication.of_steps t.pub_arena steps n))))

type explanation = {
  expl_path : Pf_xml.Path.t;
  expl_chain : (Predicate.t * (int * int)) list;
}

let explain t doc sid =
  if sid < 0 || sid >= Vec.length t.exprs then None
  else
    let info = Vec.get t.exprs sid in
    match info.kind with
    | Nested_expr -> None
    | Single _ when not info.active -> None
    | Single { pids; post } ->
      let paths = Pf_xml.Path.of_document doc in
      let witness = ref None in
      let try_path path =
        let pub = Publication.of_path path in
        Predicate_index.run t.pidx t.results pub;
        if fill_chains t t.results pids then
          ignore
            (Occurrence.iter_chains_packed t.chains (fun chain n ->
                 let ok =
                   match post with
                   | None -> true
                   | Some post -> chain_satisfies post pub chain n
                 in
                 if ok then begin
                   let preds =
                     Array.to_list
                       (Array.mapi
                          (fun i pid ->
                            ( Predicate_index.predicate t.pidx pid,
                              ( Predicate_index.packed_first chain.(i),
                                Predicate_index.packed_second chain.(i) ) ))
                          pids)
                   in
                   witness := Some { expl_path = path; expl_chain = preds }
                 end;
                 ok))
      in
      let rec first = function
        | [] -> ()
        | path :: rest ->
          try_path path;
          if !witness = None then first rest
      in
      first paths;
      !witness

let pp_explanation fmt e =
  Format.fprintf fmt "@[<v>path: %a@," Pf_xml.Path.pp e.expl_path;
  List.iter
    (fun (pred, (o1, o2)) ->
      Format.fprintf fmt "  %a matched by occurrences (%d,%d)@," Predicate.pp pred o1 o2)
    e.expl_chain;
  Format.fprintf fmt "@]"

let match_path t path =
  (* single-path matching: nested expressions need whole documents *)
  ensure_stamp t;
  t.doc_epoch <- t.doc_epoch + 1;
  let acc = ref [] in
  Pf_obs.Counter.incr t.m.paths;
  let pub = Publication.of_path path in
  Predicate_index.run t.pidx t.results pub;
  let on_match sid =
    if t.sid_stamp.(sid) <> t.doc_epoch && accepts t sid pub then begin
      t.sid_stamp.(sid) <- t.doc_epoch;
      acc := sid :: !acc
    end
  in
  Expr_index.eval t.eidx t.results ~doc_tag:t.doc_epoch ~on_match;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* The unified engine signature (Pf_intf.FILTER) *)

let filter ?variant ?attr_mode ?collect_stats ?(stream = Tree) () :
    (module Pf_intf.FILTER with type t = t) =
  (module struct
    type nonrec t = t

    let create () = create ?variant ?attr_mode ?collect_stats ()
    let add = add
    let add_string = add_string
    let remove = remove

    (* [Stream] routes matching through the SAX pipeline: the document is
       serialized and re-matched from the event stream, refilling arena
       publications, without ever materializing the tree on the matching
       side. *)
    let match_document =
      match stream with
      | Tree -> match_document
      | Stream -> fun t doc -> match_stream t (Pf_xml.Print.to_string ~decl:false doc)

    let match_string =
      match stream with
      | Tree -> match_string
      | Stream -> match_stream

    let metrics = metrics
  end)

module Filter = (val filter ())

(* [filter] pins [type t = t] in its result, which a subsumption wrapper
   (logical sids over a private shape table) cannot satisfy — so the
   subsumed variant is a separate constructor returning a plain
   [Pf_intf.filter]. *)
let filter_subsumed ?variant ?attr_mode ?collect_stats ?stream ?(subsumption = true) () :
    Pf_intf.filter =
  let base =
    (filter ?variant ?attr_mode ?collect_stats ?stream ()
      : (module Pf_intf.FILTER with type t = t)
      :> Pf_intf.filter)
  in
  if subsumption then Subsume.filter base else base
