open Pf_xpath

type qnode = {
  axis : Ast.axis;
  test : Ast.node_test;
  test_sym : int;  (* interned tag of [test]; -1 for wildcards *)
  filters : Ast.attr_filter list;  (* sorted, part of the sharing key *)
  mutable sids : int list;
  mutable children : qnode list;
  (* per-document scratch, epoch-guarded *)
  mutable visited : (int, unit) Hashtbl.t;
  mutable visited_epoch : int;
  mutable matched_epoch : int;  (* this node's sids have been reported *)
  mutable done_epoch : int;  (* entire subtree matched: prune *)
}

(* Execution counters: [stream_advances] counts index-stream elements
   inspected inside [explore] (the analogue of the predicate engine's
   probes), [nodes_visited] accepted (query node, element) joins. *)
type metrics = {
  registry : Pf_obs.Registry.t;
  documents : Pf_obs.Counter.t;
  stream_advances : Pf_obs.Counter.t;
  nodes_visited : Pf_obs.Counter.t;
  matched : Pf_obs.Counter.t;
  latency : Pf_obs.Qhist.t;
}

let make_metrics () =
  let registry = Pf_obs.Registry.create "indexfilter" in
  {
    registry;
    documents = Pf_obs.Counter.make ~registry "documents" ~help:"documents processed";
    stream_advances =
      Pf_obs.Counter.make ~registry "stream_advances"
        ~help:"index-stream elements inspected during joins";
    nodes_visited =
      Pf_obs.Counter.make ~registry "nodes_visited"
        ~help:"accepted (query node, element) joins";
    matched =
      Pf_obs.Counter.make ~registry "matches" ~help:"expression matches reported";
    latency =
      Pf_obs.Qhist.make ~registry "doc_latency_ns"
        ~help:"end-to-end per-document match latency, nanoseconds";
  }

type t = {
  mutable roots : qnode list;
  mutable n_exprs : int;
  mutable n_nodes : int;
  mutable removed : bool array;  (* sid -> unregistered (sids are not reused) *)
  mutable sid_stamp : int array;
  mutable doc_epoch : int;
  m : metrics;
}

let create () =
  {
    roots = [];
    n_exprs = 0;
    n_nodes = 0;
    removed = [||];
    sid_stamp = [||];
    doc_epoch = 0;
    m = make_metrics ();
  }

let expression_count t = t.n_exprs
let node_count t = t.n_nodes
let metrics t = t.m.registry

let attr_filters (s : Ast.step) =
  List.sort compare
    (List.filter_map
       (function Ast.Attr f -> Some f | Ast.Nested _ -> assert false (* rejected in add *))
       s.Ast.filters)

let add t (p : Ast.path) =
  (* reject unsupported expressions before touching any state, so a failed
     add leaves the prefix tree (and the sid sequence) unchanged *)
  if not (Ast.is_single_path p) then
    raise (Pf_intf.Unsupported "Index_filter.add: nested path filters are not supported");
  if p.Ast.steps = [] then raise (Pf_intf.Unsupported "Index_filter.add: empty path");
  let sid = t.n_exprs in
  t.n_exprs <- t.n_exprs + 1;
  if Array.length t.sid_stamp < t.n_exprs then begin
    let bigger = Array.make (max 16 (2 * Array.length t.sid_stamp)) 0 in
    Array.blit t.sid_stamp 0 bigger 0 (Array.length t.sid_stamp);
    t.sid_stamp <- bigger;
    let bigger_removed = Array.make (Array.length bigger) false in
    Array.blit t.removed 0 bigger_removed 0 (Array.length t.removed);
    t.removed <- bigger_removed
  end;
  let fresh axis test filters =
    t.n_nodes <- t.n_nodes + 1;
    {
      axis;
      test;
      test_sym =
        (match test with Ast.Tag tag -> Pf_xml.Symbol.intern tag | Ast.Wildcard -> -1);
      filters;
      sids = [];
      children = [];
      visited = Hashtbl.create 8;
      visited_epoch = 0;
      matched_epoch = 0;
      done_epoch = 0;
    }
  in
  let find_or_add get_set add_child axis test filters =
    match
      List.find_opt
        (fun (n : qnode) -> n.axis = axis && n.test = test && n.filters = filters)
        (get_set ())
    with
    | Some n -> n
    | None ->
      let n = fresh axis test filters in
      add_child n;
      n
  in
  let final =
    match p.Ast.steps with
    | [] -> assert false (* rejected above *)
    | first :: rest ->
      let first_axis =
        if (not p.Ast.absolute) || first.Ast.axis = Ast.Descendant then Ast.Descendant
        else Ast.Child
      in
      let node =
        find_or_add
          (fun () -> t.roots)
          (fun n -> t.roots <- n :: t.roots)
          first_axis first.Ast.test (attr_filters first)
      in
      List.fold_left
        (fun (parent : qnode) (s : Ast.step) ->
          find_or_add
            (fun () -> parent.children)
            (fun n -> parent.children <- n :: parent.children)
            s.Ast.axis s.Ast.test (attr_filters s))
        node rest
  in
  final.sids <- sid :: final.sids;
  sid

let add_string t s = add t (Parser.parse s)

let remove t sid =
  if sid < 0 || sid >= t.n_exprs || t.removed.(sid) then false
  else begin
    (* the prefix tree keeps the sid; matching filters removed sids, so
       removal is constant-time and never restructures the tree *)
    t.removed.(sid) <- true;
    true
  end

(* ------------------------------------------------------------------ *)
(* Index streams: per tag, the pre-order list of structural intervals. *)

type elem = {
  start : int;
  stop : int;
  level : int;
  attrs : (string * string) list;
}

type streams = {
  by_sym : elem array array;  (* indexed by tag symbol *)
  all : elem array;  (* wildcards match any element *)
}

let build_streams (doc : Pf_xml.Tree.t) =
  let counter = ref 0 in
  let by_sym = ref (Array.make 64 []) in
  let add_sym sym el =
    if sym >= Array.length !by_sym then begin
      let bigger = Array.make (max (sym + 1) (2 * Array.length !by_sym)) [] in
      Array.blit !by_sym 0 bigger 0 (Array.length !by_sym);
      by_sym := bigger
    end;
    !by_sym.(sym) <- el :: !by_sym.(sym)
  in
  let all = ref [] in
  let rec walk (e : Pf_xml.Tree.element) level =
    let start = !counter in
    incr counter;
    List.iter (fun c -> walk c (level + 1)) (Pf_xml.Tree.element_children e);
    let stop = !counter in
    incr counter;
    let attrs =
      match Pf_xml.Tree.text_content e with
      | "" -> e.Pf_xml.Tree.attrs
      | txt -> e.Pf_xml.Tree.attrs @ [ "#text", txt ]
    in
    let el = { start; stop; level; attrs } in
    add_sym (Pf_xml.Symbol.intern e.Pf_xml.Tree.tag) el;
    all := el :: !all
  in
  walk doc.Pf_xml.Tree.root 1;
  let sort_stream l = Array.of_list (List.sort (fun a b -> compare a.start b.start) l) in
  { by_sym = Array.map sort_stream !by_sym; all = sort_stream !all }

let empty_stream = [||]

let stream_of streams ~test_sym =
  if test_sym < 0 then streams.all
  else if test_sym < Array.length streams.by_sym then streams.by_sym.(test_sym)
  else empty_stream

(* First index whose start exceeds [x] (streams are sorted by start). *)
let lower_bound (s : elem array) x =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid).start <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let filters_hold (e : elem) filters =
  List.for_all (fun f -> Eval.attr_satisfies e.attrs f) filters

let match_document t (doc : Pf_xml.Tree.t) =
  let lat0 = Pf_obs.Span.now () in
  t.doc_epoch <- t.doc_epoch + 1;
  let epoch = t.doc_epoch in
  let streams = build_streams doc in
  let matches = ref [] in
  let mark sid =
    if (not t.removed.(sid)) && t.sid_stamp.(sid) <> epoch then begin
      t.sid_stamp.(sid) <- epoch;
      matches := sid :: !matches
    end
  in
  let n_advances = ref 0 and n_visited = ref 0 in
  let rec explore (q : qnode) ~(parent : elem) =
    if q.done_epoch <> epoch then begin
      if q.visited_epoch <> epoch then begin
        q.visited_epoch <- epoch;
        Hashtbl.reset q.visited
      end;
      let stream = stream_of streams ~test_sym:q.test_sym in
      let i = ref (lower_bound stream parent.start) in
      let n = Array.length stream in
      while !i < n && stream.(!i).start < parent.stop && q.done_epoch <> epoch do
        let e = stream.(!i) in
        incr i;
        incr n_advances;
        let level_ok =
          match q.axis with
          | Ast.Child -> e.level = parent.level + 1
          | Ast.Descendant -> e.level > parent.level
        in
        if level_ok && (not (Hashtbl.mem q.visited e.start)) && filters_hold e q.filters
        then begin
          Hashtbl.add q.visited e.start ();
          incr n_visited;
          if q.sids <> [] && q.matched_epoch <> epoch then begin
            q.matched_epoch <- epoch;
            List.iter mark q.sids
          end;
          List.iter (fun c -> explore c ~parent:e) q.children;
          (* stop working on this subtree once everything below matched *)
          let self_done = q.sids = [] || q.matched_epoch = epoch in
          let children_done =
            List.for_all (fun (c : qnode) -> c.done_epoch = epoch) q.children
          in
          if self_done && children_done then q.done_epoch <- epoch
        end
      done
    end
  in
  let virtual_root = { start = -1; stop = max_int; level = 0; attrs = [] } in
  List.iter (fun q -> explore q ~parent:virtual_root) t.roots;
  Pf_obs.Counter.add t.m.stream_advances !n_advances;
  Pf_obs.Counter.add t.m.nodes_visited !n_visited;
  Pf_obs.Counter.incr t.m.documents;
  let result = List.sort compare !matches in
  Pf_obs.Counter.add t.m.matched (List.length result);
  Pf_obs.Qhist.observe t.m.latency
    (Int64.to_int (Int64.sub (Pf_obs.Span.now ()) lat0));
  result

let match_string t s = match_document t (Pf_xml.Sax.parse_document s)
