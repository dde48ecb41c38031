open Pf_xpath

(* NFA states. Construction is a trie over step symbols, so every
   (state, symbol) pair has at most one target; non-determinism arises at
   run time (a tag event can follow both its tag edge and the star edge,
   and loop states stay active). A descendant step [//t] contributes two
   symbols: a loop state (star self-loop, entered by epsilon-closure when
   its parent activates) followed by the test edge.

   Tag names are interned through the global {!Pf_xml.Symbol} table so
   that executing one element event resolves its tag once (a cached
   lookup), not once per active state — and edges share symbols with the
   predicate engines instead of keeping a private table. *)
type state = {
  id : int;
  tag_edges : (int, int) Hashtbl.t;  (* tag symbol -> target state *)
  mutable star_edge : int;  (* -1 = none *)
  mutable loop_child : int;  (* -1 = none; epsilon-reachable loop state *)
  is_loop : bool;
  mutable plain_sids : int list;  (* accepting, no attribute filters *)
  mutable filter_sids : int list;  (* accepting, needs the postponed check *)
}

(* Execution counters: [transitions] counts NFA transition rounds (one per
   element event with a live active set), [activations] state activations
   including epsilon-closure — the YFilter analogue of the predicate
   engine's probes, for apples-to-apples stage comparisons. *)
type metrics = {
  registry : Pf_obs.Registry.t;
  documents : Pf_obs.Counter.t;
  transitions : Pf_obs.Counter.t;
  activations : Pf_obs.Counter.t;
  matched : Pf_obs.Counter.t;
  latency : Pf_obs.Qhist.t;
}

let make_metrics () =
  let registry = Pf_obs.Registry.create "yfilter" in
  {
    registry;
    documents = Pf_obs.Counter.make ~registry "documents" ~help:"documents processed";
    transitions =
      Pf_obs.Counter.make ~registry "nfa_transitions"
        ~help:"NFA transition rounds (element events with a live active set)";
    activations =
      Pf_obs.Counter.make ~registry "state_activations"
        ~help:"NFA states activated, including epsilon-closure";
    matched =
      Pf_obs.Counter.make ~registry "matches" ~help:"expression matches reported";
    latency =
      Pf_obs.Qhist.make ~registry "doc_latency_ns"
        ~help:"end-to-end per-document match latency, nanoseconds";
  }

type t = {
  mutable states : state array;
  mutable n_states : int;
  mutable exprs : Ast.path array;  (* sid -> expression *)
  mutable n_exprs : int;
  mutable removed : bool array;  (* sid -> unregistered (sids are not reused) *)
  m : metrics;
  (* run-time scratch *)
  mutable set_stamp : int array;  (* state id -> set epoch *)
  mutable set_epoch : int;
  mutable sid_stamp : int array;  (* sid -> doc epoch *)
  mutable doc_epoch : int;
}

let new_state t ~is_loop =
  if t.n_states >= Array.length t.states then begin
    let bigger =
      Array.make (max 16 (2 * Array.length t.states))
        { id = -1; tag_edges = Hashtbl.create 1; star_edge = -1; loop_child = -1;
          is_loop = false; plain_sids = []; filter_sids = [] }
    in
    Array.blit t.states 0 bigger 0 t.n_states;
    t.states <- bigger
  end;
  let s =
    { id = t.n_states; tag_edges = Hashtbl.create 2; star_edge = -1; loop_child = -1;
      is_loop; plain_sids = []; filter_sids = [] }
  in
  t.states.(t.n_states) <- s;
  t.n_states <- t.n_states + 1;
  s

let create () =
  let t =
    {
      states = [||];
      n_states = 0;
      exprs = [||];
      n_exprs = 0;
      removed = [||];
      m = make_metrics ();
      set_stamp = [||];
      set_epoch = 0;
      sid_stamp = [||];
      doc_epoch = 0;
    }
  in
  ignore (new_state t ~is_loop:false);  (* state 0: initial *)
  t

let expression_count t = t.n_exprs
let state_count t = t.n_states
let metrics t = t.m.registry

let symbol_find tag =
  match Pf_xml.Symbol.find tag with Some s -> s | None -> -1

(* Follow (or create) the loop child of [s]. *)
let loop_of t s =
  if s.loop_child >= 0 then t.states.(s.loop_child)
  else begin
    let l = new_state t ~is_loop:true in
    s.loop_child <- l.id;
    l
  end

let tag_target t s tag =
  let sym = Pf_xml.Symbol.intern tag in
  match Hashtbl.find_opt s.tag_edges sym with
  | Some id -> t.states.(id)
  | None ->
    let n = new_state t ~is_loop:false in
    Hashtbl.add s.tag_edges sym n.id;
    n

let star_target t s =
  if s.star_edge >= 0 then t.states.(s.star_edge)
  else begin
    let n = new_state t ~is_loop:false in
    s.star_edge <- n.id;
    n
  end

let add t (p : Ast.path) =
  if not (Ast.is_single_path p) then
    raise (Pf_intf.Unsupported "Yfilter.add: nested path filters are not supported");
  if p.Ast.steps = [] then raise (Pf_intf.Unsupported "Yfilter.add: empty path");
  let sid = t.n_exprs in
  if t.n_exprs >= Array.length t.exprs then begin
    let bigger = Array.make (max 16 (2 * Array.length t.exprs)) p in
    Array.blit t.exprs 0 bigger 0 t.n_exprs;
    t.exprs <- bigger;
    let bigger_removed = Array.make (Array.length bigger) false in
    Array.blit t.removed 0 bigger_removed 0 t.n_exprs;
    t.removed <- bigger_removed
  end;
  t.exprs.(t.n_exprs) <- p;
  t.n_exprs <- t.n_exprs + 1;
  let enter state (step : Ast.step) ~descend =
    let state = if descend then loop_of t state else state in
    match step.Ast.test with
    | Ast.Tag tag -> tag_target t state tag
    | Ast.Wildcard -> star_target t state
  in
  let final =
    match p.Ast.steps with
    | [] -> assert false (* rejected above *)
    | first :: rest ->
      (* a relative expression matches anywhere: implicit leading [//] *)
      let descend_first = (not p.Ast.absolute) || first.Ast.axis = Ast.Descendant in
      let s0 = enter t.states.(0) first ~descend:descend_first in
      List.fold_left
        (fun s (step : Ast.step) -> enter s step ~descend:(step.Ast.axis = Ast.Descendant))
        s0 rest
  in
  if Ast.has_attr_filters p then final.filter_sids <- sid :: final.filter_sids
  else final.plain_sids <- sid :: final.plain_sids;
  sid

let add_string t s = add t (Parser.parse s)

let remove t sid =
  if sid < 0 || sid >= t.n_exprs || t.removed.(sid) then false
  else begin
    (* the accepting state keeps the sid; matching filters removed sids,
       so removal is constant-time and never restructures the NFA *)
    t.removed.(sid) <- true;
    true
  end

(* ------------------------------------------------------------------ *)
(* Execution *)

let ensure_runtime t =
  if Array.length t.set_stamp < t.n_states then begin
    let bigger = Array.make (max t.n_states (2 * Array.length t.set_stamp)) 0 in
    Array.blit t.set_stamp 0 bigger 0 (Array.length t.set_stamp);
    t.set_stamp <- bigger
  end;
  if Array.length t.sid_stamp < t.n_exprs then begin
    let bigger = Array.make (max t.n_exprs (2 * Array.length t.sid_stamp)) 0 in
    Array.blit t.sid_stamp 0 bigger 0 (Array.length t.sid_stamp);
    t.sid_stamp <- bigger
  end

let match_document t (doc : Pf_xml.Tree.t) =
  let lat0 = Pf_obs.Span.now () in
  ensure_runtime t;
  t.doc_epoch <- t.doc_epoch + 1;
  let matches = ref [] in
  let n_transitions = ref 0 and n_activations = ref 0 in
  (* current root-to-element path, for the postponed attribute check; the
     #text pseudo-attribute is materialized only when a check runs *)
  let path_stack : Pf_xml.Tree.element list ref = ref [] in
  let current_path () =
    let steps =
      List.rev_map
        (fun (e : Pf_xml.Tree.element) ->
          let attrs =
            match Pf_xml.Tree.text_content e with
            | "" -> e.Pf_xml.Tree.attrs
            | txt -> e.Pf_xml.Tree.attrs @ [ "#text", txt ]
          in
          { Pf_xml.Path.tag = e.Pf_xml.Tree.tag;
            sym = Pf_xml.Symbol.intern e.Pf_xml.Tree.tag; attrs; occurrence = 1;
            child_index = 1 })
        !path_stack
    in
    { Pf_xml.Path.steps = Array.of_list steps }
  in
  let mark_plain sid =
    if (not t.removed.(sid)) && t.sid_stamp.(sid) <> t.doc_epoch then begin
      t.sid_stamp.(sid) <- t.doc_epoch;
      matches := sid :: !matches
    end
  in
  let mark_filtered sid =
    if (not t.removed.(sid)) && t.sid_stamp.(sid) <> t.doc_epoch then
      if Eval.matches_doc_path t.exprs.(sid) (current_path ()) then begin
        t.sid_stamp.(sid) <- t.doc_epoch;
        matches := sid :: !matches
      end
  in
  (* Activate a state into the set being built: epsilon-closure pulls in
     loop children; accepting states report their sids. *)
  let rec activate acc s =
    if t.set_stamp.(s.id) = t.set_epoch then acc
    else begin
      incr n_activations;
      t.set_stamp.(s.id) <- t.set_epoch;
      (match s.plain_sids with [] -> () | sids -> List.iter mark_plain sids);
      (match s.filter_sids with [] -> () | sids -> List.iter mark_filtered sids);
      let acc = s :: acc in
      if s.loop_child >= 0 then activate acc t.states.(s.loop_child) else acc
    end
  in
  let transition active sym =
    incr n_transitions;
    t.set_epoch <- t.set_epoch + 1;
    let rec go acc = function
      | [] -> acc
      | s :: rest ->
        let acc = if s.is_loop then activate acc s else acc in
        let acc =
          if sym >= 0 then
            match Hashtbl.find_opt s.tag_edges sym with
            | Some id -> activate acc t.states.(id)
            | None -> acc
          else acc
        in
        let acc = if s.star_edge >= 0 then activate acc t.states.(s.star_edge) else acc in
        go acc rest
    in
    go [] active
  in
  let rec walk active (e : Pf_xml.Tree.element) =
    path_stack := e :: !path_stack;
    let next = transition active (symbol_find e.Pf_xml.Tree.tag) in
    if next <> [] then
      List.iter (walk next) (Pf_xml.Tree.element_children e);
    path_stack := List.tl !path_stack
  in
  (* initial active set: closure of the start state *)
  t.set_epoch <- t.set_epoch + 1;
  let initial = activate [] t.states.(0) in
  walk initial doc.Pf_xml.Tree.root;
  Pf_obs.Counter.add t.m.transitions !n_transitions;
  Pf_obs.Counter.add t.m.activations !n_activations;
  Pf_obs.Counter.incr t.m.documents;
  let result = List.sort compare !matches in
  Pf_obs.Counter.add t.m.matched (List.length result);
  Pf_obs.Qhist.observe t.m.latency
    (Int64.to_int (Int64.sub (Pf_obs.Span.now ()) lat0));
  result

let match_string t s = match_document t (Pf_xml.Sax.parse_document s)
