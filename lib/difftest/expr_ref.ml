(* The expression index exactly as it was before the flat-trie rewrite:
   boxed node records whose children sit in an association list, promoted
   to a hashtable past 16 entries, and an access-predicate walk that tries
   every root on every publication. Kept as a test-only reference so the
   struct-of-arrays trie in {!Pf_core.Expr_index} can be checked against
   it: evaluated one path per walk under [~sticky:true] and the flat
   trie's tags, the same sid sets on every publication and the same
   occurrence runs, backtracking steps, prefix-cover skips and access
   skips; and per document, the same sid set as the flat trie's walk over
   chunks of the document's paths. The only changes from the historical
   code are the [open] below and the variant type, which re-exports the
   flat index's so one value selects both. *)

open Pf_core

type variant = Expr_index.variant = Basic | Prefix_covering | Access_predicate | Shared

let variant_name = function
  | Basic -> "basic"
  | Prefix_covering -> "basic-pc"
  | Access_predicate -> "basic-pc-ap"
  | Shared -> "shared"

let variant_of_name = function
  | "basic" -> Some Basic
  | "basic-pc" | "pc" -> Some Prefix_covering
  | "basic-pc-ap" | "pc-ap" | "ap" -> Some Access_predicate
  | "shared" -> Some Shared
  | _ -> None

(* Trie nodes keep children in an association list and promote to a
   hashtable past a small fan-out, keeping millions of mostly-linear chains
   cheap while root-level fan-out stays O(1). *)
type node = {
  pid : int;
  depth : int;  (* 0 at roots *)
  parent : node option;
  mutable sids : int list;
  mutable children : children;
  mutable child_list : node list;
      (* the same children as a plain list (newest first): the
         access-predicate pass walks it with closure-free recursion — a
         [Hashtbl.fold] over promoted fan-out allocated its callback per
         node visit, i.e. per document path. Nodes are never removed, so
         the list only grows alongside [children]. *)
  mutable covered_epoch : int;  (* prefix-covering mark, per eval pass *)
  mutable mark_epoch : int;
      (* document tag of the last sticky sid report: a document has many
         paths, and once a node's sids are reported for one path they need
         not be re-reported for the document's remaining paths (valid only
         when on_match marks unconditionally, i.e. no postponed checks) *)
}

and children =
  | Small of (int * node) list
  | Big of (int, node) Hashtbl.t

let promote_threshold = 16

let child_find children pid =
  match children with
  | Small l -> List.assoc_opt pid l
  | Big tbl -> Hashtbl.find_opt tbl pid

let child_add n pid child =
  n.child_list <- child :: n.child_list;
  match n.children with
  | Small l ->
    if List.length l >= promote_threshold then begin
      let tbl = Hashtbl.create 32 in
      List.iter (fun (p, c) -> Hashtbl.add tbl p c) l;
      Hashtbl.add tbl pid child;
      n.children <- Big tbl
    end
    else n.children <- Small ((pid, child) :: l)
  | Big tbl -> Hashtbl.add tbl pid child

let child_iter f = function
  | Small l -> List.iter (fun (_, c) -> f c) l
  | Big tbl -> Hashtbl.iter (fun _ c -> f c) tbl


(* Evaluation counters, typically registered in the owning engine's
   registry. [runs] is the quantity the Section 4.2.2 optimizations
   minimize; [cover_skips]/[access_skips] count how often prefix covering
   and access predicates avoided work; [chain_len] observes the predicate
   chain length of each occurrence determination run. *)
type metrics = {
  runs : Pf_obs.Counter.t;
  steps : Pf_obs.Counter.t;
  cover_skips : Pf_obs.Counter.t;
  access_skips : Pf_obs.Counter.t;
  chain_len : Pf_obs.Histogram.t;
}

let make_metrics ?registry () =
  {
    runs =
      Pf_obs.Counter.make ?registry "occurrence_runs"
        ~help:"occurrence determination runs";
    steps =
      Pf_obs.Counter.make ?registry "backtrack_steps"
        ~help:"nodes visited by the occurrence determination backtracking search";
    cover_skips =
      Pf_obs.Counter.make ?registry "prefix_cover_skips"
        ~help:"expressions reported through prefix covering without a run";
    access_skips =
      Pf_obs.Counter.make ?registry "access_skips"
        ~help:"trie subtrees skipped because their access predicate had no match";
    chain_len =
      Pf_obs.Histogram.make ?registry "chain_length"
        ~help:"predicate chain length per occurrence determination run";
  }

type t = {
  variant : variant;
  (* Basic *)
  flat : (int * int array) Vec.t;  (* (sid, pids); removed entries have pids = [||] *)
  flat_pos : (int, int) Hashtbl.t;  (* sid -> index in [flat] *)
  (* trie variants *)
  roots : (int, node) Hashtbl.t;
  mutable root_list : node list;
      (* the same roots as a list: the access-predicate pass walks it with
         a closure-free recursion (a Hashtbl.iter callback would allocate
         per evaluation, i.e. per document path). Roots are never removed,
         so the list only grows, newest first. *)
  (* prefix covering: sid-bearing nodes bucketed by depth, evaluated
     longest-first so a deep match covers its prefixes *)
  by_depth : node Vec.t Vec.t;
  (* candidate-set scratch reused across documents (Occurrence arena);
     one per index — engine instances are single-domain *)
  arena : Occurrence.arena;
  mutable pc_epoch : int;
  mutable n_exprs : int;
  mutable n_nodes : int;
  m : metrics;
}

let dummy_node =
  { pid = -1; depth = 0; parent = None; sids = []; children = Small []; child_list = [];
    covered_epoch = 0; mark_epoch = 0 }

(* Shared placeholder filling unused [by_depth] slots (Vec.ensure fills with
   one dummy value); recognized by physical identity and replaced by a fresh
   bucket on first use. Never written through. *)
let dummy_bucket : node Vec.t = Vec.create ~dummy:dummy_node ()

let create ?metrics variant =
  {
    variant;
    flat = Vec.create ~dummy:(0, [||]) ();
    flat_pos = Hashtbl.create 16;
    roots = Hashtbl.create 256;
    root_list = [];
    by_depth = Vec.create ~dummy:dummy_bucket ();
    arena = Occurrence.create_arena ();
    pc_epoch = 0;
    n_exprs = 0;
    n_nodes = 0;
    m = (match metrics with Some m -> m | None -> make_metrics ());
  }

let add t ~sid ~pids =
  if Array.length pids = 0 then invalid_arg "Expr_index.add: empty pid sequence";
  t.n_exprs <- t.n_exprs + 1;
  match t.variant with
  | Basic ->
    t.n_nodes <- t.n_nodes + 1;
    Hashtbl.replace t.flat_pos sid (Vec.push t.flat (sid, pids))
  | Prefix_covering | Access_predicate | Shared ->
    let register node =
      (* index sid-bearing nodes by depth for longest-first evaluation *)
      if node.sids = [] then begin
        Vec.ensure t.by_depth (node.depth + 1);
        let bucket = Vec.get t.by_depth node.depth in
        let bucket =
          if bucket == dummy_bucket then begin
            let fresh = Vec.create ~dummy:dummy_node () in
            Vec.set t.by_depth node.depth fresh;
            fresh
          end
          else bucket
        in
        ignore (Vec.push bucket node)
      end;
      node.sids <- sid :: node.sids
    in
    let root =
      match Hashtbl.find_opt t.roots pids.(0) with
      | Some node -> node
      | None ->
        let node =
          { pid = pids.(0); depth = 0; parent = None; sids = []; children = Small [];
            child_list = []; covered_epoch = 0; mark_epoch = 0 }
        in
        t.n_nodes <- t.n_nodes + 1;
        Hashtbl.add t.roots pids.(0) node;
        t.root_list <- node :: t.root_list;
        node
    in
    let rec descend node i =
      if i >= Array.length pids then register node
      else begin
        let child =
          match child_find node.children pids.(i) with
          | Some c -> c
          | None ->
            let c =
              { pid = pids.(i); depth = i; parent = Some node; sids = [];
                children = Small []; child_list = []; covered_epoch = 0; mark_epoch = 0 }
            in
            t.n_nodes <- t.n_nodes + 1;
            child_add node pids.(i) c;
            c
        in
        descend child (i + 1)
      end
    in
    descend root 1

let expression_count t = t.n_exprs
let node_count t = t.n_nodes
let occurrence_runs t = Pf_obs.Counter.get t.m.runs

let remove t ~sid ~pids =
  match t.variant with
  | Basic -> (
    match Hashtbl.find_opt t.flat_pos sid with
    | None -> false
    | Some i ->
      Hashtbl.remove t.flat_pos sid;
      Vec.set t.flat i (sid, [||]);
      t.n_exprs <- t.n_exprs - 1;
      true)
  | Prefix_covering | Access_predicate | Shared -> (
    let rec descend node i =
      if i >= Array.length pids then
        if List.mem sid node.sids then begin
          node.sids <- List.filter (fun s -> s <> sid) node.sids;
          true
        end
        else false
      else
        match child_find node.children pids.(i) with
        | Some c -> descend c (i + 1)
        | None -> false
    in
    match
      if Array.length pids = 0 then false
      else
        match Hashtbl.find_opt t.roots pids.(0) with
        | Some root -> descend root 1
        | None -> false
    with
    | true ->
      t.n_exprs <- t.n_exprs - 1;
      true
    | false -> false)

(* ------------------------------------------------------------------ *)

(* Fill arena row [i] with pid's recorded pairs; true iff non-empty. The
   copy into contiguous memory is what the backtracking search — which
   revisits rows repeatedly — then runs over. *)
let fill_row a res i pid =
  Occurrence.start_row a i;
  Occurrence.push_chain a (Predicate_index.cells res) (Predicate_index.head res pid);
  Occurrence.row_len a i > 0

(* One occurrence determination run is about to happen over a chain of
   [len] predicates. *)
let note_run t len =
  Pf_obs.Counter.incr t.m.runs;
  Pf_obs.Histogram.observe t.m.chain_len len

let eval_basic t res ~on_match =
  let a = t.arena in
  (* backtracking steps: the arena's monotone counter, flushed as a delta
     once per pass (a [~steps] ref would allocate a [Some] per run) *)
  let s0 = Occurrence.search_steps a in
  Vec.iter
    (fun (sid, pids) ->
      let n = Array.length pids in
      if n > 0 then begin
        Occurrence.clear a;
        (* fetch each predicate's results; stop at the first empty one *)
        let rec fetch i = i >= n || (fill_row a res i pids.(i) && fetch (i + 1)) in
        if fetch 0 then begin
          note_run t n;
          if Occurrence.matches_packed a then on_match sid
        end
      end)
    t.flat;
  Pf_obs.Counter.add t.m.steps (Occurrence.search_steps a - s0)

(* Prefix covering (without access predicates). Sid-bearing trie nodes are
   evaluated longest-first (by descending depth): each gets the flat
   algorithm's treatment — check its own predicate chain for dead results
   leaf-to-root, fill the arena root-to-leaf, then one occurrence
   determination run — but a match marks every ancestor node covered, so
   prefix expressions (and all duplicates, which share the node) are
   reported without evaluation. Unlike the access-predicate variant, a
   dead predicate does not rule out anything beyond the one expression
   being checked. *)
let eval_pc t res ~sticky ~doc_tag ~on_match =
  t.pc_epoch <- t.pc_epoch + 1;
  let epoch = t.pc_epoch in
  let report node =
    if sticky then node.mark_epoch <- doc_tag;
    List.iter on_match node.sids
  in
  let a = t.arena in
  let s0 = Occurrence.search_steps a in
  let rec alive n =
    Predicate_index.is_matched res n.pid
    && match n.parent with None -> true | Some p -> alive p
  in
  let rec fill n =
    (match n.parent with None -> true | Some p -> fill p)
    && fill_row a res n.depth n.pid
  in
  let evaluate node =
    alive node
    && begin
         Occurrence.clear a;
         ignore (fill node : bool);
         note_run t (node.depth + 1);
         Occurrence.matches_to a node.depth
       end
  in
  let rec cover = function
    | None -> ()
    | Some p ->
      if p.covered_epoch <> epoch then begin
        p.covered_epoch <- epoch;
        cover p.parent
      end
  in
  for depth = Vec.length t.by_depth - 1 downto 0 do
    let bucket = Vec.get t.by_depth depth in
    Vec.iter
      (fun node ->
        if node.sids <> [] && not (sticky && node.mark_epoch = doc_tag) then
          if node.covered_epoch = epoch then begin
            Pf_obs.Counter.add t.m.cover_skips (List.length node.sids);
            report node
          end
          else if evaluate node then begin
            report node;
            node.covered_epoch <- epoch;
            cover node.parent
          end)
      bucket
  done;
  Pf_obs.Counter.add t.m.steps (Occurrence.search_steps a - s0)

(* Access predicates on top of prefix covering: a subtree whose entry
   predicate has no matching result is ruled out without visiting it (at
   the root this is the paper's clustering by first predicate; applying it
   at every node generalizes the same rule recursively). The per-depth
   arena rows are filled on the way down — stack discipline — so an
   occurrence run at a sid node reuses the fetches of all its ancestors. *)
(* The recursion is written as top-level functions taking everything as
   arguments rather than closures inside [eval_ap]: the visit runs once
   per trie node per document path, and a closure allocation per node
   (the old [child_fold] callback) used to dominate the match path's
   allocation — with these, the whole evaluation allocates nothing. *)
let rec ap_visit t res ~sticky ~doc_tag ~on_match node depth =
  if not (Predicate_index.is_matched res node.pid) then begin
    (* dead access predicate: the whole subtree is ruled out *)
    Pf_obs.Counter.incr t.m.access_skips;
    false
  end
  else begin
    let a = t.arena in
    ignore (fill_row a res depth node.pid : bool);
    let below =
      ap_visit_children t res ~sticky ~doc_tag ~on_match node.child_list (depth + 1) false
    in
    if node.sids = [] then below
    else if sticky && node.mark_epoch = doc_tag then
      (* already fully reported for this document: no run needed *)
      below
    else if below then begin
      (* a longer expression below matched: covered, no run needed *)
      Pf_obs.Counter.add t.m.cover_skips (List.length node.sids);
      if sticky then node.mark_epoch <- doc_tag;
      List.iter on_match node.sids;
      true
    end
    else begin
      note_run t (depth + 1);
      if Occurrence.matches_to a depth then begin
        if sticky then node.mark_epoch <- doc_tag;
        List.iter on_match node.sids;
        true
      end
      else false
    end
  end

and ap_visit_children t res ~sticky ~doc_tag ~on_match l depth acc =
  match l with
  | [] -> acc
  | c :: rest ->
    let matched = ap_visit t res ~sticky ~doc_tag ~on_match c depth in
    ap_visit_children t res ~sticky ~doc_tag ~on_match rest depth (acc || matched)

let rec ap_roots t res ~sticky ~doc_tag ~on_match = function
  | [] -> ()
  | root :: rest ->
    Occurrence.clear t.arena;
    ignore (ap_visit t res ~sticky ~doc_tag ~on_match root 0 : bool);
    ap_roots t res ~sticky ~doc_tag ~on_match rest

let eval_ap t res ~sticky ~doc_tag ~on_match =
  let s0 = Occurrence.search_steps t.arena in
  ap_roots t res ~sticky ~doc_tag ~on_match t.root_list;
  Pf_obs.Counter.add t.m.steps (Occurrence.search_steps t.arena - s0)

(* Shared: propagate the set of reachable chain endings down the trie. A
   node is reachable with endings S iff a chain exists through the pids on
   the root path ending with some o2 in S; its expressions match iff S is
   non-empty. Sets are tiny (bounded by occurrence counts in one path), so
   sorted int lists suffice. *)
let eval_shared t res roots ~sticky ~doc_tag ~on_match =
  let report node =
    if sticky then node.mark_epoch <- doc_tag;
    List.iter on_match node.sids
  in
  let rec visit node incoming =
    match Predicate_index.get_packed res node.pid with
    | [] ->
      (* same pruning rule as the access-predicate variant *)
      Pf_obs.Counter.incr t.m.access_skips
    | pairs ->
      let reach =
        match incoming with
        | None ->
          List.sort_uniq compare (List.map Predicate_index.packed_second pairs)
        | Some s ->
          List.sort_uniq compare
            (List.filter_map
               (fun p ->
                 if List.mem (Predicate_index.packed_first p) s then
                   Some (Predicate_index.packed_second p)
                 else None)
               pairs)
      in
      if reach <> [] then begin
        if node.sids <> [] && not (sticky && node.mark_epoch = doc_tag) then report node;
        child_iter (fun c -> visit c (Some reach)) node.children
      end
  in
  Hashtbl.iter (fun _ root -> visit root None) roots

let eval t res ~sticky ~doc_tag ~on_match =
  match t.variant with
  | Basic -> eval_basic t res ~on_match
  | Prefix_covering -> eval_pc t res ~sticky ~doc_tag ~on_match
  | Access_predicate -> eval_ap t res ~sticky ~doc_tag ~on_match
  | Shared -> eval_shared t res t.roots ~sticky ~doc_tag ~on_match
