type variant = Basic | Prefix_covering | Access_predicate | Shared

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

(* Evaluation counters, typically registered in the owning engine's
   registry. [runs] is the quantity the Section 4.2.2 optimizations
   minimize; [cover_skips]/[access_skips] count how often prefix covering
   and access predicates avoided work; [visits] counts trie nodes entered;
   [chain_len] observes the predicate chain length of each occurrence
   determination run. *)
type metrics = {
  runs : Pf_obs.Counter.t;
  steps : Pf_obs.Counter.t;
  cover_skips : Pf_obs.Counter.t;
  access_skips : Pf_obs.Counter.t;
  visits : Pf_obs.Counter.t;
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
    visits =
      Pf_obs.Counter.make ?registry "trie_visits"
        ~help:"expression-trie nodes entered by the expression stage";
    chain_len =
      Pf_obs.Histogram.make ?registry "chain_length"
        ~help:"predicate chain length per occurrence determination run";
  }

(* The trie is one growable struct of arrays: node [n]'s fields sit at
   index [n] of each array, and nodes are never removed, so ids are
   stable. Children are kept per node as a pid-sorted array with an
   aligned array of child ids; both grow by doubling, so an insert costs
   a binary search and a shift, never a copy of the whole trie. *)
type t = {
  variant : variant;
  (* Basic *)
  flat : (int * int array) Vec.t;  (* (sid, pids); removed entries have pids = [||] *)
  flat_pos : (int, int) Hashtbl.t;  (* sid -> index in [flat] *)
  (* trie variants *)
  mutable pid : int array;
  mutable parent : int array;  (* -1 at roots *)
  mutable depth : int array;  (* 0 at roots *)
  mutable sids : int list array;
  mutable mark : int array;
      (* document tag of the last sticky sid report: a document has many
         paths, and once a node's sids are reported for one path they need
         not be re-reported for the document's remaining paths (valid only
         when on_match marks unconditionally, i.e. no postponed checks) *)
  mutable covered : int array;  (* prefix-covering mark, per eval pass *)
  mutable done_tag : int array;
      (* document tag under which the whole subtree was done: nothing in
         it is left to report, so the sticky walk does not enter it *)
  mutable ndone_tag : int array;  (* the document tag [ndone] counts for *)
  mutable ndone : int array;  (* children done under [ndone_tag] *)
  mutable nkids : int array;
  mutable kid_pid : int array array;  (* first [nkids] slots sorted by pid *)
  mutable kid : int array array;  (* node ids aligned with [kid_pid] *)
  mutable root_of : int array;  (* pid -> root node, -1 if none *)
  mutable n_roots : int;
  (* prefix covering: sid-bearing nodes bucketed by depth, evaluated
     longest-first so a deep match covers its prefixes *)
  by_depth : int Vec.t Vec.t;
  (* candidate-set scratch reused across documents (Occurrence arena);
     one per index — engine instances are single-domain *)
  arena : Occurrence.arena;
  mutable pc_epoch : int;
  mutable n_exprs : int;
  mutable n_nodes : int;
  (* per-eval scratch counts — fields rather than refs so an eval
     allocates nothing; flushed to the metrics once per eval *)
  mutable e_visits : int;
  mutable e_skips : int;
  (* access-predicate walk scratch: [live.(pid) = live_tag] iff [pid]
     matched the publication being evaluated (copied once per eval from
     the predicate stage's matched pids, so the child scan is a local
     array read rather than a call into Predicate_index); [stack.(d)] is
     the node entered at depth [d], and arena rows [0 .. filled-1] hold
     the pairs of [stack.(0 .. filled-1)] *)
  mutable live : int array;
  mutable live_tag : int;
  mutable stack : int array;
  mutable filled : int;
  m : metrics;
}

(* A tag no document carries: fresh nodes are neither marked nor done. *)
let never = min_int

(* Shared placeholder filling unused [by_depth] slots (Vec.ensure fills with
   one dummy value); recognized by physical identity and replaced by a fresh
   bucket on first use. Never written through. *)
let dummy_bucket : int Vec.t = Vec.create ~dummy:0 ()

let create ?metrics variant =
  {
    variant;
    flat = Vec.create ~dummy:(0, [||]) ();
    flat_pos = Hashtbl.create 16;
    pid = [||];
    parent = [||];
    depth = [||];
    sids = [||];
    mark = [||];
    covered = [||];
    done_tag = [||];
    ndone_tag = [||];
    ndone = [||];
    nkids = [||];
    kid_pid = [||];
    kid = [||];
    root_of = [||];
    n_roots = 0;
    by_depth = Vec.create ~dummy:dummy_bucket ();
    arena = Occurrence.create_arena ();
    pc_epoch = 0;
    n_exprs = 0;
    n_nodes = 0;
    e_visits = 0;
    e_skips = 0;
    live = [||];
    live_tag = 0;
    stack = Array.make 16 0;
    filled = 0;
    m = (match metrics with Some m -> m | None -> make_metrics ());
  }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_node t ~pid ~parent ~depth =
  let n = t.n_nodes in
  if n = Array.length t.pid then begin
    let cap = max 16 (2 * n) in
    t.pid <- grow t.pid cap 0;
    t.parent <- grow t.parent cap (-1);
    t.depth <- grow t.depth cap 0;
    t.sids <- grow t.sids cap [];
    t.mark <- grow t.mark cap never;
    t.covered <- grow t.covered cap 0;
    t.done_tag <- grow t.done_tag cap never;
    t.ndone_tag <- grow t.ndone_tag cap never;
    t.ndone <- grow t.ndone cap 0;
    t.nkids <- grow t.nkids cap 0;
    t.kid_pid <- grow t.kid_pid cap [||];
    t.kid <- grow t.kid cap [||]
  end;
  t.pid.(n) <- pid;
  t.parent.(n) <- parent;
  t.depth.(n) <- depth;
  t.n_nodes <- n + 1;
  n

(* First slot of node [n]'s child pids holding a pid >= [pid]. *)
let kid_slot t n pid =
  let kp = t.kid_pid.(n) in
  let lo = ref 0 and hi = ref t.nkids.(n) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if kp.(mid) < pid then lo := mid + 1 else hi := mid
  done;
  !lo

(* Node [n]'s child with [pid], or -1. *)
let find_kid t n pid =
  let i = kid_slot t n pid in
  if i < t.nkids.(n) && t.kid_pid.(n).(i) = pid then t.kid.(n).(i) else -1

let add_kid t n pid =
  let i = kid_slot t n pid in
  let k = t.nkids.(n) in
  if i < k && t.kid_pid.(n).(i) = pid then t.kid.(n).(i)
  else begin
    let c = new_node t ~pid ~parent:n ~depth:(t.depth.(n) + 1) in
    if k = Array.length t.kid_pid.(n) then begin
      let cap = max 2 (2 * k) in
      t.kid_pid.(n) <- grow t.kid_pid.(n) cap 0;
      t.kid.(n) <- grow t.kid.(n) cap 0
    end;
    let kp = t.kid_pid.(n) and kd = t.kid.(n) in
    Array.blit kp i kp (i + 1) (k - i);
    Array.blit kd i kd (i + 1) (k - i);
    kp.(i) <- pid;
    kd.(i) <- c;
    t.nkids.(n) <- k + 1;
    c
  end

let root_node t pid = if pid < Array.length t.root_of then t.root_of.(pid) else -1

let add_root t pid =
  match root_node t pid with
  | r when r >= 0 -> r
  | _ ->
    if pid >= Array.length t.root_of then
      t.root_of <- grow t.root_of (max (pid + 1) (2 * Array.length t.root_of)) (-1);
    let r = new_node t ~pid ~parent:(-1) ~depth:0 in
    t.root_of.(pid) <- r;
    t.n_roots <- t.n_roots + 1;
    r

(* The node reached by [pids], or -1. *)
let find_path t pids =
  let rec go n i =
    if n < 0 || i >= Array.length pids then n else go (find_kid t n pids.(i)) (i + 1)
  in
  go (root_node t pids.(0)) 1

let add t ~sid ~pids =
  if Array.length pids = 0 then invalid_arg "Expr_index.add: empty pid sequence";
  t.n_exprs <- t.n_exprs + 1;
  match t.variant with
  | Basic ->
    t.n_nodes <- t.n_nodes + 1;
    Hashtbl.replace t.flat_pos sid (Vec.push t.flat (sid, pids))
  | Prefix_covering | Access_predicate | Shared ->
    let top = Array.fold_left max 0 pids in
    if top >= Array.length t.live then
      t.live <- grow t.live (max (top + 1) (2 * Array.length t.live)) 0;
    let n = ref (add_root t pids.(0)) in
    for i = 1 to Array.length pids - 1 do
      n := add_kid t !n pids.(i)
    done;
    let n = !n in
    if t.sids.(n) = [] then begin
      (* index sid-bearing nodes by depth for longest-first evaluation *)
      let d = t.depth.(n) in
      Vec.ensure t.by_depth (d + 1);
      let bucket = Vec.get t.by_depth d in
      let bucket =
        if bucket == dummy_bucket then begin
          let fresh = Vec.create ~dummy:0 () in
          Vec.set t.by_depth d fresh;
          fresh
        end
        else bucket
      in
      ignore (Vec.push bucket n : int)
    end;
    t.sids.(n) <- sid :: t.sids.(n);
    (* the new sid (and any new nodes) make the root path not done; its
       done counts restart, which can only make the walk enter more *)
    let rec undone a =
      if a >= 0 then begin
        t.done_tag.(a) <- never;
        t.ndone_tag.(a) <- never;
        undone t.parent.(a)
      end
    in
    undone n

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
  | Prefix_covering | Access_predicate | Shared ->
    let n = if Array.length pids = 0 then -1 else find_path t pids in
    if n >= 0 && List.mem sid t.sids.(n) then begin
      t.sids.(n) <- List.filter (fun s -> s <> sid) t.sids.(n);
      t.n_exprs <- t.n_exprs - 1;
      true
    end
    else false

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

let report t n ~sticky ~doc_tag ~on_match =
  if sticky then t.mark.(n) <- doc_tag;
  List.iter on_match t.sids.(n)

(* Flush the per-eval scratch counts. *)
let flush t ~steps0 =
  Pf_obs.Counter.add t.m.steps (Occurrence.search_steps t.arena - steps0);
  Pf_obs.Counter.add t.m.visits t.e_visits;
  Pf_obs.Counter.add t.m.access_skips t.e_skips;
  t.e_visits <- 0;
  t.e_skips <- 0

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
let rec pc_alive t res n =
  n < 0 || (Predicate_index.is_matched res t.pid.(n) && pc_alive t res t.parent.(n))

let rec pc_fill t res n =
  n < 0 || (pc_fill t res t.parent.(n) && fill_row t.arena res t.depth.(n) t.pid.(n))

let rec pc_cover t epoch n =
  if n >= 0 && t.covered.(n) <> epoch then begin
    t.covered.(n) <- epoch;
    pc_cover t epoch t.parent.(n)
  end

let eval_pc t res ~sticky ~doc_tag ~on_match =
  t.pc_epoch <- t.pc_epoch + 1;
  let epoch = t.pc_epoch in
  let a = t.arena in
  let steps0 = Occurrence.search_steps a in
  for depth = Vec.length t.by_depth - 1 downto 0 do
    let bucket = Vec.get t.by_depth depth in
    for i = 0 to Vec.length bucket - 1 do
      let n = Vec.get bucket i in
      if t.sids.(n) <> [] && not (sticky && t.mark.(n) = doc_tag) then begin
        t.e_visits <- t.e_visits + 1;
        if t.covered.(n) = epoch then begin
          Pf_obs.Counter.add t.m.cover_skips (List.length t.sids.(n));
          report t n ~sticky ~doc_tag ~on_match
        end
        else if
          pc_alive t res n
          && begin
               Occurrence.clear a;
               ignore (pc_fill t res n : bool);
               note_run t (depth + 1);
               Occurrence.matches_to a depth
             end
        then begin
          report t n ~sticky ~doc_tag ~on_match;
          t.covered.(n) <- epoch;
          pc_cover t epoch t.parent.(n)
        end
      end
    done
  done;
  flush t ~steps0

(* Access predicates on top of prefix covering: a subtree whose entry
   predicate has no matching result is ruled out without visiting it (at
   the root this is the paper's clustering by first predicate; applying it
   at every node generalizes the same rule recursively). The walk starts
   from the pids the predicate stage matched, each looked up in [root_of],
   so unmatched roots cost nothing; at a node it scans the sorted child
   pids and enters only the matched ones. Arena rows are filled lazily:
   entering a node only records it on [stack], and a node that needs an
   occurrence run fills the rows its ancestors have not filled yet, so
   nodes passed through on the way to a covering match fetch nothing, and
   a run still reuses every row an earlier run on the same root path
   filled.

   Under sticky reporting a node is {e done} for [doc_tag] once it has no
   sids left to report (none, or already marked) and all its children are
   done. A done node is counted at its parent; a node whose done count
   reaches its child count is stamped done at the end of its visit, and
   the walk never enters a done subtree again for that tag. Skipping it
   returns "not matched" to the parent's covering flag, which is what a
   visit would have returned: every sid node inside is marked, and a
   marked node passes up only what lies below it.

   The recursion is written as top-level functions taking everything as
   arguments rather than closures: the visit runs once per entered node
   per document path, and the whole evaluation allocates nothing. *)
let rec ap_visit t res ~sticky ~doc_tag ~on_match n depth =
  t.e_visits <- t.e_visits + 1;
  if depth >= Array.length t.stack then t.stack <- grow t.stack (2 * depth) 0;
  t.stack.(depth) <- n;
  if t.filled > depth then t.filled <- depth;
  let below = ap_kids t res ~sticky ~doc_tag ~on_match n (depth + 1) in
  let sids = t.sids.(n) in
  let matched =
    if sids = [] then below
    else if sticky && t.mark.(n) = doc_tag then
      (* already fully reported for this document: no run needed *)
      below
    else if below then begin
      (* a longer expression below matched: covered, no run needed *)
      Pf_obs.Counter.add t.m.cover_skips (List.length sids);
      report t n ~sticky ~doc_tag ~on_match;
      true
    end
    else begin
      let a = t.arena in
      for d = t.filled to depth do
        ignore (fill_row a res d t.pid.(t.stack.(d)) : bool)
      done;
      t.filled <- depth + 1;
      note_run t (depth + 1);
      if Occurrence.matches_to a depth then begin
        report t n ~sticky ~doc_tag ~on_match;
        true
      end
      else false
    end
  in
  if
    sticky
    && (sids = [] || t.mark.(n) = doc_tag)
    && (t.nkids.(n) = 0 || (t.ndone_tag.(n) = doc_tag && t.ndone.(n) = t.nkids.(n)))
  then begin
    t.done_tag.(n) <- doc_tag;
    let p = t.parent.(n) in
    if p >= 0 then
      if t.ndone_tag.(p) = doc_tag then t.ndone.(p) <- t.ndone.(p) + 1
      else begin
        t.ndone_tag.(p) <- doc_tag;
        t.ndone.(p) <- 1
      end
  end;
  matched

and ap_kids t res ~sticky ~doc_tag ~on_match n depth =
  let kp = t.kid_pid.(n) and kd = t.kid.(n) in
  let live = t.live and tag = t.live_tag in
  let nk = t.nkids.(n) in
  let below = ref false and hits = ref 0 in
  for i = 0 to nk - 1 do
    (* [i < nkids <= length kp], and [add] sizes [live] past every pid
       stored in the trie: this scan is the walk's inner loop *)
    if Array.unsafe_get live (Array.unsafe_get kp i) = tag then begin
      incr hits;
      let c = kd.(i) in
      if
        (not (sticky && t.done_tag.(c) = doc_tag))
        && ap_visit t res ~sticky ~doc_tag ~on_match c depth
      then below := true
    end
  done;
  (* dead access predicates: those subtrees are ruled out unvisited *)
  t.e_skips <- t.e_skips + nk - !hits;
  !below

let eval_ap t res ~sticky ~doc_tag ~on_match =
  let steps0 = Occurrence.search_steps t.arena in
  let m = Predicate_index.matched_count res in
  t.live_tag <- t.live_tag + 1;
  let live = t.live in
  for i = 0 to m - 1 do
    (* a pid beyond [live] is on no trie node *)
    let p = Predicate_index.matched_pid res i in
    if p < Array.length live then live.(p) <- t.live_tag
  done;
  let live_roots = ref 0 in
  for i = 0 to m - 1 do
    let r = root_node t (Predicate_index.matched_pid res i) in
    if r >= 0 then begin
      incr live_roots;
      if not (sticky && t.done_tag.(r) = doc_tag) then begin
        t.filled <- 0;
        ignore (ap_visit t res ~sticky ~doc_tag ~on_match r 0 : bool)
      end
    end
  done;
  (* every root whose pid did not match was ruled out without a look *)
  t.e_skips <- t.e_skips + t.n_roots - !live_roots;
  flush t ~steps0

(* Shared: propagate the set of reachable chain endings down the trie. A
   node is reachable with endings S iff a chain exists through the pids on
   the root path ending with some o2 in S; its expressions match iff S is
   non-empty. Sets are tiny (bounded by occurrence counts in one path), so
   sorted int lists suffice. *)
let eval_shared t res ~sticky ~doc_tag ~on_match =
  let rec visit n incoming =
    match Predicate_index.get_packed res t.pid.(n) with
    | [] ->
      (* same pruning rule as the access-predicate variant *)
      t.e_skips <- t.e_skips + 1
    | pairs ->
      t.e_visits <- t.e_visits + 1;
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
        if t.sids.(n) <> [] && not (sticky && t.mark.(n) = doc_tag) then
          report t n ~sticky ~doc_tag ~on_match;
        let kd = t.kid.(n) in
        for i = 0 to t.nkids.(n) - 1 do
          visit kd.(i) (Some reach)
        done
      end
  in
  let live_roots = ref 0 in
  for i = 0 to Predicate_index.matched_count res - 1 do
    let r = root_node t (Predicate_index.matched_pid res i) in
    if r >= 0 then begin
      incr live_roots;
      visit r None
    end
  done;
  t.e_skips <- t.e_skips + t.n_roots - !live_roots;
  (* no backtracking runs here: the step delta is 0 *)
  flush t ~steps0:(Occurrence.search_steps t.arena)

let eval t res ~sticky ~doc_tag ~on_match =
  match t.variant with
  | Basic -> eval_basic t res ~on_match
  | Prefix_covering -> eval_pc t res ~sticky ~doc_tag ~on_match
  | Access_predicate -> eval_ap t res ~sticky ~doc_tag ~on_match
  | Shared -> eval_shared t res ~sticky ~doc_tag ~on_match
