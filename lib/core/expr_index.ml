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
   [walks] counts evaluations; [chain_len] observes the predicate chain
   length of each occurrence determination run. *)
type metrics = {
  runs : Pf_obs.Counter.t;
  steps : Pf_obs.Counter.t;
  cover_skips : Pf_obs.Counter.t;
  access_skips : Pf_obs.Counter.t;
  visits : Pf_obs.Counter.t;
  walks : Pf_obs.Counter.t;
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
        ~help:"expression-trie nodes entered; a walk enters a node at most once";
    walks =
      Pf_obs.Counter.make ?registry "expr_walks"
        ~help:"expression-stage walks, one per chunk of a document's paths";
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
      (* tag of the last sid report: a document has many paths, and once
         a node's sids are reported they are not re-reported or
         re-evaluated under the same tag *)
  mutable covered : int array;  (* prefix-covering mark, per eval pass *)
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
  (* access-predicate walk scratch: [pmask.(pid)] is the mask of the
     chunk's paths [pid] matched on, 0 outside a walk (copied once per
     walk from the predicate stage's matched pids, so the child scan is a
     local array read rather than a call into Predicate_index);
     [stack.(d)] is the node entered at depth [d], and arena rows
     [0 .. filled-1] hold the pairs of [stack.(0 .. filled-1)] on path
     [fill_path] *)
  mutable pmask : int array;
  mutable stack : int array;
  mutable filled : int;
  mutable fill_path : int;
  m : metrics;
}

(* A tag no document carries: fresh nodes are not marked. *)
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
    pmask = [||];
    stack = Array.make 16 0;
    filled = 0;
    fill_path = 0;
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
    if top >= Array.length t.pmask then
      t.pmask <- grow t.pmask (max (top + 1) (2 * Array.length t.pmask)) 0;
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
    (* a node reported under the current tag reports again, new sid
       included *)
    t.mark.(n) <- never

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

(* Fill arena row [i] with pid's pairs on path [j] of the chunk; true iff
   non-empty. The copy into contiguous memory is what the backtracking
   search — which revisits rows repeatedly — then runs over. *)
let fill_row a res i pid j =
  Occurrence.start_row a i;
  Occurrence.push_chain a (Predicate_index.cells res) (Predicate_index.head_on res pid j);
  Occurrence.row_len a i > 0

(* One occurrence determination run is about to happen over a chain of
   [len] predicates. *)
let note_run t len =
  Pf_obs.Counter.incr t.m.runs;
  Pf_obs.Histogram.observe t.m.chain_len len

let report t n ~doc_tag ~on_match =
  t.mark.(n) <- doc_tag;
  List.iter on_match t.sids.(n)

(* Flush the per-eval scratch counts. *)
let flush t ~steps0 =
  Pf_obs.Counter.incr t.m.walks;
  Pf_obs.Counter.add t.m.steps (Occurrence.search_steps t.arena - steps0);
  Pf_obs.Counter.add t.m.visits t.e_visits;
  Pf_obs.Counter.add t.m.access_skips t.e_skips;
  t.e_visits <- 0;
  t.e_skips <- 0

(* Basic: every expression whose predicates all matched on a path gets a
   run there; the chunk's paths are tried in order until one matches. *)
let eval_basic t res ~on_match =
  let a = t.arena in
  (* backtracking steps: the arena's monotone counter, flushed as a delta
     once per pass (a [~steps] ref would allocate a [Some] per run) *)
  let steps0 = Occurrence.search_steps a in
  let paths = Predicate_index.chunk_paths res in
  Vec.iter
    (fun (sid, pids) ->
      let n = Array.length pids in
      let rec on_path j =
        j < paths
        && begin
             Occurrence.clear a;
             (* fetch each predicate's results; stop at the first empty one *)
             let rec fetch i = i >= n || (fill_row a res i pids.(i) j && fetch (i + 1)) in
             (fetch 0
             && begin
                  note_run t n;
                  Occurrence.matches_packed a
                end)
             || on_path (j + 1)
           end
      in
      if n > 0 && on_path 0 then on_match sid)
    t.flat;
  flush t ~steps0

(* Prefix covering (without access predicates), one pass per path of the
   chunk. Sid-bearing trie nodes are evaluated longest-first (by
   descending depth): each gets the flat algorithm's treatment — check its
   own predicate chain for dead results leaf-to-root, fill the arena
   root-to-leaf, then one occurrence determination run — but a match
   marks every ancestor node covered, so prefix expressions (and all
   duplicates, which share the node) are reported without evaluation.
   Unlike the access-predicate variant, a dead predicate does not rule
   out anything beyond the one expression being checked. *)
let rec pc_alive t res j n =
  n < 0 || (Predicate_index.matched_on res t.pid.(n) j && pc_alive t res j t.parent.(n))

let rec pc_fill t res j n =
  n < 0 || (pc_fill t res j t.parent.(n) && fill_row t.arena res t.depth.(n) t.pid.(n) j)

let rec pc_cover t epoch n =
  if n >= 0 && t.covered.(n) <> epoch then begin
    t.covered.(n) <- epoch;
    pc_cover t epoch t.parent.(n)
  end

let pc_pass t res j ~doc_tag ~on_match =
  t.pc_epoch <- t.pc_epoch + 1;
  let epoch = t.pc_epoch in
  let a = t.arena in
  for depth = Vec.length t.by_depth - 1 downto 0 do
    let bucket = Vec.get t.by_depth depth in
    for i = 0 to Vec.length bucket - 1 do
      let n = Vec.get bucket i in
      if t.sids.(n) <> [] && t.mark.(n) <> doc_tag then begin
        t.e_visits <- t.e_visits + 1;
        if t.covered.(n) = epoch then begin
          Pf_obs.Counter.add t.m.cover_skips (List.length t.sids.(n));
          report t n ~doc_tag ~on_match
        end
        else if
          pc_alive t res j n
          && begin
               Occurrence.clear a;
               ignore (pc_fill t res j n : bool);
               note_run t (depth + 1);
               Occurrence.matches_to a depth
             end
        then begin
          report t n ~doc_tag ~on_match;
          t.covered.(n) <- epoch;
          pc_cover t epoch t.parent.(n)
        end
      end
    done
  done

let eval_pc t res ~doc_tag ~on_match =
  let steps0 = Occurrence.search_steps t.arena in
  for j = 0 to Predicate_index.chunk_paths res - 1 do
    pc_pass t res j ~doc_tag ~on_match
  done;
  flush t ~steps0

(* Access predicates on top of prefix covering, over a chunk of a
   document's paths at once. A subtree whose entry predicate matched on
   none of the chunk's paths is ruled out without visiting it (at the
   root this is the paper's clustering by first predicate; applying it at
   every node generalizes the same rule recursively). The walk starts
   from the pids the chunk matched, each looked up in [root_of], so
   unmatched roots cost nothing, and it carries the mask of the paths on
   which every pid of the node's root path matched: a child is entered
   iff its pid's mask intersects it, so each node is entered at most once
   per chunk, however many of its paths reach it.

   A node with unreported sids is covered when anything below it matched,
   on any path: a match on path j implies its prefix matches on path j,
   and sids are reported once per [doc_tag], not per path. Otherwise it
   gets Algorithm 1 runs, one per path in its mask, lowest first, until
   one matches. Arena rows are filled lazily: entering a node only
   records it on [stack], and a run fills the rows its ancestors have not
   filled yet for its path, so nodes passed through on the way to a
   covering match fetch nothing, and a run reuses every row an earlier
   run on the same root path and path filled. A node already reported
   under [doc_tag] passes up only what lies below it.

   The recursion is written as top-level functions taking everything as
   arguments rather than closures: the visit runs once per entered node
   per chunk, and the whole evaluation allocates nothing. *)
let rec ap_visit t res ~doc_tag ~on_match n depth m =
  t.e_visits <- t.e_visits + 1;
  if depth >= Array.length t.stack then t.stack <- grow t.stack (2 * depth) 0;
  t.stack.(depth) <- n;
  if t.filled > depth then t.filled <- depth;
  let below = ap_kids t res ~doc_tag ~on_match n (depth + 1) m in
  let sids = t.sids.(n) in
  if sids = [] || t.mark.(n) = doc_tag then below
  else if below then begin
    (* a longer expression below matched: covered, no run needed *)
    Pf_obs.Counter.add t.m.cover_skips (List.length sids);
    report t n ~doc_tag ~on_match;
    true
  end
  else ap_run t res ~doc_tag ~on_match n depth m 0

and ap_kids t res ~doc_tag ~on_match n depth m =
  let kp = t.kid_pid.(n) and kd = t.kid.(n) in
  let pmask = t.pmask in
  let nk = t.nkids.(n) in
  let below = ref false and hits = ref 0 in
  for i = 0 to nk - 1 do
    (* [i < nkids <= length kp], and [add] sizes [pmask] past every pid
       stored in the trie: this scan is the walk's inner loop *)
    let mc = m land Array.unsafe_get pmask (Array.unsafe_get kp i) in
    if mc <> 0 then begin
      incr hits;
      if ap_visit t res ~doc_tag ~on_match kd.(i) depth mc then below := true
    end
  done;
  (* dead access predicates: those subtrees are ruled out unvisited *)
  t.e_skips <- t.e_skips + nk - !hits;
  !below

(* Algorithm 1 at node [n] on the paths of [m] from path [j] up. *)
and ap_run t res ~doc_tag ~on_match n depth m j =
  if m lsr j = 0 then false
  else if (m lsr j) land 1 = 0 then ap_run t res ~doc_tag ~on_match n depth m (j + 1)
  else begin
    if t.fill_path <> j then begin
      t.fill_path <- j;
      t.filled <- 0
    end;
    let a = t.arena in
    for d = t.filled to depth do
      ignore (fill_row a res d t.pid.(t.stack.(d)) j : bool)
    done;
    t.filled <- depth + 1;
    note_run t (depth + 1);
    if Occurrence.matches_to a depth then begin
      report t n ~doc_tag ~on_match;
      true
    end
    else ap_run t res ~doc_tag ~on_match n depth m (j + 1)
  end

let eval_ap t res ~doc_tag ~on_match =
  let steps0 = Occurrence.search_steps t.arena in
  let m = Predicate_index.chunk_matched_count res in
  let pmask = t.pmask in
  for i = 0 to m - 1 do
    (* a pid beyond [pmask] is on no trie node *)
    let p = Predicate_index.chunk_matched_pid res i in
    if p < Array.length pmask then pmask.(p) <- Predicate_index.path_mask res p
  done;
  let live_roots = ref 0 in
  for i = 0 to m - 1 do
    let p = Predicate_index.chunk_matched_pid res i in
    let r = root_node t p in
    if r >= 0 then begin
      incr live_roots;
      t.filled <- 0;
      ignore (ap_visit t res ~doc_tag ~on_match r 0 pmask.(p) : bool)
    end
  done;
  for i = 0 to m - 1 do
    let p = Predicate_index.chunk_matched_pid res i in
    if p < Array.length pmask then pmask.(p) <- 0
  done;
  (* every root whose pid matched on no path was ruled out without a look *)
  t.e_skips <- t.e_skips + t.n_roots - !live_roots;
  flush t ~steps0

(* Shared: propagate the set of reachable chain endings down the trie,
   one pass per path of the chunk. A node is reachable with endings S iff
   a chain exists through the pids on the root path ending with some o2
   in S; its expressions match iff S is non-empty. Sets are tiny (bounded
   by occurrence counts in one path), so sorted int lists suffice. *)
let shared_pass t res j ~doc_tag ~on_match =
  let rec visit n incoming =
    match Predicate_index.get_packed_on res t.pid.(n) j with
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
        if t.sids.(n) <> [] && t.mark.(n) <> doc_tag then report t n ~doc_tag ~on_match;
        let kd = t.kid.(n) in
        for i = 0 to t.nkids.(n) - 1 do
          visit kd.(i) (Some reach)
        done
      end
  in
  let live_roots = ref 0 in
  for i = 0 to Predicate_index.chunk_matched_count res - 1 do
    let p = Predicate_index.chunk_matched_pid res i in
    let r = root_node t p in
    if r >= 0 && Predicate_index.matched_on res p j then begin
      incr live_roots;
      visit r None
    end
  done;
  t.e_skips <- t.e_skips + t.n_roots - !live_roots

let eval_shared t res ~doc_tag ~on_match =
  for j = 0 to Predicate_index.chunk_paths res - 1 do
    shared_pass t res j ~doc_tag ~on_match
  done;
  (* no backtracking runs here: the step delta is 0 *)
  flush t ~steps0:(Occurrence.search_steps t.arena)

let eval t res ~doc_tag ~on_match =
  match t.variant with
  | Basic -> eval_basic t res ~on_match
  | Prefix_covering -> eval_pc t res ~doc_tag ~on_match
  | Access_predicate -> eval_ap t res ~doc_tag ~on_match
  | Shared -> eval_shared t res ~doc_tag ~on_match
