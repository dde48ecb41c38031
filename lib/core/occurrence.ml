(* Depth-first search over partial chains. [go i prev] asks whether
   predicates i..n-1 can be chained starting from a pair whose first
   occurrence equals [prev]. *)
let matches (rs : (int * int) list array) =
  let n = Array.length rs in
  if n = 0 then false
  else begin
    let rec go i prev =
      if i >= n then true
      else List.exists (fun (o1, o2) -> o1 = prev && go (i + 1) o2) rs.(i)
    in
    List.exists (fun (_, o2) -> go 1 o2) rs.(0)
  end

(* Literal transcription of Algorithm 1. [r'] holds the mutable candidate
   sets R'_i; [chosen.(i)] is the pair currently selected for predicate i. *)
let matches_faithful (rs : (int * int) list array) =
  let n = Array.length rs in
  if n = 0 then false
  else if Array.exists (fun r -> r = []) rs then false (* lines 2-6 *)
  else begin
    let r' = Array.make n [] in
    let chosen = Array.make n (0, 0) in
    (* line 7: R'_1 <- R_1, select one pair and delete it *)
    (match rs.(0) with
    | first :: rest ->
      chosen.(0) <- first;
      r'.(0) <- rest
    | [] -> assert false);
    let current = ref 0 (* 0-based; paper's line 1 sets current <- 1 *) in
    let step = ref 0 in
    let back = ref false in
    let result = ref None in
    while !result = None do
      if not !back then begin
        if !current = n - 1 then result := Some true (* lines 10-11 *)
        else begin
          (* line 13: current++, R'_current <- R_current(o2) *)
          let _, o2 = chosen.(!current) in
          incr current;
          step := !current;
          r'.(!current) <- List.filter (fun (o1, _) -> o1 = o2) rs.(!current)
        end
      end;
      if !result = None then begin
        match r'.(!current) with
        | pair :: rest ->
          (* lines 16-17: select a pair, remove it, go forward *)
          chosen.(!current) <- pair;
          r'.(!current) <- rest;
          back := false
        | [] ->
          (* lines 18-27: backtrack to the deepest level with candidates *)
          decr step;
          while !step >= 0 && r'.(!step) = [] do
            decr step
          done;
          if !step < 0 then result := Some false (* lines 23-24 *)
          else begin
            current := !step;
            back := true
          end
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

let iter_chains (rs : (int * int) list array) accept =
  let n = Array.length rs in
  if n = 0 then false
  else begin
    let chain = Array.make n (0, 0) in
    let rec go i prev =
      if i >= n then accept chain
      else
        List.exists
          (fun (o1, o2) ->
            o1 = prev
            &&
            (chain.(i) <- (o1, o2);
             go (i + 1) o2))
          rs.(i)
    in
    List.exists
      (fun (o1, o2) ->
        chain.(0) <- (o1, o2);
        go 1 o2)
      rs.(0)
  end

(* ------------------------------------------------------------------ *)
(* Packed candidate arena                                               *)

(* The candidate sets R_1..R_n of one run stored flat: row i (one per
   predicate) occupies data.(off.(i)) .. data.(off.(i) + len.(i) - 1),
   each entry a pair packed by [Predicate_index.pack]. The arena is a
   per-engine scratch reused across documents, so the steady state of the
   match loop allocates nothing — no pair lists, no per-document arrays.
   Rows obey a stack discipline: starting row i discards rows > i, which
   is exactly the shape of the trie descent that fills them. *)
type arena = {
  mutable data : int array;
  mutable off : int array;
  mutable len : int array;
  mutable n_rows : int;
  (* scratch buffers for the packed traversals *)
  mutable chain : int array;
  mutable cursor : int array;
  mutable constr : int array;
  mutable chosen : int array;
  mutable search_steps : int;  (* monotone DFS step counter; read as deltas *)
}

let create_arena () =
  {
    data = Array.make 64 0;
    off = Array.make 16 0;
    len = Array.make 16 0;
    n_rows = 0;
    chain = [||];
    cursor = [||];
    constr = [||];
    chosen = [||];
    search_steps = 0;
  }

let clear a = a.n_rows <- 0

let rows a = a.n_rows

let row_len a i = a.len.(i)

let start_row a i =
  if i > a.n_rows then invalid_arg "Occurrence.start_row: row out of sequence";
  if i >= Array.length a.off then begin
    let cap = 2 * (i + 1) in
    let off = Array.make cap 0 and len = Array.make cap 0 in
    Array.blit a.off 0 off 0 (Array.length a.off);
    Array.blit a.len 0 len 0 (Array.length a.len);
    a.off <- off;
    a.len <- len
  end;
  a.off.(i) <- (if i = 0 then 0 else a.off.(i - 1) + a.len.(i - 1));
  a.len.(i) <- 0;
  a.n_rows <- i + 1

let push a packed =
  let r = a.n_rows - 1 in
  let pos = a.off.(r) + a.len.(r) in
  if pos >= Array.length a.data then begin
    let bigger = Array.make (2 * Array.length a.data) 0 in
    Array.blit a.data 0 bigger 0 (Array.length a.data);
    a.data <- bigger
  end;
  a.data.(pos) <- packed;
  a.len.(r) <- a.len.(r) + 1

(* Append a whole candidate chain from a {!Predicate_index} cell store
   (cell [c] holds its packed pair at [cells.(2c)] and the previous cell's
   index at [cells.(2c+1)]; a negative index ends the chain). A direct loop rather than
   [Predicate_index.iter_pairs (push a)]: the partial application would
   allocate a closure per row, and filling rows is the innermost loop of
   every engine's fast path. *)
let rec push_chain a cells c =
  if c >= 0 then begin
    push a (Array.unsafe_get cells (2 * c));
    push_chain a cells (Array.unsafe_get cells ((2 * c) + 1))
  end

let load a (rs : (int * int) list array) =
  clear a;
  Array.iteri
    (fun i r ->
      start_row a i;
      List.iter (fun (o1, o2) -> push a (Predicate_index.pack o1 o2)) r)
    rs

(* The DFS is split into top-level mutually recursive functions (state
   threaded through the arena and explicit parameters) rather than local
   closures over [data]/[off]/[len]: a local [let rec] would allocate its
   closure and a step-counter ref on every call, and this runs once per
   candidate expression per publication. Steps accumulate monotonically
   in [a.search_steps]; callers read deltas. *)
let rec search a depth i prev =
  a.search_steps <- a.search_steps + 1;
  i > depth
  ||
  let o = a.off.(i) and l = a.len.(i) in
  search_scan a depth i prev o l 0

and search_scan a depth i prev o l k =
  k < l
  && ((let p = Array.unsafe_get a.data (o + k) in
       Predicate_index.packed_first p = prev
       && search a depth (i + 1) (Predicate_index.packed_second p))
     || search_scan a depth i prev o l (k + 1))

let rec search_root a depth o l k =
  k < l
  && ((a.search_steps <- a.search_steps + 1;
       let p = Array.unsafe_get a.data (o + k) in
       search a depth 1 (Predicate_index.packed_second p))
     || search_root a depth o l (k + 1))

let search_steps a = a.search_steps

let matches_to ?steps a depth =
  let s0 = a.search_steps in
  let r = depth >= 0 && search_root a depth a.off.(0) a.len.(0) 0 in
  (match steps with Some s -> s := !s + (a.search_steps - s0) | None -> ());
  r

let matches_packed ?steps a = a.n_rows > 0 && matches_to ?steps a (a.n_rows - 1)

let iter_chains_packed a accept =
  let n = a.n_rows in
  if n = 0 then false
  else begin
    if Array.length a.chain < n then a.chain <- Array.make (max 16 (2 * n)) 0;
    let chain = a.chain in
    let data = a.data and off = a.off and len = a.len in
    let rec go i prev =
      if i >= n then accept chain n
      else
        let o = off.(i) and l = len.(i) in
        let rec scan k =
          k < l
          && ((let p = data.(o + k) in
               Predicate_index.packed_first p = prev
               && (chain.(i) <- p;
                   go (i + 1) (Predicate_index.packed_second p)))
             || scan (k + 1))
        in
        scan 0
    in
    let o = off.(0) and l = len.(0) in
    let rec scan k =
      k < l
      && ((let p = data.(o + k) in
           chain.(0) <- p;
           go 1 (Predicate_index.packed_second p))
         || scan (k + 1))
    in
    scan 0
  end

(* Algorithm 1 over the packed arena. The mutable candidate sets R'_i are
   represented without allocation: row i's remaining candidates are the
   entries at index >= cursor.(i) whose first occurrence equals
   constr.(i) (row 0 is unconstrained). Selection scans forward from the
   cursor — the same visit order as filtering the list and taking its
   head, so this is step-for-step the list-based [matches_faithful]. *)
let matches_faithful_packed a =
  let n = a.n_rows in
  if n = 0 then false
  else begin
    let some_empty = ref false in
    for i = 0 to n - 1 do
      if a.len.(i) = 0 then some_empty := true
    done;
    if !some_empty then false (* lines 2-6 *)
    else begin
      if Array.length a.cursor < n then begin
        let cap = max 16 (2 * n) in
        a.cursor <- Array.make cap 0;
        a.constr <- Array.make cap 0;
        a.chosen <- Array.make cap 0
      end;
      let data = a.data and off = a.off and len = a.len in
      let cursor = a.cursor and constr = a.constr and chosen = a.chosen in
      (* select-and-delete the next candidate of row i; -1 if none *)
      let select i =
        let c = constr.(i) and o = off.(i) and l = len.(i) in
        let rec scan k =
          if k >= l then -1
          else
            let p = data.(o + k) in
            if i = 0 || Predicate_index.packed_first p = c then begin
              cursor.(i) <- k + 1;
              p
            end
            else scan (k + 1)
        in
        scan cursor.(i)
      in
      (* is R'_i non-empty? (peek without consuming) *)
      let has_candidates i =
        let c = constr.(i) and o = off.(i) and l = len.(i) in
        let rec scan k =
          k < l
          && (i = 0 || Predicate_index.packed_first data.(o + k) = c || scan (k + 1))
        in
        scan cursor.(i)
      in
      (* line 7: R'_1 <- R_1, select one pair and delete it *)
      cursor.(0) <- 0;
      chosen.(0) <- select 0;
      let current = ref 0 in
      let step = ref 0 in
      let back = ref false in
      let result = ref None in
      while !result = None do
        if not !back then begin
          if !current = n - 1 then result := Some true (* lines 10-11 *)
          else begin
            (* line 13: current++, R'_current <- R_current(o2) *)
            let o2 = Predicate_index.packed_second chosen.(!current) in
            incr current;
            step := !current;
            constr.(!current) <- o2;
            cursor.(!current) <- 0
          end
        end;
        if !result = None then begin
          let p = select !current in
          if p >= 0 then begin
            (* lines 16-17: select a pair, remove it, go forward *)
            chosen.(!current) <- p;
            back := false
          end
          else begin
            (* lines 18-27: backtrack to the deepest level with candidates *)
            decr step;
            while !step >= 0 && not (has_candidates !step) do
              decr step
            done;
            if !step < 0 then result := Some false (* lines 23-24 *)
            else begin
              current := !step;
              back := true
            end
          end
        end
      done;
      match !result with Some r -> r | None -> assert false
    end
  end
