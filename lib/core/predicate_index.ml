type pid = int

(* Stage counters, typically registered in the owning engine's registry:
   [probes] counts candidate predicate inspections (pids a run actually
   visits), [hits] the occurrence pairs recorded, and [residual] the
   constrained pids left on the scanned slices at the last rebuild. *)
type metrics = {
  probes : Pf_obs.Counter.t;
  hits : Pf_obs.Counter.t;
  residual : Pf_obs.Gauge.t;
}

let make_metrics ?registry () =
  {
    probes =
      Pf_obs.Counter.make ?registry "predicate_probes"
        ~help:"candidate predicates inspected during predicate matching";
    hits =
      Pf_obs.Counter.make ?registry "predicate_hits"
        ~help:"occurrence pairs recorded during predicate matching";
    residual =
      (* Max: document-replicated workers hold identical predicate tables *)
      Pf_obs.Gauge.make ?registry "predicate_residual_constrained"
        ~merge:Pf_obs.Gauge.Max
        ~help:
          "constrained predicates scanned per slot because no integer =, <, <=, > \
           or >= constraint anchors them (!= or string constraints only)";
  }

let src = Pf_obs.Events.src "predicate_index" ~doc:"Predicate index interning"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Storage layout

   The index keeps two representations. The build side records, per pid,
   which of six logical tables the predicate belongs to plus its key
   symbols, value and attribute anchor — cheap to append to, never read
   while matching. The match side is a flat image of contiguous int arrays
   rebuilt lazily (once per subscription change, not per document): per
   table a CSR layout of key rows over dense value columns over one shared
   pid arena, plus per-column attribute groups for the anchored pids, so
   the inner match loop is sequential array walks and binary searches with
   no boxing, no hashing and no closures. *)

(* Logical tables. Every predicate lives in exactly one. *)
let tab_abs_eq = 0 (* Absolute, op = Eq; key = tag symbol *)
let tab_abs_ge = 1 (* Absolute, op = Ge *)
let tab_eop = 2 (* End_of_path (always >=); key = tag symbol *)
let tab_rel_eq = 3 (* Relative, op = Eq; key = dense (first,second) pair id *)
let tab_rel_ge = 4 (* Relative, op = Ge *)
let tab_length = 5 (* Length (always >=); single key 0 *)

(* Attribute anchors. A constrained pid with an integer-valued =, >=, <=,
   > or < constraint is anchored on one of them — an = constraint if it
   has one, on the first tag variable before the second — and leaves the
   scanned pid arena for an attribute group of its column. A group gathers
   the anchored pids of one column that share (attribute id, variable
   side, comparison), sorted by threshold, so the pids whose anchor holds
   for a tuple value m are one binary-searched run:

     =   thresholds equal to m            (the equal run)
     >=  thresholds <= m, > thresholds < m  (a prefix)
     <=  thresholds >= m, < thresholds > m  (a suffix)

   A group key packs (attribute id lsl 4) lor (side lsl 3) lor comparison
   code. [!=] and string-valued constraints never anchor: such pids stay on
   the scanned slices behind the constraint bitmap. *)
let cmp_eq = 0
let cmp_ge = 1
let cmp_gt = 2
let cmp_le = 3
let cmp_lt = 4

type anchor = {
  a_attr : string;
  a_side : int; (* 0: first tag variable, 1: second (relative only) *)
  a_cmp : int;
  a_thr : int;
  a_extra : bool; (* constraints beyond the anchor: run the full check *)
}

let anchor_code : Pf_xpath.Ast.comparison -> int = function
  | Eq -> cmp_eq
  | Ge -> cmp_ge
  | Gt -> cmp_gt
  | Le -> cmp_le
  | Lt -> cmp_lt
  | Ne -> -1

let anchor_of p =
  let c1, c2 = Predicate.constraints_of p in
  (* one-variable predicates carry their single constraint list twice *)
  let c2 = match p with Predicate.Relative _ -> c2 | _ -> [] in
  let extra = List.length c1 + List.length c2 > 1 in
  let pick side eq cs =
    List.find_map
      (fun { Predicate.attr; cmp; value } ->
        let code = anchor_code cmp in
        match value with
        | Pf_xpath.Ast.Int v when code >= 0 && (code = cmp_eq) = eq ->
          Some { a_attr = attr; a_side = side; a_cmp = code; a_thr = v; a_extra = extra }
        | Pf_xpath.Ast.Int _ | Pf_xpath.Ast.Str _ -> None)
      cs
  in
  List.find_map
    (fun (side, eq, cs) -> pick side eq cs)
    [ 0, true, c1; 1, true, c2; 0, false, c1; 1, false, c2 ]

(* One flattened table. [rows.(k)] is the first column of key [k]: row [k]
   spans columns [rows.(k) .. rows.(k+1)-1] and column [rows.(k) + v]
   holds exactly the unanchored pids stored under value [v] (dense value
   columns, so an Eq probe is a bounds check plus one contiguous slice).
   [starts] is globally cumulative over the columns, and columns of one
   row are consecutive in value order — a Ge probe over values [1..stop]
   is therefore the single slice
   [starts.(rows.(k)+1) .. starts.(rows.(k)+stop+1)] of [tpids]. The
   anchored pids of column [c] form groups [gcols.(c) .. gcols.(c+1)-1],
   laid out with the same cumulative convention, so a Ge probe's groups
   are one contiguous group range too. Group [g] holds thresholds
   [gthr.(gstarts.(g) .. gstarts.(g+1)-1)] ascending, with their pids at
   the same slots of [gpids]. *)
type table = {
  rows : int array; (* key -> first column; length nkeys+1 *)
  starts : int array; (* column -> first slot of tpids; length ncols+1 *)
  tpids : int array; (* flat pid arena, column-major *)
  gcols : int array; (* column -> first group; length ncols+1 *)
  gkeys : int array; (* group -> packed (attribute id, side, comparison) *)
  gstarts : int array; (* group -> first slot of gthr/gpids; length ngroups+1 *)
  gthr : int array;
  gpids : int array;
}

type flat = {
  nsym : int; (* symbol bound shared by every symbol-indexed array *)
  abs_eq : table;
  abs_ge : table;
  eop : table;
  rel_eq : table;
  rel_ge : table;
  len_tab : table;
  rel_row : int array;
      (* first symbol -> dense row index among relative predicates, -1 if
         no relative predicate names it; length nsym *)
  rel_pair : int array;
      (* row-major [row * nsym + second symbol] -> dense pair id, -1;
         replaces the per-symbol hashtable probe of the O(n^2) tuple-pair
         loop with one array read *)
  cmask : int array;
      (* packed per-pid constraint bitmap (32 bits per element): bit set
         iff the pid carries attribute constraints, so the unconstrained
         common case never touches the cons1/cons2 vectors *)
  xmask : int array;
      (* same layout: bit set iff an anchored pid carries constraints
         beyond its anchor and still needs the full check *)
  nattr : int; (* distinct anchor attribute names, with ids 0 .. nattr-1 *)
  anames : string array;
      (* open-addressing name table (power-of-two size): slot -> name,
         valid iff [aids] of the slot is >= 0 *)
  aids : int array;
}

let empty_table =
  {
    rows = [| 0; 0 |];
    starts = [| 0 |];
    tpids = [||];
    gcols = [| 0 |];
    gkeys = [||];
    gstarts = [| 0 |];
    gthr = [||];
    gpids = [||];
  }

let empty_flat =
  {
    nsym = 0;
    abs_eq = empty_table;
    abs_ge = empty_table;
    eop = empty_table;
    rel_eq = empty_table;
    rel_ge = empty_table;
    len_tab = empty_table;
    rel_row = [||];
    rel_pair = [||];
    cmask = [||];
    xmask = [||];
    nattr = 0;
    anames = [| "" |];
    aids = [| -1 |];
  }

module Ptbl = Hashtbl.Make (struct
  type t = Predicate.t

  let equal = Predicate.equal
  let hash = Predicate.hash
end)

type t = {
  preds : Predicate.t Vec.t; (* pid -> predicate *)
  cons1 : Predicate.attr_constraint list Vec.t; (* pid -> first-var constraints *)
  cons2 : Predicate.attr_constraint list Vec.t;
  by_pred : pid Ptbl.t; (* structural dedup at intern time *)
  ptab : int Vec.t; (* pid -> logical table *)
  psym1 : int Vec.t; (* pid -> first key symbol (0 for Length) *)
  psym2 : int Vec.t; (* pid -> second key symbol (relative only) *)
  pval : int Vec.t; (* pid -> predicate value *)
  panchor : anchor option Vec.t; (* pid -> attribute anchor *)
  mutable dirty : bool; (* a new predicate invalidated the flat image *)
  mutable flat : flat;
  m : metrics;
}

let create ?metrics () =
  {
    preds = Vec.create ~dummy:(Predicate.Length { v = 0 }) ();
    cons1 = Vec.create ~dummy:[] ();
    cons2 = Vec.create ~dummy:[] ();
    by_pred = Ptbl.create 256;
    ptab = Vec.create ~dummy:0 ();
    psym1 = Vec.create ~dummy:0 ();
    psym2 = Vec.create ~dummy:0 ();
    pval = Vec.create ~dummy:0 ();
    panchor = Vec.create ~dummy:None ();
    (* dirty so the first run builds the (empty) flat image too *)
    dirty = true;
    flat = empty_flat;
    m = (match metrics with Some m -> m | None -> make_metrics ());
  }

let predicate t pid = Vec.get t.preds pid

let size t = Vec.length t.preds

let find t p = Ptbl.find_opt t.by_pred p

let intern t p =
  match Ptbl.find_opt t.by_pred p with
  | Some pid -> pid
  | None ->
    let pid = Vec.push t.preds p in
    Ptbl.add t.by_pred p pid;
    let c1, c2 = Predicate.constraints_of p in
    let (_ : int) = Vec.push t.cons1 c1 in
    let (_ : int) = Vec.push t.cons2 c2 in
    (* tag names are interned here, at expression-compile time; the match
       loop below only ever sees symbols *)
    let tab, s1, s2, v =
      match p with
      | Predicate.Absolute { tag; op = Predicate.Eq; v } ->
        tab_abs_eq, Symbol.intern tag.name, 0, v
      | Predicate.Absolute { tag; op = Predicate.Ge; v } ->
        tab_abs_ge, Symbol.intern tag.name, 0, v
      | Predicate.End_of_path { tag; v } -> tab_eop, Symbol.intern tag.name, 0, v
      | Predicate.Relative { first; second; op; v } ->
        ( (match op with Predicate.Eq -> tab_rel_eq | Predicate.Ge -> tab_rel_ge),
          Symbol.intern first.name,
          Symbol.intern second.name,
          v )
      | Predicate.Length { v } -> tab_length, 0, 0, v
    in
    let (_ : int) = Vec.push t.ptab tab in
    let (_ : int) = Vec.push t.psym1 s1 in
    let (_ : int) = Vec.push t.psym2 s2 in
    let (_ : int) = Vec.push t.pval v in
    let (_ : int) = Vec.push t.panchor (anchor_of p) in
    t.dirty <- true;
    Log.debug (fun m -> m "interned pid %d: %a" pid Predicate.pp p);
    pid

(* ------------------------------------------------------------------ *)
(* Flat-image construction (cold path: once per subscription change) *)

let is_rel tab = tab = tab_rel_eq || tab = tab_rel_ge

(* Open-addressing lookup of an attribute name's dense id, -1 if no
   anchor names it. Allocation-free: the match loop resolves every tuple
   attribute through it. *)
let rec probe_attr anames aids mask name h =
  let id = Array.unsafe_get aids h in
  if id < 0 then -1
  else if String.equal (Array.unsafe_get anames h) name then id
  else probe_attr anames aids mask name ((h + 1) land mask)

let attr_id fl name =
  let mask = Array.length fl.aids - 1 in
  probe_attr fl.anames fl.aids mask name (Hashtbl.hash name land mask)

let rebuild t =
  let n = Vec.length t.preds in
  let nsym = ref 0 in
  for pid = 0 to n - 1 do
    if Vec.get t.ptab pid <> tab_length then begin
      nsym := max !nsym (Vec.get t.psym1 pid + 1);
      nsym := max !nsym (Vec.get t.psym2 pid + 1)
    end
  done;
  let nsym = !nsym in
  (* dense rows for the first symbols of relative predicates, then dense
     pair ids for their (first, second) combinations *)
  let rel_row = Array.make (max nsym 1) (-1) in
  let nrows = ref 0 in
  for pid = 0 to n - 1 do
    if is_rel (Vec.get t.ptab pid) then begin
      let s1 = Vec.get t.psym1 pid in
      if rel_row.(s1) < 0 then begin
        rel_row.(s1) <- !nrows;
        incr nrows
      end
    end
  done;
  let rel_pair = Array.make (max 1 (!nrows * nsym)) (-1) in
  let npairs = ref 0 in
  for pid = 0 to n - 1 do
    if is_rel (Vec.get t.ptab pid) then begin
      let cell = (rel_row.(Vec.get t.psym1 pid) * nsym) + Vec.get t.psym2 pid in
      if rel_pair.(cell) < 0 then begin
        rel_pair.(cell) <- !npairs;
        incr npairs
      end
    end
  done;
  let npairs = !npairs in
  let key_of pid =
    let tab = Vec.get t.ptab pid in
    if tab = tab_length then 0
    else if is_rel tab then
      rel_pair.((rel_row.(Vec.get t.psym1 pid) * nsym) + Vec.get t.psym2 pid)
    else Vec.get t.psym1 pid
  in
  (* dense attribute ids for the anchor names, in pid order, then each
     anchored pid's group key and threshold ([gkey_of] -1: unanchored) *)
  let ids = Hashtbl.create 16 in
  let gkey_of = Array.make (max 1 n) (-1) and thr_of = Array.make (max 1 n) 0 in
  for pid = 0 to n - 1 do
    match Vec.get t.panchor pid with
    | None -> ()
    | Some a ->
      let id =
        match Hashtbl.find_opt ids a.a_attr with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids a.a_attr id;
          id
      in
      gkey_of.(pid) <- (id lsl 4) lor (a.a_side lsl 3) lor a.a_cmp;
      thr_of.(pid) <- a.a_thr
  done;
  let nattr = Hashtbl.length ids in
  let slots = ref 8 in
  while !slots < 2 * nattr do
    slots := 2 * !slots
  done;
  let anames = Array.make !slots "" and aids = Array.make !slots (-1) in
  Hashtbl.iter
    (fun name id ->
      let mask = !slots - 1 in
      let h = ref (Hashtbl.hash name land mask) in
      while aids.(!h) >= 0 do
        h := (!h + 1) land mask
      done;
      anames.(!h) <- name;
      aids.(!h) <- id)
    ids;
  (* within a column: group key, then threshold, then pid *)
  let by_group a b =
    let c = Int.compare gkey_of.(a) gkey_of.(b) in
    if c <> 0 then c
    else
      let c = Int.compare thr_of.(a) thr_of.(b) in
      if c <> 0 then c else Int.compare a b
  in
  (* counting sort of one table's pids into its CSR image: unanchored
     pids into the scanned slices, anchored ones by column into groups *)
  let build tab nkeys =
    let width = Array.make (max 1 nkeys) 0 in
    for pid = 0 to n - 1 do
      if Vec.get t.ptab pid = tab then begin
        let k = key_of pid in
        width.(k) <- max width.(k) (Vec.get t.pval pid + 1)
      end
    done;
    let rows = Array.make (nkeys + 1) 0 in
    for k = 0 to nkeys - 1 do
      rows.(k + 1) <- rows.(k) + width.(k)
    done;
    let ncols = rows.(nkeys) in
    let starts = Array.make (ncols + 1) 0 in
    let astarts = Array.make (ncols + 1) 0 in
    for pid = 0 to n - 1 do
      if Vec.get t.ptab pid = tab then begin
        let col = rows.(key_of pid) + Vec.get t.pval pid in
        let counts = if gkey_of.(pid) < 0 then starts else astarts in
        counts.(col + 1) <- counts.(col + 1) + 1
      end
    done;
    for c = 0 to ncols - 1 do
      starts.(c + 1) <- starts.(c) + starts.(c + 1);
      astarts.(c + 1) <- astarts.(c) + astarts.(c + 1)
    done;
    let tpids = Array.make (max 1 starts.(ncols)) 0 in
    let gpids = Array.make astarts.(ncols) 0 in
    let cursor = Array.copy starts and acursor = Array.copy astarts in
    for pid = 0 to n - 1 do
      if Vec.get t.ptab pid = tab then begin
        let col = rows.(key_of pid) + Vec.get t.pval pid in
        if gkey_of.(pid) < 0 then begin
          tpids.(cursor.(col)) <- pid;
          cursor.(col) <- cursor.(col) + 1
        end
        else begin
          gpids.(acursor.(col)) <- pid;
          acursor.(col) <- acursor.(col) + 1
        end
      end
    done;
    (* sort each column's anchored pids, then cut them into groups at
       every change of group key *)
    let gcols = Array.make (ncols + 1) 0 in
    let gkeys = Vec.create ~dummy:0 () and gstarts = Vec.create ~dummy:0 () in
    for c = 0 to ncols - 1 do
      let lo = astarts.(c) and len = astarts.(c + 1) - astarts.(c) in
      if len > 1 then begin
        let seg = Array.sub gpids lo len in
        Array.sort by_group seg;
        Array.blit seg 0 gpids lo len
      end;
      gcols.(c) <- Vec.length gkeys;
      for s = lo to lo + len - 1 do
        let k = gkey_of.(gpids.(s)) in
        if s = lo || k <> gkey_of.(gpids.(s - 1)) then begin
          let (_ : int) = Vec.push gkeys k in
          let (_ : int) = Vec.push gstarts s in
          ()
        end
      done
    done;
    gcols.(ncols) <- Vec.length gkeys;
    let (_ : int) = Vec.push gstarts astarts.(ncols) in
    {
      rows;
      starts;
      tpids;
      gcols;
      gkeys = Array.init (Vec.length gkeys) (Vec.get gkeys);
      gstarts = Array.init (Vec.length gstarts) (Vec.get gstarts);
      gthr = Array.map (fun pid -> thr_of.(pid)) gpids;
      gpids;
    }
  in
  let bitmap f =
    let mask = Array.make (max 1 ((n + 31) lsr 5)) 0 in
    for pid = 0 to n - 1 do
      if f pid then mask.(pid lsr 5) <- mask.(pid lsr 5) lor (1 lsl (pid land 31))
    done;
    mask
  in
  let constrained pid = Vec.get t.cons1 pid <> [] || Vec.get t.cons2 pid <> [] in
  let residual = ref 0 in
  for pid = 0 to n - 1 do
    if constrained pid && gkey_of.(pid) < 0 then incr residual
  done;
  t.flat <-
    {
      nsym;
      abs_eq = build tab_abs_eq nsym;
      abs_ge = build tab_abs_ge nsym;
      eop = build tab_eop nsym;
      rel_eq = build tab_rel_eq npairs;
      rel_ge = build tab_rel_ge npairs;
      len_tab = build tab_length 1;
      rel_row;
      rel_pair;
      cmask = bitmap constrained;
      xmask =
        bitmap (fun pid ->
            match Vec.get t.panchor pid with Some a -> a.a_extra | None -> false);
      nattr;
      anames;
      aids;
    };
  t.dirty <- false;
  Pf_obs.Gauge.set t.m.residual (float_of_int !residual);
  Log.debug (fun m ->
      m
        "rebuilt flat image: %d predicates, %d symbols, %d relative pairs, %d \
         anchor attributes, %d residual constrained"
        n nsym npairs nattr !residual)

(* ------------------------------------------------------------------ *)
(* Predicate matching                                                   *)

(* Occurrence pairs are packed into single immediate ints ((o1 << 31) | o2)
   so the chain search compares unboxed ints. Every packed pair in the
   code base goes through these three functions. 31 bits per occurrence
   covers any path a document can hold; the packed value stays well
   inside OCaml's 63-bit immediates. *)
let pair_bits = 31

let pack o1 o2 = (o1 lsl pair_bits) lor o2

let packed_first p = p lsr pair_bits
let packed_second p = p land ((1 lsl pair_bits) - 1)

(* Result pairs live in a flat cell arena reused across documents: cell [c]
   occupies slots [2c] (packed pair) and [2c+1] (link). The arena holds a
   {e chunk} of up to [chunk_capacity] paths: each path appends its cells,
   so path [j]'s cells start at [path_cell.(j)], and a pid's cells on one
   path form one chain, newest first, linked by cell index. The link of a
   chain's last (oldest) cell is negative, so every chain walk stops
   there: -1 if the pid recorded on no earlier path of the chunk, else
   [-(h + 2)] where [h] heads its chain on the previous path it recorded
   on. Cells are numbered by one counter that never restarts — the
   chunk's cells are [cell0 ..], at arena index [n - cell0] — so
   [heads.(pid)], the pid's newest cell, also says whether it recorded in
   the chunk ([>= cell0]) and on the newest path ([>= newest]).
   [mask.(pid)] holds the paths the pid recorded on. The
   arena grows with what was recorded, never with pids × paths, and
   [clear] resets it with a cursor bump, so the steady state allocates
   nothing — no cons cell per pair, no list boxing, and traversal walks
   contiguous memory. *)
type results = {
  mutable heads : int array; (* pid -> number of its newest cell *)
  mutable mask : int array; (* pid -> bit j set iff it recorded on path j (valid iff [heads >= cell0]) *)
  mutable cells : int array;
  mutable n_cells : int; (* cells used this chunk *)
  mutable cell0 : int; (* number of the chunk's first cell *)
  mutable path_cell : int array; (* path j -> index of its first cell *)
  mutable newest : int; (* number of the newest path's first cell *)
  mutable paths : int; (* paths recorded in this chunk *)
  mutable bit : int; (* [1 lsl (paths - 1)] *)
  mutable matched : int; (* pids matched this chunk *)
  mutable mpids : int array;
      (* the pids matched this chunk in first-match order: slots
         [0 .. matched-1], appended when a pid first records in it *)
  mutable r_probes : int;
      (* [run]'s scratch counters — fields rather than refs so a run
         allocates nothing; flushed to the metrics once per run *)
  mutable r_hits : int;
  (* Resolved tuple attributes of the current run: tuple [i]'s entries
     are [ra_id]/[ra_val] slots [ra_off.(i) .. ra_off.(i+1)-1], one per
     anchor attribute the tuple binds to an integer. [ra_seen.(id)] holds
     the tuple stamp that last saw attribute [id], so later bindings of a
     name are skipped (first binding wins, as in [List.assoc_opt]). *)
  mutable ra_off : int array;
  mutable ra_id : int array;
  mutable ra_val : int array;
  mutable ra_n : int;
  mutable ra_seen : int array;
  mutable ra_stamp : int;
}

(* Paths per chunk: the expression walk carries a chunk's paths as a
   bitmask in one int. 16 is the measured sweet spot (DESIGN.md 9.5). *)
let chunk_capacity = 16

let create_results () =
  {
    heads = [||];
    mask = [||];
    cells = [||];
    n_cells = 0;
    cell0 = 0;
    path_cell = Array.make chunk_capacity 0;
    newest = 0;
    paths = 0;
    bit = 0;
    matched = 0;
    mpids = [||];
    r_probes = 0;
    r_hits = 0;
    ra_off = [||];
    ra_id = [||];
    ra_val = [||];
    ra_n = 0;
    ra_seen = [||];
    ra_stamp = 0;
  }

let grow_ints a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Pid-indexed arrays grow mid-chunk when predicates are interned between
   two paths, so they keep their contents; a fresh pid's head -1 precedes
   every chunk. *)
let ensure_capacity res n =
  if Array.length res.heads < n then begin
    let cap = max n (2 * Array.length res.heads) in
    res.heads <- grow_ints res.heads cap (-1);
    res.mask <- grow_ints res.mask cap 0;
    (* a pid is appended at most once per chunk: [cap] slots suffice *)
    res.mpids <- grow_ints res.mpids cap 0
  end

let clear res =
  res.cell0 <- res.cell0 + res.n_cells;
  res.newest <- res.cell0;
  res.n_cells <- 0;
  res.paths <- 0;
  res.matched <- 0

let record res pid packed =
  let c = res.n_cells in
  if 2 * c + 1 >= Array.length res.cells then
    res.cells <- grow_ints res.cells (max 64 (2 * Array.length res.cells)) (-1);
  res.cells.(2 * c) <- packed;
  let h = res.heads.(pid) in
  if h >= res.newest then
    (* not the pid's first pair on this path: extend its chain *)
    res.cells.((2 * c) + 1) <- h - res.cell0
  else if h >= res.cell0 then begin
    (* first pair on a later path: the chain ends in the earlier head *)
    res.cells.((2 * c) + 1) <- -(h - res.cell0) - 2;
    res.mask.(pid) <- res.mask.(pid) lor res.bit
  end
  else begin
    res.cells.((2 * c) + 1) <- -1;
    res.mask.(pid) <- res.bit;
    res.mpids.(res.matched) <- pid;
    res.matched <- res.matched + 1
  end;
  res.heads.(pid) <- res.cell0 + c;
  res.n_cells <- c + 1

let chunk_paths res = res.paths

let path_mask res pid =
  if pid < Array.length res.heads && res.heads.(pid) >= res.cell0 then res.mask.(pid) else 0

let matched_on res pid j = path_mask res pid land (1 lsl j) <> 0

let head_on res pid j =
  if not (matched_on res pid j) then -1
  else begin
    (* walk the pid's chains newest first, jumping from each chain's end
       to the previous one: the first cell below path j+1 heads path j's
       chain (there is one: bit j is set) *)
    let stop = if j + 1 < res.paths then res.path_cell.(j + 1) else max_int in
    let cells = res.cells in
    let c = ref (res.heads.(pid) - res.cell0) in
    while !c >= stop do
      let next = cells.((2 * !c) + 1) in
      c := if next >= 0 then next else -next - 2
    done;
    !c
  end

let is_matched res pid = pid < Array.length res.heads && res.heads.(pid) >= res.newest

let head res pid = if is_matched res pid then res.heads.(pid) - res.cell0 else -1

let cells res = res.cells

let iter_pairs res pid f =
  let cells = res.cells in
  let c = ref (head res pid) in
  while !c >= 0 do
    f cells.(2 * !c);
    c := cells.((2 * !c) + 1)
  done

let get_packed_on res pid j =
  let cells = res.cells in
  let rec go c acc = if c < 0 then List.rev acc else go cells.((2 * c) + 1) (cells.(2 * c) :: acc) in
  go (head_on res pid j) []

let get_packed res pid =
  let acc = ref [] in
  iter_pairs res pid (fun p -> acc := p :: !acc);
  List.rev !acc

let get res pid =
  List.map (fun p -> packed_first p, packed_second p) (get_packed res pid)

(* Counted on demand: no caller on the match path needs it. *)
let matched_count res =
  let n = ref 0 in
  for i = 0 to res.matched - 1 do
    if res.heads.(res.mpids.(i)) >= res.newest then incr n
  done;
  !n
let chunk_matched_count res = res.matched
let chunk_matched_pid res i = res.mpids.(i)

(* ------------------------------------------------------------------ *)
(* Attribute resolution: once per tuple per run, allocation-free unless a
   value needs the general integer parser. *)

(* The value of a plain decimal string (1 to 18 digits, no sign, no
   whitespace, no underscores — so no overflow), or -1 for anything else. *)
let parse_decimal v =
  let n = String.length v in
  if n = 0 || n > 18 then -1
  else begin
    let acc = ref 0 and i = ref 0 in
    while !i < n do
      let c = Char.code (String.unsafe_get v !i) - 48 in
      if c < 0 || c > 9 then begin
        acc := -1;
        i := n
      end
      else begin
        acc := (!acc * 10) + c;
        incr i
      end
    done;
    !acc
  end

let push_entry res id m =
  let e = res.ra_n in
  if e >= Array.length res.ra_id then begin
    let cap = max 16 (2 * e) in
    let ids = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit res.ra_id 0 ids 0 e;
    Array.blit res.ra_val 0 vals 0 e;
    res.ra_id <- ids;
    res.ra_val <- vals
  end;
  res.ra_id.(e) <- id;
  res.ra_val.(e) <- m;
  res.ra_n <- e + 1

(* Exactly [Pf_xpath.Eval.attr_satisfies]'s reading of an integer
   constraint's attribute: the first binding of the name, parsed by
   [int_of_string_opt (String.trim v)]; an unparsable first binding hides
   later ones. *)
let rec resolve_attrs fl res = function
  | [] -> ()
  | (name, v) :: rest ->
    let id = attr_id fl name in
    if id >= 0 && res.ra_seen.(id) <> res.ra_stamp then begin
      res.ra_seen.(id) <- res.ra_stamp;
      let m = parse_decimal v in
      if m >= 0 then push_entry res id m
      else
        match int_of_string_opt (String.trim v) with
        | Some m -> push_entry res id m
        | None -> ()
    end;
    resolve_attrs fl res rest

let resolve fl res (tuples : Publication.tuple array) l =
  if Array.length res.ra_off < l + 1 then res.ra_off <- Array.make (max 16 (2 * (l + 1))) 0;
  if Array.length res.ra_seen < fl.nattr then
    (* stamps start at 1, so fresh zero cells read as unseen *)
    res.ra_seen <- Array.make (max 16 (2 * fl.nattr)) 0;
  res.ra_n <- 0;
  for i = 0 to l - 1 do
    res.ra_off.(i) <- res.ra_n;
    res.ra_stamp <- res.ra_stamp + 1;
    resolve_attrs fl res (Array.unsafe_get tuples i).Publication.attrs
  done;
  res.ra_off.(l) <- res.ra_n

(* Check the attribute constraints of [pid]'s first/second variable against
   tuple attributes. Only reached when the constraint bitmap says the pid
   is constrained, so one side is always non-empty. *)
let cons_ok t pid ~first ~second =
  (match Vec.get t.cons1 pid with
  | [] -> true
  | cs -> Predicate.check_constraints cs first)
  &&
  match Vec.get t.cons2 pid with
  | [] -> true
  | cs -> Predicate.check_constraints cs second

(* Visit one contiguous pid-arena slice: count each probe, gate the
   attribute-constraint check on the bitmap, record the packed pair on
   success. A top-level function rather than a closure inside [run_flat]'s
   loops — the slices execute per (tuple, value range) and a closure
   allocation there would dominate the whole match path's allocation (the
   loops themselves are allocation-free, so this keeps the streaming
   mode's steady state at zero words per path). Probe/hit tallies go to
   [res.r_probes]/[res.r_hits] — mutable scratch fields, not refs — and
   are flushed to the metrics once per run. The same function visits a
   group's run of anchored pids, gated on [xmask] instead of [cmask]. *)
let visit t cmask tpids res first second packed lo hi =
  for s = lo to hi - 1 do
    let pid = tpids.(s) in
    res.r_probes <- res.r_probes + 1;
    if
      cmask.(pid lsr 5) land (1 lsl (pid land 31)) = 0
      || cons_ok t pid ~first ~second
    then begin
      res.r_hits <- res.r_hits + 1;
      record res pid packed
    end
  done

(* First slot of [lo, hi) whose threshold is >= m (resp. > m). *)
let lower_bound thr lo hi m =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if thr.(mid) < m then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound thr lo hi m =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if thr.(mid) <= m then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_entry ids id e hi =
  if e >= hi then -1
  else if Array.unsafe_get ids e = id then e
  else find_entry ids id (e + 1) hi

(* Visit groups [g0, g1) of [tb] for the tuple(s) at indices [ti] (first
   variable) and [tj] (second; = [ti] for one-variable tables): look the
   group's attribute up among the side's resolved entries, binary-search
   the run of thresholds the value satisfies, and visit exactly those
   pids. *)
let visit_groups t xmask tb res first second ti tj packed g0 g1 =
  let ra_off = res.ra_off and ra_id = res.ra_id in
  let gthr = tb.gthr in
  for g = g0 to g1 - 1 do
    let key = tb.gkeys.(g) in
    let tix = if key land 8 = 0 then ti else tj in
    let e = find_entry ra_id (key lsr 4) ra_off.(tix) ra_off.(tix + 1) in
    if e >= 0 then begin
      let m = res.ra_val.(e) in
      let lo = tb.gstarts.(g) and hi = tb.gstarts.(g + 1) in
      let cmp = key land 7 in
      let a =
        if cmp = cmp_eq || cmp = cmp_le then lower_bound gthr lo hi m
        else if cmp = cmp_lt then upper_bound gthr lo hi m
        else lo
      in
      let b =
        if cmp = cmp_eq || cmp = cmp_ge then upper_bound gthr a hi m
        else if cmp = cmp_gt then lower_bound gthr lo hi m
        else hi
      in
      visit t xmask tb.gpids res first second packed a b
    end
  done

(* Match one publication against the current flat image. The caller has
   already reset the probe/hit scratch and ensured the image is fresh. *)
let run_flat t res (pub : Publication.t) =
  ensure_capacity res (Vec.length t.preds);
  let j = res.paths in
  res.newest <- res.cell0 + res.n_cells;
  res.path_cell.(j) <- res.n_cells;
  res.bit <- 1 lsl j;
  res.paths <- j + 1;
  let fl = t.flat in
  let cmask = fl.cmask and xmask = fl.xmask in
  let l = pub.Publication.length in
  let tuples = pub.Publication.tuples in
  (* without anchors there are no groups, so [ra_off] is never read *)
  let anchored = fl.nattr > 0 in
  if anchored then resolve fl res tuples l;
  let ra_off = res.ra_off in
  (* length-of-expression predicates: (length,>=,v) matches iff l >= v;
     the single row's columns are value-ascending, so values 1..stop are
     one contiguous slice (Length predicates never carry constraints, so
     the bitmap branch in [visit] always takes the fast side) *)
  let lt = fl.len_tab in
  let stop = min l (lt.rows.(1) - 1) in
  if stop >= 1 then
    visit t cmask lt.tpids res [] [] (pack 0 0) lt.starts.(1) lt.starts.(stop + 1);
  let nsym = fl.nsym in
  let abs_eq = fl.abs_eq and abs_ge = fl.abs_ge and eop = fl.eop in
  let rel_eq = fl.rel_eq and rel_ge = fl.rel_ge in
  let rel_row = fl.rel_row and rel_pair = fl.rel_pair in
  for i = 0 to l - 1 do
    let tu = tuples.(i) in
    let sym = tu.Publication.tag in
    (* a symbol interned after the last rebuild cannot be named by any
       stored predicate — neither as a first nor (below) second variable *)
    if sym < nsym then begin
      let o = tu.Publication.occurrence in
      let attrs = tu.Publication.attrs in
      let pos = tu.Publication.pos in
      let packed = pack o o in
      (* groups are only worth a visit when this tuple resolved an anchor
         attribute *)
      let has_attrs = anchored && ra_off.(i + 1) > ra_off.(i) in
      (* absolute =: the value must equal the tuple position *)
      let base = abs_eq.rows.(sym) in
      if pos < abs_eq.rows.(sym + 1) - base then begin
        let col = base + pos in
        visit t cmask abs_eq.tpids res attrs attrs packed abs_eq.starts.(col)
          abs_eq.starts.(col + 1);
        if has_attrs then
          visit_groups t xmask abs_eq res attrs attrs i i packed abs_eq.gcols.(col)
            abs_eq.gcols.(col + 1)
      end;
      (* absolute >=: values 1..min(pos, width-1) — one slice *)
      let base = abs_ge.rows.(sym) in
      let stop = min pos (abs_ge.rows.(sym + 1) - base - 1) in
      if stop >= 1 then begin
        visit t cmask abs_ge.tpids res attrs attrs packed
          abs_ge.starts.(base + 1)
          abs_ge.starts.(base + stop + 1);
        if has_attrs then
          visit_groups t xmask abs_ge res attrs attrs i i packed
            abs_ge.gcols.(base + 1)
            abs_ge.gcols.(base + stop + 1)
      end;
      (* end-of-path: (p_t-|,>=,v) matches iff l - pos >= v *)
      let base = eop.rows.(sym) in
      let stop = min (l - pos) (eop.rows.(sym + 1) - base - 1) in
      if stop >= 1 then begin
        visit t cmask eop.tpids res attrs attrs packed
          eop.starts.(base + 1)
          eop.starts.(base + stop + 1);
        if has_attrs then
          visit_groups t xmask eop res attrs attrs i i packed
            eop.gcols.(base + 1)
            eop.gcols.(base + stop + 1)
      end;
      (* relative predicates: pair this tuple with every later tuple; the
         dense row/pair arrays replace the per-symbol hashtable probe *)
      let r = rel_row.(sym) in
      if r >= 0 then begin
        let prow = r * nsym in
        for j = i + 1 to l - 1 do
          let tu2 = tuples.(j) in
          let s2 = tu2.Publication.tag in
          if s2 < nsym then begin
            let k = rel_pair.(prow + s2) in
            if k >= 0 then begin
              let d = tu2.Publication.pos - pos in
              let packed2 = pack o tu2.Publication.occurrence in
              let attrs2 = tu2.Publication.attrs in
              let has_attrs2 = has_attrs || (anchored && ra_off.(j + 1) > ra_off.(j)) in
              let base = rel_eq.rows.(k) in
              if d < rel_eq.rows.(k + 1) - base then begin
                let col = base + d in
                visit t cmask rel_eq.tpids res attrs attrs2 packed2
                  rel_eq.starts.(col)
                  rel_eq.starts.(col + 1);
                if has_attrs2 then
                  visit_groups t xmask rel_eq res attrs attrs2 i j packed2
                    rel_eq.gcols.(col)
                    rel_eq.gcols.(col + 1)
              end;
              let base = rel_ge.rows.(k) in
              let stop = min d (rel_ge.rows.(k + 1) - base - 1) in
              if stop >= 1 then begin
                visit t cmask rel_ge.tpids res attrs attrs2 packed2
                  rel_ge.starts.(base + 1)
                  rel_ge.starts.(base + stop + 1);
                if has_attrs2 then
                  visit_groups t xmask rel_ge res attrs attrs2 i j packed2
                    rel_ge.gcols.(base + 1)
                    rel_ge.gcols.(base + stop + 1)
              end
            end
          end
        done
      end
    end
  done

let run_next t res pub =
  if res.paths >= chunk_capacity then invalid_arg "Predicate_index.run_next: chunk is full";
  if t.dirty then rebuild t;
  res.r_probes <- 0;
  res.r_hits <- 0;
  run_flat t res pub;
  Pf_obs.Counter.add t.m.probes res.r_probes;
  Pf_obs.Counter.add t.m.hits res.r_hits

let run t res pub =
  clear res;
  run_next t res pub
