(* The predicate index exactly as it was before the cache-flat rewrite:
   per-operator vectors of pid *lists* indexed by predicate value, with
   relative predicates dispatched through per-symbol hashtables, and every
   constrained pid of a slot checked inline. Kept as a test-only reference
   so the flat implementation in {!Pf_core.Predicate_index} can be checked
   by the equivalence property in the test suite: same pids, same match
   sets, same packed pairs in the same order, same matched counts and hit
   totals. Probe totals are no longer equal: the flat index visits an
   anchored (attribute-constrained) pid only when its anchor constraint
   holds, so its probes are at most the reference's. The changes from the
   historical code are the two micro-cleanups the rewrite subsumed ([run]
   reads [pub.Publication.length] once, and the length-table bound is
   hoisted out of its loop) and the pair encoding, shared with the flat
   index. *)

open Pf_core

type pid = int

(* Per-operator arrays of pid lists, indexed by predicate value. A slot
   holds a list because predicates sharing (tags, op, value) but differing
   in attribute constraints are distinct. *)
type slots = {
  eq : pid list Vec.t;
  ge : pid list Vec.t;
}

let make_slots () =
  { eq = Vec.create ~dummy:[] (); ge = Vec.create ~dummy:[] () }

let slot_vec slots (op : Predicate.op) =
  match op with Predicate.Eq -> slots.eq | Predicate.Ge -> slots.ge

type metrics = { probes : Pf_obs.Counter.t; hits : Pf_obs.Counter.t }

let make_metrics ?registry () =
  {
    probes =
      Pf_obs.Counter.make ?registry "predicate_probes"
        ~help:"candidate predicates inspected during predicate matching";
    hits =
      Pf_obs.Counter.make ?registry "predicate_hits"
        ~help:"occurrence pairs recorded during predicate matching";
  }

(* Tag tables are dense vectors indexed by interned symbol. Unused slots
   share physically-identical placeholder values (recognized by [==],
   replaced by fresh structures on first intern, never written through). *)
let dummy_slots = make_slots ()
let dummy_rel : (int, slots) Hashtbl.t = Hashtbl.create 1
let dummy_eop : pid list Vec.t = Vec.create ~dummy:[] ()

type t = {
  preds : Predicate.t Vec.t;  (* pid -> predicate *)
  cons1 : Predicate.attr_constraint list Vec.t;  (* pid -> first-var constraints *)
  cons2 : Predicate.attr_constraint list Vec.t;
  absolute : slots Vec.t;  (* indexed by tag symbol *)
  relative : (int, slots) Hashtbl.t Vec.t;
      (* indexed by first symbol; inner table keyed by second symbol *)
  end_of_path : pid list Vec.t Vec.t;  (* indexed by tag symbol *)
  length_slots : pid list Vec.t;  (* value-indexed; op is always >= *)
  m : metrics;
}

let create ?metrics () =
  {
    preds = Vec.create ~dummy:(Predicate.Length { v = 0 }) ();
    cons1 = Vec.create ~dummy:[] ();
    cons2 = Vec.create ~dummy:[] ();
    absolute = Vec.create ~dummy:dummy_slots ();
    relative = Vec.create ~dummy:dummy_rel ();
    end_of_path = Vec.create ~dummy:dummy_eop ();
    length_slots = Vec.create ~dummy:[] ();
    m = (match metrics with Some m -> m | None -> make_metrics ());
  }

let predicate t pid = Vec.get t.preds pid

let size t = Vec.length t.preds

(* The value-indexed slot vector and value for a predicate. *)
let locate t (p : Predicate.t) : pid list Vec.t * int =
  match p with
  | Predicate.Absolute { tag; op; v } ->
    let sym = Symbol.intern tag.name in
    Vec.ensure t.absolute (sym + 1);
    let slots =
      let s = Vec.get t.absolute sym in
      if s != dummy_slots then s
      else begin
        let s = make_slots () in
        Vec.set t.absolute sym s;
        s
      end
    in
    slot_vec slots op, v
  | Predicate.Relative { first; second; op; v } ->
    let sym1 = Symbol.intern first.name and sym2 = Symbol.intern second.name in
    Vec.ensure t.relative (sym1 + 1);
    let tbl2 =
      let tbl = Vec.get t.relative sym1 in
      if tbl != dummy_rel then tbl
      else begin
        let tbl = Hashtbl.create 8 in
        Vec.set t.relative sym1 tbl;
        tbl
      end
    in
    let slots =
      match Hashtbl.find_opt tbl2 sym2 with
      | Some s -> s
      | None ->
        let s = make_slots () in
        Hashtbl.add tbl2 sym2 s;
        s
    in
    slot_vec slots op, v
  | Predicate.End_of_path { tag; v } ->
    let sym = Symbol.intern tag.name in
    Vec.ensure t.end_of_path (sym + 1);
    let vec =
      let vec = Vec.get t.end_of_path sym in
      if vec != dummy_eop then vec
      else begin
        let vec = Vec.create ~dummy:[] () in
        Vec.set t.end_of_path sym vec;
        vec
      end
    in
    vec, v
  | Predicate.Length { v } -> t.length_slots, v

let find t p =
  let vec, v = locate t p in
  if v >= Vec.length vec then None
  else
    List.find_opt (fun pid -> Predicate.equal (Vec.get t.preds pid) p) (Vec.get vec v)

let intern t p =
  let vec, v = locate t p in
  Vec.ensure vec (v + 1);
  match
    List.find_opt (fun pid -> Predicate.equal (Vec.get t.preds pid) p) (Vec.get vec v)
  with
  | Some pid -> pid
  | None ->
    let pid = Vec.push t.preds p in
    let c1, c2 = Predicate.constraints_of p in
    let (_ : int) = Vec.push t.cons1 c1 in
    let (_ : int) = Vec.push t.cons2 c2 in
    Vec.set vec v (pid :: Vec.get vec v);
    pid

(* ------------------------------------------------------------------ *)
(* Predicate matching — the historical results arena, kept structurally
   identical to {!Pf_core.Predicate_index.results} so pair order and cell
   layout can be compared one to one. *)

(* The pair encoding is the flat index's, so packed pairs compare one to
   one. *)
let pack = Predicate_index.pack

let packed_first = Predicate_index.packed_first
let packed_second = Predicate_index.packed_second

type results = {
  mutable epoch : int;
  mutable stamp : int array;  (* pid -> epoch of last match *)
  mutable heads : int array;  (* pid -> newest cell index (valid iff stamped) *)
  mutable cells : int array;
  mutable n_cells : int;  (* cells used this epoch *)
  mutable matched : int;  (* matched predicates this epoch *)
  mutable r_probes : int;
  mutable r_hits : int;
}

let create_results () =
  {
    epoch = 0;
    stamp = [||];
    heads = [||];
    cells = [||];
    n_cells = 0;
    matched = 0;
    r_probes = 0;
    r_hits = 0;
  }

let ensure_capacity res n =
  if Array.length res.stamp < n then begin
    let cap = max n (2 * Array.length res.stamp) in
    let stamp = Array.make cap 0 and heads = Array.make cap (-1) in
    Array.blit res.stamp 0 stamp 0 (Array.length res.stamp);
    Array.blit res.heads 0 heads 0 (Array.length res.heads);
    res.stamp <- stamp;
    res.heads <- heads
  end

let record res pid packed =
  let c = res.n_cells in
  if 2 * c + 1 >= Array.length res.cells then begin
    let bigger = Array.make (max 64 (2 * Array.length res.cells)) (-1) in
    Array.blit res.cells 0 bigger 0 (Array.length res.cells);
    res.cells <- bigger
  end;
  res.cells.(2 * c) <- packed;
  if res.stamp.(pid) = res.epoch then res.cells.((2 * c) + 1) <- res.heads.(pid)
  else begin
    res.stamp.(pid) <- res.epoch;
    res.cells.((2 * c) + 1) <- -1;
    res.matched <- res.matched + 1
  end;
  res.heads.(pid) <- c;
  res.n_cells <- c + 1

let is_matched res pid =
  pid < Array.length res.stamp && res.stamp.(pid) = res.epoch

let iter_pairs res pid f =
  if is_matched res pid then begin
    let cells = res.cells in
    let c = ref res.heads.(pid) in
    while !c >= 0 do
      f cells.(2 * !c);
      c := cells.((2 * !c) + 1)
    done
  end

let get_packed res pid =
  let acc = ref [] in
  iter_pairs res pid (fun p -> acc := p :: !acc);
  List.rev !acc

let get res pid =
  List.map (fun p -> packed_first p, packed_second p) (get_packed res pid)

let matched_count res = res.matched

let cons_ok t pid ~first ~second =
  (match Vec.get t.cons1 pid with
  | [] -> true
  | cs -> Predicate.check_constraints cs first)
  &&
  match Vec.get t.cons2 pid with
  | [] -> true
  | cs -> Predicate.check_constraints cs second

let rec visit_slot t res first second packed = function
  | [] -> ()
  | pid :: rest ->
    res.r_probes <- res.r_probes + 1;
    if cons_ok t pid ~first ~second then begin
      res.r_hits <- res.r_hits + 1;
      record res pid packed
    end;
    visit_slot t res first second packed rest

let rec visit_length res = function
  | [] -> ()
  | pid :: rest ->
    res.r_probes <- res.r_probes + 1;
    res.r_hits <- res.r_hits + 1;
    record res pid (pack 0 0);
    visit_length res rest

let run t res (pub : Publication.t) =
  ensure_capacity res (Vec.length t.preds);
  res.epoch <- res.epoch + 1;
  res.n_cells <- 0;
  res.matched <- 0;
  res.r_probes <- 0;
  res.r_hits <- 0;
  let l = pub.Publication.length in
  (* length-of-expression predicates: (length,>=,v) matches iff l >= v *)
  let stop = min l (Vec.length t.length_slots - 1) in
  for v = 1 to stop do
    visit_length res (Vec.get t.length_slots v)
  done;
  let tuples = pub.Publication.tuples in
  let n_abs = Vec.length t.absolute in
  let n_rel = Vec.length t.relative in
  let n_eop = Vec.length t.end_of_path in
  for i = 0 to l - 1 do
    let tu = tuples.(i) in
    let sym = tu.Publication.tag in
    let o = tu.Publication.occurrence in
    let attrs = tu.Publication.attrs in
    (* absolute predicates *)
    (if sym < n_abs then begin
       let slots = Vec.get t.absolute sym in
       if slots != dummy_slots then begin
         let pos = tu.Publication.pos in
         if pos < Vec.length slots.eq then
           visit_slot t res attrs attrs (pack o o) (Vec.get slots.eq pos);
         let stop = min pos (Vec.length slots.ge - 1) in
         for v = 1 to stop do
           visit_slot t res attrs attrs (pack o o) (Vec.get slots.ge v)
         done
       end
     end);
    (* end-of-path predicates: (p_t-|,>=,v) matches iff l - pos >= v *)
    (if sym < n_eop then begin
       let vec = Vec.get t.end_of_path sym in
       if vec != dummy_eop then begin
         let stop = min (l - tu.Publication.pos) (Vec.length vec - 1) in
         for v = 1 to stop do
           visit_slot t res attrs attrs (pack o o) (Vec.get vec v)
         done
       end
     end);
    (* relative predicates: pair this tuple with every later tuple *)
    if sym < n_rel then begin
      let tbl2 = Vec.get t.relative sym in
      if tbl2 != dummy_rel then
        for j = i + 1 to l - 1 do
          let tu2 = tuples.(j) in
          match Hashtbl.find tbl2 tu2.Publication.tag with
          | exception Not_found -> ()
          | slots ->
            let d = tu2.Publication.pos - tu.Publication.pos in
            let o2 = tu2.Publication.occurrence in
            let attrs2 = tu2.Publication.attrs in
            if d < Vec.length slots.eq then
              visit_slot t res attrs attrs2 (pack o o2)
                (Vec.get slots.eq d);
            let stop = min d (Vec.length slots.ge - 1) in
            for v = 1 to stop do
              visit_slot t res attrs attrs2 (pack o o2)
                (Vec.get slots.ge v)
            done
        done
    end
  done;
  Pf_obs.Counter.add t.m.probes res.r_probes;
  Pf_obs.Counter.add t.m.hits res.r_hits
