type tuple = {
  mutable tag : Symbol.t;
  pos : int;
  mutable occurrence : int;
  mutable attrs : (string * string) list;
}

type t = {
  length : int;
  tuples : tuple array;
  structure : int array;
  mutable pos_index : (int, int) Hashtbl.t option;
      (* packed (tag, occurrence) -> pos, built on first lookup *)
}

let of_path (p : Pf_xml.Path.t) =
  let n = Array.length p.Pf_xml.Path.steps in
  let tuples =
    Array.mapi
      (fun i (s : Pf_xml.Path.step) ->
        { tag = s.sym; pos = i + 1; occurrence = s.occurrence; attrs = s.attrs })
      p.Pf_xml.Path.steps
  in
  { length = n; tuples; structure = Pf_xml.Path.structure p; pos_index = None }

let of_tags tags = of_path (Pf_xml.Path.of_tags tags)

(* ------------------------------------------------------------------ *)
(* Streaming publication arena: per-depth tuple records shared by
   per-length cached publications, so converting a streamed step stack
   into the paper's tuple set allocates nothing in the steady state. *)

type arena = {
  mutable cells : tuple array;  (* shared per-depth records; cells.(i).pos = i + 1 *)
  mutable pubs : t array;  (* pubs.(d): length d + 1, tuples = prefix of cells *)
}

let create_arena () = { cells = [||]; pubs = [||] }

let ensure_arena ar n =
  if n > Array.length ar.cells then begin
    let old = Array.length ar.cells in
    let cap = max 16 (max n (2 * old)) in
    let cells =
      Array.init cap (fun i ->
          if i < old then ar.cells.(i)
          else { tag = 0; pos = i + 1; occurrence = 0; attrs = [] })
    in
    let pubs =
      Array.init cap (fun d ->
          if d < old then ar.pubs.(d)
          else
            {
              length = d + 1;
              tuples = Array.sub cells 0 (d + 1);
              structure = Array.make (d + 1) 0;
              pos_index = None;
            })
    in
    ar.cells <- cells;
    ar.pubs <- pubs
  end

let of_steps ar (steps : Pf_xml.Path.step array) n =
  ensure_arena ar n;
  let cells = ar.cells in
  let pub = ar.pubs.(n - 1) in
  for i = 0 to n - 1 do
    let s = steps.(i) in
    let tu = cells.(i) in
    tu.tag <- s.Pf_xml.Path.sym;
    tu.occurrence <- s.Pf_xml.Path.occurrence;
    tu.attrs <- s.Pf_xml.Path.attrs;
    pub.structure.(i) <- s.Pf_xml.Path.child_index
  done;
  (* the lazy (tag, occurrence) -> pos index of any previous occupant of
     this length is stale now *)
  pub.pos_index <- None;
  pub

(* Occurrence numbers are bounded by the path length; 31 bits per field,
   as in the predicate index's pair packing. *)
let pos_key tag occurrence = (tag lsl 31) lor occurrence

let pos_of_occurrence t ~tag ~occurrence =
  let index =
    match t.pos_index with
    | Some index -> index
    | None ->
      let index = Hashtbl.create (2 * t.length) in
      Array.iter
        (fun tu -> Hashtbl.replace index (pos_key tu.tag tu.occurrence) tu.pos)
        t.tuples;
      t.pos_index <- Some index;
      index
  in
  Hashtbl.find_opt index (pos_key tag occurrence)

let attrs_at t ~pos = t.tuples.(pos - 1).attrs

let pp fmt t =
  Format.fprintf fmt "@[<h>(length,%d)" t.length;
  Array.iter
    (fun tu ->
      Format.fprintf fmt ", (%s^%d,%d)" (Symbol.name tu.tag) tu.occurrence tu.pos)
    t.tuples;
  Format.fprintf fmt "@]"
