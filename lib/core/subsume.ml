(* Subsumption index over any FILTER (see the mli for the design). The
   load-bearing distinction throughout: physical sharing requires *equal*
   match sets (canonical-form equality or mutual containment), while
   strict containment only adds a DAG edge — a covered expression's
   matches are a subset of its cover's, so sharing evaluation across a
   strict pair would change the fan-out. *)

open Pf_xpath

(* ------------------------------------------------------------------ *)
(* Candidate probing *)

module Probe = struct
  type 'a entry = { e_key : int; e_len : int; e_sig : int; e_val : 'a }

  type 'a t = {
    by_tag : (string, 'a entry list ref) Hashtbl.t;
    mutable tagless : 'a entry list;
    mutable n : int;
  }

  let create () = { by_tag = Hashtbl.create 64; tagless = []; n = 0 }

  let step_tags (p : Ast.path) =
    List.filter_map
      (fun (s : Ast.step) ->
        match s.Ast.test with Ast.Tag t -> Some t | Ast.Wildcard -> None)
      p.Ast.steps

  let distinct_tags p = List.sort_uniq String.compare (step_tags p)

  (* 61 usable bits: a Bloom-style tag-set signature. A false bit-subset
     positive only costs one covers test; a miss is impossible. *)
  let tag_bit tag = 1 lsl (Hashtbl.hash tag mod 61)
  let signature tags = List.fold_left (fun acc tag -> acc lor tag_bit tag) 0 tags

  (* Each entry lives in every one of its distinct tag buckets (or the
     tagless bucket when it has no tag step). [covers c target] maps every
     tag step of [c] onto an equal tag of [target], so:

     - cover direction ({!iter_candidates}): a cover of [target] carries
       only tags of [target], hence sits in (all of) [target]'s tag
       buckets, or in the tagless bucket — probing those is complete;
     - covered direction ({!iter_covered}): anything [target] covers
       carries {e all} of [target]'s tags, hence sits in any single one of
       [target]'s tag buckets (a tagless target needs the full scan).

     Multi-bucket storage means an entry can be enumerated through several
     buckets; both iterators dedup by key. *)
  let add t (p : Ast.path) ~key v =
    let tags = distinct_tags p in
    let e =
      { e_key = key; e_len = List.length p.Ast.steps; e_sig = signature tags; e_val = v }
    in
    (match tags with
    | [] -> t.tagless <- e :: t.tagless
    | _ ->
      List.iter
        (fun tag ->
          match Hashtbl.find_opt t.by_tag tag with
          | Some b -> b := e :: !b
          | None -> Hashtbl.add t.by_tag tag (ref [ e ]))
        tags);
    t.n <- t.n + 1

  let remove t (p : Ast.path) ~key =
    let removed = ref false in
    let drop l =
      List.filter
        (fun e ->
          if e.e_key = key then begin
            removed := true;
            false
          end
          else true)
        l
    in
    (match distinct_tags p with
    | [] -> t.tagless <- drop t.tagless
    | tags ->
      List.iter
        (fun tag ->
          match Hashtbl.find_opt t.by_tag tag with
          | Some b ->
            b := drop !b;
            if !b = [] then Hashtbl.remove t.by_tag tag
          | None -> ())
        tags);
    if !removed then t.n <- t.n - 1

  let size t = t.n

  let iter_candidates t (target : Ast.path) f =
    let tags = distinct_tags target in
    let tsig = signature tags in
    let tlen = List.length target.Ast.steps in
    let seen = Hashtbl.create 16 in
    (* a cover never has more steps than the expression it covers (the
       homomorphism is injective and order-preserving; the all-wild case
       is a pure length lower bound) *)
    let visit e =
      if e.e_len <= tlen && e.e_sig land tsig = e.e_sig && not (Hashtbl.mem seen e.e_key)
      then begin
        Hashtbl.add seen e.e_key ();
        f e.e_key e.e_val
      end
    in
    List.iter
      (fun tag ->
        match Hashtbl.find_opt t.by_tag tag with
        | Some b -> List.iter visit !b
        | None -> ())
      tags;
    List.iter visit t.tagless

  let iter_covered t (target : Ast.path) f =
    let tags = distinct_tags target in
    let tsig = signature tags in
    let tlen = List.length target.Ast.steps in
    let seen = Hashtbl.create 16 in
    let visit e =
      if e.e_len >= tlen && e.e_sig land tsig = tsig && not (Hashtbl.mem seen e.e_key)
      then begin
        Hashtbl.add seen e.e_key ();
        f e.e_key e.e_val
      end
    in
    match tags with
    | tag :: _ -> (
      (* every covered entry carries [tag]; one bucket is complete *)
      match Hashtbl.find_opt t.by_tag tag with
      | Some b -> List.iter visit !b
      | None -> ())
    | [] ->
      (* an all-wild target covers by length alone: full scan *)
      Hashtbl.iter (fun _ b -> List.iter visit !b) t.by_tag;
      List.iter visit t.tagless
end

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  shapes : int;
  logical : int;
  dag_edges : int;
  covered_shapes : int;
  dedup_hits : int;
  alias_hits : int;
  covers_probes : int;
  probe_truncations : int;
  retirements : int;
  promotions : int;
}

let default_probe_cap = 64

(* ------------------------------------------------------------------ *)
(* Growable int vector, arrival order *)

(* Each shape's logical sids live in one flat array instead of a cons
   list: a million-subscription index would otherwise pin ~n list cells
   in the major heap interleaved with the wrapped engine's own long-lived
   structures, and that allocation interleaving (measured on the
   subsumption bench) costs the inner engine double-digit percent of
   match throughput in locality alone. Sids are handed out monotonically
   and removals shift in place, so the array is always sorted
   ascending — the fan-out reads it with no comparison sort. *)
module Ivec = struct
  type t = {
    mutable a : int array;
    mutable len : int;
  }

  let create () = { a = [||]; len = 0 }
  let length v = v.len
  let is_empty v = v.len = 0

  let first v =
    if v.len = 0 then invalid_arg "Subsume.Ivec.first";
    v.a.(0)

  let push v x =
    if v.len = Array.length v.a then begin
      let bigger = Array.make (max 4 (2 * v.len)) 0 in
      Array.blit v.a 0 bigger 0 v.len;
      v.a <- bigger
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  (* remove the (single) occurrence of [x], preserving order *)
  let remove v x =
    let i = ref 0 in
    while !i < v.len && v.a.(!i) <> x do
      incr i
    done;
    if !i < v.len then begin
      Array.blit v.a (!i + 1) v.a !i (v.len - !i - 1);
      v.len <- v.len - 1
    end

  let mem v x =
    let rec go i = i < v.len && (v.a.(i) = x || go (i + 1)) in
    go 0

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.a.(i)
    done

  let to_list_asc v =
    let acc = ref [] in
    for i = v.len - 1 downto 0 do
      acc := v.a.(i) :: !acc
    done;
    !acc

  let sorted_ascending v =
    let rec go i = i + 1 >= v.len || (v.a.(i) < v.a.(i + 1) && go (i + 1)) in
    go 0
end

(* ------------------------------------------------------------------ *)
(* The functor *)

module Make (F : Pf_intf.FILTER) = struct
  type shape = {
    sh_uid : int;
    sh_canonical : Ast.path;
    sh_single : bool;
    sh_physical : int;  (* sid inside F *)
    mutable sh_keys : string list;  (* canonical key, plus alias keys *)
    sh_logicals : Ivec.t;  (* live logical sids, ascending *)
    mutable sh_parents : shape list;  (* shapes strictly covering this one *)
    mutable sh_children : shape list;  (* shapes this one strictly covers *)
  }

  type t = {
    inner : F.t;
    probe_cap : int;
    by_key : (string, shape list ref) Hashtbl.t;
    by_physical : (int, shape) Hashtbl.t;
    probe : shape Probe.t;
    mutable slots : shape option array;  (* logical sid -> live shape *)
    mutable next_sid : int;
    mutable fan_scratch : Bytes.t;  (* sid bitmap for dense fan-out *)
    mutable live : int;
    mutable uid : int;
    mutable dag_edges : int;
    registry : Pf_obs.Registry.t;
    g_shapes : Pf_obs.Gauge.t;
    g_logical : Pf_obs.Gauge.t;
    g_edges : Pf_obs.Gauge.t;
    c_dedup : Pf_obs.Counter.t;
    c_alias : Pf_obs.Counter.t;
    c_probes : Pf_obs.Counter.t;
    c_trunc : Pf_obs.Counter.t;
    c_retire : Pf_obs.Counter.t;
    c_promote : Pf_obs.Counter.t;
  }

  let create_with ?(probe_cap = default_probe_cap) () =
    let registry = Pf_obs.Registry.create "subsume" in
    {
      inner = F.create ();
      probe_cap;
      by_key = Hashtbl.create 1024;
      by_physical = Hashtbl.create 1024;
      probe = Probe.create ();
      slots = [||];
      next_sid = 0;
      fan_scratch = Bytes.create 0;
      live = 0;
      uid = 0;
      dag_edges = 0;
      registry;
      g_shapes =
        Pf_obs.Gauge.make ~registry ~merge:Sum "shapes"
          ~help:"live physical shapes (engine expressions)";
      g_logical =
        Pf_obs.Gauge.make ~registry ~merge:Sum "logical_subscriptions"
          ~help:"live logical subscriptions";
      g_edges =
        Pf_obs.Gauge.make ~registry ~merge:Sum "dag_edges"
          ~help:"strict-containment edges between live shapes";
      c_dedup =
        Pf_obs.Counter.make ~registry "dedup_hits"
          ~help:"adds hash-consed onto an existing canonical form";
      c_alias =
        Pf_obs.Counter.make ~registry "alias_hits"
          ~help:"adds merged by mutual containment";
      c_probes =
        Pf_obs.Counter.make ~registry "covers_probes"
          ~help:"containment tests made during insertion";
      c_trunc =
        Pf_obs.Counter.make ~registry "probe_truncations"
          ~help:"insertions whose candidate probe hit the cap";
      c_retire =
        Pf_obs.Counter.make ~registry "physical_retirements"
          ~help:"physical expressions removed with their last logical";
      c_promote =
        Pf_obs.Counter.make ~registry "representative_promotions"
          ~help:"oldest logical of a shape removed with survivors remaining";
    }

  let create () = create_with ()

  let sync_gauges t =
    Pf_obs.Gauge.set t.g_shapes (float_of_int (Hashtbl.length t.by_physical));
    Pf_obs.Gauge.set t.g_logical (float_of_int t.live);
    Pf_obs.Gauge.set t.g_edges (float_of_int t.dag_edges)

  let fresh_sid t shape =
    let sid = t.next_sid in
    if sid >= Array.length t.slots then begin
      let bigger = Array.make (max 16 (2 * Array.length t.slots)) None in
      Array.blit t.slots 0 bigger 0 t.next_sid;
      t.slots <- bigger
    end;
    t.slots.(sid) <- Some shape;
    t.next_sid <- sid + 1;
    Ivec.push shape.sh_logicals sid;
    t.live <- t.live + 1;
    sync_gauges t;
    sid

  let bucket_add t key shape =
    match Hashtbl.find_opt t.by_key key with
    | Some b -> b := shape :: !b
    | None -> Hashtbl.add t.by_key key (ref [ shape ])

  let covers_counted t a b =
    Pf_obs.Counter.incr t.c_probes;
    Containment.covers a b

  let add t path =
    let canonical = Canonical.normalize path in
    let key = Parser.to_string canonical in
    let single = Ast.is_single_path canonical in
    (* 1. Hash-cons on the canonical print key. A bucket member with a
       different structure (print-key collision) that mutually contains
       the new expression still has an equal match set: alias it. *)
    let existing =
      match Hashtbl.find_opt t.by_key key with
      | None -> None
      | Some b ->
        List.find_map
          (fun s ->
            if Ast.equal s.sh_canonical canonical then Some (s, `Dedup)
            else if
              single && s.sh_single
              && covers_counted t s.sh_canonical canonical
              && covers_counted t canonical s.sh_canonical
            then Some (s, `Alias)
            else None)
          !b
    in
    match existing with
    | Some (shape, `Dedup) ->
      Pf_obs.Counter.incr t.c_dedup;
      fresh_sid t shape
    | Some (shape, `Alias) ->
      Pf_obs.Counter.incr t.c_alias;
      fresh_sid t shape
    | None -> (
      (* 2. Read-only candidate probes, both directions — shapes that may
         cover the new expression and shapes it may cover — so the DAG is
         exact (up to the cap) regardless of insertion order. Nothing is
         mutated until F.add below succeeds, so an Unsupported expression
         leaves the index exactly as it was. Mutual containment makes the
         new expression an alias of an existing shape; one-directional
         containment becomes a DAG edge wired in at step 3. *)
      let alias = ref None and parents = ref [] and children = ref [] in
      if single then begin
        let budget = ref t.probe_cap in
        let seen = Hashtbl.create 16 in
        let consider uid c =
          if not (Hashtbl.mem seen uid) then begin
            Hashtbl.add seen uid ();
            if !budget <= 0 then begin
              Pf_obs.Counter.incr t.c_trunc;
              raise_notrace Exit
            end;
            decr budget;
            let fwd = covers_counted t c.sh_canonical canonical in
            let bwd = covers_counted t canonical c.sh_canonical in
            if fwd && bwd then begin
              alias := Some c;
              raise_notrace Exit
            end
            else if fwd then parents := c :: !parents
            else if bwd then children := c :: !children
          end
        in
        try
          Probe.iter_candidates t.probe canonical consider;
          Probe.iter_covered t.probe canonical consider
        with Exit -> ()
      end;
      match !alias with
      | Some shape ->
        Pf_obs.Counter.incr t.c_alias;
        shape.sh_keys <- key :: shape.sh_keys;
        bucket_add t key shape;
        fresh_sid t shape
      | None ->
        (* 3. A genuinely new shape: register the physical expression
           (first mutation point) and wire it into the table and DAG.
           Edges only ever connect a new shape to shapes that existed
           before it, after both directions tested non-mutual, so the
           DAG is acyclic by construction (covers is transitive). *)
        let physical = F.add t.inner canonical in
        let shape =
          {
            sh_uid = t.uid;
            sh_canonical = canonical;
            sh_single = single;
            sh_physical = physical;
            sh_keys = [ key ];
            sh_logicals = Ivec.create ();
            sh_parents = !parents;
            sh_children = !children;
          }
        in
        t.uid <- t.uid + 1;
        List.iter (fun p -> p.sh_children <- shape :: p.sh_children) !parents;
        List.iter (fun c -> c.sh_parents <- shape :: c.sh_parents) !children;
        t.dag_edges <- t.dag_edges + List.length !parents + List.length !children;
        bucket_add t key shape;
        Hashtbl.replace t.by_physical physical shape;
        if single then Probe.add t.probe canonical ~key:shape.sh_uid shape;
        fresh_sid t shape)

  let add_string t s = add t (Parser.parse s)

  let retire t shape =
    ignore (F.remove t.inner shape.sh_physical : bool);
    Hashtbl.remove t.by_physical shape.sh_physical;
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.by_key key with
        | Some b ->
          b := List.filter (fun s -> s != shape) !b;
          if !b = [] then Hashtbl.remove t.by_key key
        | None -> ())
      shape.sh_keys;
    if shape.sh_single then Probe.remove t.probe shape.sh_canonical ~key:shape.sh_uid;
    List.iter
      (fun p -> p.sh_children <- List.filter (fun c -> c != shape) p.sh_children)
      shape.sh_parents;
    List.iter
      (fun c -> c.sh_parents <- List.filter (fun p -> p != shape) c.sh_parents)
      shape.sh_children;
    t.dag_edges <- t.dag_edges - List.length shape.sh_parents - List.length shape.sh_children;
    shape.sh_parents <- [];
    shape.sh_children <- [];
    Pf_obs.Counter.incr t.c_retire

  let remove t sid =
    if sid < 0 || sid >= t.next_sid then false
    else
      match t.slots.(sid) with
      | None -> false
      | Some shape ->
        t.slots.(sid) <- None;
        (* ascending order: the representative is the first element *)
        let was_representative = Ivec.first shape.sh_logicals = sid in
        Ivec.remove shape.sh_logicals sid;
        t.live <- t.live - 1;
        if Ivec.is_empty shape.sh_logicals then retire t shape
        else if was_representative then Pf_obs.Counter.incr t.c_promote;
        sync_gauges t;
        true

  (* Physical match sids -> sorted logical sids. Shapes partition the
     logical sids, so concatenation has no duplicates; a single shape's
     sid vector is already ascending. On the redundancy-skewed workloads
     this index targets, the fan-out is an order of magnitude larger than
     the physical match set and dense in the sid space, so the
     multi-shape path marks a sid bitmap and scans it — sorted output
     with no comparison sort. When the fan-out is sparse relative to
     [next_sid] (heavy churn, selective documents) the O(next_sid) scan
     would dominate, so it falls back to sorting. *)
  let fan_out t phys =
    match phys with
    | [] -> []
    | [ p ] -> (
      match Hashtbl.find_opt t.by_physical p with
      | Some s -> Ivec.to_list_asc s.sh_logicals
      | None -> [])
    | _ ->
      let shapes =
        List.filter_map (fun p -> Hashtbl.find_opt t.by_physical p) phys
      in
      let total =
        List.fold_left (fun n s -> n + Ivec.length s.sh_logicals) 0 shapes
      in
      if total = 0 then []
      else if total >= t.next_sid / 256 then begin
        let nbytes = (t.next_sid + 7) / 8 in
        if Bytes.length t.fan_scratch < nbytes then t.fan_scratch <- Bytes.create nbytes;
        let b = t.fan_scratch in
        Bytes.fill b 0 nbytes '\000';
        List.iter
          (fun s ->
            Ivec.iter
              (fun sid ->
                let i = sid lsr 3 in
                Bytes.unsafe_set b i
                  (Char.unsafe_chr
                     (Char.code (Bytes.unsafe_get b i) lor (1 lsl (sid land 7)))))
              s.sh_logicals)
          shapes;
        (* byte-at-a-time scan skipping zero bytes: the pass over the sid
           space costs O(next_sid / 8) loads plus work proportional to the
           actual matches, so the bitmap wins even for thin fan-outs *)
        let acc = ref [] in
        for i = nbytes - 1 downto 0 do
          let byte = Char.code (Bytes.unsafe_get b i) in
          if byte <> 0 then
            for bit = 7 downto 0 do
              if byte land (1 lsl bit) <> 0 then acc := ((i lsl 3) lor bit) :: !acc
            done
        done;
        !acc
      end
      else
        List.sort Int.compare
          (List.fold_left
             (fun acc s ->
               let acc = ref acc in
               Ivec.iter (fun sid -> acc := sid :: !acc) s.sh_logicals;
               !acc)
             [] shapes)

  let match_document t doc = fan_out t (F.match_document t.inner doc)
  let match_string t src = fan_out t (F.match_string t.inner src)

  let metrics t = F.metrics t.inner
  let subsume_metrics t = t.registry

  let stats t =
    let covered =
      Hashtbl.fold
        (fun _ s acc -> if s.sh_parents <> [] then acc + 1 else acc)
        t.by_physical 0
    in
    {
      shapes = Hashtbl.length t.by_physical;
      logical = t.live;
      dag_edges = t.dag_edges;
      covered_shapes = covered;
      dedup_hits = Pf_obs.Counter.get t.c_dedup;
      alias_hits = Pf_obs.Counter.get t.c_alias;
      covers_probes = Pf_obs.Counter.get t.c_probes;
      probe_truncations = Pf_obs.Counter.get t.c_trunc;
      retirements = Pf_obs.Counter.get t.c_retire;
      promotions = Pf_obs.Counter.get t.c_promote;
    }

  let validate t =
    let fail fmt = Format.kasprintf failwith fmt in
    for sid = 0 to t.next_sid - 1 do
      match t.slots.(sid) with
      | None -> ()
      | Some s -> (
        if not (Ivec.mem s.sh_logicals sid) then
          fail "sid %d missing from its shape's logicals" sid;
        match Hashtbl.find_opt t.by_physical s.sh_physical with
        | Some s' when s' == s -> ()
        | _ -> fail "sid %d points at a retired shape" sid)
    done;
    Hashtbl.iter
      (fun phys s ->
        if Ivec.is_empty s.sh_logicals then fail "shape %d has no logicals" phys;
        Ivec.iter
          (fun sid ->
            if sid < 0 || sid >= t.next_sid then
              fail "shape %d holds out-of-range sid %d" phys sid;
            match t.slots.(sid) with
            | Some s' when s' == s -> ()
            | _ -> fail "shape %d holds dead sid %d" phys sid)
          s.sh_logicals;
        if not (Ivec.sorted_ascending s.sh_logicals) then
          fail "shape %d logicals not ascending" phys;
        List.iter
          (fun p ->
            if not (List.memq s p.sh_children) then
              fail "asymmetric parent edge at shape %d" phys;
            if not (Hashtbl.mem t.by_physical p.sh_physical) then
              fail "shape %d has a retired parent" phys)
          s.sh_parents;
        List.iter
          (fun c ->
            if not (List.memq s c.sh_parents) then
              fail "asymmetric child edge at shape %d" phys)
          s.sh_children;
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.by_key key with
            | Some b when List.memq s !b -> ()
            | _ -> fail "shape %d missing from bucket %s" phys key)
          s.sh_keys)
      t.by_physical;
    let parent_edges =
      Hashtbl.fold (fun _ s acc -> acc + List.length s.sh_parents) t.by_physical 0
    in
    if parent_edges <> t.dag_edges then
      fail "edge count drift: %d recorded, %d present" t.dag_edges parent_edges;
    (* acyclicity: DFS over child edges with an active/done coloring *)
    let state = Hashtbl.create 64 in
    let rec dfs s =
      match Hashtbl.find_opt state s.sh_uid with
      | Some `Done -> ()
      | Some `Active -> fail "containment DAG has a cycle through shape uid %d" s.sh_uid
      | None ->
        Hashtbl.add state s.sh_uid `Active;
        List.iter dfs s.sh_children;
        Hashtbl.replace state s.sh_uid `Done
    in
    Hashtbl.iter (fun _ s -> dfs s) t.by_physical
end

(* ------------------------------------------------------------------ *)
(* First-class wrapper *)

let filter (f : Pf_intf.filter) : Pf_intf.filter =
  let module F = (val f : Pf_intf.FILTER) in
  let module M = Make (F) in
  (module M : Pf_intf.FILTER)

(* ------------------------------------------------------------------ *)
(* Workload diagnostics *)

type redundancy = {
  red_exprs : int;
  red_shapes : int;
  red_duplicates : int;
  red_dag_edges : int;
  red_covered_shapes : int;
  red_covers_probes : int;
  red_probe_truncations : int;
}

module Indexed = Make (Pf_intf.Reference)

let redundant_indexed ?probe_cap exprs =
  let t = Indexed.create_with ?probe_cap () in
  List.iter (fun p -> ignore (Indexed.add t p : int)) exprs;
  let s = Indexed.stats t in
  {
    red_exprs = s.logical;
    red_shapes = s.shapes;
    red_duplicates = s.logical - s.shapes;
    red_dag_edges = s.dag_edges;
    red_covered_shapes = s.covered_shapes;
    red_covers_probes = s.covers_probes;
    red_probe_truncations = s.probe_truncations;
  }

let pp_redundancy fmt r =
  Format.fprintf fmt
    "@[<v>expressions      %d@,distinct shapes  %d (%.1f%%)@,duplicates       %d@,\
     dag edges        %d@,covered shapes   %d@,covers probes    %d@,\
     probe truncated  %d@]"
    r.red_exprs r.red_shapes
    (if r.red_exprs = 0 then 100.0
     else 100.0 *. float_of_int r.red_shapes /. float_of_int r.red_exprs)
    r.red_duplicates r.red_dag_edges r.red_covered_shapes r.red_covers_probes
    r.red_probe_truncations
