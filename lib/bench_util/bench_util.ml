let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

let time_ms f =
  let r, s = time f in
  r, s *. 1000.

type series = {
  label : string;
  points : (float * float) list;
}

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float (List.length l)

let stddev = function
  | [] | [ _ ] -> 0.
  | l ->
    let m = mean l in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.) l))

let print_table ~title ~x_label ~y_label series =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "   (%s; cell unit: %s)\n" x_label y_label;
  let xs =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.points) series)
  in
  let col_width =
    List.fold_left (fun w s -> max w (String.length s.label + 2)) 12 series
  in
  Printf.printf "%12s" x_label;
  List.iter (fun s -> Printf.printf "%*s" col_width s.label) series;
  print_newline ();
  List.iter
    (fun x ->
      if Float.is_integer x && Float.abs x < 1e15 then Printf.printf "%12.0f" x
      else Printf.printf "%12.3f" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some y -> Printf.printf "%*.3f" col_width y
          | None -> Printf.printf "%*s" col_width "-")
        series;
      print_newline ())
    xs;
  flush stdout

let print_kv ~title kvs =
  Printf.printf "\n-- %s --\n" title;
  List.iter (fun (k, v) -> Printf.printf "  %-32s %s\n" k v) kvs;
  flush stdout

type algorithm = {
  name : string;
  add : Pf_xpath.Ast.path -> unit;
  finish_build : unit -> unit;
  match_doc : Pf_xml.Tree.t -> int;
  metrics : Pf_obs.Registry.t;
}

let of_filter ~name (filter : Pf_intf.filter) =
  let (module F) = filter in
  let inst = F.create () in
  {
    name;
    add = (fun p -> ignore (F.add inst p));
    finish_build = ignore;
    match_doc = (fun doc -> List.length (F.match_document inst doc));
    metrics = F.metrics inst;
  }

let filter_of_name ?collect_stats ?stream name : Pf_intf.filter option =
  match Pf_core.Expr_index.variant_of_name name with
  | Some variant ->
    Some (Pf_core.Engine.filter ~variant ?collect_stats ?stream () :> Pf_intf.filter)
  | None -> (
    (* the baselines have no streaming mode; callers validating --stream
       check Expr_index.variant_of_name before resolving *)
    match name with
    | "yfilter" -> Some (module Pf_yfilter.Yfilter)
    | "index-filter" -> Some (module Pf_indexfilter.Index_filter)
    | _ -> None)

let predicate_engine ?(variant = Pf_core.Expr_index.Access_predicate)
    ?(attr_mode = Pf_core.Engine.Inline) () =
  let name =
    let base = Pf_core.Expr_index.variant_name variant in
    match attr_mode with
    | Pf_core.Engine.Inline -> base
    | Pf_core.Engine.Postponed -> base ^ "-sp"
  in
  of_filter ~name (Pf_core.Engine.filter ~variant ~attr_mode () :> Pf_intf.filter)

let yfilter () = of_filter ~name:"yfilter" (module Pf_yfilter.Yfilter)
let index_filter () = of_filter ~name:"index-filter" (module Pf_indexfilter.Index_filter)

let all_paper_algorithms () =
  [
    predicate_engine ~variant:Pf_core.Expr_index.Basic ();
    predicate_engine ~variant:Pf_core.Expr_index.Prefix_covering ();
    predicate_engine ~variant:Pf_core.Expr_index.Access_predicate ();
    yfilter ();
    index_filter ();
  ]

let filter_time_ms ?(trials = 3) algo docs =
  let n = List.length docs in
  let once () =
    let (), ms =
      time_ms (fun () -> List.iter (fun d -> ignore (algo.match_doc d)) docs)
    in
    ms /. float (max 1 n)
  in
  (* minimum of a few trials: robust against scheduling noise on a shared
     machine, and the first trial doubles as warm-up *)
  let rec go best k = if k = 0 then best else go (Float.min best (once ())) (k - 1) in
  go (once ()) (max 0 (trials - 1))
