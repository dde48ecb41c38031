(* The unified engine signature (see the mli for the contract), the shared
   rejection exception, and the brute-force reference implementation. *)

exception Unsupported of string

type error =
  | Bad_expression of string
  | Unsupported_expression of string
  | Unknown_subscription of int
  | Bad_document of string
  | Protocol_error of string

let error_message = function
  | Bad_expression msg -> Printf.sprintf "bad expression: %s" msg
  | Unsupported_expression msg -> Printf.sprintf "unsupported expression: %s" msg
  | Unknown_subscription id -> Printf.sprintf "unknown subscription %d" id
  | Bad_document msg -> Printf.sprintf "bad document: %s" msg
  | Protocol_error msg -> Printf.sprintf "protocol error: %s" msg

let pp_error fmt e = Format.pp_print_string fmt (error_message e)

module type FILTER = sig
  type t

  val create : unit -> t
  val add : t -> Pf_xpath.Ast.path -> int
  val add_string : t -> string -> int
  val remove : t -> int -> bool
  val match_document : t -> Pf_xml.Tree.t -> int list
  val match_string : t -> string -> int list
  val metrics : t -> Pf_obs.Registry.t
end

type filter = (module FILTER)

module Reference = struct
  type entry = { path : Pf_xpath.Ast.path; mutable active : bool }

  type t = {
    mutable exprs : entry array;
    mutable n_exprs : int;
    registry : Pf_obs.Registry.t;
    documents : Pf_obs.Counter.t;
    matched : Pf_obs.Counter.t;
  }

  let create () =
    (* unlisted: the oracle runs inside test harnesses, where polluting the
       global export list with one registry per fuzz case helps nobody *)
    let registry = Pf_obs.Registry.create ~list:false "reference" in
    {
      exprs = [||];
      n_exprs = 0;
      registry;
      documents = Pf_obs.Counter.make ~registry "documents" ~help:"documents processed";
      matched = Pf_obs.Counter.make ~registry "matches" ~help:"expression matches reported";
    }

  let add t path =
    if t.n_exprs >= Array.length t.exprs then begin
      let bigger =
        Array.make (max 16 (2 * Array.length t.exprs)) { path; active = false }
      in
      Array.blit t.exprs 0 bigger 0 t.n_exprs;
      t.exprs <- bigger
    end;
    let sid = t.n_exprs in
    t.exprs.(sid) <- { path; active = true };
    t.n_exprs <- sid + 1;
    sid

  let add_string t s = add t (Pf_xpath.Parser.parse s)

  let remove t sid =
    if sid < 0 || sid >= t.n_exprs || not t.exprs.(sid).active then false
    else begin
      t.exprs.(sid).active <- false;
      true
    end

  let match_document t doc =
    Pf_obs.Counter.incr t.documents;
    let matches = ref [] in
    for sid = t.n_exprs - 1 downto 0 do
      let e = t.exprs.(sid) in
      if e.active && Pf_xpath.Eval.matches e.path doc then matches := sid :: !matches
    done;
    Pf_obs.Counter.add t.matched (List.length !matches);
    !matches

  let match_string t s = match_document t (Pf_xml.Sax.parse_document s)
  let metrics t = t.registry
end
