open Pf_xpath

type engine = {
  ename : string;
  filter : Pf_intf.filter;
  supports : Ast.path -> bool;
  finalize : unit -> unit;
}

(* The predicate engine rejects filters attached to wildcard steps
   (Pf_intf.Unsupported), recursively through nested paths. *)
let rec engine_subset (p : Ast.path) =
  List.for_all
    (fun (s : Ast.step) ->
      (match s.Ast.test with
      | Ast.Wildcard -> s.Ast.filters = []
      | Ast.Tag _ -> true)
      && List.for_all
           (function Ast.Nested q -> engine_subset q | Ast.Attr _ -> true)
           s.Ast.filters)
    p.Ast.steps

(* One runner serves the whole roster: build a fresh instance, register the
   supported expressions (sids are dense, in registration order), then turn
   each document's sorted sid list into per-expression booleans. *)
let run { filter = (module F); finalize; _ } exprs supported docs =
  (* finalize even on a crash: service-backed entries must not leak worker
     domains when the case is a reportable crash divergence *)
  Fun.protect ~finally:finalize (fun () ->
      let inst = F.create () in
      let sids = Array.make (Array.length exprs) (-1) in
      Array.iteri (fun i e -> if supported.(i) then sids.(i) <- F.add inst e) exprs;
      let per_doc =
        Array.map
          (fun d ->
            let matched = Hashtbl.create 16 in
            List.iter
              (fun sid -> Hashtbl.replace matched sid ())
              (F.match_document inst d);
            matched)
          docs
      in
      Array.mapi
        (fun i _ ->
          Array.map
            (fun matched -> sids.(i) >= 0 && Hashtbl.mem matched sids.(i))
            per_doc)
        exprs)

let oracle =
  {
    ename = "eval";
    filter = (module Pf_intf.Reference);
    supports = (fun _ -> true);
    finalize = ignore;
  }

let predicate_engine ~ename ?variant ?attr_mode ?dedup_paths ?path_cache ?stream () =
  {
    ename;
    filter =
      (Pf_core.Engine.filter ?variant ?attr_mode ?dedup_paths ?path_cache ?stream ()
        :> Pf_intf.filter);
    supports = engine_subset;
    finalize = ignore;
  }

(* Wrap a filter so every [match_document] first unsubscribes and
   re-subscribes a deterministic subset of the live expressions. External
   sids stay stable — the wrapper translates through a mapping, exactly
   like the service's global/local sid tables — so the runner's
   bookkeeping is untouched while the inner engine's subscription epoch
   (and with it any path-result cache) is churned between documents. A
   cache that survives an epoch bump, or an entry not recomputed after a
   re-add under a fresh internal sid, shows up as a divergence. *)
let churned (filter : Pf_intf.filter) : Pf_intf.filter =
  let (module F) = filter in
  (module struct
    type t = {
      inst : F.t;
      mutable docs : int;
      exprs : (int, Ast.path) Hashtbl.t;  (* external sid -> source *)
      fwd : (int, int) Hashtbl.t;  (* external -> internal sid *)
      rev : (int, int) Hashtbl.t;  (* internal -> external sid *)
      mutable next : int;
    }

    let create () =
      {
        inst = F.create ();
        docs = 0;
        exprs = Hashtbl.create 16;
        fwd = Hashtbl.create 16;
        rev = Hashtbl.create 16;
        next = 0;
      }

    let add t p =
      let internal = F.add t.inst p in
      let ext = t.next in
      t.next <- ext + 1;
      Hashtbl.replace t.exprs ext p;
      Hashtbl.replace t.fwd ext internal;
      Hashtbl.replace t.rev internal ext;
      ext

    let add_string t s = add t (Parser.parse s)

    let remove t ext =
      match Hashtbl.find_opt t.fwd ext with
      | None -> false
      | Some internal ->
        let ok = F.remove t.inst internal in
        if ok then begin
          Hashtbl.remove t.fwd ext;
          Hashtbl.remove t.rev internal;
          Hashtbl.remove t.exprs ext
        end;
        ok

    let match_document t doc =
      t.docs <- t.docs + 1;
      let k = t.docs in
      (* churn roughly a third of the live expressions, a different third
         each document *)
      let victims =
        Hashtbl.fold
          (fun ext _ acc -> if (ext + k) mod 3 = 0 then ext :: acc else acc)
          t.fwd []
      in
      List.iter
        (fun ext ->
          let internal = Hashtbl.find t.fwd ext in
          let removed = F.remove t.inst internal in
          assert removed;
          let internal' = F.add t.inst (Hashtbl.find t.exprs ext) in
          Hashtbl.remove t.rev internal;
          Hashtbl.replace t.fwd ext internal';
          Hashtbl.replace t.rev internal' ext)
        (List.sort compare victims);
      List.sort compare
        (List.map (fun i -> Hashtbl.find t.rev i) (F.match_document t.inst doc))

    let match_string t s = match_document t (Pf_xml.Sax.parse_document s)
    let metrics t = F.metrics t.inst
  end)

(* The subsumption wrapper under churn: canonicalization, hash-consing,
   alias merging and shape retirement/promotion all run between documents
   (the churn wave removes and re-adds expressions, so shapes collapse to
   one physical sid, lose logicals, retire and are rebuilt), and the
   fan-out must stay byte-identical to the oracle throughout. *)
let subsumed_engine ~ename ?variant ?attr_mode ?stream () =
  {
    ename;
    filter =
      churned
        (Pf_core.Subsume.filter
           (Pf_core.Engine.filter ?variant ?attr_mode ?stream () :> Pf_intf.filter));
    supports = engine_subset;
    finalize = ignore;
  }

let cached_engine ~ename ?variant ?attr_mode ?stream () =
  {
    ename;
    filter =
      churned
        (Pf_core.Engine.filter ?variant ?attr_mode ~path_cache:true ?stream ()
          :> Pf_intf.filter);
    supports = engine_subset;
    finalize = ignore;
  }

let yfilter_engine =
  {
    ename = "yfilter";
    filter = (module Pf_yfilter.Yfilter);
    supports = Ast.is_single_path;
    finalize = ignore;
  }

let index_filter_engine =
  {
    ename = "index-filter";
    filter = (module Pf_indexfilter.Index_filter);
    supports = Ast.is_single_path;
    finalize = ignore;
  }

(* The service wrapped as a FILTER: subscribe/unsubscribe/filter_batch over
   a live set of worker domains. Instances created during one [run] are
   tracked so [finalize] can join their domains — the runner calls it even
   when the case crashes. Matching through the service exercises replica
   log replay and (in [Expr] mode) shard merging against the
   same oracle as the sequential engines. *)
let service_engine ~ename ~mode ~domains ?(stream = Pf_core.Engine.Tree)
    ?(subsumption = false) () =
  let live : Pf_service.t list ref = ref [] in
  let module S = struct
    type t = Pf_service.t

    let create () =
      let base = (Pf_core.Engine.filter ~stream () :> Pf_intf.filter) in
      let filter = if subsumption then Pf_core.Subsume.filter base else base in
      let svc = Pf_service.create ~mode ~domains ~batch:2 filter in
      live := svc :: !live;
      svc

    let add t p = Pf_service.subscribe t p
    let add_string t s = Pf_service.subscribe_string t s
    let remove t sid = Pf_service.unsubscribe t sid

    (* with a streaming engine the document goes in raw: serialized text
       submitted through [filter_batch_raw], so no layer of the pipeline
       parses a tree on the matching side *)
    let match_document t doc =
      let r =
        match stream with
        | Pf_core.Engine.Tree -> Pf_service.filter_batch t [ doc ]
        | Scan | Stream ->
          Pf_service.filter_batch_raw t [ Pf_xml.Print.to_string ~decl:false doc ]
      in
      match r with [ r ] -> r | _ -> assert false

    let match_string t s = match_document t (Pf_xml.Sax.parse_document s)

    let metrics t = Pf_service.metrics t
  end in
  {
    ename;
    filter = (module S);
    supports = engine_subset;
    finalize =
      (fun () ->
        let svcs = !live in
        live := [];
        List.iter Pf_service.shutdown svcs);
  }

let default_roster () =
  [
    oracle;
    predicate_engine ~ename:"engine" ~variant:Pf_core.Expr_index.Access_predicate
      ~attr_mode:Pf_core.Engine.Inline ();
    predicate_engine ~ename:"engine-nested-sp" ~variant:Pf_core.Expr_index.Basic
      ~attr_mode:Pf_core.Engine.Postponed ();
    yfilter_engine;
    index_filter_engine;
  ]

let extended_roster () =
  default_roster ()
  @ [
      predicate_engine ~ename:"engine-pc" ~variant:Pf_core.Expr_index.Prefix_covering ();
      predicate_engine ~ename:"engine-shared-dedup" ~variant:Pf_core.Expr_index.Shared
        ~dedup_paths:true ();
      (* the two tree-free ingest modes against the tree-mode oracle:
         snapshot-per-path and fully streaming (arena publications refilled
         from the step stack) — the streaming-vs-tree differential wall *)
      predicate_engine ~ename:"engine-scan" ~stream:Pf_core.Engine.Scan ();
      predicate_engine ~ename:"engine-stream" ~stream:Pf_core.Engine.Stream ();
      (* the cross-document path-result cache under subscription churn:
         inline (symbol-keyed entries) and selection-postponed with
         attribute-sensitive keys; every document is preceded by a
         deterministic unsubscribe/resubscribe wave, so stale cache
         entries surviving an epoch bump diverge from the oracle *)
      cached_engine ~ename:"engine-cached" ();
      cached_engine ~ename:"engine-cached-sp" ~variant:Pf_core.Expr_index.Basic
        ~attr_mode:Pf_core.Engine.Postponed ();
      (* streaming composed with the churned path cache: arena publications
         must produce byte-identical cache keys to tree-extracted paths *)
      cached_engine ~ename:"engine-stream-cached" ~stream:Pf_core.Engine.Stream ();
      (* the service layer against the same oracle: document-replicated and
         expression-sharded, at a domain count that makes sharding
         non-trivial (3 shards interleave sids 0,3,6.. / 1,4,.. / 2,5,..) *)
      service_engine ~ename:"service-doc" ~mode:Pf_service.Doc ~domains:2 ();
      service_engine ~ename:"service-expr" ~mode:Pf_service.Expr ~domains:3 ();
      (* streaming engines behind the service: documents travel as raw XML
         text (filter_batch_raw) and are matched off the event stream on
         the worker domains *)
      service_engine ~ename:"service-stream" ~mode:Pf_service.Doc ~domains:2
        ~stream:Pf_core.Engine.Stream ();
      service_engine ~ename:"service-stream-expr" ~mode:Pf_service.Expr ~domains:2
        ~stream:Pf_core.Engine.Stream ();
      (* the subsumption index between the roster and the engine: logical
         sids fan out from hash-consed physical shapes, with churn waves
         retiring and rebuilding shapes between documents *)
      subsumed_engine ~ename:"engine-subsumed" ();
      service_engine ~ename:"service-subsumed-doc" ~mode:Pf_service.Doc ~domains:2
        ~subsumption:true ();
      service_engine ~ename:"service-subsumed-expr" ~mode:Pf_service.Expr ~domains:3
        ~subsumption:true ();
    ]
