(* The three workloads and the inputs each one generates from a seed. The
   broker only ever sees wire frames built from these inputs. *)

type t = {
  name : string;
  dtd : string;  (** "nitf" or "psd": subscriptions and documents share it *)
  subscriptions : int;
  redundant : bool;  (** Presets.redundant_subscriptions instead of paper_queries *)
  light_rate : float;  (** docs/s in the light open-loop phase *)
  churn : bool;  (** 20 mutations/s on a second connection during phases 3-5 *)
}

(* Rates sit at roughly 45% and 70% of the capacity pf-load measured for each
   workload on a 2-core host (window 32, --domains 1). *)
let all =
  [
    (* the paper's selective regime: ~4% of subscriptions match a document *)
    { name = "nitf-selective"; dtd = "nitf"; subscriptions = 20_000; redundant = false;
      light_rate = 30.; churn = false };
    (* the matching-heavy regime: ~23% match, the expression stage dominates *)
    { name = "psd-dense"; dtd = "psd"; subscriptions = 3_000; redundant = false;
      light_rate = 30.; churn = false };
    (* writes beside reads: WAL fsync, containment probes, cache invalidation *)
    { name = "nitf-redundant-churn"; dtd = "nitf"; subscriptions = 20_000; redundant = true;
      light_rate = 25.; churn = true };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Smoke runs check the shape of the output, never its timings; four times
   the rates keeps them short. *)
let for_smoke w = { w with light_rate = 4. *. w.light_rate }

(* The busy phase offers this share of the saturation throughput measured so
   far in the same run: a fixed utilization, so its latency tracks service
   time instead of blowing up whenever the shared host runs slow. *)
let busy_share = 0.6
let churn_rate = 20.
let churn_live_cap = 100
let churn_subscribers = 50

(* Sizes that depend on the run, not on the workload. *)
type size = {
  subs_cap : int option;  (** smoke runs shrink every subscription table *)
  warmup : int;
  saturation : int;
  light : int;
  busy : int;
  setups : int;  (** broker start-ups per run; setup_s is their median *)
  rounds : int;  (** interleaved saturation/light/busy slices *)
  gate_sample : int;
  traced_docs : int;
  service_docs : int;
  probe_mutations : int;  (** closed-loop mutations on workloads without churn *)
}

(* About 110 docs/s: what the broker sustains on these workloads on a 2-core
   host. Phase sizes are document counts, so every run does the same work;
   at this capacity [seconds] splits 25/45/30 over saturation, light and
   busy, most of it on the gated light phase. *)
let capacity = 110.

let size_for w ~seconds ~smoke =
  if smoke then
    { subs_cap = Some 300; warmup = 20; saturation = 60; light = 60; busy = 60; setups = 3;
      rounds = 2; gate_sample = 60; traced_docs = 60; service_docs = 20; probe_mutations = 40 }
  else
    let docs_for share rate = max 20 (int_of_float (Float.round (rate *. share *. seconds))) in
    { subs_cap = None; warmup = 100;
      saturation = docs_for 0.25 capacity; light = docs_for 0.45 w.light_rate;
      busy = docs_for 0.3 (busy_share *. capacity); setups = 3; rounds = 8; gate_sample = 256;
      traced_docs = 300; service_docs = 150; probe_mutations = 600 }

type inputs = {
  exprs : string array;  (** setup subscriptions, in subscribe order *)
  subscribers : string array;  (** [user-(i mod n/10)], as pf-load names them *)
  churn_pool : string array;  (** expressions the mutation connection subscribes *)
  docs : string array;  (** warm-up, saturation, light, busy — in send order *)
}

let dtd_of w =
  match Pf_workload.Dtd.by_name w.dtd with Some d -> d | None -> invalid_arg w.dtd

(* Distinct seeds per input stream: documents of seed s and s+1 would
   otherwise overlap, since generate_many numbers them consecutively. *)
let derive seed k = (seed * 1_000_003) + (k * 7919) + 1

let generate w size ~seed =
  let dtd = dtd_of w in
  let n = match size.subs_cap with Some c -> min c w.subscriptions | None -> w.subscriptions in
  let to_strings = List.map Pf_xpath.Parser.to_string in
  let exprs =
    (if w.redundant then
       Pf_workload.Xpath_gen.generate_redundant dtd
         { Pf_workload.Presets.redundant_subscriptions with
           Pf_workload.Xpath_gen.count = n; rseed = derive seed 1 }
     else
       Pf_workload.Xpath_gen.generate dtd
         { Pf_workload.Presets.paper_queries with
           count = n; filters_per_path = 1; seed = derive seed 1 })
    |> to_strings |> Array.of_list
  in
  let n = Array.length exprs in
  let subscribers = Array.init n (fun i -> Printf.sprintf "user-%d" (i mod max 1 (n / 10))) in
  let churn_pool =
    Pf_workload.Xpath_gen.generate_redundant dtd
      { Pf_workload.Presets.redundant_subscriptions with
        Pf_workload.Xpath_gen.count = 1000; rseed = derive seed 2 }
    |> to_strings |> Array.of_list
  in
  let total = size.warmup + size.saturation + size.light + size.busy in
  let docs =
    Pf_workload.Xml_gen.generate_many dtd
      { (Pf_workload.Presets.documents_for w.dtd) with seed = derive seed 3 }
      total
    |> List.map (Pf_xml.Print.to_string ~decl:false)
    |> Array.of_list
  in
  { exprs; subscribers; churn_pool; docs }
