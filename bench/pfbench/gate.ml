(* The correctness gate: recompute the sampled documents' deliveries with an
   in-process broker over the same filter and subscribe sequence, and
   compare them with the RESULTS frames the wire broker sent.

   Mutation-connection subscribers ([churn-*]) come and go on the broker's
   own schedule, so only the stable [user-*] subscribers are compared
   exactly; every delivered churn id must name a subscription whose
   expression matches the document under the reference evaluator. *)

module Broker = Pf_broker.Broker

let shipped_filter () =
  match Pf_bench.Bench_util.filter_of_name "basic-pc-ap" with
  | Some f -> f
  | None -> assert false

let is_churn s = String.starts_with ~prefix:"churn-" s

(* Returns the number of mismatches: id disagreements at set-up, sampled
   documents whose stable deliveries differ, and churn ids that do not
   match their document. *)
let check (inputs : Workload.inputs) (o : Drive.outcome) =
  let b = Broker.create ~filter:(shipped_filter ()) () in
  let mismatches = ref 0 in
  Array.iteri
    (fun i expr ->
      match Broker.subscribe b ~subscriber:inputs.subscribers.(i) expr with
      | Ok s -> if Broker.subscription_id s <> o.setup_ids.(i) then incr mismatches
      | Error _ -> if o.setup_ids.(i) >= 0 then incr mismatches)
    inputs.exprs;
  let parsed = Hashtbl.create 64 in
  let churn_expr id =
    match Hashtbl.find_opt parsed id with
    | Some p -> p
    | None ->
        let p = Option.map Pf_xpath.Parser.parse (Hashtbl.find_opt o.churn_exprs id) in
        Hashtbl.add parsed id p;
        p
  in
  Hashtbl.iter
    (fun i wire ->
      let doc = inputs.docs.(i) in
      let expected =
        List.map
          (fun (d : Broker.delivery) -> (d.subscriber, List.map Broker.subscription_id d.via))
          (Broker.publish_string b doc)
      in
      let stable = List.filter (fun (s, _) -> not (is_churn s)) wire in
      if stable <> expected then incr mismatches;
      let churned = List.concat_map snd (List.filter (fun (s, _) -> is_churn s) wire) in
      if churned <> [] then begin
        let tree = Pf_xml.Sax.parse_document doc in
        List.iter
          (fun id ->
            match churn_expr id with
            | Some p when Pf_xpath.Eval.matches p tree -> ()
            | _ -> incr mismatches)
          churned
      end)
    o.delivered;
  !mismatches
