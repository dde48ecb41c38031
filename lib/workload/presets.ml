let nitf_documents =
  { Xml_gen.default with Xml_gen.max_levels = 8; max_fanout = 4; skew = 0.95 }

let psd_documents =
  { Xml_gen.default with Xml_gen.max_levels = 8; max_fanout = 6; skew = 0. }

let auction_documents =
  { Xml_gen.default with Xml_gen.max_levels = 8; max_fanout = 4; skew = 0.5 }

let documents_for = function
  | "nitf" | "NITF" -> nitf_documents
  | "psd" | "PSD" -> psd_documents
  | "auction" | "AUCTION" | "xmark" -> auction_documents
  | s -> invalid_arg (Printf.sprintf "Presets.documents_for: unknown DTD %S" s)

let paper_queries = Xpath_gen.default

(* Subscription-heavy regime: far more expressions than the paper's sweeps
   (duplicates allowed, as in a real dissemination system where many
   subscribers register the same feeds), against the skewed NITF-style
   documents. The regime where per-document fixed costs dominate and
   expression sharding is supposed to pay off. *)
let heavy_subscriptions =
  { Xpath_gen.default with Xpath_gen.count = 100_000; distinct = false }

(* Redundancy-skewed regime: 100k logical subscriptions drawn from a
   1000-expression pool with spelling/widening/narrowing mutations — the
   workload the subsumption index (Pf_core.Subsume) collapses to a few
   thousand physical shapes. *)
let redundant_subscriptions =
  { Xpath_gen.default_redundant with Xpath_gen.count = 100_000 }
