(** The subsumption index: O(distinct semantic shapes) registration over
    any {!Pf_intf.FILTER}.

    The paper's Section 4.2.2 exploits {e syntactic} prefix covering
    through the expression trie and postpones containment covering to
    future work. This module is the registration-side half of that future
    work: logical subscriptions are canonicalized
    ({!Pf_xpath.Canonical.normalize}) and hash-consed into a {e shape
    table}, so semantically equal expressions — spelling variants,
    filter-order variants, gap-form variants, and mutually containing
    pairs discovered by {!Containment.covers} probes — share one
    {e physical} expression in the wrapped engine. Matching runs over
    physical expressions only; a fan-out layer translates each physical
    match back to the sorted logical sid set, byte-identical to an
    unsubsumed engine.

    Strict (one-directional) containment does not merge physical
    expressions — a contained expression's matches are a subset, not an
    equal set, of its cover's — but every strict pair between live shapes
    is recorded as a subsumption DAG edge (exact, up to the probe cap:
    insertion probes both directions, so edge discovery does not depend
    on insertion order). The DAG drives {!redundant_indexed}, the
    broker's covering-suppression probe ({!Probe}), and the observability
    counters.

    Insertion probes candidate shapes from per-tag buckets (a cover's tag
    steps must all appear in the covered expression, so probing the
    target's tag buckets plus the tagless bucket covers one direction and
    a single tag bucket the other), prefiltered by step count and a
    tag-set signature, and capped per insertion — so registering n
    subscriptions makes O(n) covers probes, not O(n²). A truncated probe
    only loses sharing and DAG edges, never correctness.

    All metrics are exported in a registry with scope ["subsume"]:
    gauges [shapes], [logical_subscriptions], [dag_edges]; counters
    [dedup_hits], [alias_hits], [covers_probes], [probe_truncations],
    [physical_retirements], [representative_promotions]. *)

(** {1 Shape-bucket candidate probing} *)

(** A candidate index for covering probes: entries are bucketed by every
    distinct tag step they carry (tagless entries — all-wild or
    wildcard-only expressions — in a separate bucket), each carrying a
    step count and a tag-set signature. [covers c target] requires every
    tag step of [c] to land on an equal tag of [target], which yields a
    complete enumeration in both directions: possible covers of a target
    sit in the target's tag buckets or the tagless bucket
    ({!iter_candidates}), and everything a target covers carries all of
    the target's tags, so any single tag bucket of the target holds them
    all ({!iter_covered}). The broker replaces its per-subscribe linear
    scan with this probe. *)
module Probe : sig
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> Pf_xpath.Ast.path -> key:int -> 'a -> unit
  (** Index a value under an expression. [key] identifies the entry for
      {!remove}. *)

  val remove : 'a t -> Pf_xpath.Ast.path -> key:int -> unit
  (** Remove the entry added under the same expression and [key]
      (no-op if absent). *)

  val size : 'a t -> int

  val iter_candidates : 'a t -> Pf_xpath.Ast.path -> (int -> 'a -> unit) -> unit
  (** [iter_candidates t target f] calls [f key value] on every entry
      whose expression could cover [target] (complete: every actual cover
      is enumerated; the caller still tests {!Containment.covers}).
      Entries whose step count exceeds the target's or whose tag
      signature is not a subset of the target's are skipped without a
      covers test. *)

  val iter_covered : 'a t -> Pf_xpath.Ast.path -> (int -> 'a -> unit) -> unit
  (** [iter_covered t target f] — the other direction: every entry whose
      expression [target] could cover (complete; the caller still tests
      {!Containment.covers}). Entries with fewer steps than the target or
      whose tag signature is not a superset of the target's are skipped
      without a covers test. An all-wild target scans every bucket. *)
end

(** {1 The subsumed filter} *)

type stats = {
  shapes : int;  (** live physical shapes (= expressions in the engine) *)
  logical : int;  (** live logical subscriptions *)
  dag_edges : int;  (** strict-containment edges between live shapes *)
  covered_shapes : int;  (** shapes with at least one covering shape *)
  dedup_hits : int;  (** adds hash-consed onto an existing shape by canonical form *)
  alias_hits : int;  (** adds merged by mutual containment (equal match sets) *)
  covers_probes : int;  (** {!Containment.covers} calls made by insertions *)
  probe_truncations : int;  (** insertions whose candidate probe hit the cap *)
  retirements : int;  (** physical expressions removed when their last logical left *)
  promotions : int;
      (** representative hand-offs: the oldest logical of a shape was
          removed and a surviving logical took over *)
}

module Make (F : Pf_intf.FILTER) : sig
  include Pf_intf.FILTER

  val create_with : ?probe_cap:int -> unit -> t
  (** [probe_cap] bounds candidate shapes probed per insertion
      (default 64). [create ()] = [create_with ()]. *)

  val stats : t -> stats

  val fan_out : t -> int list -> int list
  (** Translate a physical match set (sids of the wrapped engine) to the
      sorted logical sid set — the translation [match_document] applies
      to the wrapped engine's answer. Exposed for integrations that run
      the physical engine out-of-band (a broker shard, a replayed match
      journal) and need the logical answer after the fact. *)

  val subsume_metrics : t -> Pf_obs.Registry.t
  (** The ["subsume"] registry (gauges and counters mirroring {!stats});
      {!metrics} returns the wrapped engine's registry, per the [FILTER]
      contract. *)

  val validate : t -> unit
  (** Check the index invariants — logical slots and shape membership
      agree, parent/child edge lists are symmetric and acyclic, key
      buckets are consistent, every live shape has a representative.
      Raises [Failure] with a description on violation. Test hook. *)
end

val filter : Pf_intf.filter -> Pf_intf.filter
(** [filter f] — {!Make} applied to a first-class filter: logical sids
    out, deduplicated physical registration in. Composes with streaming
    ingest, both [Pf_service] shard modes and the broker, since it is
    itself a [FILTER]. *)

(** {1 Workload diagnostics} *)

type redundancy = {
  red_exprs : int;  (** expressions analyzed *)
  red_shapes : int;  (** distinct semantic shapes (canonical + aliases merged) *)
  red_duplicates : int;  (** expressions sharing a previously seen shape *)
  red_dag_edges : int;  (** strict-containment edges discovered *)
  red_covered_shapes : int;  (** shapes covered by at least one other shape *)
  red_covers_probes : int;  (** covers tests spent building the table *)
  red_probe_truncations : int;  (** insertions that hit the probe cap *)
}

val redundant_indexed : ?probe_cap:int -> Pf_xpath.Ast.path list -> redundancy
(** Shape-table redundancy analysis of a workload: the scalable
    counterpart of {!Containment.redundant} (which stays the documented
    small-input path — it enumerates every covering pair, quadratically).
    [redundant_indexed] reports aggregate redundancy in O(n) probes; with
    a larger [probe_cap] the DAG is denser but never exceeds the probed
    candidates. *)

val pp_redundancy : Format.formatter -> redundancy -> unit
