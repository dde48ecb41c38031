(** The unified engine signature.

    Every filtering implementation in the repository — the predicate engine
    of the paper, the YFilter and Index-Filter baselines, and the reference
    evaluator — satisfies {!FILTER}: a stateful collection of XPath
    expressions that matches whole documents and reports the sorted sids of
    the matching expressions. Generic layers (the differential-testing
    roster, the benchmark harness, the domain-parallel {!Pf_service}) are
    written once against this signature and take engines as first-class
    [(module FILTER)] values.

    The contract every implementation honours:

    - [add] assigns sids densely from 0 in registration order, so two
      instances fed the same add sequence agree on every sid — the property
      the sharded service relies on to keep replicas aligned;
    - [match_document] returns sids sorted ascending, each at most once,
      and never reports a removed sid;
    - expressions outside the engine's supported subset are rejected with
      {!Unsupported} (never a bare [Invalid_argument]), and rejection
      leaves the engine unchanged;
    - engines are single-domain values: no instance is accessed from two
      domains at once (replication, not sharing, is the concurrency
      story). *)

exception Unsupported of string
(** Raised by [add] (and [add_string]) when an expression is outside the
    implementation's supported subset — e.g. an attribute filter on a
    wildcard step for the predicate engine, or a nested path filter for
    the YFilter/Index-Filter baselines. {!Pf_core.Encoder.Unsupported} is
    this exception, re-exported, so one handler catches every engine. *)

(** Why a subscription-layer operation was refused. Shared by the broker's
    result-returning operations, its command/event state machine and the
    wire protocol's ERROR frames, so a transport maps failures to frames
    without exception-catching: the broker returns these, the codec
    round-trips them. *)
type error =
  | Bad_expression of string  (** XPath syntax error ({!Pf_xpath.Parser.Error}) *)
  | Unsupported_expression of string  (** outside the engine's subset ({!Unsupported}) *)
  | Unknown_subscription of int  (** no live subscription under this id *)
  | Bad_document of string  (** XML parse failure on a published document *)
  | Protocol_error of string  (** transport-level: malformed or out-of-order frame *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

module type FILTER = sig
  type t

  val create : unit -> t
  (** A fresh, empty engine instance. *)

  val add : t -> Pf_xpath.Ast.path -> int
  (** Register an expression; returns its sid (dense, starting at 0).
      Raises {!Unsupported} for expressions outside the supported subset. *)

  val add_string : t -> string -> int
  (** Parse then {!add}. Raises {!Pf_xpath.Parser.Error} on bad syntax. *)

  val remove : t -> int -> bool
  (** Unregister an expression. Returns [false] if the sid is unknown or
      was already removed; sids are never reused. *)

  val match_document : t -> Pf_xml.Tree.t -> int list
  (** Sids of all registered, not-removed expressions matched by the
      document, sorted ascending. *)

  val match_string : t -> string -> int list
  (** Parse the XML (raises {!Pf_xml.Sax.Parse_error}) then
      {!match_document}. *)

  val metrics : t -> Pf_obs.Registry.t
  (** The instance's metric registry. *)
end

type filter = (module FILTER)
(** A first-class engine. Configured variants are built by per-engine
    constructors (e.g. {!Pf_core.Engine.filter}) that close the
    configuration into [create]. *)

module Reference : FILTER
(** The trivial implementation over the reference evaluator
    {!Pf_xpath.Eval}: every expression is stored verbatim and matched by
    brute force. Supports the full expression language; quadratic and
    slow, but it is the conformance oracle every other implementation
    must agree with. Its registry (scope ["reference"]) is unlisted and
    carries the ["documents"] and ["matches"] counters. *)
