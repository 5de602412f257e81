(** Shared state of one analysis run: the scenario, the configuration,
    the holistic jitter state, and two caches of values that only depend
    on the fixed scenario and configuration — the stage-result memo and
    the per-flow lint gate.  Demand tables are not held here: each is
    owned by its {!Traffic.Link_params} value, which {!params} reads from
    the scenario's cache. *)

type t

val create : ?config:Config.t -> Traffic.Scenario.t -> t
(** [create ?config scenario] initializes the context.  The jitter state
    starts with every flow's source jitter installed at its first-link stage
    and zero everywhere else — the starting point of the holistic iteration
    (Section 3.5). *)

val scenario : t -> Traffic.Scenario.t
val config : t -> Config.t
val jitters : t -> Jitter_state.t

val reset_jitters : t -> unit
(** Restores the initial jitter state (source jitters only). *)

val snapshot : t -> Jitter_state.t
(** A deep copy of the current jitter state.  Taken after a converged
    {!Holistic} run it is the fixed point of the scenario — the seed an
    admission session hands back to {!restore} to warm-start the next
    decision. *)

val restore : t -> Jitter_state.t -> unit
(** [restore t state] replaces the context's jitters with a copy of
    [state] and (re-)installs every flow's source jitters on top, so a
    state captured on a {e smaller} flow set is completed with the first
    entries of any flow it has never seen.  The argument is not aliased;
    later mutations of the context leave it intact. *)

val mx :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  dt:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** MX(tau_j, N1, N2, dt) (eq 11): link-time demand bound of the flow on the
    link during an interval of length [dt].  Under [Config.Faithful] the
    per-window demand is clamped to [dt] as eq (10) writes it; under
    [Config.Repaired] the clamp is dropped (request-bound reading, repair
    R7) so zero-jitter interference is not lost. *)

val mx_capped : t -> bool
(** Whether {!mx} clamps windows to the interval: [true] under
    [Config.Faithful], [false] under [Config.Repaired]. *)

val nx :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  dt:Gmf_util.Timeunit.ns -> int
(** NX(tau_j, N1, N2, dt) (eq 13): Ethernet-frame count bound. *)

val extra : t -> Traffic.Flow.t -> stage:Stage.t -> Gmf_util.Timeunit.ns
(** extra_j at a stage: the flow's maximum per-frame jitter there. *)

val set_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t ->
  Gmf_util.Timeunit.ns -> unit

val get_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t -> Gmf_util.Timeunit.ns

val params :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  Traffic.Link_params.t

(** {1 Stage-result memo}

    With the context's scenario and configuration fixed, the result of one
    stage analysis of (flow, frame, stage) is a pure function of the
    extra_j of the stage's interferer rows (the analyzed flow's own row
    included): those are the only jitter-state reads the recurrences make.
    The memo keeps, per (flow id, frame, stage), the extras of the last
    analysis and its result; an analysis whose freshly resolved extras
    equal the stored ones returns the stored result instead of re-running
    its recurrences (see {!Stage_common.memoized}).

    The context is the memo's only owner.  Keyed by input values, not by
    round or run, it stays valid across {!reset_jitters} and {!restore}:
    an entry whose extras no longer match is simply recomputed. *)

type stage_result = (Result_types.stage_response, Result_types.failure) result

type memo_entry = {
  extras : Gmf_util.Timeunit.ns array;
      (** The extras, in interferer-row order, [result] was computed from. *)
  mutable result : stage_result option;
      (** [None] until the first analysis completes. *)
}

val memo_entry :
  t -> flow:Traffic.Flow.id -> frame:int -> stage:Stage.t -> rows:int ->
  memo_entry
(** The memo entry of one stage analysis over [rows] interferer rows,
    created empty (no result) on first request.  The caller compares and
    overwrites [extras] in place. *)

val flow_gate : t -> Traffic.Flow.t -> Gmf_diag.t option
(** The first diagnostic of [Gmf_lint.Rules.flow_gate] for the flow, or
    [None] when the gate passes — evaluated once per flow and context (a
    function of the scenario alone). *)
