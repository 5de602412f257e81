(** Machinery shared by the three stage analyses: the busy-period → Q →
    per-instance-queuing-time → max-response scan that eqs (14)–(19),
    (21)–(26) and (28)–(33) all instantiate.

    On top of the paper's scan over cycle instances [q], the [Repaired]
    variant also scans the busy-period start position [l] = number of the
    analyzed flow's own frames released (at minimum separation) before the
    analyzed instance — repair R8, closing the own-flow carry-in soundness
    hole of the paper's equations (see the implementation comment and
    experiment E18).  Under [Faithful], [l] is always 0 as the paper
    writes it. *)

val run :
  ctx:Ctx.t ->
  stage:Stage.t ->
  flow:Traffic.Flow.t ->
  frame:int ->
  busy_seed:Gmf_util.Timeunit.ns ->
  busy_step:(Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns) ->
  w_base:(q:int -> l:int -> Gmf_util.Timeunit.ns) ->
  w_step:(q:int -> l:int -> Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns) ->
  finish:(q:int -> l:int -> w:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns) ->
  (Result_types.stage_response, Result_types.failure) result
(** [run] executes the scheme:

    + iterate [busy_step] from [busy_seed] to the busy-period length [t];
    + [Q = max 1 (ceil (t / TSUM_i))], capped by the configuration;
    + for every (q, l) pair, iterate [w_step ~q ~l] from [w_base ~q ~l]
      to [w(q,l)] ([w_step ~q ~l] is applied once per pair, so work that
      depends only on (q, l) belongs before its [fun w ->]);
    + the stage response is [max over (q,l) of finish ~q ~l ~w].

    Any divergence is reported as a [failure] naming the stage. *)

type interferer = {
  demand : Gmf.Demand.t;  (** MX or NX table of the flow on the link. *)
  extra : Gmf_util.Timeunit.ns;  (** extra_j at the analyzed stage. *)
}
(** One interfering flow of a stage, resolved once per stage analysis. *)

val interferers :
  Ctx.t ->
  stage:Stage.t ->
  src:Network.Node.id ->
  dst:Network.Node.id ->
  demand:(Traffic.Link_params.t -> Gmf.Demand.t) ->
  Traffic.Flow.t list ->
  interferer array
(** [interferers ctx ~stage ~src ~dst ~demand flows] reads each flow's
    demand table on link [src -> dst] ([Traffic.Link_params.time_demand]
    or [count_demand]) and its current extra at [stage].  Valid for one
    stage analysis: jitters only change between stage analyses. *)

val demand_sum : interferer array -> capped:bool -> Gmf_util.Timeunit.ns -> int
(** [demand_sum rows ~capped dt] is the sum over [rows] of
    [Gmf.Demand.bound demand ~capped (dt + extra)] — the MX or NX
    interference term of a stage recurrence. *)

val window_before : int array -> k:int -> len:int -> int
(** [window_before arr ~k ~len] sums, cyclically, the [len] entries of
    [arr] preceding index [k] — the demand (or minimum separation) of the
    analyzed frame's [len] own predecessors.  0 when [len = 0]. *)

val memoized :
  Ctx.t ->
  stage:Stage.t ->
  flow:Traffic.Flow.t ->
  frame:int ->
  Traffic.Flow.t list ->
  (unit -> Ctx.stage_result) ->
  Ctx.stage_result
(** [memoized ctx ~stage ~flow ~frame flows compute] is the stage result
    stored in the context's memo ({!Ctx.memo_entry}) when it was computed
    from the same extras at [stage] as [flows] have now, and otherwise
    [compute ()] (normally {!interferers} then {!run}), which is then
    stored with those extras.  [flows] must cover every flow whose extra
    the recurrences read, the analyzed flow itself included, in a fixed
    order.  Counts [stage.memo_hits] or [stage.evaluations]; only an
    evaluation opens a [stage.*] span. *)
