(** Shared state of one analysis run: the scenario, the configuration and
    the holistic jitter state.  Demand tables are not held here: each is
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
