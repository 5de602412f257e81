(** A complete analyzable/simulatable setting: topology + switch cost models
    + flow set.

    This is the unit the analysis, the simulator, the admission controller
    and the experiments all operate on. *)

type t

val make :
  ?share:t ->
  ?switches:(Network.Node.id * Click.Switch_model.t) list ->
  topo:Network.Topology.t ->
  flows:Flow.t list ->
  unit ->
  t
(** [make ?share ?switches ~topo ~flows ()] validates and builds a scenario.

    A scenario derived from another one ([share]: a component, a degraded
    or edited copy over the same topology value) takes over the {!params}
    [share] has already derived for every flow it holds as the very same
    value ([==]), so each {!Link_params} and the demand tables it owns
    are built once across the family.

    Every switch node that appears as an intermediate of some route needs a
    {!Click.Switch_model}; nodes not listed in [switches] get a default
    model with [ninterfaces = degree of the node] and the paper's measured
    CROUTE/CSEND.

    Raises [Invalid_argument] on duplicate flow ids, a [switches] entry for
    a non-switch node, or a model whose interface count is below the node's
    degree. *)

val topo : t -> Network.Topology.t

val flows : t -> Flow.t list
(** All flows, in id order. *)

val flow : t -> Flow.id -> Flow.t
(** Raises [Invalid_argument] on an unknown id. *)

val flow_count : t -> int

val switch_model : t -> Network.Node.id -> Click.Switch_model.t
(** The cost model of a switch node.  Raises [Invalid_argument] when the
    node is not a switch. *)

val switch_nodes : t -> Network.Node.id list
(** Every switch node with a model (explicit or defaulted), ascending. *)

val switch_models : t -> (Network.Node.id * Click.Switch_model.t) list
(** [(node, switch_model t node)] for every {!switch_nodes} entry — the
    [~switches] argument that rebuilds a scenario (e.g. over another flow
    set) with the same switch models. *)

val circ : t -> Network.Node.id -> Gmf_util.Timeunit.ns
(** CIRC(N) of a switch node. *)

val flows_on : t -> src:Network.Node.id -> dst:Network.Node.id -> Flow.t list
(** flows(N1,N2): every flow whose route contains the hop [src -> dst]
    (paper Section 3). *)

val hep : t -> Flow.t -> node:Network.Node.id -> Flow.t list
(** hep(tau_i, N) of eq (2): flows other than [tau_i] leaving [node] on the
    same link as [tau_i] (i.e. towards succ(tau_i, node)) with priority
    higher than or equal to [tau_i]'s. *)

val lp : t -> Flow.t -> node:Network.Node.id -> Flow.t list
(** lp(tau_i, N) of eq (3): the remaining flows on that link — strictly
    lower priority. *)

val params : t -> Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  Link_params.t
(** Cached per-(flow, link) derived parameters. *)

val link_utilization : t -> src:Network.Node.id -> dst:Network.Node.id -> float
(** Sum over flows(src,dst) of CSUM/TSUM — the left side of eq (20). *)

val cached : t -> key:string -> (unit -> string) -> string
(** [cached t ~key compute] memoizes a derived string per scenario value
    (computed at most once per key).  Scenarios are immutable once built,
    so any function of the scenario alone — plus whatever the caller
    encodes into [key], e.g. an analysis config — is safe to cache this
    way.  Used by [Analysis.Case.digest] so repeated memo probes stop
    re-serializing the whole scenario.  The slot lives inside the value:
    a scenario marshalled to a worker process carries (and keeps) its own
    cache, with no global revision counter to fall out of sync. *)

val map_flows : t -> f:(Flow.t -> Flow.t) -> t
(** [map_flows t ~f] rebuilds the scenario with every flow transformed
    (same topology and switch models).  [f] must preserve flow ids'
    uniqueness. *)

val pp : Format.formatter -> t -> unit
