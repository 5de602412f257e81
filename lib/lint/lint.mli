(** The lint pass: run every rule, record hit-rate metrics, classify.

    [run] is the entry point the CLI, [Analysis.Admission] and tests use.
    [gate] is the errors-only variant for callers that only reject.
    Neither executes a fixpoint — every rule in {!Rules} is a pure
    traversal of the scenario/topology/config — so gating an analysis on
    it costs O(flows × route length). *)

type report = { diagnostics : Gmf_diag.t list  (** Sorted by code. *) }

val run : ?config:Analysis_config.t -> Traffic.Scenario.t -> report
(** Run {!Rules.scenario_rules} and bump the per-rule
    [lint.hits.<CODE>] counters plus [lint.runs] on
    {!Gmf_obs.Metrics.default} (visible under [gmfnet profile]). *)

val gate : ?config:Analysis_config.t -> Traffic.Scenario.t -> Gmf_diag.t list
(** [gate ?config scenario] is [errors (run ?config scenario)], element
    for element, but runs only the rules that can emit an Error
    ({!Rules.error_rules}).  For callers that only decide whether to
    reject: the warning and hint rules are skipped, so their
    [lint.hits.<CODE>] counters count full {!run}s only.  Bumps
    [lint.runs] like {!run}. *)

val errors : report -> Gmf_diag.t list
val warnings : report -> Gmf_diag.t list
val hints : report -> Gmf_diag.t list

val fatal : deny:Gmf_diag.severity -> report -> bool
(** [fatal ~deny report] is true when any diagnostic sits at or above
    the deny level — the CLI's [--deny] exit policy. *)

val pp_report : Format.formatter -> report -> unit
