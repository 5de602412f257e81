(** The rule catalog and the rule implementations of the lint pass.

    Codes are stable and grouped by family:
    - [GMF0xx] — structural problems in the scenario/topology (duplicate
      names, isolated nodes, unused links, detour routes) and the input
      codes raised by checked constructors ([GMF010]–[GMF013]);
    - [GMF1xx] — model preconditions of the paper (deadline vs. period,
      jitter assumptions, fragmentation, 802.1p collisions, CIRC
      feasibility);
    - [GMF2xx] — performance/utilization (necessary conditions eq (20) and
      eqs (34)–(35), impossible deadlines, config sanity). *)

type category = Structural | Model | Utilization

val category_to_string : category -> string

type rule = {
  code : string;
  category : category;
  default_severity : Gmf_diag.severity;
  title : string;
  reference : string;
      (** Paper equation / section or DESIGN.md repair backing the rule. *)
}

val catalog : rule list
(** Every code the tree can emit, ascending; includes the constructor
    codes [GMF010]–[GMF013] that are produced by [Traffic.Flow] rather
    than by {!scenario_rules}. *)

val find : string -> rule option

val scenario_rules :
  ?config:Analysis_config.t -> Traffic.Scenario.t -> Gmf_diag.t list
(** Run every static rule over the scenario (and the analysis config,
    defaulting to {!Analysis_config.default}).  Pure: no fixpoint is
    executed, no metrics are recorded (that is {!Lint.run}'s job). *)

val error_codes : string list
(** The catalog's Error codes that {!scenario_rules} can emit, ascending:
    the rules {!error_rules} runs.  Derived from the catalog severities. *)

val error_rules :
  ?config:Analysis_config.t -> Traffic.Scenario.t -> Gmf_diag.t list
(** Exactly the Error diagnostics of {!scenario_rules}, in the same
    order, computed by running only the rules that can emit an Error
    (those whose codes include one of {!error_codes}).  Pure. *)

val flow_gate : Traffic.Scenario.t -> Traffic.Flow.t -> Gmf_diag.t list
(** The cheap per-flow pre-pass used by [Analysis.Pipeline]: only the
    utilization impossibility rules ([GMF201], [GMF203]) restricted to
    the links the flow's route crosses — conditions under which the
    busy-period recurrences provably diverge.  Returns errors only. *)
