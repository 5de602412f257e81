type report = { diagnostics : Gmf_diag.t list }

let runs = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.runs"

(* Counters are interned by name, so re-registering per run keeps rule
   implementations free of metrics plumbing; with the registry off no
   name is built and nothing is interned. *)
let hit d =
  if Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then
    Gmf_obs.Metrics.incr
      (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default
         ("lint.hits." ^ d.Gmf_diag.code))

let run ?config scenario =
  Gmf_obs.Metrics.incr runs;
  let diagnostics = Rules.scenario_rules ?config scenario in
  List.iter hit diagnostics;
  { diagnostics }

let gate ?config scenario =
  Gmf_obs.Metrics.incr runs;
  let diagnostics = Rules.error_rules ?config scenario in
  List.iter hit diagnostics;
  diagnostics

let errors r = Gmf_diag.by_severity Gmf_diag.Error r.diagnostics
let warnings r = Gmf_diag.by_severity Gmf_diag.Warning r.diagnostics
let hints r = Gmf_diag.by_severity Gmf_diag.Hint r.diagnostics
let fatal ~deny r = Gmf_diag.at_least deny r.diagnostics <> []
let pp_report fmt r = Gmf_diag.pp_list fmt r.diagnostics
