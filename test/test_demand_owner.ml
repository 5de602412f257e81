(* One owner per demand table: Traffic.Link_params builds its time and
   count demand at most once, and the scenarios a run derives (Sharded's
   components) share the params of the scenario they come from, so
   precheck plus the sharded fixpoint build each (flow, link, kind) table
   at most once — counted by the [demand.builds] metric. *)

let builds = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "demand.builds"

(* Demand builds while [f] runs, with the registry switched on. *)
let counting f =
  let reg = Gmf_obs.Metrics.default in
  let was = Gmf_obs.Metrics.enabled reg in
  Gmf_obs.Metrics.set_enabled reg true;
  let b0 = Gmf_obs.Metrics.counter_value builds in
  let r = Fun.protect ~finally:(fun () -> Gmf_obs.Metrics.set_enabled reg was) f in
  (r, Gmf_obs.Metrics.counter_value builds - b0)

(* Distinct (flow, link) pairs on the scenario's routes. *)
let flow_links scenario =
  List.fold_left
    (fun acc f -> acc + List.length (Network.Route.hops f.Traffic.Flow.route))
    0 (Traffic.Scenario.flows scenario)

let check_once name scenario ~expect_fixpoint =
  Gmf_exec.Memo.clear Analysis.Case.shared_memo;
  let (_, _, stats), n =
    counting (fun () ->
        ignore (Gmf_precheck.Precheck.run ~exec:Gmf_exec.seq scenario);
        Analysis.Sharded.analyze ~exec:Gmf_exec.seq scenario)
  in
  if expect_fixpoint then
    Alcotest.(check bool) (name ^ ": a component ran the fixpoint") true
      (stats.Analysis.Sharded.components_run > 0);
  let limit = 2 * flow_links scenario in
  if n > limit then
    Alcotest.failf "%s: %d demand builds for %d (flow, link, kind) tables" name n
      limit;
  Alcotest.(check bool) (name ^ ": some demand was built") true (n > 0);
  Gmf_exec.Memo.clear Analysis.Case.shared_memo;
  let _, again =
    counting (fun () -> Analysis.Sharded.analyze ~exec:Gmf_exec.seq scenario)
  in
  Alcotest.(check int) (name ^ ": a second run builds nothing") 0 again

let test_fig1 () =
  check_once "fig1" (Workload.Scenarios.fig1_videoconf ()) ~expect_fixpoint:true

(* The benchmark's dense mesh shape: one interference component precheck
   leaves to the fixpoint. *)
let test_mesh () =
  let spec =
    {
      Gmf_topogen.Gen_spec.default with
      Gmf_topogen.Gen_spec.family =
        Gmf_topogen.Gen_spec.Mesh { rows = 3; cols = 3; planes = 1 };
      hosts_per_switch = 2;
      flows = 30;
      mix = [ (Gmf_topogen.Gen_spec.Voip, 1); (Gmf_topogen.Gen_spec.Mpeg, 1) ];
      locality = 0.0;
      max_util = 0.9;
      seed = 1;
    }
  in
  let r = Gmf_topogen.Topogen.generate spec in
  check_once "mesh:3x3" r.Gmf_topogen.Topogen.scenario ~expect_fixpoint:true

let tests =
  [
    Alcotest.test_case "fig1: one build per table" `Quick test_fig1;
    Alcotest.test_case "mesh:3x3: one build per table" `Quick test_mesh;
  ]
