(* fleet: every request is one distinct dense generated mesh run through
   parse -> lint -> sharded analysis, the path an operator takes to admit
   a batch.  The spec (low locality, high utilisation, half MPEG) keeps
   the mesh one interference component that precheck cannot certify, so
   the holistic fixpoint does almost all the work.  The corpus is the
   recorded list of generator seeds whose meshes needed the fixpoint
   when it was recorded; --seed picks the order the run walks it in. *)

open Common

let spec seed =
  Gen.spec ~family:"mesh:3x3" ~flows:30 ~locality:0.0 ~max_util:0.9
    ~mix:"voip=1,mpeg=1" ~hosts_per_switch:2 ~seed

let file data = Filename.concat data "fleet.txt"

let analyze text =
  let sc = Layer.span "scenario_io.parse" (fun () -> parse_scenario text) in
  let lint = Layer.span "lint.run" (fun () -> Gmf_lint.Lint.run sc) in
  let report, pre, _ =
    Layer.span "analysis.sharded" (fun () -> Analysis.Sharded.analyze ~exec:Gmf_exec.seq sc)
  in
  (sc, lint, report, pre)

let output_digest (lint : Gmf_lint.Lint.report) report =
  Stats.hex
    (Printf.sprintf "%d|%s" (List.length lint.Gmf_lint.Lint.diagnostics) (report_digest report))

(* Corpus candidates are generated seeds 1, 2, ...; a seed is kept when
   precheck decides none of its flows. *)
let record ~data ~size =
  let rec go seed acc n =
    if n = size then List.rev acc
    else
      let text = Gen.scenario_text (spec seed) in
      let _, lint, report, pre = analyze text in
      clear_memos ();
      if Gmf_precheck.Precheck.decided pre = 0 then
        go (seed + 1) ([ string_of_int seed; output_digest lint report ] :: acc) (n + 1)
      else go (seed + 1) acc n
  in
  write_records (file data) ~header:"fleet corpus: generator seed, output digest"
    (go 1 [] 0)

let run ~data =
  corpus_workload ~path:(file data)
    ~text:(fun seed -> Gen.scenario_text (spec seed))
    ~request:(fun text ->
      let sc, lint, report, _ = analyze text in
      (sc, List.length (Traffic.Scenario.flows sc), fun () -> output_digest lint report))
    ~census:(fun inputs -> Census.[ decided_frac inputs; case_ms inputs ])
    ~oracle:(fun sc ->
      (* The sharded engine with nothing skipped equals the monolithic
         holistic analysis. *)
      let sharded, _, _ = Analysis.Sharded.analyze ~skip_decided:false sc in
      report_digest sharded = report_digest (Analysis.Holistic.analyze sc))
