(* survive: every request is one k=1 survivability sweep (default delta
   engine) of a distinct generated network whose interference components
   precheck certifies.  Per failure case the cost is lint, precheck,
   digest and closure scans, with little fixpoint work: the workload on
   which fixpoint optimisations must not move, and the one that exposes a
   per-call rebuild in precheck.  The corpus is the recorded list of
   generator seeds (the generator's default spec) whose fault-free
   network precheck fully decided when it was recorded; --seed picks the
   order. *)

open Common

let spec seed = { Gen.Spec.default with Gen.Spec.seed }
let file data = Filename.concat data "survive.txt"

let sweep text =
  let sc = Layer.span "scenario_io.parse" (fun () -> parse_scenario text) in
  let report =
    Layer.span "faults.survive" (fun () -> Gmf_faults.Survive.run ~exec:Gmf_exec.seq sc)
  in
  (sc, report)

let output_digest sc report = Stats.hex (Gmf_faults.Survive.to_json sc report)

(* What the two engines must agree on: fates, matrix and shed set (rounds
   and delta statistics legitimately differ). *)
let signature (r : Gmf_faults.Survive.report) =
  let open Gmf_faults.Survive in
  let fate = function Unaffected -> "u" | Rerouted _ -> "r" | Shed -> "s" in
  let verdict = function Survives -> "ok" | Survives_with_reroute -> "rr" | Must_shed -> "shed" in
  let b = Buffer.create 4096 in
  List.iter
    (fun c ->
      List.iter
        (fun ((f : Traffic.Flow.t), x) -> Printf.bprintf b "%d=%s;" f.id (fate x))
        c.fates;
      Printf.bprintf b "%s\n" (verdict_string c.verdict))
    r.cases;
  List.iter (fun ((f : Traffic.Flow.t), v) -> Printf.bprintf b "%d:%s;" f.id (verdict v)) r.matrix;
  List.iter (fun (f : Traffic.Flow.t) -> Printf.bprintf b "!%d" f.id) r.shed_set;
  Buffer.contents b

let record ~data ~size =
  let rec go seed acc n =
    if n = size then List.rev acc
    else
      let text = Gen.scenario_text (spec seed) in
      let sc = parse_scenario text in
      let pre = Gmf_precheck.Precheck.run sc in
      if Gmf_precheck.Precheck.decided pre = List.length (Traffic.Scenario.flows sc) then begin
        let sc, report = sweep text in
        clear_memos ();
        go (seed + 1) ([ string_of_int seed; output_digest sc report ] :: acc) (n + 1)
      end
      else go (seed + 1) acc n
  in
  write_records (file data) ~header:"survive corpus: generator seed, output digest"
    (go 1 [] 0)

let run ~data =
  corpus_workload ~path:(file data)
    ~text:(fun seed -> Gen.scenario_text (spec seed))
    ~request:(fun text ->
      let sc, report = sweep text in
      (sc, List.length report.Gmf_faults.Survive.cases, fun () -> output_digest sc report))
    ~census:(fun inputs -> Census.[ decided_frac inputs; lint_ms inputs; sharded_ms inputs ])
    ~oracle:(fun sc ->
      (* The cold per-case engine reaches the same fates, matrix and shed
         set as the delta engine. *)
      let delta = Gmf_faults.Survive.run sc in
      clear_memos ();
      signature delta = signature (Gmf_faults.Survive.run ~delta:false sc))
