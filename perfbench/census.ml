(* Facts about the traced pass's inputs for the layers a workload's
   requests do not reach from outside, measured after the traced pass
   has been read out, each with fresh layer spans and registry: how much
   of each input precheck decides (the cliff between certified and
   fixpointed components), and what one lint pass, one sharded analysis
   or one failure case costs on those inputs. *)

let traced f =
  Common.clear_memos ();
  Layer.start ();
  Fun.protect ~finally:Layer.stop f

let decided_frac scenarios =
  let decided = ref 0 and flows = ref 0 in
  List.iter
    (fun sc ->
      decided := !decided + Gmf_precheck.Precheck.decided (Gmf_precheck.Precheck.run sc);
      flows := !flows + List.length (Traffic.Scenario.flows sc))
    scenarios;
  ("precheck.decided_frac", Stats.frac !decided !flows)

let lint_ms scenarios =
  traced (fun () ->
      List.iter (fun sc -> ignore (Layer.span "lint.run" (fun () -> Gmf_lint.Lint.run sc))) scenarios);
  ("lint.run_ms", Layer.ms "lint.run")

let sharded_ms scenarios =
  traced (fun () ->
      List.iter
        (fun sc ->
          Common.clear_memos ();
          ignore
            (Layer.span "analysis.sharded" (fun () ->
                 Analysis.Sharded.analyze ~exec:Gmf_exec.seq sc)))
        scenarios);
  ("analysis.sharded_ms", Layer.ms "analysis.sharded")

(* The first input swept for its first failure component only. *)
let case_ms = function
  | [] -> ("faults.case_ms", 0.)
  | sc :: _ ->
      let domain = [ List.hd (Gmf_faults.Survive.components sc) ] in
      traced (fun () -> ignore (Gmf_faults.Survive.run ~exec:Gmf_exec.seq ~domain sc));
      ("faults.case_ms", snd (Layer.lib_span "survive.case"))
