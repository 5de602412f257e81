(* gmfbench: the repository benchmark.

     gmfbench run --workload fleet|survive --seed N --seconds S
                  --trace 0|1 --data DIR --gmfnetd PATH
     gmfbench record --workload fleet|survive|churn --data DIR
     gmfbench selftest

   [run] prints progress on stderr and, as the last line of stdout, one
   JSON object: correct / attempted / failed and the metrics — the
   end-to-end set untraced ([--trace 0]) or the per-layer set from a
   separate traced pass plus the session and daemon probes
   ([--trace 1]).  [record] rewrites a workload's
   corpus and output fingerprints under DIR.  See perfbench/README.md. *)

external maxrss_kb : unit -> int = "perfbench_maxrss_kb" [@@noalloc]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("gmfbench: " ^ s); exit 2) fmt

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       metrics)

let end_to_end (o : Common.outcome) =
  let p = o.e2e in
  let ms s = 1000. *. s in
  [
    ("setup_s", Stats.median (Array.of_list o.setups), "s");
    ("throughput_per_s", Stats.fdiv (float_of_int p.work) p.busy, "1/s");
    ("latency_p50_ms", ms (Stats.median p.lat), "ms");
    ("latency_tail_ms", ms (Stats.percentile o.tail_p p.lat), "ms");
    ("peak_rss_mb", float_of_int (maxrss_kb ()) /. 1024., "MB");
  ]

(* The traced pass's per-layer values, overridden by name by the
   workload's own measurements and the probes. *)
let per_layer (o : Common.outcome) ~probes =
  match o.traced with
  | None -> assert false
  | Some (b, extras) ->
      let n = float_of_int (Array.length b.lat) in
      let per_req c = float_of_int c /. n in
      let c = Layer.counter in
      let frac num den = Stats.frac num (num + den) in
      let fixpoint_n, fixpoint_ms = Layer.lib_span "holistic.run" in
      let precheck_n, precheck_ms = Layer.lib_span "precheck.run" in
      let _, case_ms = Layer.lib_span "survive.case" in
      let tput (p : Common.phase) = Stats.fdiv (float_of_int p.work) p.busy in
      let defaults =
        [
          ("analysis.sharded_ms", Layer.ms "analysis.sharded", "ms");
          ("analysis.fixpoint_ms", fixpoint_ms *. float_of_int fixpoint_n /. n, "ms/req");
          ("analysis.fixpoint_iters", per_req (c "fixpoint.iters.total"), "count/req");
          ("analysis.fixpoint_calls", per_req (c "fixpoint.calls"), "count/req");
          ("analysis.rounds", per_req (Layer.hist_sum "holistic.rounds"), "count/req");
          ("analysis.alloc_mb", Layer.alloc_mb "analysis.sharded", "MB");
          ("precheck.run_ms", precheck_ms, "ms");
          ("precheck.runs", per_req precheck_n, "count/req");
          ("precheck.decided_frac", 0., "frac");
          ("lint.run_ms", Layer.ms "lint.run", "ms");
          ("lint.runs", per_req (c "lint.runs"), "count/req");
          ("delta.runs", per_req (c "delta.runs"), "count/req");
          ("delta.closure_flows", per_req (c "delta.closure_flows"), "count/req");
          ("delta.skipped_frac", frac (c "delta.flows_skipped") (c "delta.closure_flows"), "frac");
          ("delta.cold_fallbacks", per_req (c "delta.cold_fallbacks"), "count/req");
          ("admctl.warm_frac", frac (c "admctl.warm_hits") (c "admctl.cold_resets"), "frac");
          ("admctl.admit_ms", Layer.ms "admctl.admit", "ms");
          ("admctl.remove_ms", Layer.ms "admctl.remove", "ms");
          ("admctl.update_ms", Layer.ms "admctl.update", "ms");
          ("admctl.fail_ms", Layer.ms "admctl.fail", "ms");
          ("admctl.alloc_mb", Layer.alloc_mb "admctl.apply", "MB");
          ("faults.case_ms", case_ms, "ms");
          ("faults.cases", per_req (c "survive.cases"), "count/req");
          ("faults.alloc_mb", Layer.alloc_mb "faults.survive", "MB");
          ("exec.memo_hit_frac", frac (c "exec.memo_hits") (c "exec.cases"), "frac");
          ("scenario_io.parse_ms", Layer.ms "scenario_io.parse", "ms");
          ("scenario_io.jsonl_ms", 0., "ms");
          ("daemon.roundtrip_ms", 0., "ms");
          ("daemon.inproc_ms", 0., "ms");
          ("daemon.tax_ms", 0., "ms");
          ("topogen.gen_ms", Stats.fdiv (1000. *. !Gen.gen_secs) (float_of_int !Gen.gen_calls), "ms");
          ("obs.trace_overhead_frac", 1. -. Stats.fdiv (tput b) (tput o.e2e), "frac");
        ]
      in
      (* Only now: these restart the layer spans and the registry. *)
      let extras = extras () @ probes () in
      List.map
        (fun (name, v, unit) ->
          (name, Option.value ~default:v (List.assoc_opt name extras), unit))
        defaults
      @ [ ("failed_frac", Stats.failed_frac o.tally, "frac") ]

let run args =
  let need k = match List.assoc_opt k args with Some v -> v | None -> die "missing --%s" k in
  let int k = match int_of_string_opt (need k) with Some v -> v | None -> die "--%s wants an integer" k in
  let workload = need "workload" and seed = int "seed" and data = need "data" in
  let seconds = float_of_int (int "seconds") in
  let trace =
    match need "trace" with "0" -> false | "1" -> true | _ -> die "--trace wants 0 or 1"
  in
  let o =
    match workload with
    | "fleet" -> Fleet.run ~data ~seed ~seconds ~trace
    | "survive" -> Survive.run ~data ~seed ~seconds ~trace
    | w -> die "unknown workload %S" w
  in
  let probes () =
    Churn.probe ~data ~seed ~tally:o.tally
    @ Daemon.probe ~gmfnetd:(need "gmfnetd") ~seed ~tally:o.tally
  in
  let metrics = if trace then per_layer o ~probes else end_to_end o in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) metrics in
  let t = o.tally in
  Printf.eprintf "gmfbench: %s seed=%d requests=%d tail=p%d oracle=%b failed=%d/%d setups=%s\n"
    workload seed (Array.length o.e2e.lat) o.tail_p o.oracle t.failed t.attempted
    (String.concat "," (List.map (Printf.sprintf "%.4f") o.setups));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0 && o.oracle && finite && t.attempted > 0)
    (max 1 t.attempted) t.failed (json_metrics metrics)

let record args =
  let data = match List.assoc_opt "data" args with Some d -> d | None -> die "missing --data" in
  match List.assoc_opt "workload" args with
  | Some "fleet" -> Fleet.record ~data ~size:128
  | Some "survive" -> Survive.record ~data ~size:128
  | Some "churn" -> Churn.record ~data
  | _ -> die "record: --workload fleet|survive|churn"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec pairs = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | [] -> []
    | k :: _ -> die "unexpected argument %S" k
  in
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: _ -> Stats.selftest (); print_endline "selftest ok"
  | _ :: cmd :: rest -> (
      Stats.selftest ();
      let args = pairs rest in
      match cmd with
      | "run" -> run args
      | "record" -> record args
      | c -> die "unknown command %S" c)
  | _ -> die "usage: gmfbench run|record|selftest ..."
