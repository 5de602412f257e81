(* The session probe every traced run adds: one admission session over a
   generated mesh.  Set-up admits a live set of [build] flows; then a
   fixed, seeded mix of admit / remove / update / fail link / restore
   link events is applied, each timed around Session.apply, with the
   registry and tracer on.  It reaches the analysis through incremental
   edits (delta closure, warm chain), and every event also re-lints and
   re-prechecks the live set.  The network and flow pool are the
   generator's seed-42 mesh for every run: across generated meshes the
   per-event cost differed up to threefold.  --seed picks one of
   [traces] recorded event sequences; every [chunk] events the
   transcript and the session fingerprint are checked against the
   recording.

   It is a probe, not an end-to-end workload: over ten seeds of 30 s
   runs its p50 spread (Q3 - Q1) / median was 0.27, more than any bound
   may be.  Per-event cost follows the session state along the trace as
   well as the machine's speed. *)

open Common
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay

let traces = 8
let build = 100
let events = 100
let chunk = 25

let spec =
  Gen.spec ~family:"mesh:8x8" ~flows:115 ~locality:0.8 ~max_util:0.7
    ~mix:"voip=3,mpeg=1,sensor=2" ~hosts_per_switch:2 ~seed:42

let file data = Filename.concat data "churn.txt"

let trace_text u =
  Gen.churn_trace ~rng:(Gmf_util.Rng.create ~seed:u) ~build ~events
    (Gen.split (Gen.scenario_text spec))

(* A session with the live set built up, and the churn events to come. *)
let start ?shadow ?(build = build) text =
  let tr = parse_trace text in
  let s =
    Session.create ?shadow ~exec:Gmf_exec.seq ~switches:tr.Scenario_io.Admtrace.switches
      ~topo:tr.Scenario_io.Admtrace.topo ()
  in
  let evs = Array.of_list (List.map (fun (_, e) -> Replay.session_event e) tr.events) in
  let built = List.init build (fun i -> Session.apply s evs.(i)) in
  (s, Array.sub evs build (Array.length evs - build), built)

let sorted_digest (r : Analysis.Holistic.report) =
  report_digest
    {
      r with
      results =
        List.sort
          (fun (a : Analysis.Result_types.flow_result) b -> compare a.flow.id b.flow.id)
          r.results;
    }

let layer = function
  | Session.Admit _ -> "admctl.admit"
  | Remove _ -> "admctl.remove"
  | Update _ -> "admctl.update"
  | Fail_link _ -> "admctl.fail"
  | Restore_link _ -> "admctl.restore"
  | Query -> "admctl.query"

(* Request [i] applies event [i]; every [chunk]th check digests the
   chunk's transcript lines with the session fingerprint. *)
let requester (s, evs, _) ~on_chunk =
  let lines = Buffer.create 4096 in
  fun i ->
    let ev = evs.(i) in
    let o = Layer.span (layer ev) (fun () -> Layer.span "admctl.apply" (fun () -> Session.apply s ev)) in
    ( 1,
      fun () ->
        Buffer.add_string lines (Replay.outcome_line o);
        Buffer.add_char lines '\n';
        if (i + 1) mod chunk = 0 then begin
          Buffer.add_string lines (Session.fingerprint s);
          on_chunk (i / chunk) (Stats.hex (Buffer.contents lines));
          Buffer.clear lines
        end )

let record ~data =
  let records =
    List.init traces (fun u ->
        let st = start (trace_text u) in
        let digests = ref [] in
        let request = requester st ~on_chunk:(fun _ d -> digests := d :: !digests) in
        for i = 0 to events - 1 do
          let _, check = request i in
          check ()
        done;
        string_of_int u :: List.rev !digests)
  in
  write_records (file data) ~header:"churn: trace, transcript+fingerprint digest per chunk" records

(* Per-layer values of the [events] churn events, traced, on a session
   of trace [seed mod traces]: the admctl.* metrics every traced run
   reports.  Chunks are checked against the recording in [tally], and so
   are the cold oracles: a shadow session re-runs the first build-up
   admits cold and must agree with the warm results, and the final
   committed bounds must equal a cold monolithic analysis of the final
   live set. *)
let probe ~data ~seed ~tally =
  let u = ((seed mod traces) + traces) mod traces in
  let expected =
    match List.find_opt (fun r -> List.hd r = string_of_int u) (read_records (file data)) with
    | Some (_ :: ds) -> Array.of_list ds
    | _ -> failwith "churn.txt: trace not recorded"
  in
  let text = trace_text u in
  let ((s, _, _) as st) = start text in
  let request =
    requester st ~on_chunk:(fun k actual ->
        Stats.check ~n:chunk tally ~expected:expected.(k) ~actual)
  in
  Layer.start ();
  Fun.protect ~finally:Layer.stop (fun () ->
      for i = 0 to events - 1 do
        clear_memos ();
        let _, check = request i in
        check ()
      done);
  let warm = Layer.counter "admctl.warm_hits" and cold = Layer.counter "admctl.cold_resets" in
  let values =
    [
      ("admctl.admit_ms", Layer.ms "admctl.admit"); ("admctl.remove_ms", Layer.ms "admctl.remove");
      ("admctl.update_ms", Layer.ms "admctl.update"); ("admctl.fail_ms", Layer.ms "admctl.fail");
      ("admctl.alloc_mb", Layer.alloc_mb "admctl.apply");
      ("admctl.warm_frac", Stats.frac warm (warm + cold));
    ]
  in
  let tr = parse_trace text in
  let live =
    Traffic.Scenario.make ~switches:tr.switches ~topo:tr.topo ~flows:(Session.flows s) ()
  in
  let _, _, built = start ~shadow:true ~build:30 text in
  if
    Replay.mismatches built <> 0
    || sorted_digest (Session.report s) <> sorted_digest (Analysis.Holistic.analyze live)
  then Stats.fail tally;
  values
