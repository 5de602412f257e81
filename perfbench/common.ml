(* Pieces every workload shares: the closed loop, memo isolation, output
   digests and the recorded-fingerprint files. *)

let now = Unix.gettimeofday

(* A repeated input must not be answered from a cache: every request
   starts with the process-wide analysis memos empty. *)
let clear_memos () =
  Gmf_exec.Memo.clear Analysis.Case.shared_memo;
  Gmf_faults.Survive.clear_memo ()

let parse_error e = failwith (Format.asprintf "%a" Scenario_io.Parse.pp_error e)

let parse_scenario text =
  match Scenario_io.Parse.scenario_of_string text with
  | Ok s -> s
  | Error e -> parse_error e

let parse_trace text =
  match Scenario_io.Admtrace.of_string text with
  | Ok t -> t
  | Error e -> parse_error e

(* Verdict and every per-frame bound of a report. *)
let report_digest (r : Analysis.Holistic.report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Gmf_faults.Survive.verdict_string r.Analysis.Holistic.verdict);
  List.iter
    (fun (fr : Analysis.Result_types.flow_result) ->
      Printf.bprintf b "|%d:" fr.flow.Traffic.Flow.id;
      Array.iter
        (fun (f : Analysis.Result_types.frame_result) -> Printf.bprintf b "%d," f.total)
        fr.frames)
    r.Analysis.Holistic.results;
  Stats.hex (Buffer.contents b)

(* A seeded permutation of [0, n). *)
let permutation ~seed n =
  let a = Array.init n Fun.id in
  Gmf_util.Rng.shuffle (Gmf_util.Rng.create ~seed) a;
  a

(* Recorded fingerprints: one whitespace-separated record per line. *)
let read_records path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ "" ] -> None
         | w :: _ when w.[0] = '#' -> None
         | ws -> Some ws)

let write_records path ~header records =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# %s\n" header;
      List.iter (fun ws -> output_string oc (String.concat " " ws ^ "\n")) records)

(* The timed phase of a closed loop with one client: request [i] is sent
   only after request [i - 1] has its verdict.  [request i] returns the
   work it completed and a check that runs after the clock stops.  The
   phase runs until [seconds] have passed and at least [min_requests]
   completed, or [max_requests] did.  Its wall time is the sum of the
   request intervals: memo clearing and output checks between requests
   are not timed, nor is [between ()], which runs before each request.
   A request that raises counts as failed in [tally]. *)
type phase = { lat : float array; work : int; busy : float }

let closed_loop ?(between = ignore) ~tally ~seconds ~min_requests ~max_requests request =
  let lat = ref [] and work = ref 0 and busy = ref 0. and i = ref 0 in
  let t_start = now () in
  while !i < max_requests && (!i < min_requests || now () -. t_start < seconds) do
    between ();
    clear_memos ();
    let t0 = now () in
    let outcome = try Ok (request !i) with e -> Error e in
    let dt = now () -. t0 in
    (match outcome with
    | Ok (w, check) ->
        check ();
        work := !work + w
    | Error e ->
        prerr_endline ("request raised: " ^ Printexc.to_string e);
        Stats.fail tally);
    lat := dt :: !lat;
    busy := !busy +. dt;
    incr i
  done;
  { lat = Array.of_list (List.rev !lat); work = !work; busy = !busy }

(* What a workload run hands back to [Main]. *)
type outcome = {
  setups : float list;  (** Seconds per set-up repetition. *)
  e2e : phase;  (** The untraced timed phase. *)
  tail_p : int;  (** Tail percentile fixed by [min_requests]. *)
  traced : (phase * (unit -> (string * float) list)) option;
      (** Trace mode: the traced phase over the same requests as [e2e],
          and the per-layer values only the workload can measure, to be
          taken once the traced phase has been read out. *)
  tally : Stats.tally;
  oracle : bool;  (** The untimed cross-check against the slow path. *)
}

let tail_of min_requests =
  match Stats.tail_percentile min_requests with
  | Some p -> p
  | None -> invalid_arg "min_requests below 11"

(* Trace mode: [requests] requests untraced, then the same requests
   again with the layer spans and the library's registry and tracer on.
   [make ()] returns a fresh request function for each pass. *)
let traced_pair ~tally ~requests make =
  let loop request =
    closed_loop ~tally ~seconds:0. ~min_requests:requests ~max_requests:requests request
  in
  let a = loop (make ()) in
  let request = make () in
  Layer.start ();
  let b = Fun.protect ~finally:Layer.stop (fun () -> loop request) in
  (a, b)

(* A workload over a recorded corpus: one line of [path] per entry, its
   generator seed and its output digest.  Set-up prints every entry's
   generated text; --seed draws the order the closed loop walks the
   corpus in, wrapping around when a run outlasts it.  [request text]
   runs one request and returns its input, its work and its output digest
   (taken after the clock stops); [census] gets the traced pass's inputs
   and [oracle] the first request's input. *)
let corpus_workload ~path ~text ~request ~census ~oracle ~seed ~seconds ~trace =
  let min_requests = 40 and trace_requests = 24 in
  let corpus =
    Array.of_list
      (List.map
         (function [ s; d ] -> (int_of_string s, d) | _ -> failwith (path ^ ": bad record"))
         (read_records path))
  in
  let n = Array.length corpus in
  let make_texts () = Array.map (fun (s, _) -> text s) corpus in
  let t0 = now () in
  let texts = make_texts () in
  let setups = ref [ now () -. t0 ] in
  (* The set-up work is repeated, untimed for the phase, every
     [seconds / 16] during the timed phase: [setup_s] is the median of
     all 15, so it samples the machine over the run like the other
     metrics do rather than over one moment. *)
  let last = ref (now ()) in
  let between () =
    if List.length !setups < 15 && now () -. !last >= seconds /. 16. then begin
      let t0 = now () in
      ignore (make_texts ());
      setups := (now () -. t0) :: !setups;
      last := now ()
    end
  in
  let order = permutation ~seed n in
  let tally = Stats.tally () in
  let inputs = ref [] in
  let request i =
    let k = order.(i mod n) in
    let sc, work, digest = request texts.(k) in
    ( work,
      fun () ->
        if trace then inputs := sc :: !inputs;
        Stats.check tally ~expected:(snd corpus.(k)) ~actual:(digest ()) )
  in
  let e2e, traced =
    if not trace then
      (closed_loop ~between ~tally ~seconds ~min_requests ~max_requests:max_int request, None)
    else begin
      let a, b = traced_pair ~tally ~requests:trace_requests (fun () -> inputs := []; request) in
      let inputs = List.rev !inputs in
      (a, Some (b, fun () -> census inputs))
    end
  in
  clear_memos ();
  let oracle = oracle (parse_scenario texts.(order.(0))) in
  { setups = List.rev !setups; e2e; tail_p = tail_of min_requests; traced; tally; oracle }
