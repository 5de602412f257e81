(* Seeded input generation.  Every input the program under test sees is
   text built here from a seed through Gmf_topogen and Scenario_io's
   printer; the workloads parse that text back as a user would. *)

module Spec = Gmf_topogen.Gen_spec

let spec ~family ~flows ~locality ~max_util ~mix ~hosts_per_switch ~seed =
  let ok = function Ok v -> v | Error e -> invalid_arg e in
  {
    Spec.default with
    Spec.family = ok (Spec.family_of_string family);
    flows;
    locality;
    max_util;
    mix = ok (Spec.mix_of_string mix);
    hosts_per_switch;
    seed;
  }

(* Calls and seconds spent in Topogen.generate, for [topogen.gen_ms]. *)
let gen_calls = ref 0
let gen_secs = ref 0.

(* The generated scenario as [.gmfnet] text. *)
let scenario_text spec =
  let t0 = Unix.gettimeofday () in
  let r = Gmf_topogen.Topogen.generate spec in
  incr gen_calls;
  gen_secs := !gen_secs +. (Unix.gettimeofday () -. t0);
  Gmf_topogen.Topogen.to_string r.Gmf_topogen.Topogen.scenario

(* A printed scenario cut into its topology prologue, its flow blocks
   (name, ["flow ... end\n"]) and its switch-to-switch links. *)
type parts = {
  prologue : string;
  blocks : (string * string) array;
  fabric : (string * string) array;
}

let split text =
  let lines = String.split_on_char '\n' text in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  let switches = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match words l with
      | [ "node"; n; "switch" ] -> Hashtbl.replace switches n ()
      | _ -> ())
    lines;
  let prologue = Buffer.create 4096 in
  let blocks = ref [] and fabric = ref [] in
  let rec go = function
    | [] -> ()
    | l :: rest -> (
        match words l with
        | "flow" :: name :: _ ->
            let b = Buffer.create 256 in
            let rec body = function
              | [] -> []
              | l :: rest ->
                  Buffer.add_string b l;
                  Buffer.add_char b '\n';
                  if String.trim l = "end" then rest else body rest
            in
            Buffer.add_string b l;
            Buffer.add_char b '\n';
            let rest = body rest in
            blocks := (name, Buffer.contents b) :: !blocks;
            go rest
        | [] -> go rest
        | w :: _ when w.[0] = '#' -> go rest
        | ws ->
            (match ws with
            | "link" :: a :: b :: _
              when a < b && Hashtbl.mem switches a && Hashtbl.mem switches b ->
                fabric := (a, b) :: !fabric
            | _ -> ());
            Buffer.add_string prologue l;
            Buffer.add_char prologue '\n';
            go rest)
  in
  go lines;
  {
    prologue = Buffer.contents prologue;
    blocks = Array.of_list (List.rev !blocks);
    fabric = Array.of_list (List.rev !fabric);
  }

(* The block with its header's [prio=] rewritten. *)
let with_prio block prio =
  let nl = String.index block '\n' in
  let header = String.sub block 0 nl in
  let header =
    String.concat " "
      (List.map
         (fun w ->
           if String.length w > 5 && String.sub w 0 5 = "prio=" then
             Printf.sprintf "prio=%d" prio
           else w)
         (String.split_on_char ' ' header))
  in
  header ^ String.sub block nl (String.length block - nl)

(* An admission trace over a generated population: the first [build]
   flows are admitted in order, then [events] churn events follow in a
   fixed, seeded mix of admit / remove / update / fail link / restore
   link.  The generator tracks the live set the way the trace parser
   does (optimistically), so every event parses; whether it is accepted
   is the session's answer.  Returns the trace text. *)
let churn_trace ~rng ~build ~events parts =
  let n = Array.length parts.blocks in
  if build >= n then invalid_arg "churn_trace: build-up exceeds the pool";
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf parts.prologue;
  let live = Array.make n false in
  let admit i =
    live.(i) <- true;
    Buffer.add_string buf "admit ";
    Buffer.add_string buf (snd parts.blocks.(i))
  in
  for i = 0 to build - 1 do
    admit i
  done;
  let pick pred =
    let start = Gmf_util.Rng.int rng n in
    let rec go k =
      if k = n then None
      else
        let i = (start + k) mod n in
        if pred i then Some i else go (k + 1)
    in
    go 0
  in
  (* The live set is held near its build-up size and composition: an
     admit brings back a flow of the kind the oldest pending removal took
     out, and the admit/remove choice flips when the set drifts more than
     two flows from [build].  Event cost grows with the live set, so an
     unregulated random walk would make latency depend on the seed. *)
  let kind i =
    let name = fst parts.blocks.(i) in
    let j = ref 0 in
    while !j < String.length name && not (name.[!j] >= '0' && name.[!j] <= '9') do
      incr j
    done;
    String.sub name 0 !j
  in
  let owed = Queue.create () in
  let prio =
    Array.map
      (fun (_, block) ->
        let header = String.sub block 0 (String.index block '\n') in
        List.fold_left
          (fun acc w ->
            if String.length w > 5 && String.sub w 0 5 = "prio=" then
              int_of_string (String.sub w 5 (String.length w - 5))
            else acc)
          0
          (String.split_on_char ' ' header))
      parts.blocks
  in
  let size = ref build in
  let failed = ref None in
  for _ = 1 to events do
    let r = Gmf_util.Rng.int rng 100 in
    let r =
      if r < 34 && !size >= build + 2 then 50
      else if r >= 34 && r < 66 && !size <= build - 2 then 0
      else r
    in
    let emitted =
      if r < 34 then begin
        let want = Queue.take_opt owed in
        let fits i =
          (not live.(i)) && match want with Some k -> kind i = k | None -> true
        in
        let choice =
          match pick fits with None -> pick (fun i -> not live.(i)) | c -> c
        in
        Option.map (fun i -> incr size; admit i) choice
      end
      else if r < 66 then
        Option.map
          (fun i ->
            live.(i) <- false;
            decr size;
            Queue.add (kind i) owed;
            Printf.bprintf buf "remove %s\n" (fst parts.blocks.(i)))
          (pick (fun i -> live.(i)))
      else if r < 88 then
        Option.map
          (fun i ->
            (* One band up or down from the generated priority: a random
               redraw would let the priority structure wander over the
               run, and event cost with it. *)
            let p = prio.(i) + if Gmf_util.Rng.bool rng then 1 else -1 in
            Buffer.add_string buf "update ";
            Buffer.add_string buf (with_prio (snd parts.blocks.(i)) (max 0 (min 7 p))))
          (pick (fun i -> live.(i)))
      else if parts.fabric = [||] then None
      else
        (* At most one link down: fail and restore alternate, so degraded
           routes do not pile up over the run. *)
        match !failed with
        | Some (a, b) ->
            failed := None;
            Some (Printf.bprintf buf "restore link %s %s\n" a b)
        | None ->
            let a, b = Gmf_util.Rng.pick rng parts.fabric in
            failed := Some (a, b);
            Some (Printf.bprintf buf "fail link %s %s\n" a b)
    in
    (* Only an empty or a full pool leaves nothing to pick. *)
    if emitted = None then Buffer.add_string buf "query\n"
  done;
  Buffer.contents buf
