(* The daemon probe every traced run adds: one client connection
   to a gmfnetd the benchmark spawns with a private socket and journal
   directory, sending admit/remove events on a single-switch topology,
   each timed around Client.request.  Analysis is cheap there, so the
   JSONL codec, the worker's incremental trace parse, the IPC hop and the
   journal write+fsync dominate — the daemon tax.  Every reply must equal
   the same event applied in process.  It is a per-layer probe, not an
   end-to-end workload: its p99 moved by more than half between runs of
   the same code (journal fsync), too far for any bound. *)

open Common
module Jsonl = Scenario_io.Admtrace_jsonl
module Client = Gmf_daemon.Client
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay
module Incremental = Scenario_io.Admtrace.Incremental

let hosts = 8
let requests = 2000

let prologue =
  let b = Buffer.create 1024 in
  for h = 0 to hosts - 1 do
    Printf.bprintf b "node h%d endhost\n" h
  done;
  Buffer.add_string b "node sw switch\n";
  for h = 0 to hosts - 1 do
    Printf.bprintf b "duplex h%d sw rate=100M prop=2us\n" h
  done;
  Printf.bprintf b "switch sw ports=%d cpus=1 croute=2.7us csend=1us\n" hosts;
  Buffer.contents b

(* Admits and removes with the live set held between 6 and 12 flows. *)
let events ~seed n =
  let rng = Gmf_util.Rng.create ~seed in
  let live = ref [] and next = ref 0 in
  Array.init n (fun _ ->
      let k = List.length !live in
      if k < 6 || (k <= 12 && Gmf_util.Rng.bool rng) then begin
        let id = !next in
        incr next;
        live := id :: !live;
        let src = Gmf_util.Rng.int rng hosts in
        let dst = (src + 1 + Gmf_util.Rng.int rng (hosts - 1)) mod hosts in
        Printf.sprintf
          "admit flow v%d from=h%d to=h%d route=h%d,sw,h%d prio=%d encap=udp\n\
          \  frame period=20ms deadline=150ms payload=%dB\nend\n"
          id src dst src dst (Gmf_util.Rng.int rng 8) (100 + Gmf_util.Rng.int rng 1300)
      end
      else begin
        let victim = List.nth !live (Gmf_util.Rng.int rng k) in
        live := List.filter (( <> ) victim) !live;
        Printf.sprintf "remove v%d\n" victim
      end)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

type daemon = { pid : int; conn : Client.t }

let request conn req =
  match Client.request conn req with
  | Ok r -> r
  | Error e -> failwith ("gmfnetd: " ^ e)

(* Spawn gmfnetd and wait for its first answered ping. *)
let spawn ~gmfnetd ~dir =
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process gmfnetd
      [| gmfnetd; "serve"; "--socket"; socket; "--journal-dir"; Filename.concat dir "journal";
         "--jobs"; "1" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let deadline = now () +. 20. in
  let rec ping () =
    let answered =
      match Client.connect socket with
      | Error _ -> None
      | Ok c -> (
          match Client.request c Jsonl.Ping with
          | Ok Jsonl.Pong -> Some c
          | _ ->
              Client.close c;
              None)
    in
    match answered with
    | Some conn -> { pid; conn }
    | None when now () < deadline ->
        Unix.sleepf 0.002;
        ping ()
    | None ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "gmfnetd did not answer a ping"
  in
  ping ()

let shutdown d =
  (try ignore (Client.request d.conn Jsonl.Close) with _ -> ());
  Client.close d.conn;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let ok_or_fail = function Ok v -> v | Error e -> parse_error e

(* Per-layer values of [requests] events through a fresh gmfnetd; each
   reply is checked in [tally]. *)
let probe ~gmfnetd ~seed ~tally =
  let root = Printf.sprintf ".perfbench-run/%d" (Unix.getpid ()) in
  let cleanup () =
    rm_rf root;
    try Unix.rmdir (Filename.dirname root) with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let evs = events ~seed requests in
  let d = spawn ~gmfnetd ~dir:root in
  Fun.protect ~finally:(fun () -> shutdown d) @@ fun () ->
  (match
     request d.conn
       (Jsonl.Open
          { session = "probe"; topology = prologue; verify = false; explain = false;
            cold = false; survivable = None; throttle_s = 0. })
   with
  | Jsonl.Opened _ -> ()
  | _ -> failwith "gmfnetd refused the session");
  (* The in-process replica: the same incremental parser and session the
     daemon's worker runs. *)
  let inc = Incremental.create () in
  ignore (ok_or_fail (Incremental.feed_text inc prologue));
  Incremental.freeze inc;
  let local =
    Session.create ~exec:Gmf_exec.seq ~switches:(Incremental.switches inc)
      ~topo:(Incremental.topology inc) ()
  in
  let roundtrip = ref 0. and inproc = ref 0. and codec = ref 0. in
  Array.iter
    (fun text ->
      let req = Jsonl.Event { text } in
      let t0 = now () in
      let resp = request d.conn req in
      roundtrip := !roundtrip +. (now () -. t0);
      let t0 = now () in
      ignore (Jsonl.decode_request (Jsonl.encode_request req));
      ignore (Jsonl.decode_response (Jsonl.encode_response resp));
      codec := !codec +. (now () -. t0);
      let expected =
        String.concat "\n"
          (List.map
             (fun (_, e) ->
               let t0 = now () in
               let o = Session.apply local (Replay.session_event e) in
               inproc := !inproc +. (now () -. t0);
               Replay.outcome_line o)
             (ok_or_fail (Incremental.feed_text inc text)))
      in
      let actual = match resp with Jsonl.Outcome { text; _ } -> text | _ -> "<no outcome>" in
      Stats.check tally ~expected ~actual)
    evs;
  let ms x = 1000. *. x /. float_of_int requests in
  [
    ("daemon.roundtrip_ms", ms !roundtrip); ("daemon.inproc_ms", ms !inproc);
    ("daemon.tax_ms", ms (!roundtrip -. !inproc)); ("scenario_io.jsonl_ms", ms !codec);
  ]
