(* Per-layer attribution for the traced run: the benchmark's own spans
   around public library calls (wall time and allocated bytes per layer),
   plus what the library already records in the default Gmf_obs registry
   and tracer.  Everything here is inert until [start] — end-to-end runs
   pay one branch per call. *)

let on = ref false

type acc = { mutable calls : int; mutable secs : float; mutable bytes : float }

let table : (string, acc) Hashtbl.t = Hashtbl.create 16

let acc name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { calls = 0; secs = 0.; bytes = 0. } in
      Hashtbl.replace table name a;
      a

let record name ~secs ~bytes =
  let a = acc name in
  a.calls <- a.calls + 1;
  a.secs <- a.secs +. secs;
  a.bytes <- a.bytes +. bytes

(* Time [f] as a call into layer [name]. *)
let span name f =
  if not !on then f ()
  else begin
    let b0 = Gc.allocated_bytes () and t0 = Unix.gettimeofday () in
    let finish () =
      record name
        ~secs:(Unix.gettimeofday () -. t0)
        ~bytes:(Gc.allocated_bytes () -. b0)
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let start () =
  Hashtbl.reset table;
  Gmf_obs.Metrics.reset Gmf_obs.Metrics.default;
  Gmf_obs.Tracer.reset Gmf_obs.Tracer.default;
  Gmf_obs.Metrics.set_enabled Gmf_obs.Metrics.default true;
  Gmf_obs.Tracer.set_enabled Gmf_obs.Tracer.default true;
  on := true

let stop () =
  on := false;
  Gmf_obs.Metrics.set_enabled Gmf_obs.Metrics.default false;
  Gmf_obs.Tracer.set_enabled Gmf_obs.Tracer.default false

(* Mean milliseconds per call of a benchmark span. *)
let ms name =
  match Hashtbl.find_opt table name with
  | Some a -> Stats.fdiv (1000. *. a.secs) (float_of_int a.calls)
  | None -> 0.

(* Megabytes allocated per call of a benchmark span. *)
let alloc_mb name =
  match Hashtbl.find_opt table name with
  | Some a -> Stats.fdiv (a.bytes /. 1e6) (float_of_int a.calls)
  | None -> 0.

let counter name =
  Gmf_obs.Metrics.counter_value
    (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default name)

(* Sum of a library histogram's samples (e.g. rounds per holistic run). *)
let hist_sum name =
  match
    List.assoc_opt name (Gmf_obs.Metrics.snapshot Gmf_obs.Metrics.default).histograms
  with
  | Some h -> h.Gmf_obs.Metrics.h_sum
  | None -> 0

(* (count, mean ms) of a span the library records itself. *)
let lib_span name =
  match
    List.find_opt (fun (n, _, _) -> n = name)
      (Gmf_obs.Tracer.aggregate Gmf_obs.Tracer.default)
  with
  | Some (_, count, total_ns) ->
      (count, Stats.fdiv (float_of_int total_ns /. 1e6) (float_of_int count))
  | None -> (0, 0.)
