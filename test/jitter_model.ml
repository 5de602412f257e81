(* Reference model of [Analysis.Jitter_state]: one polymorphic-hash entry
   per (flow, stage, frame), an absent entry reading as 0.  The library
   keeps a flat row per (flow, stage) instead; [Test_jitter_state] checks
   the two agree on every observer. *)

type key = Traffic.Flow.id * Analysis.Stage.t * int

type t = (key, Gmf_util.Timeunit.ns) Hashtbl.t

let create () : t = Hashtbl.create 256

let get t ~flow ~stage ~frame =
  Option.value ~default:0 (Hashtbl.find_opt t (flow, stage, frame))

let set t ~flow ~stage ~frame value =
  if value < 0 then invalid_arg "Jitter_state.set: negative jitter";
  if frame < 0 then invalid_arg "Jitter_state.set: negative frame index";
  if value = 0 then Hashtbl.remove t (flow, stage, frame)
  else Hashtbl.replace t (flow, stage, frame) value

let extra t ~flow ~n_frames ~stage =
  let best = ref 0 in
  for frame = 0 to n_frames - 1 do
    let v = get t ~flow ~stage ~frame in
    if v > !best then best := v
  done;
  !best

let copy t = Hashtbl.copy t

let filter_flows t ~keep =
  let out = create () in
  Hashtbl.iter
    (fun ((flow, _, _) as key) v -> if keep flow then Hashtbl.replace out key v)
    t;
  out

let union a b =
  let out = copy a in
  Hashtbl.iter (Hashtbl.replace out) b;
  out

let equal a b =
  let subset x y =
    Hashtbl.fold
      (fun k v acc ->
        acc && Option.value ~default:0 (Hashtbl.find_opt y k) = v)
      x true
  in
  subset a b && subset b a

let max_value t = Hashtbl.fold (fun _ v acc -> max v acc) t 0

let max_delta a b =
  let one x y acc =
    Hashtbl.fold
      (fun k v acc ->
        let w = Option.value ~default:0 (Hashtbl.find_opt y k) in
        Stdlib.max acc (abs (v - w)))
      x acc
  in
  one a b (one b a 0)

let flow_deltas a b =
  let tbl = Hashtbl.create 16 in
  let one x y =
    Hashtbl.iter
      (fun ((flow, _, _) as k) v ->
        let w = Option.value ~default:0 (Hashtbl.find_opt y k) in
        let d = abs (v - w) in
        match Hashtbl.find_opt tbl flow with
        | Some cur when cur >= d -> ()
        | _ -> Hashtbl.replace tbl flow d)
      x
  in
  one a b;
  one b a;
  Hashtbl.fold (fun flow d acc -> (flow, d) :: acc) tbl []
  |> List.sort compare
