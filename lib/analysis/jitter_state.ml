open Gmf_util

(* One row per (flow, stage): the per-frame jitters in a flat array, plus
   their maximum, so [extra] is a single lookup.  A zero entry and an
   absent one are the same thing everywhere: the array only grows to cover
   the highest frame ever set to a non-zero value. *)
type row = { mutable frames : Timeunit.ns array; mutable max : Timeunit.ns }

type t = (Traffic.Flow.id * Stage.t, row) Hashtbl.t

let create () : t = Hashtbl.create 256

let get t ~flow ~stage ~frame =
  match Hashtbl.find_opt t (flow, stage) with
  | Some r when frame >= 0 && frame < Array.length r.frames -> r.frames.(frame)
  | _ -> 0

let row_max frames = Array.fold_left Int.max 0 frames

(* Writes one entry of a row, growing the array for a non-zero value past
   its end and keeping the cached maximum exact. *)
let row_set r ~frame value =
  let len = Array.length r.frames in
  if frame >= len then begin
    if value <> 0 then begin
      let frames = Array.make (frame + 1) 0 in
      Array.blit r.frames 0 frames 0 len;
      frames.(frame) <- value;
      r.frames <- frames;
      if value > r.max then r.max <- value
    end
  end
  else begin
    let old = r.frames.(frame) in
    r.frames.(frame) <- value;
    if value >= r.max then r.max <- value
    else if old = r.max then r.max <- row_max r.frames
  end

let set t ~flow ~stage ~frame value =
  if value < 0 then invalid_arg "Jitter_state.set: negative jitter";
  if frame < 0 then invalid_arg "Jitter_state.set: negative frame index";
  match Hashtbl.find_opt t (flow, stage) with
  | Some r -> row_set r ~frame value
  | None when value = 0 -> ()
  | None ->
      let r = { frames = [||]; max = 0 } in
      row_set r ~frame value;
      Hashtbl.replace t (flow, stage) r

let extra t ~flow ~n_frames ~stage =
  match Hashtbl.find_opt t (flow, stage) with
  | None -> 0
  | Some r ->
      if Array.length r.frames <= n_frames then r.max
      else begin
        let best = ref 0 in
        for frame = 0 to n_frames - 1 do
          best := Int.max !best r.frames.(frame)
        done;
        !best
      end

let copy_row r = { frames = Array.copy r.frames; max = r.max }

let filter_flows t ~keep =
  let out = create () in
  Hashtbl.iter
    (fun ((flow, _) as key) r ->
      if keep flow && r.max > 0 then Hashtbl.replace out key (copy_row r))
    t;
  out

let copy t = filter_flows t ~keep:(fun _ -> true)

let union a b =
  let out = copy a in
  Hashtbl.iter
    (fun key rb ->
      match Hashtbl.find_opt out key with
      | None -> if rb.max > 0 then Hashtbl.replace out key (copy_row rb)
      | Some r ->
          Array.iteri
            (fun frame v -> if v <> 0 then row_set r ~frame v)
            rb.frames)
    b;
  out

(* Largest per-entry difference of two rows, absent entries reading 0. *)
let row_delta ra rb =
  let la = Array.length ra.frames and lb = Array.length rb.frames in
  let d = ref 0 in
  for i = 0 to Int.max la lb - 1 do
    let v = if i < la then ra.frames.(i) else 0
    and w = if i < lb then rb.frames.(i) else 0 in
    d := Int.max !d (abs (v - w))
  done;
  !d

(* [f key delta] for every row holding a non-zero entry in [a] or [b]. *)
let iter_deltas a b f =
  Hashtbl.iter
    (fun key ra ->
      match Hashtbl.find_opt b key with
      | Some rb -> if ra.max > 0 || rb.max > 0 then f key (row_delta ra rb)
      | None -> if ra.max > 0 then f key ra.max)
    a;
  Hashtbl.iter
    (fun key rb -> if rb.max > 0 && not (Hashtbl.mem a key) then f key rb.max)
    b

let max_delta a b =
  let d = ref 0 in
  iter_deltas a b (fun _ v -> d := Int.max !d v);
  !d

let equal a b = max_delta a b = 0

let max_value t = Hashtbl.fold (fun _ r acc -> Int.max r.max acc) t 0

let flow_deltas a b =
  let tbl = Hashtbl.create 16 in
  iter_deltas a b (fun (flow, _) d ->
      match Hashtbl.find_opt tbl flow with
      | Some cur when cur >= d -> ()
      | _ -> Hashtbl.replace tbl flow d);
  Hashtbl.fold (fun flow d acc -> (flow, d) :: acc) tbl []
  |> List.sort compare
