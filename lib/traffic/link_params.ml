open Gmf_util

(* Option fields, not [Lazy.t]: scenarios carry their params across the
   fork pool by [Marshal], and an unforced lazy is a closure, which
   [Marshal] refuses. *)
type demands = {
  mutable time : Gmf.Demand.t option;
  mutable count : Gmf.Demand.t option;
}

type t = {
  flow : Flow.t;
  link : Network.Link.t;
  c : Timeunit.ns array;
  eth_frames : int array;
  demands : demands;
}

let m_builds = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "demand.builds"

let make ~flow ~link =
  let nbits = Flow.nbits_all flow in
  let c = Array.map (fun bits -> Network.Link.tx_time link ~nbits:bits) nbits in
  let mft_ns = Network.Link.mft link in
  (* Eq (5): number of Ethernet frames of GMF frame k as ceil(C / MFT). *)
  let eth_frames = Array.map (fun ci -> Timeunit.cdiv ci mft_ns) c in
  { flow; link; c; eth_frames; demands = { time = None; count = None } }

let csum t = Array.fold_left ( + ) 0 t.c
let nsum t = Array.fold_left ( + ) 0 t.eth_frames
let mft t = Network.Link.mft t.link

let build t costs =
  Gmf_obs.Metrics.incr m_builds;
  Gmf.Demand.make ~costs ~periods:(Gmf.Spec.periods t.flow.Flow.spec)

let time_demand t =
  match t.demands.time with
  | Some d -> d
  | None ->
      let d = build t t.c in
      t.demands.time <- Some d;
      d

let count_demand t =
  match t.demands.count with
  | Some d -> d
  | None ->
      let d = build t t.eth_frames in
      t.demands.count <- Some d;
      d

let utilization t = float_of_int (csum t) /. float_of_int (Flow.tsum t.flow)

let pp fmt t =
  Format.fprintf fmt
    "@[<hov 2>params(%s on %a): CSUM=%a NSUM=%d TSUM=%a util=%.4f@]"
    t.flow.Flow.name Network.Link.pp t.link Timeunit.pp (csum t) (nsum t)
    Timeunit.pp (Flow.tsum t.flow) (utilization t)
