type stage_result = (Result_types.stage_response, Result_types.failure) result

type memo_entry = {
  extras : Gmf_util.Timeunit.ns array;
  mutable result : stage_result option;
}

type t = {
  scenario : Traffic.Scenario.t;
  config : Config.t;
  mutable jitters : Jitter_state.t;
  (* Both tables hold pure functions of the fixed scenario and config
     (plus, for the memo, the extras stored in the entry), so neither is
     touched by [reset_jitters] or [restore]. *)
  memo : (Traffic.Flow.id * int * Stage.t, memo_entry) Hashtbl.t;
  gates : (Traffic.Flow.id, Gmf_diag.t option) Hashtbl.t;
}

let install_source_jitters scenario state =
  List.iter
    (fun flow ->
      let route = flow.Traffic.Flow.route in
      let source = Network.Route.source route in
      let stage =
        Stage.First_link (source, Network.Route.succ route source)
      in
      let jitters = Gmf.Spec.jitters flow.Traffic.Flow.spec in
      Array.iteri
        (fun frame value ->
          Jitter_state.set state ~flow:flow.Traffic.Flow.id ~stage ~frame
            value)
        jitters)
    (Traffic.Scenario.flows scenario)

let create ?(config = Config.default) scenario =
  let jitters = Jitter_state.create () in
  install_source_jitters scenario jitters;
  {
    scenario;
    config;
    jitters;
    memo = Hashtbl.create 256;
    gates = Hashtbl.create 16;
  }

let scenario t = t.scenario
let config t = t.config
let jitters t = t.jitters

let reset_jitters t =
  let fresh = Jitter_state.create () in
  install_source_jitters t.scenario fresh;
  t.jitters <- fresh

let snapshot t = Jitter_state.copy t.jitters

let restore t state =
  let fresh = Jitter_state.copy state in
  install_source_jitters t.scenario fresh;
  t.jitters <- fresh

let params t flow ~src ~dst = Traffic.Scenario.params t.scenario flow ~src ~dst

(* The paper's MXS (eq 10) clamps each window's demand to the interval
   length, which makes MX(0) = 0: with all jitters zero, the queuing-time
   recurrences then accept w = 0 as a fixed point and report no interference
   at all.  The Repaired variant therefore uses the uncapped window maximum —
   the classical request-bound reading, where a competing frame arriving at
   the critical instant contributes its full transmission time (repair R7 in
   DESIGN.md). *)
let mx_capped t =
  match t.config.Config.variant with
  | Config.Faithful -> true
  | Config.Repaired -> false

let mx t flow ~src ~dst ~dt =
  Gmf.Demand.bound
    (Traffic.Link_params.time_demand (params t flow ~src ~dst))
    ~capped:(mx_capped t) dt

let nx t flow ~src ~dst ~dt =
  Gmf.Demand.bound
    (Traffic.Link_params.count_demand (params t flow ~src ~dst))
    ~capped:false dt

let extra t flow ~stage =
  Jitter_state.extra t.jitters ~flow:flow.Traffic.Flow.id
    ~n_frames:(Traffic.Flow.n flow) ~stage

let set_jitter t flow ~frame ~stage value =
  Jitter_state.set t.jitters ~flow:flow.Traffic.Flow.id ~stage ~frame value

let get_jitter t flow ~frame ~stage =
  Jitter_state.get t.jitters ~flow:flow.Traffic.Flow.id ~stage ~frame

let memo_entry t ~flow ~frame ~stage ~rows =
  let key = (flow, frame, stage) in
  match Hashtbl.find_opt t.memo key with
  | Some e when Array.length e.extras = rows -> e
  | _ ->
      let e = { extras = Array.make rows 0; result = None } in
      Hashtbl.replace t.memo key e;
      e

let flow_gate t flow =
  let id = flow.Traffic.Flow.id in
  match Hashtbl.find_opt t.gates id with
  | Some g -> g
  | None ->
      let g =
        match Gmf_lint.Rules.flow_gate t.scenario flow with
        | [] -> None
        | d :: _ -> Some d
      in
      Hashtbl.replace t.gates id g;
      g
