(* Reference oracle for Analysis.Holistic: the three stage analyses, the
   per-frame pipeline walk and the Tindell & Clark round loop as they
   stood before the stage-result memo — every round re-runs every (flow,
   frame, stage) recurrence scan, and the lint gate is evaluated for
   every flow in every round.  The recurrence scan itself
   ([Stage_common.run]) and the interferer resolution are shared with the
   library; what the oracle pins is which scans run and which results the
   rounds see.  Counters, tracing and round observers are left out.  It
   reads and writes jitters through a plain [Ctx.t]; its memo stays
   empty. *)

open Analysis

(* Stage analyses run so far, for the counter cross-check. *)
let stage_analyses = ref 0

let first_hop ctx ~flow ~frame =
  let route = flow.Traffic.Flow.route in
  let s = Network.Route.source route in
  let d = Network.Route.succ route s in
  let stage = Stage.First_link (s, d) in
  let own = Ctx.params ctx flow ~src:s ~dst:d in
  let c_k = own.Traffic.Link_params.c.(frame) in
  let csum_i = Traffic.Link_params.csum own in
  let tsum_i = Traffic.Flow.tsum flow in
  let prop = own.Traffic.Link_params.link.Network.Link.prop in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  let all = Traffic.Scenario.flows_on (Ctx.scenario ctx) ~src:s ~dst:d in
  let others =
    List.filter (fun j -> j.Traffic.Flow.id <> flow.Traffic.Flow.id) all
  in
  let rows flows =
    Stage_common.interferers ctx ~stage ~src:s ~dst:d
      ~demand:Traffic.Link_params.time_demand flows
  in
  let all = rows all and others = rows others in
  let capped = Ctx.mx_capped ctx in
  let interference rows dt = Stage_common.demand_sum rows ~capped dt in
  let pre_c l =
    Stage_common.window_before own.Traffic.Link_params.c ~k:frame ~len:l
  in
  let pre_t l = Stage_common.window_before periods ~k:frame ~len:l in
  Stage_common.run ~ctx ~stage ~flow ~frame ~busy_seed:c_k
    ~busy_step:(fun t -> interference all t)
    ~w_base:(fun ~q ~l -> (q * csum_i) + pre_c l)
    ~w_step:(fun ~q ~l w -> (q * csum_i) + pre_c l + interference others w)
    ~finish:(fun ~q ~l ~w -> w - ((q * tsum_i) + pre_t l) + c_k + prop)

let ingress ctx ~flow ~node ~frame =
  let p = Network.Route.prec flow.Traffic.Flow.route node in
  let stage = Stage.Ingress node in
  let circ = Traffic.Scenario.circ (Ctx.scenario ctx) node in
  let own = Ctx.params ctx flow ~src:p ~dst:node in
  let m_k = own.Traffic.Link_params.eth_frames.(frame) in
  let nsum_i = Traffic.Link_params.nsum own in
  let tsum_i = Traffic.Flow.tsum flow in
  let all = Traffic.Scenario.flows_on (Ctx.scenario ctx) ~src:p ~dst:node in
  let others =
    List.filter (fun j -> j.Traffic.Flow.id <> flow.Traffic.Flow.id) all
  in
  let rows flows =
    Stage_common.interferers ctx ~stage ~src:p ~dst:node
      ~demand:Traffic.Link_params.count_demand flows
  in
  let all = rows all and others = rows others in
  let interference rows dt = Stage_common.demand_sum rows ~capped:false dt in
  let variant = (Ctx.config ctx).Config.variant in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  let pre_m l =
    Stage_common.window_before own.Traffic.Link_params.eth_frames ~k:frame
      ~len:l
  in
  let pre_t l = Stage_common.window_before periods ~k:frame ~len:l in
  let own_charge q l =
    match variant with
    | Config.Faithful -> q * circ
    | Config.Repaired -> ((q * nsum_i) + pre_m l + (m_k - 1)) * circ
  in
  let busy_seed =
    match variant with
    | Config.Faithful -> circ
    | Config.Repaired -> m_k * circ
  in
  Stage_common.run ~ctx ~stage ~flow ~frame ~busy_seed
    ~busy_step:(fun t -> interference all t * circ)
    ~w_base:(fun ~q ~l -> own_charge q l)
    ~w_step:(fun ~q ~l w -> own_charge q l + (interference others w * circ))
    ~finish:(fun ~q ~l ~w -> w - ((q * tsum_i) + pre_t l) + circ)

let egress ctx ~flow ~node ~frame =
  let d = Network.Route.succ flow.Traffic.Flow.route node in
  let stage = Stage.Egress (node, d) in
  let scenario = Ctx.scenario ctx in
  let circ = Traffic.Scenario.circ scenario node in
  let own = Ctx.params ctx flow ~src:node ~dst:d in
  let c_k = own.Traffic.Link_params.c.(frame) in
  let m_k = own.Traffic.Link_params.eth_frames.(frame) in
  let csum_i = Traffic.Link_params.csum own in
  let nsum_i = Traffic.Link_params.nsum own in
  let tsum_i = Traffic.Flow.tsum flow in
  let mft = Traffic.Link_params.mft own in
  let prop = own.Traffic.Link_params.link.Network.Link.prop in
  let hep = Traffic.Scenario.hep scenario flow ~node in
  let rows demand flows =
    Stage_common.interferers ctx ~stage ~src:node ~dst:d ~demand flows
  in
  let sets flows =
    ( rows Traffic.Link_params.time_demand flows,
      rows Traffic.Link_params.count_demand flows )
  in
  let hep_and_self = sets (flow :: hep) and hep = sets hep in
  let capped = Ctx.mx_capped ctx in
  let interference (time, count) dt =
    Stage_common.demand_sum time ~capped dt
    + (Stage_common.demand_sum count ~capped:false dt * circ)
  in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  let pre_c l =
    Stage_common.window_before own.Traffic.Link_params.c ~k:frame ~len:l
  in
  let pre_m l =
    Stage_common.window_before own.Traffic.Link_params.eth_frames ~k:frame
      ~len:l
  in
  let pre_t l = Stage_common.window_before periods ~k:frame ~len:l in
  let own_rotations q l =
    match (Ctx.config ctx).Config.variant with
    | Config.Faithful -> 0
    | Config.Repaired -> ((q * nsum_i) + pre_m l + m_k) * circ
  in
  let base q l = mft + (q * csum_i) + pre_c l + own_rotations q l in
  Stage_common.run ~ctx ~stage ~flow ~frame ~busy_seed:mft
    ~busy_step:(fun t -> mft + interference hep_and_self t)
    ~w_base:(fun ~q ~l -> base q l)
    ~w_step:(fun ~q ~l w -> base q l + interference hep w)
    ~finish:(fun ~q ~l ~w -> w - ((q * tsum_i) + pre_t l) + c_k + prop)

let stage_min_response ctx flow ~frame = function
  | Stage.First_link (src, dst) | Stage.Egress (src, dst) ->
      let p = Ctx.params ctx flow ~src ~dst in
      p.Traffic.Link_params.c.(frame)
      + p.Traffic.Link_params.link.Network.Link.prop
  | Stage.Ingress node ->
      let prec = Network.Route.prec flow.Traffic.Flow.route node in
      let p = Ctx.params ctx flow ~src:prec ~dst:node in
      let model = Traffic.Scenario.switch_model (Ctx.scenario ctx) node in
      p.Traffic.Link_params.eth_frames.(frame)
      * model.Click.Switch_model.croute

let analyze_frame ctx ~flow ~frame =
  let spec_frame = Gmf.Spec.frame flow.Traffic.Flow.spec frame in
  let gj = spec_frame.Gmf.Frame_spec.jitter in
  let tight = (Ctx.config ctx).Config.tight_jitter in
  let analyze_stage stage =
    incr stage_analyses;
    match stage with
    | Stage.First_link _ -> first_hop ctx ~flow ~frame
    | Stage.Ingress node -> ingress ctx ~flow ~node ~frame
    | Stage.Egress (node, _) -> egress ctx ~flow ~node ~frame
  in
  let rec walk stages rsum jsum acc =
    match stages with
    | [] ->
        Ok
          {
            Result_types.frame;
            stages = List.rev acc;
            total = rsum;
            deadline = spec_frame.Gmf.Frame_spec.deadline;
          }
    | stage :: rest -> (
        Ctx.set_jitter ctx flow ~frame ~stage jsum;
        match analyze_stage stage with
        | Error failure -> Error failure
        | Ok sr ->
            let r = sr.Result_types.response in
            let growth =
              if tight then max 0 (r - stage_min_response ctx flow ~frame stage)
              else r
            in
            walk rest (rsum + r) (jsum + growth) (sr :: acc))
  in
  walk (Stage.stages_of_route flow.Traffic.Flow.route) gj gj []

let analyze_flow ctx ~flow =
  match Gmf_lint.Rules.flow_gate (Ctx.scenario ctx) flow with
  | d :: _ ->
      Error
        {
          Result_types.flow_id = flow.Traffic.Flow.id;
          frame = 0;
          failed_stage = None;
          reason = Gmf_diag.to_string d;
        }
  | [] ->
      let rec go k acc =
        if k >= Traffic.Flow.n flow then
          Ok { Result_types.flow; frames = Array.of_list (List.rev acc) }
        else
          match analyze_frame ctx ~flow ~frame:k with
          | Error failure -> Error failure
          | Ok fr -> go (k + 1) (fr :: acc)
      in
      go 0 []

let run_round ctx =
  List.fold_left
    (fun (results, failures) flow ->
      match analyze_flow ctx ~flow with
      | Ok res -> (res :: results, failures)
      | Error f -> (results, f :: failures))
    ([], [])
    (Traffic.Scenario.flows (Ctx.scenario ctx))
  |> fun (results, failures) -> (List.rev results, List.rev failures)

let iterate ctx =
  let max_rounds = (Ctx.config ctx).Config.max_holistic_rounds in
  let rec rounds n =
    let before = Jitter_state.copy (Ctx.jitters ctx) in
    let results, failures = run_round ctx in
    let report verdict = { Holistic.verdict; rounds = n; results } in
    if failures <> [] then report (Holistic.Analysis_failed failures)
    else if Jitter_state.equal before (Ctx.jitters ctx) then
      match Holistic.deadline_misses results with
      | [] -> report Holistic.Schedulable
      | misses -> report (Holistic.Deadline_miss misses)
    else if n >= max_rounds then report (Holistic.No_fixed_point n)
    else rounds (n + 1)
  in
  rounds 1

(* [run] / [run_from] on a fresh context: the report and the final
   jitter state. *)
let run ?config scenario =
  let ctx = Ctx.create ?config scenario in
  let report = iterate ctx in
  (report, Ctx.jitters ctx)

let run_from ?config scenario ~init =
  let ctx = Ctx.create ?config scenario in
  Ctx.restore ctx init;
  let report = iterate ctx in
  (report, Ctx.jitters ctx)
