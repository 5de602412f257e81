let convert_spec spec =
  let frames = Gmf.Spec.frames spec in
  let positive_periods =
    Array.to_list frames
    |> List.filter_map (fun (f : Gmf.Frame_spec.t) ->
           if f.period > 0 then Some f.period else None)
  in
  let period =
    match positive_periods with
    | [] -> invalid_arg "Sporadic.convert_spec: no positive period"
    | p :: rest -> List.fold_left min p rest
  in
  let fold f init = Array.fold_left f init frames in
  let payload =
    fold (fun acc (fr : Gmf.Frame_spec.t) -> max acc fr.payload_bits) 0
  in
  let deadline = Gmf.Spec.min_deadline spec in
  let jitter = Gmf.Spec.max_jitter spec in
  Gmf.Spec.make
    [ Gmf.Frame_spec.make ~period ~deadline ~jitter ~payload_bits:payload ]

let convert_flow flow =
  Traffic.Flow.with_remarks
    (Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
       ~spec:(convert_spec flow.Traffic.Flow.spec)
       ~encap:flow.Traffic.Flow.encap ~route:flow.Traffic.Flow.route
       ~priority:flow.Traffic.Flow.priority)
    flow.Traffic.Flow.remarks

let convert_scenario scenario =
  Traffic.Scenario.make
    ~switches:(Traffic.Scenario.switch_models scenario)
    ~topo:(Traffic.Scenario.topo scenario)
    ~flows:(List.map convert_flow (Traffic.Scenario.flows scenario))
    ()

let analyze ?config scenario =
  Analysis.Holistic.analyze ?config (convert_scenario scenario)

let check ?config scenario =
  let report = analyze ?config scenario in
  { Analysis.Admission.admitted = Analysis.Holistic.is_schedulable report;
    report; diagnostics = [] }

let admit_greedily ?config ~topo ~switches candidates =
  let decide flows =
    let scenario =
      Traffic.Scenario.make ~switches ~topo
        ~flows:(List.map convert_flow flows)
        ()
    in
    Analysis.Holistic.is_schedulable (Analysis.Holistic.analyze ?config scenario)
  in
  let rec go accepted rejected = function
    | [] -> (List.rev accepted, List.rev rejected)
    | candidate :: rest ->
        if decide (List.rev (candidate :: accepted)) then
          go (candidate :: accepted) rejected rest
        else go accepted (candidate :: rejected) rest
  in
  go [] [] candidates
