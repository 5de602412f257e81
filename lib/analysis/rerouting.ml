type decision = {
  admitted : bool;
  route : Network.Route.t option;
  attempts : int;
  report : Holistic.report;
}

let with_route flow route =
  Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
    ~spec:flow.Traffic.Flow.spec ~encap:flow.Traffic.Flow.encap ~route
    ~priority:flow.Traffic.Flow.priority
(* Remarks are dropped deliberately: they name hops of the old route. *)

let route_avoids ?(avoid_links = []) ?(avoid_nodes = []) route =
  List.for_all (fun hop -> not (List.mem hop avoid_links))
    (Network.Route.hops route)
  && List.for_all
       (fun n -> not (List.mem n avoid_nodes))
       (Network.Route.nodes route)

let candidate_routes ?(max_routes = 4) ?avoid_links ?avoid_nodes topo flow =
  let own = flow.Traffic.Flow.route in
  let alternatives =
    Network.Pathfind.k_shortest ~k:max_routes ?avoid_links ?avoid_nodes topo
      ~src:(Network.Route.source own)
      ~dst:(Network.Route.destination own)
    |> List.filter (fun r ->
           Network.Route.nodes r <> Network.Route.nodes own)
  in
  if route_avoids ?avoid_links ?avoid_nodes own then own :: alternatives
  else alternatives

(* First-match search over candidate routes, through the case layer:
   deterministic first (lowest-index) schedulable route under every
   backend, with sequential-equivalent attempt counting. *)
let try_routes ?exec ?config ~base_flows ~topo ~switches flow routes =
  let scenario_of route =
    Traffic.Scenario.make ~switches ~topo
      ~flows:(base_flows @ [ with_route flow route ])
      ()
  in
  let search =
    Case.search_schedulable ?exec ?config (List.map scenario_of routes)
  in
  match search.Case.found with
  | Some (i, report) -> (Some (List.nth routes i), i + 1, Some report)
  | None -> (None, search.Case.evaluated, search.Case.last)

let admit ?exec ?config ?max_routes ?avoid_links ?avoid_nodes scenario
    ~candidate =
  let topo = Traffic.Scenario.topo scenario in
  let routes =
    candidate_routes ?max_routes ?avoid_links ?avoid_nodes topo candidate
  in
  let accepted, attempts, report =
    try_routes ?exec ?config
      ~base_flows:(Traffic.Scenario.flows scenario)
      ~topo
      ~switches:(Traffic.Scenario.switch_models scenario)
      candidate routes
  in
  let report =
    match report with
    | Some r -> r
    | None -> Holistic.analyze ?config scenario
  in
  { admitted = accepted <> None; route = accepted; attempts; report }

let admit_greedily ?exec ?config ?max_routes ~topo ~switches candidates =
  let rec go accepted rejected = function
    | [] -> (List.rev accepted, List.rev rejected)
    | candidate :: rest -> begin
        let routes = candidate_routes ?max_routes topo candidate in
        let found, _, _ =
          try_routes ?exec ?config ~base_flows:(List.rev accepted) ~topo
            ~switches candidate routes
        in
        match found with
        | Some route ->
            go (with_route candidate route :: accepted) rejected rest
        | None -> go accepted (candidate :: rejected) rest
      end
  in
  go [] [] candidates
