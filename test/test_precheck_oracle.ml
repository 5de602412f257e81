(* The hoisted precheck against its slow reference (Precheck_oracle):
   every report must print to the same Precheck.to_json bytes, and every
   per-frame demand floor must match, under both analysis variants. *)

let variants = [ Analysis.Config.default; Analysis.Config.faithful ]

(* Empty when the library and the oracle agree on [scenario] under
   [config], else what differs. *)
let mismatch ~config scenario =
  let fast =
    Gmf_precheck.Precheck.to_json
      (Gmf_precheck.Precheck.run ~config scenario)
  and slow =
    Gmf_precheck.Precheck.to_json (Precheck_oracle.run ~config scenario)
  in
  let floors =
    List.concat_map
      (fun (f : Traffic.Flow.t) ->
        let floor =
          Gmf_precheck.Static_tests.demand_floor ~config scenario f
        in
        List.filter_map
          (fun frame ->
            if
              floor ~frame
              = Precheck_oracle.demand_floor ~config scenario f ~frame
            then None
            else
              Some
                (Printf.sprintf "demand floor of flow %d frame %d"
                   f.Traffic.Flow.id frame))
          (List.init (Traffic.Flow.n f) Fun.id))
      (Traffic.Scenario.flows scenario)
  in
  (if String.equal fast slow then []
   else [ "Precheck.to_json:\n" ^ fast ^ "\n<>\n" ^ slow ])
  @ floors

let check ~config name scenario =
  match mismatch ~config scenario with
  | [] -> ()
  | diffs ->
      Alcotest.failf "%s (%s): %s" name
        (Analysis.Config.variant_to_string config.Analysis.Config.variant)
        (String.concat "; " diffs)

let check_all name scenario =
  List.iter (fun config -> check ~config name scenario) variants

let test_example_corpus () =
  let dir = "../examples/scenarios" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".gmfnet")
  |> List.iter (fun file ->
         match
           Scenario_io.Parse.scenario_of_file (Filename.concat dir file)
         with
         | Error e -> Alcotest.failf "%s: %a" file Scenario_io.Parse.pp_error e
         | Ok scenario -> check_all file scenario)

(* The generator's default networks: MPEG-heavy (n = 12) meshes whose
   components the sufficient test certifies, so ceilings and carry-ins
   reach the report. *)
let test_generated_meshes () =
  List.iter
    (fun seed ->
      let r =
        Gmf_topogen.Topogen.generate
          { Gmf_topogen.Gen_spec.default with Gmf_topogen.Gen_spec.seed }
      in
      check_all
        (Printf.sprintf "topogen seed %d" seed)
        r.Gmf_topogen.Topogen.scenario)
    [ 1; 2; 3 ]

(* The sufficient test's guards: sweep the horizon finely, and the Q
   cap, across the range where fig1's stages start to fail them, so the
   guards' verdicts and their (lazily formatted) reasons are compared
   too. *)
let test_guard_sweep () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let horizons =
    List.init 250 (fun i ->
        int_of_float (1e5 *. (1.03 ** float_of_int i)))
  in
  List.iter
    (fun (v : Analysis.Config.t) ->
      List.iter
        (fun horizon ->
          check
            ~config:{ v with Analysis.Config.horizon }
            (Printf.sprintf "fig1, horizon %d ns" horizon)
            scenario)
        horizons;
      List.iter
        (fun max_q ->
          check
            ~config:{ v with Analysis.Config.max_q }
            (Printf.sprintf "fig1, max_q %d" max_q)
            scenario)
        [ 1; 2; 3; 4 ])
    variants

(* Multi-component clustered scenarios, an occasional hostile profile
   producing infeasible flows and demand-floor certificates. *)
let prop_random =
  QCheck.Test.make ~name:"precheck == slow oracle on random scenarios"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario =
        Test_precheck.gen_scenario (Gmf_util.Rng.create ~seed)
      in
      List.iter
        (fun config ->
          match mismatch ~config scenario with
          | [] -> ()
          | diffs -> QCheck.Test.fail_reportf "%s" (String.concat "; " diffs))
        variants;
      true)

let tests =
  [
    Alcotest.test_case "example corpus, both variants" `Quick
      test_example_corpus;
    Alcotest.test_case "generated meshes, both variants" `Quick
      test_generated_meshes;
    Alcotest.test_case "guard sweep, both variants" `Quick test_guard_sweep;
    QCheck_alcotest.to_alcotest prop_random;
  ]
