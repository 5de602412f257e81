(* Analysis.Jitter_state (one flat row per (flow, stage)) against the
   per-entry Hashtbl model in [Jitter_model]: random sequences of writes
   (zeros included), copies, filters and unions over three slots must
   agree on every observer, and no result may alias its inputs. *)

module J = Analysis.Jitter_state
module M = Jitter_model
module Stage = Analysis.Stage

let stages =
  [|
    Stage.First_link (0, 1);
    Stage.First_link (1, 0);
    Stage.Ingress 1;
    Stage.Egress (1, 2);
    Stage.Egress (2, 1);
  |]

let n_flows = 4
let n_frames = 6

type op =
  | Set of int * int * int * int * int  (* slot, flow, stage, frame, value *)
  | Copy of int * int  (* dst, src *)
  | Filter of int * int * int  (* dst, src, kept-flow bitmask *)
  | Union of int * int * int  (* dst, a, b *)

let pp_op = function
  | Set (s, f, st, k, v) -> Printf.sprintf "set[%d] f%d %d #%d=%d" s f st k v
  | Copy (d, s) -> Printf.sprintf "[%d]:=copy[%d]" d s
  | Filter (d, s, m) -> Printf.sprintf "[%d]:=filter[%d] %x" d s m
  | Union (d, a, b) -> Printf.sprintf "[%d]:=union[%d][%d]" d a b

let gen_op =
  let open QCheck.Gen in
  let slot = int_range 0 2 in
  frequency
    [
      ( 8,
        let* s = slot and* f = int_range 0 (n_flows - 1)
        and* st = int_range 0 (Array.length stages - 1)
        and* k = int_range 0 (n_frames - 1)
        and* v = frequency [ (1, return 0); (3, int_range 1 1_000) ] in
        return (Set (s, f, st, k, v)) );
      (1, map2 (fun d s -> Copy (d, s)) slot slot);
      (1, map3 (fun d s m -> Filter (d, s, m)) slot slot (int_range 0 15));
      (1, map3 (fun d a b -> Union (d, a, b)) slot slot slot);
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let apply impl model = function
  | Set (s, flow, st, frame, v) ->
      J.set impl.(s) ~flow ~stage:stages.(st) ~frame v;
      M.set model.(s) ~flow ~stage:stages.(st) ~frame v
  | Copy (d, s) ->
      impl.(d) <- J.copy impl.(s);
      model.(d) <- M.copy model.(s)
  | Filter (d, s, mask) ->
      let keep f = mask land (1 lsl f) <> 0 in
      impl.(d) <- J.filter_flows impl.(s) ~keep;
      model.(d) <- M.filter_flows model.(s) ~keep
  | Union (d, a, b) ->
      impl.(d) <- J.union impl.(a) impl.(b);
      model.(d) <- M.union model.(a) model.(b)

let agree impl model =
  let ok = ref true in
  let check b = if not b then ok := false in
  Array.iteri
    (fun s j ->
      let m = model.(s) in
      check (J.max_value j = M.max_value m);
      for flow = 0 to n_flows - 1 do
        Array.iter
          (fun stage ->
            for frame = -1 to n_frames do
              check (J.get j ~flow ~stage ~frame = M.get m ~flow ~stage ~frame)
            done;
            for n = 0 to n_frames + 1 do
              check
                (J.extra j ~flow ~n_frames:n ~stage
                = M.extra m ~flow ~n_frames:n ~stage)
            done)
          stages
      done;
      Array.iteri
        (fun s' j' ->
          let m' = model.(s') in
          check (J.equal j j' = M.equal m m');
          check (J.max_delta j j' = M.max_delta m m');
          check (J.flow_deltas j j' = M.flow_deltas m m'))
        impl)
    impl;
  !ok

let prop_matches_model =
  QCheck.Test.make ~name:"flat rows agree with the per-entry model" ~count:500
    arb_ops (fun ops ->
      let impl = Array.init 3 (fun _ -> J.create ())
      and model = Array.init 3 (fun _ -> M.create ()) in
      List.for_all
        (fun op ->
          apply impl model op;
          agree impl model)
        ops)

(* Every constructor of a fresh state copies rows: writes to the result
   never reach an input, and writes to an input never reach the result. *)
let test_results_do_not_alias () =
  let stage = Stage.Ingress 1 in
  let base () =
    let t = J.create () in
    J.set t ~flow:0 ~stage ~frame:0 10;
    J.set t ~flow:1 ~stage ~frame:2 20;
    t
  in
  let check_isolated name make =
    let a = base () and b = base () in
    let r = make a b in
    J.set r ~flow:0 ~stage ~frame:0 99;
    J.set r ~flow:1 ~stage ~frame:1 5;
    Alcotest.(check int) (name ^ ": input a intact") 10 (J.get a ~flow:0 ~stage ~frame:0);
    Alcotest.(check int) (name ^ ": input b intact") 10 (J.get b ~flow:0 ~stage ~frame:0);
    Alcotest.(check int) (name ^ ": no new entry in a") 0 (J.get a ~flow:1 ~stage ~frame:1);
    Alcotest.(check int) (name ^ ": extra of a") 10 (J.extra a ~flow:0 ~n_frames:1 ~stage);
    J.set a ~flow:1 ~stage ~frame:2 0;
    J.set b ~flow:1 ~stage ~frame:2 0;
    Alcotest.(check int) (name ^ ": result intact") 20 (J.get r ~flow:1 ~stage ~frame:2)
  in
  check_isolated "copy" (fun a _ -> J.copy a);
  check_isolated "filter_flows" (fun a _ -> J.filter_flows a ~keep:(fun _ -> true));
  check_isolated "union" J.union;
  check_isolated "union (b side)" (fun a b -> J.union (J.create ()) (J.union b a))

(* A zero write is an absent entry for every comparison. *)
let test_zero_is_absent () =
  let stage = Stage.Egress (1, 2) in
  let a = J.create () and b = J.create () in
  J.set a ~flow:3 ~stage ~frame:4 7;
  J.set a ~flow:3 ~stage ~frame:4 0;
  Alcotest.(check bool) "equal to empty" true (J.equal a b);
  Alcotest.(check int) "max_delta" 0 (J.max_delta a b);
  Alcotest.(check (list (pair int int))) "flow_deltas" [] (J.flow_deltas a b);
  Alcotest.(check int) "extra" 0 (J.extra a ~flow:3 ~n_frames:5 ~stage)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "copy / filter / union do not alias" `Quick
      test_results_do_not_alias;
    Alcotest.test_case "zero entries count as absent" `Quick test_zero_is_absent;
  ]
