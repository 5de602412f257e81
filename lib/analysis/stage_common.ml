open Gmf_util

(* The paper's per-frame analysis assumes every busy period begins with a
   release of the analyzed frame k itself (eqs 16/23/30 charge only whole
   prior cycles, q * CSUM).  That is unsound when earlier frames of the
   same flow can still be in service at frame k's release — e.g. the
   Figure 3 stream on a 10 Mbit/s link, where the I+P packet's 36.6 ms
   transmission exceeds its 30 ms period, so the following B packet always
   queues behind it (observed by the simulator, experiment E18).

   Repair R8 (DESIGN.md): under [Config.Repaired] the scan below maximizes
   over busy periods starting [l] own frames before frame k
   (l = 0..n_i - 1); the own-work charge grows by the l predecessors'
   demand while the subtraction in [finish] grows only by their minimum
   separations.  [Config.Faithful] keeps the paper's l = 0. *)

let window_before arr ~k ~len =
  let n = Array.length arr in
  let rec go i acc =
    if i >= len then acc
    else go (i + 1) (acc + arr.((((k - 1 - i) mod n) + n) mod n))
  in
  go 0 0

type interferer = { demand : Gmf.Demand.t; extra : Timeunit.ns }

(* Resolved once per stage analysis.  Jitters are only written between
   stage analyses (Pipeline sets a frame's jitter before analyzing the
   stage), so every extra_j read here is the one the recurrences see. *)
let interferers ctx ~stage ~src ~dst ~demand flows =
  Array.of_list
    (List.map
       (fun j ->
         {
           demand = demand (Ctx.params ctx j ~src ~dst);
           extra = Ctx.extra ctx j ~stage;
         })
       flows)

let demand_sum rows ~capped dt =
  let acc = ref 0 in
  for i = 0 to Array.length rows - 1 do
    let r = Array.unsafe_get rows i in
    acc := !acc + Gmf.Demand.bound r.demand ~capped (dt + r.extra)
  done;
  !acc

(* Work counters of the stage-result memo: analyses that ran their
   recurrences, and analyses answered from the memo. *)
let m_evaluations =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "stage.evaluations"

let m_memo_hits =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "stage.memo_hits"

(* Constant span names: selecting by match keeps the disabled path
   allocation-free. *)
let stage_span_name = function
  | Stage.First_link _ -> "stage.first_link"
  | Stage.Ingress _ -> "stage.ingress"
  | Stage.Egress _ -> "stage.egress"

let rec same_extras ctx ~stage (stored : Timeunit.ns array) i = function
  | [] -> true
  | j :: rest ->
      stored.(i) = Ctx.extra ctx j ~stage
      && same_extras ctx ~stage stored (i + 1) rest

(* Exact: the recurrences read the jitter state only through the extras
   of [flows], so equal extras give an equal result.  A hit reads only
   those extras (no demand tables, no rows).  The extras are written after
   [compute] returns, so an exception leaves the entry as it was.  A hit
   opens no span: spans time work. *)
let memoized ctx ~stage ~flow ~frame flows compute =
  let e =
    Ctx.memo_entry ctx ~flow:flow.Traffic.Flow.id ~frame ~stage
      ~rows:(List.length flows)
  in
  match e.Ctx.result with
  | Some r when same_extras ctx ~stage e.Ctx.extras 0 flows ->
      Gmf_obs.Metrics.incr m_memo_hits;
      r
  | _ ->
      Gmf_obs.Metrics.incr m_evaluations;
      let r =
        Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"analysis"
          (stage_span_name stage) compute
      in
      List.iteri (fun i j -> e.Ctx.extras.(i) <- Ctx.extra ctx j ~stage) flows;
      e.Ctx.result <- Some r;
      r

(* Per-stage-kind convergence histograms: the profile subcommand reports
   where fixpoint iterations are spent across the three stage analyses. *)
let iters_first_link =
  Gmf_obs.Metrics.histogram Gmf_obs.Metrics.default "fixpoint.iters.first_link"

let iters_ingress =
  Gmf_obs.Metrics.histogram Gmf_obs.Metrics.default "fixpoint.iters.ingress"

let iters_egress =
  Gmf_obs.Metrics.histogram Gmf_obs.Metrics.default "fixpoint.iters.egress"

let iters_hist = function
  | Stage.First_link _ -> iters_first_link
  | Stage.Ingress _ -> iters_ingress
  | Stage.Egress _ -> iters_egress

let run ~ctx ~stage ~flow ~frame ~busy_seed ~busy_step ~w_base ~w_step ~finish
    =
  let cfg = Ctx.config ctx in
  let fail reason =
    Error
      {
        Result_types.flow_id = flow.Traffic.Flow.id;
        frame;
        failed_stage = Some stage;
        reason;
      }
  in
  let stage_iters = iters_hist stage in
  let fixed ~f ~seed =
    let outcome =
      Fixpoint.iterate ~f ~seed ~max_iters:cfg.Config.max_busy_iters
        ~horizon:cfg.Config.horizon
    in
    (match outcome with
    | Fixpoint.Converged { iters; _ } ->
        Gmf_obs.Metrics.observe stage_iters iters
    | Fixpoint.Diverged _ -> ());
    outcome
  in
  match fixed ~f:busy_step ~seed:busy_seed with
  | Fixpoint.Diverged msg -> fail ("busy period: " ^ msg)
  | Fixpoint.Converged { value = busy_len; _ } -> begin
      let tsum = Traffic.Flow.tsum flow in
      let q_count = max 1 (Timeunit.cdiv busy_len tsum) in
      let l_count =
        match cfg.Config.variant with
        | Config.Faithful -> 1
        | Config.Repaired -> Traffic.Flow.n flow
      in
      if q_count > cfg.Config.max_q then
        fail
          (Printf.sprintf "Q=%d exceeds the configured cap %d" q_count
             cfg.Config.max_q)
      else begin
        (* Scan every candidate busy-period shape: q whole own cycles plus
           l own predecessor frames ahead of the analyzed instance.  The
           stage bound is the worst response among them; the winning shape
           (q, l) and its converged window w are kept as a witness so the
           explain layer can re-derive every term of the bound. *)
        let rec scan q l best =
          if q >= q_count then
            let best_r, w_q, w_l, w_last = best in
            Ok
              {
                Result_types.stage;
                response = best_r;
                busy_len;
                q_count;
                w_q;
                w_l;
                w_last;
              }
          else if l >= l_count then scan (q + 1) 0 best
          else
            match fixed ~f:(w_step ~q ~l) ~seed:(w_base ~q ~l) with
            | Fixpoint.Diverged msg ->
                fail (Printf.sprintf "w(q=%d,l=%d): %s" q l msg)
            | Fixpoint.Converged { value = w; _ } ->
                let r = finish ~q ~l ~w in
                let best_r, _, _, _ = best in
                scan q (l + 1) (if r > best_r then (r, q, l, w) else best)
        in
        scan 0 0 (min_int, 0, 0, 0)
      end
    end
