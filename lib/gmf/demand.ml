open Gmf_util

type t = {
  n : int;
  cost_prefix : int array; (* cost_prefix.(i) = sum of costs.(0..i-1), i <= 2n *)
  span_prefix : int array; (* span_prefix.(i) = sum of periods.(0..i-1), i <= 2n *)
  cost_total : int;
  tsum : Timeunit.ns;
  (* The request-bound staircase behind [small]: [stair_cost.(i)] is the
     largest cost of any window of 1..n frames whose span is at most
     [stair_span.(i)].  Spans ascend from 0 (single frames); only the
     spans where that largest cost grows are kept. *)
  stair_span : Timeunit.ns array;
  stair_cost : int array;
}

(* Index of the last entry of the ascending [arr] that is [<= x]; -1 when
   every entry exceeds [x]. *)
let last_at_most arr x =
  let rec go lo hi =
    (* the answer lies in [lo, hi]; arr.(lo) <= x unless lo = -1 *)
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if arr.(mid) <= x then go mid hi else go lo (mid - 1)
  in
  go (-1) (Array.length arr - 1)

(* For a fixed start k1, both the span and the cost of a window are
   non-decreasing in its length, so the largest window cost within a span
   is the cost of each start's longest fitting window, maximized over the
   starts.  The sweep below walks the n starts in step, one distinct span
   at a time (smallest next span first), and records a step only where
   that maximum grows.  Monomorphic int arrays, no sort: O(n^2) when all
   periods are equal, O(n^3) at worst. *)
let staircase ~n ~cost_prefix ~span_prefix =
  (* [reached.(k1)]: frames in start k1's longest window seen so far;
     [next.(k1)]: span of that window grown by one frame (max_int once it
     holds the whole cycle). *)
  let reached = Array.make n 0 and next = Array.make n 0 in
  let steps = (n * n) + 1 in
  let stair_span = Array.make steps 0 and stair_cost = Array.make steps 0 in
  let d = ref 0 and best = ref 0 and s = ref 0 in
  while !s < max_int do
    let grown = ref !best in
    for k1 = 0 to n - 1 do
      let len = ref reached.(k1) in
      while !len < n && next.(k1) = !s do
        incr len;
        next.(k1) <-
          (if !len < n then span_prefix.(k1 + !len) - span_prefix.(k1)
           else max_int)
      done;
      reached.(k1) <- !len;
      let c = cost_prefix.(k1 + !len) - cost_prefix.(k1) in
      if c > !grown then grown := c
    done;
    if !d = 0 || !grown > !best then begin
      stair_span.(!d) <- !s;
      stair_cost.(!d) <- !grown;
      incr d
    end;
    best := !grown;
    s := Array.fold_left Int.min max_int next
  done;
  (Array.sub stair_span 0 !d, Array.sub stair_cost 0 !d)

let make ~costs ~periods =
  let n = Array.length costs in
  if n = 0 then invalid_arg "Demand.make: empty cycle";
  if Array.length periods <> n then
    invalid_arg "Demand.make: costs/periods length mismatch";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Demand.make: negative cost")
    costs;
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Demand.make: negative period")
    periods;
  (* Prefix sums over two unrolled cycles let any window of up to n frames
     starting anywhere be summed in O(1). *)
  let prefix arr =
    let p = Array.make ((2 * n) + 1) 0 in
    for i = 0 to (2 * n) - 1 do
      p.(i + 1) <- p.(i) + arr.(i mod n)
    done;
    p
  in
  let cost_prefix = prefix costs in
  let span_prefix = prefix periods in
  let cost_total = cost_prefix.(n) in
  let tsum = span_prefix.(n) in
  if tsum <= 0 then invalid_arg "Demand.make: zero cycle length";
  let stair_span, stair_cost = staircase ~n ~cost_prefix ~span_prefix in
  { n; cost_prefix; span_prefix; cost_total; tsum; stair_span; stair_cost }

let n t = t.n
let cost_total t = t.cost_total
let tsum t = t.tsum

(* Cost of [len] frames starting at [k1]: wraps whole cycles analytically and
   reads the remainder from the unrolled prefix table. *)
let window_cost t ~k1 ~len =
  if k1 < 0 then invalid_arg "Demand.window_cost: negative k1";
  if len < 0 then invalid_arg "Demand.window_cost: negative len";
  let k1 = k1 mod t.n in
  let cycles = len / t.n and rest = len mod t.n in
  (cycles * t.cost_total) + t.cost_prefix.(k1 + rest) - t.cost_prefix.(k1)

let window_span t ~k1 ~len =
  if k1 < 0 then invalid_arg "Demand.window_span: negative k1";
  if len < 0 then invalid_arg "Demand.window_span: negative len";
  if len <= 1 then 0
  else begin
    let k1 = k1 mod t.n in
    let m = len - 1 in
    let cycles = m / t.n and rest = m mod t.n in
    (cycles * t.tsum) + t.span_prefix.(k1 + rest) - t.span_prefix.(k1)
  end

(* Clamping every window to [dt] and then maximizing equals clamping the
   maximum, so the capped variant reads the same step. *)
let small t ~capped dt =
  if dt < 0 then 0
  else begin
    let cost = t.stair_cost.(last_at_most t.stair_span dt) in
    if capped && dt < cost then dt else cost
  end

let bound t ~capped dt =
  if dt < 0 then 0
  else begin
    let cycles = dt / t.tsum in
    let rest = dt - (cycles * t.tsum) in
    (cycles * t.cost_total) + small t ~capped rest
  end

let utilization t = float_of_int t.cost_total /. float_of_int t.tsum
