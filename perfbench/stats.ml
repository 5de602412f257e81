(* The benchmark's statistics, kept pure so [selftest] can pin them. *)

(* 1-based nearest rank of whole percentile [p] among [n] samples:
   [ceil (p * n / 100)], in integers so no rounding can shift it. *)
let rank p n = ((p * n) + 99) / 100

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. *)
let percentile p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 1 || p > 100 then invalid_arg "Stats.percentile: p outside [1, 100]";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  sorted.(rank p n - 1)

let median samples = percentile 50 samples

(* The highest whole percentile whose nearest rank leaves at least ten
   samples above it at a request count of [n]; [None] below 11 samples. *)
let tail_percentile n =
  let rec go p =
    if p < 1 then None else if n - rank p n >= 10 then Some p else go (p - 1)
  in
  go 99

(* [num / den], 0 when nothing was attempted. *)
let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let fdiv num den = if den = 0. then 0. else num /. den

(* Requests whose output disagreed with the recorded fingerprint count as
   failed alongside those that raised. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* [n] requests whose joint output is [actual]. *)
let check ?(n = 1) t ~expected ~actual =
  t.attempted <- t.attempted + n;
  if not (String.equal expected actual) then t.failed <- t.failed + n

let fail t =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1

let failed_frac t = frac t.failed t.attempted

let hex s = Digest.to_hex (Digest.string s)

let selftest () =
  let eq name a b =
    if a <> b then failwith (Printf.sprintf "selftest %s: %g <> %g" name a b)
  in
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  eq "p50 odd" (median xs) 3.;
  eq "p50 even" (median [| 4.; 1.; 3.; 2. |]) 2.;
  eq "p100" (percentile 100 xs) 5.;
  eq "p1" (percentile 1 xs) 1.;
  eq "p80" (percentile 80 xs) 4.;
  eq "p81" (percentile 81 xs) 5.;
  eq "single" (percentile 99 [| 7. |]) 7.;
  let ints = Array.init 100 (fun i -> float_of_int (i + 1)) in
  eq "p90 of 1..100" (percentile 90 ints) 90.;
  eq "p91 of 1..100" (percentile 91 ints) 91.;
  let tail n = match tail_percentile n with Some p -> float_of_int p | None -> -1. in
  eq "tail 100" (tail 100) 90.;
  eq "tail 200" (tail 200) 95.;
  eq "tail 1000" (tail 1000) 99.;
  eq "tail 50" (tail 50) 80.;
  eq "tail 11" (tail 11) 9.;
  eq "tail 10" (tail 10) (-1.);
  (* The rule itself: at the chosen p at least ten samples lie beyond,
     at p + 1 fewer do. *)
  List.iter
    (fun n ->
      match tail_percentile n with
      | None -> failwith "selftest tail: none"
      | Some p ->
          if n - rank p n < 10 || (p < 99 && n - rank (p + 1) n >= 10) then
            failwith (Printf.sprintf "selftest tail rule at n=%d" n))
    [ 11; 37; 100; 101; 240; 999; 5000 ];
  eq "frac 0/0" (frac 0 0) 0.;
  eq "frac 1/4" (frac 1 4) 0.25;
  eq "fdiv x/0" (fdiv 3. 0.) 0.;
  let t = tally () in
  check t ~expected:"a" ~actual:"a";
  check t ~expected:"a" ~actual:"b";
  fail t;
  check t ~expected:"c" ~actual:"c";
  eq "failed_frac mismatch" (failed_frac t) 0.5;
  check ~n:4 t ~expected:"d" ~actual:"e";
  eq "failed_frac chunk" (failed_frac t) 0.75;
  eq "failed_frac empty" (failed_frac (tally ())) 0.;
  if (try ignore (percentile 50 [||]); true with Invalid_argument _ -> false)
  then failwith "selftest: percentile of nothing must raise"
