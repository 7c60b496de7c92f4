(* Order statistics over timing samples, and the host clock the benchmark
   reads. *)

(* Nanoseconds from the kernel's monotonic clock; allocation-free, so it is
   safe on the facade's per-call path. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Every timed pass repeats identical deterministic work, so host noise can
   only add time: the fastest sample is the one that repeats. *)
let fastest xs =
  if xs = [] then invalid_arg "Stat.fastest: no samples";
  List.fold_left min infinity xs

(* Percentile [p] (0..100) by linear interpolation between closest ranks:
   rank p/100 * (n-1) of the sorted samples. For n = 1000 and p = 99 the
   ten largest samples lie strictly beyond the result. *)
let percentile xs p =
  if xs = [] then invalid_arg "Stat.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Stat.percentile: p outside 0..100";
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = p /. 100. *. float_of_int (Array.length a - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (Array.length a - 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.
