(* Host-side core of the adaptive key-value serving workload (kvserve):
   Zipfian key popularity, per-space access profiles, hot-key churn and
   rolling quiesce phases — everything that must be bit-identical between
   the SPMD program and the sequential reference lives here, as with the
   other app cores (tsp_core, water_core, chol_core).

   All stored values are integral floats (initial values and put deltas),
   so every key's final value and the grand total are exact integers in
   double precision: the result is independent of summation order and of
   the protocol serving each space. *)

module Rng = Ace_engine.Det_rng

type config = {
  n_keys : int;  (* keys (one region each) per space *)
  ops_per_epoch : int;  (* client ops per active node per space per epoch *)
  epochs : int;
  theta : float;  (* Zipf exponent: 0 = uniform, ~1 = classic skew *)
  churn_every : int;  (* epochs between hot-key permutation rotations *)
  quiesce : bool;  (* rolling node join/leave: one node idle per epoch *)
  seed : int;
  protocol : string option;  (* fix every space after setup (baselines) *)
}

let default =
  {
    n_keys = 256;
    ops_per_epoch = 48;
    epochs = 12;
    theta = 0.99;
    churn_every = 4;
    quiesce = true;
    seed = 42;
    protocol = None;
  }

(* Six spaces, two of each serving profile, so the adaptation engine has
   spaces that should settle on different protocols. *)
type profile = Read_mostly | Mixed | Migratory

let n_spaces = 6
let profile_of_space s =
  match s mod 3 with 0 -> Read_mostly | 1 -> Mixed | _ -> Migratory

(* Blocked key ownership, as in em3d: key [k] of every space is homed at
   processor [k * nprocs / n], and an owner allocates its block in key
   order — so (space, owner, k - lo) names key [k]'s region for
   [global_id] without any rid exchange (at ~1M keys an allgather of the
   full table is exactly what a serving system would not do). *)
let owner_of ~n ~nprocs k = k * nprocs / n

let block_of ~n ~nprocs p =
  let lo = ((p * n) + nprocs - 1) / nprocs in
  let hi = (((p + 1) * n) + nprocs - 1) / nprocs in
  if hi > lo then (lo, hi) else (0, 0)

(* Integral, so sums are exact (see header). *)
let init_value ~space ~key = float_of_int (((space * 131) + (key * 17)) mod 97)

(* --- Zipf sampler: CDF table + binary search --------------------------- *)

type zipf = { cdf : float array (* cdf.(r) = P(rank <= r); cdf.(n-1) = 1 *) }

let zipf_make ~n ~theta =
  if n <= 0 then invalid_arg "Kv_core.zipf_make: n must be positive";
  let cdf = Array.create_float n in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) theta);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  { cdf }

(* First rank whose cdf covers [u]; O(log n). *)
let zipf_sample z rng =
  let u = Rng.float rng in
  let n = Array.length z.cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Probability mass of the most popular rank — used by the frequency
   test to check the sampler against the exponent. *)
let rank1_mass z = z.cdf.(0)

(* The CDF is a pure function of (n, theta) and costs O(n) to build; the
   memo keeps a 1M-key machine from building one per simulated
   processor. *)
let zipf_memo = Input_memo.create ()

let zipf_for cfg =
  Input_memo.get zipf_memo (cfg.n_keys, cfg.theta) (fun (n, theta) ->
      zipf_make ~n ~theta)

(* --- Hot-key churn: an affine permutation of ranks, rotated per era ---- *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* key = (stride * rank + offset) mod n with gcd(stride, n) = 1 is a
   bijection, so rotating (stride, offset) every [churn_every] epochs
   re-seats the entire popularity ranking without changing its shape. *)
let churn_params ~n ~seed ~era =
  let rng = Rng.create ((seed * 2_654_435_761) + (era * 40_503) + 11) in
  let stride = ref (if n > 1 then 1 + Rng.int rng (n - 1) else 1) in
  while gcd !stride n <> 1 do
    stride := (!stride mod n) + 1
  done;
  (!stride, Rng.int rng n)

let churn_key ~n ~seed ~era rank =
  let stride, offset = churn_params ~n ~seed ~era in
  ((stride * rank) + offset) mod n

(* --- Rolling quiesce -------------------------------------------------- *)

(* One node per epoch drains for "maintenance": it issues no client ops
   but still participates in every collective (barriers, adaptation,
   protocol switches), exactly like a serving node taken out of rotation. *)
let active cfg ~nprocs ~epoch ~node =
  (not cfg.quiesce) || nprocs < 2 || node <> epoch mod nprocs

(* --- Client op streams ------------------------------------------------- *)

type op = Get of int | Put of int * float

(* Simulated client-side cycles per op (request decode + response). *)
let get_cycles = 12.
let put_cycles = 20.

let op_seed cfg ~space ~node ~epoch =
  (cfg.seed * 1_000_003) + (space * 97_561) + (node * 7919) + epoch

(* The op stream of one (space, node, epoch) — a pure function of the
   config, so the sequential reference replays exactly the streams the
   simulated nodes serve. Get/put mix and key locality follow the
   space's profile:
     - Read_mostly: 90% gets over the churned Zipf ranking (a cache-ish
       space: invalidation punishes it, updates serve it).
     - Mixed: an even get/put mix over the churned ranking — contended
       enough that neither updates nor migration dominate.
     - Migratory: 80% puts, and epoch [e] steers node [p] at the key
       block of node [(p + e) mod nprocs] — each block has exactly one
       writer at a time, rotating, the migratory pattern of paper §2.1. *)
let ops cfg ~nprocs ~space ~node ~epoch =
  if not (active cfg ~nprocs ~epoch ~node) then [||]
  else begin
    let n = cfg.n_keys in
    let z = zipf_for cfg in
    let era = epoch / cfg.churn_every in
    let rng = Rng.create (op_seed cfg ~space ~node ~epoch) in
    let delta rng = float_of_int (1 + Rng.int rng 8) in
    Array.init cfg.ops_per_epoch (fun _ ->
        match profile_of_space space with
        | Read_mostly ->
            let k = churn_key ~n ~seed:cfg.seed ~era (zipf_sample z rng) in
            if Rng.int rng 100 < 90 then Get k else Put (k, delta rng)
        | Mixed ->
            let k = churn_key ~n ~seed:cfg.seed ~era (zipf_sample z rng) in
            if Rng.int rng 100 < 50 then Get k else Put (k, delta rng)
        | Migratory ->
            let b = (node + epoch) mod nprocs in
            let lo, hi = block_of ~n ~nprocs b in
            let r = zipf_sample z rng in
            let k = if hi > lo then lo + (r mod (hi - lo)) else r mod n in
            if Rng.int rng 100 < 20 then Get k else Put (k, delta rng))
  end

(* --- Sequential reference ---------------------------------------------- *)

(* Grand total over all spaces and keys after every epoch's puts: initial
   values plus every active node's put deltas (gets leave no trace, but
   their stream positions are consumed identically by [ops]). Exact — all
   terms are integers. *)
let reference cfg ~nprocs =
  let sum = ref 0. in
  for s = 0 to n_spaces - 1 do
    for k = 0 to cfg.n_keys - 1 do
      sum := !sum +. init_value ~space:s ~key:k
    done
  done;
  for e = 0 to cfg.epochs - 1 do
    for s = 0 to n_spaces - 1 do
      for p = 0 to nprocs - 1 do
        Array.iter
          (function Put (_, d) -> sum := !sum +. d | Get _ -> ())
          (ops cfg ~nprocs ~space:s ~node:p ~epoch:e)
      done
    done
  done;
  !sum
