(* Travelling Salesman kernels: deterministic instance generation and the
   branch-and-bound search shared by the SPMD program and the sequential
   reference (CRL 1.0's TSP solves 12-city instances the same way). *)

module Rng = Ace_engine.Det_rng

type config = { n_cities : int; seed : int }

let generate cfg =
  let rng = Rng.create cfg.seed in
  let xs = Array.init cfg.n_cities (fun _ -> Rng.float rng)
  and ys = Array.init cfg.n_cities (fun _ -> Rng.float rng) in
  let n = cfg.n_cities in
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
      d.(i).(j) <- sqrt ((dx *. dx) +. (dy *. dy))
    done
  done;
  d

(* Greedy nearest-neighbour tour, the initial upper bound. *)
let greedy_bound d =
  let n = Array.length d in
  let visited = Array.make n false in
  visited.(0) <- true;
  let total = ref 0. and cur = ref 0 in
  for _ = 1 to n - 1 do
    let best = ref (-1) and bestd = ref infinity in
    for j = 0 to n - 1 do
      if (not visited.(j)) && d.(!cur).(j) < !bestd then begin
        best := j;
        bestd := d.(!cur).(j)
      end
    done;
    visited.(!best) <- true;
    total := !total +. !bestd;
    cur := !best
  done;
  !total +. d.(!cur).(0)

(* Cheap admissible lower bound: current length + for every unvisited city
   (and the current endpoint) its cheapest remaining outgoing edge. *)
let lower_bound d ~visited ~cur ~len =
  let n = Array.length d in
  let acc = ref len in
  let cheapest_from i =
    let m = ref infinity in
    for j = 0 to n - 1 do
      if j <> i && ((not visited.(j)) || j = 0) && d.(i).(j) < !m then
        m := d.(i).(j)
    done;
    !m
  in
  acc := !acc +. cheapest_from cur;
  for j = 1 to n - 1 do
    if not visited.(j) then acc := !acc +. cheapest_from j
  done;
  !acc

(* Depth-first branch and bound below a fixed tour prefix. [best] is a
   mutable cell read for pruning and improved in place; [nodes] counts
   expansions (for cycle accounting). Returns unit; the result is in
   [best]. *)
let search d ~visited ~cur ~len ~depth ~best ~nodes =
  let n = Array.length d in
  let rec go cur len depth =
    incr nodes;
    if depth = n then begin
      let total = len +. d.(cur).(0) in
      if total < !best then best := total
    end
    else if lower_bound d ~visited ~cur ~len < !best then
      for j = 1 to n - 1 do
        if not visited.(j) then begin
          visited.(j) <- true;
          go j (len +. d.(cur).(j)) (depth + 1);
          visited.(j) <- false
        end
      done
  in
  go cur len depth

(* Jobs: tour prefixes 0 -> a -> b -> c (the distribution unit of the
   parallel solver; fine-grained so the job counter is exercised). *)
let jobs cfg =
  let n = cfg.n_cities in
  let out = ref [] in
  for a = n - 1 downto 1 do
    for b = n - 1 downto 1 do
      for c = n - 1 downto 1 do
        if a <> b && b <> c && a <> c then out := (a, b, c) :: !out
      done
    done
  done;
  Array.of_list !out

let run_job d ~job:(a, b, c) ~best ~nodes =
  let n = Array.length d in
  let visited = Array.make n false in
  visited.(0) <- true;
  visited.(a) <- true;
  visited.(b) <- true;
  visited.(c) <- true;
  let len = d.(0).(a) +. d.(a).(b) +. d.(b).(c) in
  if lower_bound d ~visited ~cur:c ~len < !best then
    search d ~visited ~cur:c ~len ~depth:4 ~best ~nodes

(* Sequential reference: optimal tour length. *)
let reference cfg =
  let d = generate cfg in
  let best = ref (greedy_bound d) in
  let nodes = ref 0 in
  Array.iter (fun job -> run_job d ~job ~best ~nodes) (jobs cfg);
  !best
