(* EM3D (Culler et al., Split-C): electromagnetic wave propagation on a
   bipartite graph. New E values are weighted sums of neighbouring H nodes
   and vice versa (paper §3.3, Fig. 2). Each graph node is one region —
   user-specified granularity puts exactly one logical datum in each
   coherence unit, so the producer-consumer pattern is visible to the
   protocol. *)

module Rng = Ace_engine.Det_rng

type config = {
  n_nodes : int; (* nodes per side (E and H each) *)
  degree : int;
  pct_remote : int; (* percentage of edges crossing processors *)
  steps : int;
  seed : int;
  protocol : string option; (* switch both spaces after setup *)
}

let default =
  { n_nodes = 800; degree = 10; pct_remote = 20; steps = 10; seed = 42; protocol = None }

(* Deterministic bipartite graph. Node [i] of a side is owned by processor
   [i * nprocs / n]; its in-neighbours come from the opposite side, local
   with probability (100-pct_remote)%. Both the SPMD program and the
   sequential reference generate exactly this graph. *)
type graph = {
  nprocs : int;
  n : int;
  owner : int array; (* same for both sides *)
  e_nbr : int array array; (* in-neighbours (H indices) of each E node *)
  h_nbr : int array array; (* in-neighbours (E indices) of each H node *)
  weight : float array array; (* per E node edge weights; reused for H *)
}

let owner_of ~n ~nprocs i = i * nprocs / n

let block_of ~n ~nprocs p =
  (* nodes owned by processor p: [lo, hi). [owner_of] is monotone in [i],
     so the bounds are closed-form: the first node of [p] is the first [i]
     with [i * nprocs >= p * n]. (0, 0) marks an empty block, as the old
     O(n) scan produced. *)
  let lo = ((p * n) + nprocs - 1) / nprocs in
  let hi = (((p + 1) * n) + nprocs - 1) / nprocs in
  if hi > lo then (lo, hi) else (0, 0)

let generate_uncached cfg ~nprocs =
  let n = cfg.n_nodes in
  let owner = Array.init n (fun i -> owner_of ~n ~nprocs i) in
  let blocks = Array.init nprocs (fun p -> block_of ~n ~nprocs p) in
  let pick_neighbor rng me_owner =
    let remote = Rng.int rng 100 < cfg.pct_remote && nprocs > 1 in
    let target =
      if not remote then me_owner
      else (me_owner + 1 + Rng.int rng (nprocs - 1)) mod nprocs
    in
    let lo, hi = blocks.(target) in
    if hi > lo then lo + Rng.int rng (hi - lo) else Rng.int rng n
  in
  let side salt =
    Array.init n (fun i ->
        let rng = Rng.create ((cfg.seed * 1_000_003) + (salt * 7919) + i) in
        Array.init cfg.degree (fun _ -> pick_neighbor rng owner.(i)))
  in
  let weight =
    Array.init n (fun i ->
        let rng = Rng.create ((cfg.seed * 29) + i) in
        Array.init cfg.degree (fun _ ->
            (0.5 +. Rng.float rng) /. (2. *. float_of_int cfg.degree)))
  in
  { nprocs; n; owner; e_nbr = side 1; h_nbr = side 2; weight }

(* The graph is a pure function of (cfg, nprocs) and is read-only once
   built, but [run] is executed by every simulated processor: the memo
   keeps a 1024-node machine from building 1024 identical copies. *)
let graph_memo = Input_memo.create ()

let generate cfg ~nprocs =
  Input_memo.get graph_memo (cfg, nprocs) (fun (cfg, nprocs) ->
      generate_uncached cfg ~nprocs)

let init_value side i = float_of_int ((side * 31) + i) /. 1000.

(* Sequential reference: the exact computation the SPMD program performs.
   [nprocs] must match the simulated run — the graph structure (which edges
   are remote) depends on it. *)
let reference cfg ~nprocs =
  let g = generate cfg ~nprocs in
  let e = Array.init g.n (init_value 0) and h = Array.init g.n (init_value 1) in
  for _ = 1 to cfg.steps do
    for i = 0 to g.n - 1 do
      let acc = ref e.(i) in
      Array.iteri (fun k j -> acc := !acc -. (g.weight.(i).(k) *. h.(j))) g.e_nbr.(i);
      e.(i) <- !acc
    done;
    for i = 0 to g.n - 1 do
      let acc = ref h.(i) in
      Array.iteri (fun k j -> acc := !acc -. (g.weight.(i).(k) *. e.(j))) g.h_nbr.(i);
      h.(i) <- !acc
    done
  done;
  (e, h)

let checksum (e, h) =
  Array.fold_left ( +. ) 0. e +. Array.fold_left ( +. ) 0. h

(* Cycle cost of one edge update on the simulated 33 MHz SPARC: load, fmul,
   fsub, index arithmetic. *)
let edge_cycles = 8.

let n_spaces = 2

module Make (D : Ace_region.Dsm_intf.S) = struct
  (* Space layout: 0 = E values, 1 = H values (Fig. 2's eval/hval). *)

  let run cfg (ctx : D.ctx) =
    let me = D.me ctx and nprocs = D.nprocs ctx in
    let g = generate cfg ~nprocs in
    (* MakeGraph: every node allocates its own regions, then rids are
       exchanged so neighbours can be mapped. *)
    let mine side_space =
      let rids = ref [] in
      for i = g.n - 1 downto 0 do
        if g.owner.(i) = me then begin
          let h = D.alloc ctx ~space:side_space ~len:1 in
          rids := (i, D.rid h) :: !rids
        end
      done;
      !rids
    in
    let my_e = mine 0 and my_h = mine 1 in
    let pack l = Array.of_list (List.concat_map (fun (i, r) -> [ i; r ]) l) in
    let unpack parts =
      let t = Array.make g.n (-1) in
      Array.iter
        (fun part ->
          let k = Array.length part / 2 in
          for j = 0 to k - 1 do
            t.(part.(2 * j)) <- part.((2 * j) + 1)
          done)
        parts;
      t
    in
    let e_rid = unpack (D.allgather ctx (pack my_e)) in
    let h_rid = unpack (D.allgather ctx (pack my_h)) in
    (* Initialize own values (home writes). *)
    let init side rid_of l =
      List.iter
        (fun (i, _) ->
          let h = D.map ctx rid_of.(i) in
          D.start_write ctx h;
          (D.data ctx h).(0) <- init_value side i;
          D.end_write ctx h)
        l
    in
    init 0 e_rid my_e;
    init 1 h_rid my_h;
    D.barrier ctx ~space:0;
    (* Fig. 2 lines 8-9: plug in the custom protocol library. *)
    (match cfg.protocol with
    | Some p ->
        D.change_protocol ctx ~space:0 p;
        D.change_protocol ctx ~space:1 p
    | None -> ());
    (* Pre-map handles (the hand-optimized pattern of §5.3). [unpack]
       filled every rid, since every node is allocated by its owner. *)
    let e_h = Array.map (D.map ctx) e_rid in
    let h_h = Array.map (D.map ctx) h_rid in
    let handle side i = if side = 0 then e_h.(i) else h_h.(i) in
    let compute ~dst_side ~nbr ~mine =
      List.iter
        (fun (i, _) ->
          let hd = handle dst_side i in
          D.start_read ctx hd;
          let acc = ref (D.data ctx hd).(0) in
          D.end_read ctx hd;
          Array.iteri
            (fun k j ->
              let hs = handle (1 - dst_side) j in
              D.start_read ctx hs;
              let v = (D.data ctx hs).(0) in
              D.end_read ctx hs;
              acc := !acc -. (g.weight.(i).(k) *. v);
              D.work ctx edge_cycles)
            nbr.(i);
          D.start_write ctx hd;
          (D.data ctx hd).(0) <- !acc;
          D.end_write ctx hd)
        mine
    in
    for _ = 1 to cfg.steps do
      (* compute E from H, then Ace_Barrier(eval) — the barrier names the
         space that was written so its protocol can propagate (Fig. 2). *)
      compute ~dst_side:0 ~nbr:g.e_nbr ~mine:my_e;
      D.barrier ctx ~space:0;
      compute ~dst_side:1 ~nbr:g.h_nbr ~mine:my_h;
      D.barrier ctx ~space:1
    done;
    (* Deterministic checksum: node 0 reads every node. *)
    if me = 0 then begin
      let sum = ref 0. in
      let read_all rid_of =
        for i = 0 to g.n - 1 do
          let h = D.map ctx rid_of.(i) in
          D.start_read ctx h;
          sum := !sum +. (D.data ctx h).(0);
          D.end_read ctx h
        done
      in
      read_all e_rid;
      read_all h_rid;
      !sum
    end
    else 0.
end
