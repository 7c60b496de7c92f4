(* Barnes-Hut N-body (SPLASH version in the paper; 16,384 bodies there,
   CLI-scalable here). Each body is one region holding position and mass —
   the data other processors need. Every step each processor reads all body
   positions, builds a local octree replica, computes forces for its own
   bodies and writes their new positions.

   The custom protocol of Fig. 7b is a dynamic update protocol for bodies:
   after the first step every processor shares every body, so an owner's
   write pushes the new position to all consumers instead of invalidating
   them and forcing N blocking refetches per processor per step. *)

module Rng = Ace_engine.Det_rng

type config = {
  n_bodies : int;
  steps : int;
  theta : float;
  dt : float;
  eps : float;
  seed : int;
  protocol : string option; (* e.g. Some "DYN_UPDATE" *)
}

let default =
  {
    n_bodies = 512;
    steps = 4;
    theta = 0.5;
    dt = 0.025;
    eps = 0.5;
    seed = 7;
    protocol = None;
  }

(* Deterministic initial conditions: bodies uniform in a unit sphere with a
   slight rotational velocity, equal masses. *)
let init cfg =
  let n = cfg.n_bodies in
  let rng = Rng.create cfg.seed in
  let px = Array.make n 0.
  and py = Array.make n 0.
  and pz = Array.make n 0.
  and vx = Array.make n 0.
  and vy = Array.make n 0.
  and vz = Array.make n 0.
  and m = Array.make n (1. /. float_of_int n) in
  for i = 0 to n - 1 do
    let rec pick () =
      let x = (2. *. Rng.float rng) -. 1.
      and y = (2. *. Rng.float rng) -. 1.
      and z = (2. *. Rng.float rng) -. 1. in
      if (x *. x) +. (y *. y) +. (z *. z) <= 1. then (x, y, z) else pick ()
    in
    let x, y, z = pick () in
    px.(i) <- x;
    py.(i) <- y;
    pz.(i) <- z;
    vx.(i) <- -0.1 *. y;
    vy.(i) <- 0.1 *. x;
    vz.(i) <- 0.
  done;
  (px, py, pz, vx, vy, vz, m)

let step cfg ~px ~py ~pz ~vx ~vy ~vz ~m ~lo ~hi =
  (* leapfrog-ish update of bodies [lo, hi) against the full tree; returns
     interaction count (for cycle accounting) and the new positions. *)
  let t = Bh_tree.build ~px ~py ~pz ~m (Array.length px) in
  let interactions = ref 0 in
  let nx = Array.make (hi - lo) 0.
  and ny = Array.make (hi - lo) 0.
  and nz = Array.make (hi - lo) 0. in
  for b = lo to hi - 1 do
    let ax, ay, az, c = Bh_tree.force t ~px ~py ~pz ~theta:cfg.theta ~eps:cfg.eps b in
    interactions := !interactions + c;
    vx.(b) <- vx.(b) +. (ax *. cfg.dt);
    vy.(b) <- vy.(b) +. (ay *. cfg.dt);
    vz.(b) <- vz.(b) +. (az *. cfg.dt);
    nx.(b - lo) <- px.(b) +. (vx.(b) *. cfg.dt);
    ny.(b - lo) <- py.(b) +. (vy.(b) *. cfg.dt);
    nz.(b - lo) <- pz.(b) +. (vz.(b) *. cfg.dt)
  done;
  (nx, ny, nz, !interactions)

(* Sequential reference. *)
let reference cfg =
  let px, py, pz, vx, vy, vz, m = init cfg in
  let n = cfg.n_bodies in
  for _ = 1 to cfg.steps do
    let nx, ny, nz, _ = step cfg ~px ~py ~pz ~vx ~vy ~vz ~m ~lo:0 ~hi:n in
    Array.blit nx 0 px 0 n;
    Array.blit ny 0 py 0 n;
    Array.blit nz 0 pz 0 n
  done;
  (px, py, pz)

let checksum (px, py, pz) =
  let s = ref 0. in
  Array.iter (fun v -> s := !s +. v) px;
  Array.iter (fun v -> s := !s +. v) py;
  Array.iter (fun v -> s := !s +. v) pz;
  !s

(* ~100 cycles per body-body / body-cell interaction on the simulated SPARC
   (3 subs, 6 multiply-adds, and a software-assisted sqrt and divide). *)
let interaction_cycles = 100.

let n_spaces = 1

module Make (D : Ace_region.Dsm_intf.S) = struct

  let run cfg (ctx : D.ctx) =
    let me = D.me ctx and nprocs = D.nprocs ctx in
    let n = cfg.n_bodies in
    (* Built per processor, not shared through [Input_memo]: each step
       overwrites these arrays with the bodies read back and the
       velocities integrated. *)
    let px, py, pz, vx, vy, vz, m = init cfg in
    let lo = me * n / nprocs and hi = (me + 1) * n / nprocs in
    (* one region per body: x, y, z, mass *)
    let my_rids =
      Array.init (hi - lo) (fun k ->
          let h = D.alloc ctx ~space:0 ~len:4 in
          let b = lo + k in
          D.start_write ctx h;
          let d = D.data ctx h in
          d.(0) <- px.(b);
          d.(1) <- py.(b);
          d.(2) <- pz.(b);
          d.(3) <- m.(b);
          D.end_write ctx h;
          D.rid h)
    in
    let parts = D.allgather ctx my_rids in
    let rid_of = Array.make n (-1) in
    Array.iteri
      (fun p part ->
        let plo = p * n / nprocs in
        Array.iteri (fun k r -> rid_of.(plo + k) <- r) part)
      parts;
    let handles = Array.map (fun r -> D.map ctx r) rid_of in
    D.barrier ctx ~space:0;
    (match cfg.protocol with
    | Some p -> D.change_protocol ctx ~space:0 p
    | None -> ());
    for _ = 1 to cfg.steps do
      (* read all bodies *)
      for b = 0 to n - 1 do
        let h = handles.(b) in
        D.start_read ctx h;
        let d = D.data ctx h in
        px.(b) <- d.(0);
        py.(b) <- d.(1);
        pz.(b) <- d.(2);
        m.(b) <- d.(3);
        D.end_read ctx h
      done;
      (* local tree + forces for own bodies *)
      let nx, ny, nz, inter = step cfg ~px ~py ~pz ~vx ~vy ~vz ~m ~lo ~hi in
      D.work ctx (interaction_cycles *. float_of_int inter);
      (* publish own new positions *)
      for b = lo to hi - 1 do
        let h = handles.(b) in
        D.start_write ctx h;
        let d = D.data ctx h in
        d.(0) <- nx.(b - lo);
        d.(1) <- ny.(b - lo);
        d.(2) <- nz.(b - lo);
        D.end_write ctx h
      done;
      D.barrier ctx ~space:0
    done;
    if me = 0 then begin
      let s = ref 0. in
      for b = 0 to n - 1 do
        let h = handles.(b) in
        D.start_read ctx h;
        let d = D.data ctx h in
        s := !s +. d.(0) +. d.(1) +. d.(2);
        D.end_read ctx h
      done;
      !s
    end
    else 0.
end
