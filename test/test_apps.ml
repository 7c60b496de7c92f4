(* Integration tests: every benchmark application, on both backends and
   under its custom protocols, must compute what its sequential reference
   computes. *)

module Driver = Ace_harness.Driver
module Em3d = Ace_apps.Em3d
module Bh = Ace_apps.Barnes_hut
module Chol = Ace_apps.Cholesky
module Tsp = Ace_apps.Tsp
module Water = Ace_apps.Water

let nprocs = 4

let close ?(tol = 1e-9) a b =
  abs_float (a -. b) <= tol *. (1. +. max (abs_float a) (abs_float b))

let check_close ?tol name a b =
  if not (close ?tol a b) then
    Alcotest.failf "%s: %.12g <> %.12g" name a b

(* ---- EM3D ---- *)

let em3d_cfg = { Em3d.default with Em3d.n_nodes = 64; steps = 4 }

let em3d_reference_checksum () =
  Em3d.checksum (Em3d.reference em3d_cfg ~nprocs)

let em3d_crl () =
  let r = Driver.run_crl ~nprocs (module Em3d) em3d_cfg in
  check_close "crl vs reference" (em3d_reference_checksum ()) r.Driver.result

let em3d_ace_sc () =
  let r = Driver.run_ace ~nprocs (module Em3d) em3d_cfg in
  check_close "ace-sc vs reference" (em3d_reference_checksum ()) r.Driver.result

let em3d_protocols () =
  List.iter
    (fun proto ->
      let cfg = { em3d_cfg with Em3d.protocol = Some proto } in
      let r = Driver.run_ace ~nprocs (module Em3d) cfg in
      check_close (proto ^ " vs reference") (em3d_reference_checksum ())
        r.Driver.result)
    [ "DYN_UPDATE"; "STATIC_UPDATE" ]

let em3d_more_steps_static () =
  (* regression: stale reads after the learning window (the bug the
     two-write-barrier window fixes) only show up with many iterations *)
  let cfg =
    { em3d_cfg with Em3d.steps = 9; protocol = Some "STATIC_UPDATE" }
  in
  let r = Driver.run_ace ~nprocs (module Em3d) cfg in
  check_close "static update long run"
    (Em3d.checksum (Em3d.reference { cfg with Em3d.protocol = None } ~nprocs))
    r.Driver.result

(* ---- Barnes-Hut ---- *)

let bh_cfg = { Bh.default with Bh.n_bodies = 64; steps = 3 }

let bh_reference () = Bh.checksum (Bh.reference bh_cfg)

let bh_backends () =
  let expect = bh_reference () in
  let crl = Driver.run_crl ~nprocs (module Bh) bh_cfg in
  check_close "crl" expect crl.Driver.result;
  let ace = Driver.run_ace ~nprocs (module Bh) bh_cfg in
  check_close "ace" expect ace.Driver.result;
  let dyn =
    Driver.run_ace ~nprocs (module Bh) { bh_cfg with Bh.protocol = Some "DYN_UPDATE" }
  in
  check_close "dyn update" expect dyn.Driver.result

let bh_tree_matches_direct_forces () =
  (* octree force with small theta approximates the O(N^2) sum *)
  let cfg = { bh_cfg with Bh.n_bodies = 128 } in
  let px, py, pz, _, _, _, m = Bh.init cfg in
  let t = Ace_apps.Bh_tree.build ~px ~py ~pz ~m cfg.Bh.n_bodies in
  let max_rel = ref 0. in
  for b = 0 to cfg.Bh.n_bodies - 1 do
    let ax, ay, az, _ =
      Ace_apps.Bh_tree.force t ~px ~py ~pz ~theta:0.2 ~eps:cfg.Bh.eps b
    in
    let dx, dy, dz =
      Ace_apps.Bh_tree.direct_force ~px ~py ~pz ~m ~eps:cfg.Bh.eps
        cfg.Bh.n_bodies b
    in
    let mag = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) +. 1e-9 in
    let err =
      sqrt
        (((ax -. dx) ** 2.) +. ((ay -. dy) ** 2.) +. ((az -. dz) ** 2.))
      /. mag
    in
    if err > !max_rel then max_rel := err
  done;
  if !max_rel > 0.05 then
    Alcotest.failf "tree force error too large: %f" !max_rel

let bh_tree_exact_at_zero_theta () =
  (* with theta -> 0 every interaction is body-body: identical to direct *)
  let cfg = { bh_cfg with Bh.n_bodies = 32 } in
  let px, py, pz, _, _, _, m = Bh.init cfg in
  let t = Ace_apps.Bh_tree.build ~px ~py ~pz ~m 32 in
  for b = 0 to 31 do
    let ax, _, _, _ =
      Ace_apps.Bh_tree.force t ~px ~py ~pz ~theta:0. ~eps:cfg.Bh.eps b
    in
    let dx, _, _ = Ace_apps.Bh_tree.direct_force ~px ~py ~pz ~m ~eps:cfg.Bh.eps 32 b in
    check_close ~tol:1e-9 "exact" dx ax
  done

(* ---- BSC ---- *)

let chol_cfg =
  {
    Chol.default with
    Chol.core = { Ace_apps.Chol_core.nb = 6; b = 8; band = 2; seed = 5 };
  }

let chol_factor_is_correct () =
  (* L L^T = A for the sequential blocked factorization *)
  let l = Ace_apps.Chol_core.reference chol_cfg.Chol.core in
  let err = Ace_apps.Chol_core.residual chol_cfg.Chol.core ~l in
  if err > 1e-8 then Alcotest.failf "residual %g" err

let chol_backends () =
  let expect = Ace_apps.Chol_core.checksum (Ace_apps.Chol_core.reference chol_cfg.Chol.core) in
  let crl = Driver.run_crl ~nprocs (module Chol) chol_cfg in
  check_close ~tol:1e-6 "crl" expect crl.Driver.result;
  let ace = Driver.run_ace ~nprocs (module Chol) chol_cfg in
  check_close ~tol:1e-6 "ace" expect ace.Driver.result;
  let wo =
    Driver.run_ace ~nprocs (module Chol)
      { chol_cfg with Chol.protocol = Some "WRITE_ONCE" }
  in
  check_close ~tol:1e-6 "write-once" expect wo.Driver.result

(* BSC's input is built once per domain and shared by every simulated
   processor. Two runs in one domain must both factor the right matrix,
   the shared blocks must still equal a fresh [generate] afterwards (the
   program never writes its input), and another seed must get its own
   matrix rather than the memoised one. *)
let chol_shared_input () =
  let module C = Ace_apps.Chol_core in
  let same a b =
    Hashtbl.length a = Hashtbl.length b
    && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true
  in
  let core = chol_cfg.Chol.core in
  let expect = C.checksum (C.reference core) in
  for run = 1 to 2 do
    let r = Driver.run_ace ~nprocs:8 (module Chol) chol_cfg in
    check_close ~tol:1e-6 (Printf.sprintf "run %d" run) expect r.Driver.result
  done;
  Alcotest.(check bool) "input unchanged" true (same (C.input core) (C.generate core));
  let other = { core with C.seed = core.C.seed + 1 } in
  let r = Driver.run_ace ~nprocs:8 (module Chol) { chol_cfg with Chol.core = other } in
  check_close ~tol:1e-6 "other seed" (C.checksum (C.reference other)) r.Driver.result;
  Alcotest.(check bool) "other seed's input" true (same (C.input other) (C.generate other));
  Alcotest.(check bool) "differs from the first seed's" false
    (same (C.input other) (C.generate core))

(* ---- TSP ---- *)

let tsp_cfg =
  { Tsp.default with Tsp.core = { Ace_apps.Tsp_core.n_cities = 8; seed = 9 } }

let tsp_brute_force core =
  (* exhaustive optimal tour for small n *)
  let d = Ace_apps.Tsp_core.generate core in
  let n = core.Ace_apps.Tsp_core.n_cities in
  let best = ref infinity in
  let visited = Array.make n false in
  visited.(0) <- true;
  let rec go cur len depth =
    if depth = n then begin
      let t = len +. d.(cur).(0) in
      if t < !best then best := t
    end
    else
      for j = 1 to n - 1 do
        if not visited.(j) then begin
          visited.(j) <- true;
          go j (len +. d.(cur).(j)) (depth + 1);
          visited.(j) <- false
        end
      done
  in
  go 0 0. 1;
  !best

let tsp_reference_is_optimal () =
  check_close "b&b = brute force"
    (tsp_brute_force tsp_cfg.Tsp.core)
    (Ace_apps.Tsp_core.reference tsp_cfg.Tsp.core)

let tsp_backends () =
  let expect = Ace_apps.Tsp_core.reference tsp_cfg.Tsp.core in
  let crl = Driver.run_crl ~nprocs (module Tsp) tsp_cfg in
  check_close "crl optimal" expect crl.Driver.result;
  let ace = Driver.run_ace ~nprocs (module Tsp) tsp_cfg in
  check_close "ace optimal" expect ace.Driver.result;
  let ctr =
    Driver.run_ace ~nprocs (module Tsp)
      { tsp_cfg with Tsp.counter_protocol = Some "COUNTER" }
  in
  check_close "counter optimal" expect ctr.Driver.result

(* ---- Water ---- *)

let water_cfg =
  {
    Water.default with
    Water.core = { Water.default.Water.core with Ace_apps.Water_core.n_mol = 24; steps = 3 };
  }

let water_reference () =
  Ace_apps.Water_core.checksum (Ace_apps.Water_core.reference water_cfg.Water.core)

let water_backends () =
  (* force accumulation order differs across processors: compare with a
     modest tolerance *)
  let expect = water_reference () in
  let crl = Driver.run_crl ~nprocs (module Water) water_cfg in
  check_close ~tol:1e-6 "crl" expect crl.Driver.result;
  let ace = Driver.run_ace ~nprocs (module Water) water_cfg in
  check_close ~tol:1e-6 "ace" expect ace.Driver.result;
  let custom =
    Driver.run_ace ~nprocs (module Water)
      { water_cfg with Water.phase_protocols = Some ("NULL", "PIPELINE") }
  in
  check_close ~tol:1e-6 "null+pipeline" expect custom.Driver.result

let water_force_antisymmetric () =
  (* Newton's third law: swapping the arguments negates the force *)
  let c = water_cfg.Water.core in
  let mols = Ace_apps.Water_core.init c in
  let n = Array.length mols in
  let checked = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match
        ( Ace_apps.Water_core.pair_force c mols.(i) mols.(j),
          Ace_apps.Water_core.pair_force c mols.(j) mols.(i) )
      with
      | Some (x, y, z), Some (x', y', z') ->
          incr checked;
          check_close ~tol:1e-12 "fx" (-.x) x';
          check_close ~tol:1e-12 "fy" (-.y) y';
          check_close ~tol:1e-12 "fz" (-.z) z'
      | None, None -> ()
      | _ -> Alcotest.fail "cutoff not symmetric"
    done
  done;
  Alcotest.(check bool) "some pairs in range" true (!checked > 0)

(* cross-backend determinism at several processor counts *)
let cross_backend_procs () =
  List.iter
    (fun p ->
      let cfg = { em3d_cfg with Em3d.n_nodes = 48 } in
      let crl = Driver.run_crl ~nprocs:p (module Em3d) cfg in
      let ace = Driver.run_ace ~nprocs:p (module Em3d) cfg in
      check_close (Printf.sprintf "em3d @%d procs" p) crl.Driver.result
        ace.Driver.result)
    [ 1; 2; 3; 8 ]

let () =
  Alcotest.run "apps"
    [
      ( "em3d",
        [
          Alcotest.test_case "crl" `Quick em3d_crl;
          Alcotest.test_case "ace sc" `Quick em3d_ace_sc;
          Alcotest.test_case "custom protocols" `Quick em3d_protocols;
          Alcotest.test_case "static update long run" `Quick em3d_more_steps_static;
        ] );
      ( "barnes_hut",
        [
          Alcotest.test_case "backends" `Slow bh_backends;
          Alcotest.test_case "tree ~= direct" `Quick bh_tree_matches_direct_forces;
          Alcotest.test_case "tree exact at theta=0" `Quick bh_tree_exact_at_zero_theta;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "LL^T = A" `Quick chol_factor_is_correct;
          Alcotest.test_case "backends" `Slow chol_backends;
          Alcotest.test_case "shared input" `Quick chol_shared_input;
        ] );
      ( "tsp",
        [
          Alcotest.test_case "optimality" `Quick tsp_reference_is_optimal;
          Alcotest.test_case "backends" `Slow tsp_backends;
        ] );
      ( "water",
        [
          Alcotest.test_case "backends" `Slow water_backends;
          Alcotest.test_case "antisymmetry" `Quick water_force_antisymmetric;
        ] );
      ( "cross-backend",
        [ Alcotest.test_case "em3d at 1/2/3/8 procs" `Slow cross_backend_procs ] );
    ]
