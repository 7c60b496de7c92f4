(* Shape tests: the paper's qualitative results must hold in the
   reproduction (who wins, roughly by how much, where the gains are
   marginal). Run at a reduced processor count to keep the suite fast;
   EXPERIMENTS.md records the full 32-processor numbers. *)

module E = Ace_harness.Experiments
module T4 = Ace_harness.Table4

let check = Alcotest.(check bool)

let scale = { E.nprocs = 8; factor = 1 }

let fig7a = lazy (E.fig7a ~scale ())
let fig7b = lazy (E.fig7b ~scale ())
let table4 = lazy (T4.table4 ~nprocs:8 ())

let row rows name =
  List.find (fun r -> r.E.name = name) rows

let fig7a_results_match () =
  List.iter
    (fun r ->
      if
        abs_float (r.E.base_result -. r.E.ace_result)
        > 1e-6 *. (1. +. abs_float r.E.base_result)
      then Alcotest.failf "%s: CRL and Ace results differ" r.E.name)
    (Lazy.force fig7a)

let fig7a_ace_wins_fine_grained () =
  let rows = Lazy.force fig7a in
  (* the runtime redesign pays off most for fine-grained applications *)
  check "EM3D" true (E.speedup (row rows "EM3D") > 1.05);
  check "Barnes-Hut" true (E.speedup (row rows "Barnes-Hut") > 1.05)

let fig7a_bsc_neutral () =
  (* "the additional indirection ... nullifies the effects of the runtime
     system optimizations" for coarse-grained BSC *)
  let s = E.speedup (row (Lazy.force fig7a) "BSC") in
  check "BSC about even" true (s > 0.9 && s < 1.15)

let fig7b_results_match () =
  List.iter
    (fun r ->
      if
        abs_float (r.E.base_result -. r.E.ace_result)
        > 1e-6 *. (1. +. abs_float r.E.base_result)
      then Alcotest.failf "%s: SC and custom results differ" r.E.name)
    (Lazy.force fig7b)

let fig7b_speedup_range () =
  (* paper: "speedups range from a factor of 1.02 to 5 (average approx 2)" *)
  let rows = Lazy.force fig7b in
  List.iter
    (fun r ->
      let s = E.speedup r in
      if s < 0.9 || s > 6.5 then
        Alcotest.failf "%s: speedup %.2f out of the paper's band" r.E.name s)
    rows;
  let avg =
    List.fold_left (fun a r -> a +. E.speedup r) 0. rows
    /. float_of_int (List.length rows)
  in
  check "average around 2" true (avg > 1.3 && avg < 3.5)

let fig7b_em3d_biggest () =
  (* EM3D's static update is the headline ~5x result (§3.3) *)
  let rows = Lazy.force fig7b in
  let em3d = E.speedup (row rows "EM3D (static update)") in
  check "em3d > 2.5" true (em3d > 2.5);
  List.iter
    (fun r -> check (r.E.name ^ " <= em3d") true (E.speedup r <= em3d +. 1e-9))
    rows

let fig7b_bsc_marginal () =
  (* bulk transfer comes free from user-specified granularity, so BSC's
     custom protocol gains almost nothing (paper: 1.02) *)
  let s = E.speedup (row (Lazy.force fig7b) "BSC (write-once)") in
  check "bsc marginal" true (s > 0.95 && s < 1.25)

let fig7b_water_around_two () =
  let s = E.speedup (row (Lazy.force fig7b) "Water (null+pipeline)") in
  check "water gains" true (s > 1.2)

let table4_monotone () =
  (* each optimization level must not slow a benchmark down (noise margin
     for the timing-sensitive TSP) *)
  List.iter
    (fun r ->
      let tol = 1.05 in
      if r.T4.li > r.T4.base *. tol then
        Alcotest.failf "%s: LI regressed" r.T4.name;
      if r.T4.li_mc > r.T4.li *. tol then
        Alcotest.failf "%s: MC regressed" r.T4.name;
      if r.T4.li_mc_dc > r.T4.li_mc *. tol then
        Alcotest.failf "%s: DC regressed" r.T4.name)
    (Lazy.force table4)

let table4_results_agree () =
  List.iter
    (fun r ->
      if not (T4.agree r.T4.results) then
        Alcotest.failf "%s: optimization changed the program's result" r.T4.name)
    (Lazy.force table4)

let table4_bsc_li_dominates () =
  (* the paper's most dramatic single-pass effect: BSC 20.39 -> 5.60 *)
  let r = List.find (fun r -> r.T4.name = "BSC") (Lazy.force table4) in
  check "LI at least 2x on BSC" true (r.T4.base /. r.T4.li > 2.)

let table4_em3d_dc_effect () =
  (* direct dispatch removes the static update null handlers in EM3D *)
  let r = List.find (fun r -> r.T4.name = "EM3D") (Lazy.force table4) in
  check "DC visibly helps EM3D" true (r.T4.li_mc /. r.T4.li_mc_dc > 1.05)

let table4_compiled_near_hand () =
  (* paper: best compiled versions are 1.1-1.3x slower than hand *)
  List.iter
    (fun r ->
      let ratio = r.T4.li_mc_dc /. r.T4.hand in
      if ratio > 1.8 || ratio < 0.75 then
        Alcotest.failf "%s: compiled/hand ratio %.2f out of band" r.T4.name ratio)
    (Lazy.force table4)

let () =
  Alcotest.run "shapes"
    [
      ( "fig7a",
        [
          Alcotest.test_case "results identical" `Slow fig7a_results_match;
          Alcotest.test_case "fine-grained gap" `Slow fig7a_ace_wins_fine_grained;
          Alcotest.test_case "BSC neutral" `Slow fig7a_bsc_neutral;
        ] );
      ( "fig7b",
        [
          Alcotest.test_case "results identical" `Slow fig7b_results_match;
          Alcotest.test_case "speedup band" `Slow fig7b_speedup_range;
          Alcotest.test_case "EM3D biggest" `Slow fig7b_em3d_biggest;
          Alcotest.test_case "BSC marginal" `Slow fig7b_bsc_marginal;
          Alcotest.test_case "Water gains" `Slow fig7b_water_around_two;
        ] );
      ( "table4",
        [
          Alcotest.test_case "monotone" `Slow table4_monotone;
          Alcotest.test_case "results agree" `Slow table4_results_agree;
          Alcotest.test_case "BSC LI dominates" `Slow table4_bsc_li_dominates;
          Alcotest.test_case "EM3D DC effect" `Slow table4_em3d_dc_effect;
          Alcotest.test_case "compiled near hand" `Slow table4_compiled_near_hand;
        ] );
    ]
