(* The experiment harness: the parallel pool must not change results
   (simulated seconds and computed answers are bit-identical for any worker
   count and across repeated runs), and each registry entry's checks must
   pass or fail on doctored rows exactly at their thresholds. *)

module E = Ace_harness.Experiments
module R = Ace_harness.Report
module Pool = Ace_harness.Pool

let scale = { E.nprocs = 4; factor = 1 }

(* Everything but [wall], which measures the host, not the simulation. *)
let sig_of rows =
  List.map
    (fun r -> (r.R.experiment, r.R.name, r.R.sim, r.R.messages, r.R.results))
    rows

let fig7a_deterministic () =
  let run jobs =
    sig_of ((E.entry "fig7a").E.run { E.default_opts with E.scale; jobs = Some jobs })
  in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check bool) "parallel rows = serial rows" true (serial = parallel);
  Alcotest.(check int) "five rows" 5 (List.length serial);
  let repeat = run 4 in
  Alcotest.(check bool) "second parallel run identical" true (parallel = repeat)

let pool_positional () =
  let tasks = Array.init 50 (fun i () -> i * i) in
  let out = Pool.run_all ~jobs:4 tasks in
  Alcotest.(check (list int))
    "results in task order"
    (List.init 50 (fun i -> i * i))
    (Array.to_list out)

let pool_empty_and_serial () =
  Alcotest.(check (list int)) "no tasks" []
    (Array.to_list (Pool.run_all ~jobs:4 [||]));
  let out = Pool.run_all ~jobs:1 (Array.init 5 (fun i () -> i + 1)) in
  Alcotest.(check (list int)) "jobs=1" [ 1; 2; 3; 4; 5 ] (Array.to_list out)

let pool_propagates_exn () =
  let tasks =
    Array.init 8 (fun i () -> if i = 5 then failwith "cell 5 blew up" else i)
  in
  match Pool.run_all ~jobs:3 tasks with
  | _ -> Alcotest.fail "expected the cell's exception to propagate"
  | exception Failure m ->
      Alcotest.(check string) "original message" "cell 5 blew up" m

let pool_timed () =
  let v, wall = Pool.timed (fun () -> 42) () in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "wall non-negative" true (wall >= 0.)

(* ---- checks over doctored rows ---- *)

let checks ?(nprocs = 32) name rows =
  (E.entry name).E.checks
    { E.default_opts with E.scale = { E.nprocs; factor = 1 } }
    rows

let verdict series cs =
  match List.find_opt (fun c -> c.R.series = series) cs with
  | Some c -> c.R.ok
  | None -> Alcotest.failf "no check named %s" series

let expect series ok cs = Alcotest.(check bool) series ok (verdict series cs)

let scaling_slope () =
  let series bench proto slope sizes =
    List.map
      (fun n ->
        R.row ~experiment:"scaling"
          ~name:(Printf.sprintf "%s-%s@%d" bench proto n)
          ~wall:0.
          [
            ("words_per_region", 10. +. (slope *. float_of_int (n - 32)));
            ("nprocs", float_of_int n);
          ])
      sizes
  in
  let sizes = [ 32; 64; 128 ] in
  let cs =
    checks "scaling"
      (series "EM3D" "inval" 0.066 sizes
      @ series "BSC" "inval" 0.3 sizes
      @ series "Barnes-Hut" "update" 0.3 sizes)
  in
  expect "scaling/EM3D-inval" true cs;
  expect "scaling/BSC-inval" false cs;
  Alcotest.(check bool) "Barnes-Hut is exempt" false
    (List.exists (fun c -> c.R.series = "scaling/Barnes-Hut-update") cs);
  expect "scaling/EM3D-inval" false
    (checks "scaling" (series "EM3D" "inval" 0.066 [ 32 ]))

let overhead_rows experiment ~off ~on extra =
  [
    R.row ~experiment ~name:"em3d-off" ~wall:off [ ("seconds", 1.) ];
    R.row ~experiment ~name:"em3d-on" ~wall:on (("seconds", 1.) :: extra);
  ]

let critpath_wall () =
  let rows on =
    overhead_rows "critpath_overhead" ~off:0.8 ~on
      [ ("blame_total_s", 1.); ("predicted_half_send_s", 0.95) ]
    @ [ R.row ~experiment:"critpath_overhead" ~name:"em3d-half-send" ~wall:0.
          [ ("seconds", 0.9) ] ]
  in
  (* limit = 0.8 x 1.05 + 0.15 = 0.99 s *)
  let ok = checks "critpath_overhead" (rows 0.95) in
  List.iter (fun c -> Alcotest.(check bool) c.R.series true c.R.ok) ok;
  expect "critpath_overhead/wall" false (checks "critpath_overhead" (rows 1.0));
  let off_by_10pct =
    List.map
      (fun r ->
        if r.R.name = "em3d-half-send" then { r with R.sim = [ ("seconds", 0.85) ] }
        else r)
      (rows 0.95)
  in
  expect "critpath_overhead/what-if" false
    (checks "critpath_overhead" off_by_10pct)

let combinator_rows ?(identical = 1.) ~plain ~layered () =
  let row = R.row ~experiment:"combinator" in
  [
    row ~name:"EM3D" ~wall:0.
      ~messages:[ ("plain", 10.); ("layered", 10.) ]
      [ ("plain", 1.); ("layered", 1.); ("identical", identical) ];
    row ~name:"dispatch-em3d-plain" ~wall:plain [ ("seconds", 1.) ];
    row ~name:"dispatch-em3d-layered" ~wall:layered [ ("seconds", 1.) ];
  ]

let combinator_guard () =
  (* limit = 1.0 x 1.05 + 0.15 = 1.2 s *)
  let ok = checks "combinator" (combinator_rows ~plain:1.0 ~layered:1.15 ()) in
  List.iter (fun c -> Alcotest.(check bool) c.R.series true c.R.ok) ok;
  expect "combinator/dispatch-wall" false
    (checks "combinator" (combinator_rows ~plain:1.0 ~layered:1.25 ()));
  expect "combinator/EM3D" false
    (checks "combinator"
       (combinator_rows ~identical:0. ~plain:1.0 ~layered:1.0 ()))

let serving_rows ~adaptive ~switches =
  List.map
    (fun (name, msgs, sw) ->
      R.row ~experiment:"serving" ~name ~wall:0.
        ~messages:[ ("total", msgs) ]
        [ ("seconds", 0.1); ("result", 42.); ("ok", 1.); ("switches", sw) ])
    [
      ("SC", 100., 0.); ("DYN_UPDATE", 120., 0.); ("MIGRATORY", 110., 0.);
      ("adaptive", adaptive, switches);
    ]

let serving_guard () =
  let won = serving_rows ~adaptive:96. ~switches:6. in
  List.iter
    (fun c -> Alcotest.(check bool) c.R.series true c.R.ok)
    (checks ~nprocs:8 "serving" won);
  let lost = serving_rows ~adaptive:150. ~switches:6. in
  expect "serving/adaptive-vs-best-fixed" false (checks ~nprocs:8 "serving" lost);
  expect "serving/adaptive-vs-best-fixed" true (checks ~nprocs:32 "serving" lost);
  expect "serving/adaptive-switched" false
    (checks ~nprocs:8 "serving" (serving_rows ~adaptive:96. ~switches:0.))

let baseline_gate () =
  let rows =
    [
      R.row ~experiment:"fig7a" ~name:"EM3D" ~wall:1.
        ~messages:[ ("ace", 1234.) ]
        [ ("ace", 0.1 /. 3.) ];
      R.row ~experiment:"table4" ~name:"BSC" ~wall:1. [ ("hand", 0.25) ];
    ]
  in
  let base =
    match
      R.parse_baseline
        (Printf.sprintf "{\"total_wall_s\": 10, \"rows\": [%s]}"
           (String.concat ",\n" (List.map R.row_json rows)))
    with
    | Ok b -> b
    | Error m -> Alcotest.fail m
  in
  let gate ?(total_wall = 11.) rows = R.baseline_checks base ~total_wall rows in
  List.iter (fun c -> Alcotest.(check bool) c.R.series true c.R.ok) (gate rows);
  let perturb f = List.map (fun r -> if r.R.name = "EM3D" then f r else r) rows in
  expect "baseline/identity" false
    (gate (perturb (fun r -> { r with R.sim = [ ("ace", 0.1 /. 3. +. 1e-12) ] })));
  expect "baseline/identity" false
    (gate (perturb (fun r -> { r with R.messages = [ ("ace", 1235.) ] })));
  expect "baseline/total-wall" false (gate ~total_wall:11.6 rows);
  Alcotest.(check bool) "malformed baseline rejected" true
    (Result.is_error (R.parse_baseline "{\"rows\": []}"))

let () =
  Alcotest.run "harness"
    [
      ( "pool",
        [
          Alcotest.test_case "positional results" `Quick pool_positional;
          Alcotest.test_case "empty and serial" `Quick pool_empty_and_serial;
          Alcotest.test_case "exception propagation" `Quick pool_propagates_exn;
          Alcotest.test_case "timed wrapper" `Quick pool_timed;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig7a serial = parallel = repeat" `Slow
            fig7a_deterministic;
        ] );
      ( "checks",
        [
          Alcotest.test_case "scaling slope" `Quick scaling_slope;
          Alcotest.test_case "critpath overhead" `Quick critpath_wall;
          Alcotest.test_case "combinator identity and dispatch" `Quick
            combinator_guard;
          Alcotest.test_case "serving adaptation" `Quick serving_guard;
          Alcotest.test_case "baseline gate" `Quick baseline_gate;
        ] );
    ]
