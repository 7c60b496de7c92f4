(* Tests for the performance benchmark's own machinery: the timing facade,
   the golden gate, the order statistics, the fuzz workload's cells, and
   agreement with BENCHMARK.json. *)

open Perf_core
module W = Workloads
module Driver = Ace_harness.Driver
module Stats = Ace_engine.Stats
module Em3d = Ace_apps.Em3d

let close = Alcotest.float 1e-9

(* ---- facade ---- *)

let em3d_cfg = { Em3d.default with Em3d.n_nodes = 64; steps = 2 }

let em3d_run ?wrap_ace ?wrap_crl backend =
  let msgs = ref 0. in
  let stats st = msgs := Stats.get st "net.messages" in
  let o =
    match backend with
    | `Ace -> Driver.run_ace ?wrap:wrap_ace ~stats ~nprocs:4 (module Em3d) em3d_cfg
    | `Crl -> Driver.run_crl ?wrap:wrap_crl ~stats ~nprocs:4 (module Em3d) em3d_cfg
  in
  (o.Driver.seconds, !msgs, o.Driver.result)

let wrapped_identical () =
  let f = Facade.create () in
  let check what a b =
    Alcotest.(check (triple (float 0.) (float 0.) (float 0.))) what a b
  in
  check "ace" (em3d_run `Ace) (em3d_run ~wrap_ace:(Facade.wrap f) `Ace);
  check "crl" (em3d_run `Crl) (em3d_run ~wrap_crl:(Facade.wrap f) `Crl);
  Alcotest.(check bool) "facade saw calls" true (f.Facade.spans > 0)

(* Two nodes: node 0 allocates; both map it and read it three times;
   node 1 updates it under the lock; both work once; two barriers. *)
module Tiny = struct
  type config = unit

  let n_spaces = 1

  module Make (D : Ace_region.Dsm_intf.S) = struct
    let run () ctx =
      if D.me ctx = 0 then ignore (D.alloc ctx ~space:0 ~len:1);
      D.barrier ctx ~space:0;
      let h = D.map ctx (D.global_id ctx ~space:0 ~owner:0 ~seq:0) in
      for _ = 1 to 3 do
        D.start_read ctx h;
        D.end_read ctx h
      done;
      if D.me ctx = 1 then begin
        D.lock ctx h;
        D.start_write ctx h;
        (D.data ctx h).(0) <- 1.;
        D.end_write ctx h;
        D.unlock ctx h
      end;
      D.work ctx 10.;
      D.barrier ctx ~space:0;
      0.
  end
end

let exact_counts () =
  let f = Facade.create () in
  ignore (Driver.run_ace ~wrap:(Facade.wrap f) ~nprocs:2 (module Tiny) ());
  List.iter
    (fun (op, want) ->
      Alcotest.(check int) op want f.Facade.calls.(Facade.op_index op))
    [
      ("alloc", 1); ("barrier", 4); ("map", 2); ("other", 2); ("start_read", 6);
      ("end_read", 6); ("lock", 1); ("unlock", 1); ("start_write", 1);
      ("end_write", 1); ("work", 2); ("change_protocol", 0);
    ];
  Alcotest.(check int) "one span per call" 27 (f.Facade.spans + f.Facade.dropped);
  let app, runtime = Facade.shares f in
  Alcotest.check close "shares sum to 1" 1. (app +. runtime)

(* The attribution rule on a scripted clock: after an enter the interval
   belongs to the op last entered, after an exit to the application, and
   nothing is charged while idle. *)
let attribution () =
  let times = ref [ 10; 15; 20; 26; 40; 41 ] in
  let clock () =
    match !times with
    | t :: rest ->
        times := rest;
        t
    | [] -> Alcotest.fail "clock read too often"
  in
  let f = Facade.create ~clock () in
  let sr = Facade.op_index "start_read" and b = Facade.op_index "barrier" in
  Facade.idle f;
  let e1 = Facade.enter f sr in
  (* 10: idle before, nothing charged *)
  let e2 = Facade.enter f b in
  (* 15: 5 to start_read *)
  Facade.leave f sr 0 e1;
  (* 20: 5 to barrier *)
  Facade.leave f b 1 e2;
  (* 26: 6 to the application *)
  Facade.idle f;
  let e3 = Facade.enter f sr in
  (* 40: idle gap not charged *)
  Facade.leave f sr 0 e3;
  (* 41: 1 to start_read *)
  Alcotest.(check int) "start_read self" 6 f.Facade.self_ns.(sr);
  Alcotest.(check int) "barrier self" 5 f.Facade.self_ns.(b);
  Alcotest.(check int) "app" 6 f.Facade.app_ns;
  let app, runtime = Facade.shares f in
  Alcotest.check close "app share" (6. /. 17.) app;
  Alcotest.check close "shares sum to 1" 1. (app +. runtime)

(* ---- golden gate ---- *)

let tiny_workload =
  {
    W.wl = "tiny";
    seeded = false;
    cells =
      [|
        {
          W.name = "tiny/0";
          group = None;
          machines = [];
          run =
            (fun probe ->
              let o, msgs =
                W.run_sim probe W.Ace_b ~nprocs:2 (module Tiny) ()
              in
              { W.sim_s = o.Driver.seconds; msgs; value = o.Driver.result });
        };
      |];
  }

let golden_of (cells : (string * W.outcome) list) = Golden.of_string (Golden.to_string cells)

let mutated_golden () =
  let w = tiny_workload in
  let warm = Bench.run_pass w Bench.counting in
  let o = Result.get_ok warm.Bench.outs.(0) in
  let good = golden_of [ ("tiny/0", o) ] in
  let _, gate = Bench.warm_up w ~golden:(Some good) in
  Alcotest.(check int) "golden matches" 0 gate.Bench.failed;
  let bad = golden_of [ ("tiny/0", { o with W.msgs = o.W.msgs +. 1. }) ] in
  let _, gate = Bench.warm_up w ~golden:(Some bad) in
  Alcotest.(check int) "mutated value fails" 1 gate.Bench.failed;
  let _, gate = Bench.warm_up w ~golden:(Some (golden_of [])) in
  Alcotest.(check int) "missing value fails" 1 gate.Bench.failed;
  let r = Bench.untraced w ~seed:0 ~seconds:0.01 ~golden:(Some bad) in
  Alcotest.(check int) "every pass fails" r.Bench.attempted r.Bench.failed

let golden_round_trip () =
  let o = { W.sim_s = 0.033615530303030307; msgs = 384896.; value = nan } in
  let g = golden_of [ ("a", o) ] in
  let back = Hashtbl.find g "a" in
  Alcotest.(check (float 0.)) "sim_s exact" o.W.sim_s back.W.sim_s;
  Alcotest.(check bool) "nan kept" true (Float.is_nan back.W.value);
  Alcotest.(check bool) "unobserved field skipped" true
    (Golden.mismatch ~want:o { o with W.msgs = nan } = None);
  Alcotest.(check bool) "changed field caught" true
    (Golden.mismatch ~want:o { o with W.sim_s = 0.0336155 } <> None)

(* ---- order statistics ---- *)

let stats_helpers () =
  let xs = List.init 1000 (fun i -> float_of_int (1000 - i)) in
  let p99 = Stat.percentile xs 99. in
  Alcotest.check close "p99 interpolates" 990.01 p99;
  Alcotest.(check int) "ten samples beyond p99" 10
    (List.length (List.filter (fun x -> x > p99) xs));
  Alcotest.check close "median odd" 2. (Stat.median [ 3.; 1.; 2. ]);
  Alcotest.check close "median even" 2.5 (Stat.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check close "single sample" 7. (Stat.percentile [ 7. ] 99.);
  Alcotest.check close "fastest" 0.5 (Stat.fastest [ 2.; 0.5; 1. ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stat.fastest: no samples")
    (fun () -> ignore (Stat.fastest []))

(* ---- the fuzz workload ---- *)

(* A counting fuzz cell reports its verdict plus its grid's messages and
   simulated seconds; one that does not count reports only the verdict. *)
let fuzz_cells () =
  let w = W.fuzz ~seed:0 in
  for i = 0 to 2 do
    let c = w.W.cells.(i) in
    let counted = c.W.run Bench.counting and plain = c.W.run W.untraced in
    Alcotest.check close (c.W.name ^ " clean") 0. counted.W.value;
    Alcotest.check close (c.W.name ^ " same verdict") counted.W.value plain.W.value;
    Alcotest.(check bool) (c.W.name ^ " counted") true
      (counted.W.msgs > 0. && counted.W.sim_s > 0.);
    Alcotest.(check bool) (c.W.name ^ " not counted") true
      (Float.is_nan plain.W.msgs && Float.is_nan plain.W.sim_s)
  done

(* ---- BENCHMARK.json ---- *)

let names_of key =
  let module J = Ace_obs.Json in
  let ic = open_in_bin "../BENCHMARK.json" in
  let j = J.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  match J.member key j with
  | Some (J.List l) ->
      List.map
        (fun m -> Option.get (Option.bind (J.member "name" m) J.to_string))
        l
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let benchmark_json () =
  Alcotest.(check (list string)) "workloads" W.names (names_of "workloads");
  let w = tiny_workload in
  let names (r : Bench.report) = List.map (fun (x : Bench.metric) -> x.name) r.metrics in
  let r = Bench.untraced w ~seed:0 ~seconds:0.01 ~golden:None in
  Alcotest.(check (list string)) "end_to_end" (names_of "end_to_end") (names r);
  let micros = List.map (fun (n, u, _) -> (n, u, fun () -> 1.)) (Micro.all ()) in
  let r =
    Bench.traced ~micros w ~seed:0 ~seconds:0.01 ~golden:None
      ~trace_file:"perf-trace-tiny.json"
  in
  Alcotest.(check (list string)) "per_layer" (names_of "per_layer") (names r);
  Alcotest.(check int) "traced run clean" 0 r.Bench.failed

let () =
  Alcotest.run "perf"
    [
      ( "facade",
        [
          Alcotest.test_case "wrapped run is bit-identical" `Quick wrapped_identical;
          Alcotest.test_case "exact per-op calls" `Quick exact_counts;
          Alcotest.test_case "attribution rule" `Quick attribution;
        ] );
      ( "golden",
        [
          Alcotest.test_case "mutated value is a failure" `Quick mutated_golden;
          Alcotest.test_case "file round trip" `Quick golden_round_trip;
        ] );
      ("stat", [ Alcotest.test_case "percentile and fastest" `Quick stats_helpers ]);
      ("fuzz", [ Alcotest.test_case "counting and plain cells" `Quick fuzz_cells ]);
      ("contract", [ Alcotest.test_case "BENCHMARK.json names" `Quick benchmark_json ]);
    ]
