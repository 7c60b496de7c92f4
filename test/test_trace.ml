(* Observability tests: histogram bucket edges, dimensioned counters, the
   tracer's JSON (parsed back with ace_obs), trace analyses on synthetic
   events, and the invariant that tracing never changes simulated time. *)

module Stats = Ace_engine.Stats
module Machine = Ace_engine.Machine
module Trace = Ace_engine.Trace
module Crit = Ace_engine.Crit
module Driver = Ace_harness.Driver
module Trace_read = Ace_obs.Trace_read
module Analyze = Ace_obs.Analyze
module Critpath = Ace_obs.Critpath

let em3d_cfg = { Ace_apps.Em3d.default with Ace_apps.Em3d.n_nodes = 64; steps = 2 }

let tmp_trace () = Filename.temp_file "ace" ".trace.json"

(* ---- Stats: histograms and families ---- *)

let test_bucket_edges () =
  let h = Stats.hist "test.hist.edges" ~limits:[| 1.; 2.; 4. |] in
  let t = Stats.create () in
  List.iter (Stats.observe t h) [ 1.0; 1.5; 2.0; 4.0; 5.0 ];
  let limits, counts = Stats.hist_counts t h in
  Alcotest.(check (array (float 0.))) "limits" [| 1.; 2.; 4. |] limits;
  (* le semantics: 1.0 -> le=1; 1.5 and 2.0 -> le=2; 4.0 -> le=4;
     5.0 -> overflow *)
  Alcotest.(check (array (float 0.))) "counts" [| 1.; 2.; 1.; 1. |] counts

let test_hist_validation () =
  Alcotest.check_raises "empty limits" (Invalid_argument "Stats.hist: no bucket limits")
    (fun () -> ignore (Stats.hist "test.hist.empty" ~limits:[||]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Stats.hist: limits must be strictly increasing")
    (fun () -> ignore (Stats.hist "test.hist.bad" ~limits:[| 2.; 1. |]));
  let a = Stats.hist "test.hist.dup" ~limits:[| 1.; 2. |] in
  let b = Stats.hist "test.hist.dup" ~limits:[| 1.; 2. |] in
  let t = Stats.create () in
  Stats.observe t a 0.5;
  Stats.observe t b 0.5;
  let _, counts = Stats.hist_counts t a in
  Alcotest.(check (float 0.)) "same id on re-registration" 2. counts.(0);
  Alcotest.check_raises "conflicting limits"
    (Invalid_argument "Stats.hist: conflicting limits for test.hist.dup")
    (fun () -> ignore (Stats.hist "test.hist.dup" ~limits:[| 3. |]))

let test_fam () =
  let f = Stats.fam "test.fam" in
  let t = Stats.create () in
  Stats.incr_dim t f 0;
  Stats.incr_dim t f 7;
  Stats.add_dim t f 7 2.;
  Alcotest.(check (float 0.)) "cell 0" 1. (Stats.get_dim t f 0);
  Alcotest.(check (float 0.)) "cell 7" 3. (Stats.get_dim t f 7);
  Alcotest.(check (float 0.)) "untouched" 0. (Stats.get_dim t f 3);
  Alcotest.(check (list (pair int (float 0.))))
    "sparse cells" [ (0, 1.); (7, 3.) ] (Stats.dim_cells t f);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Stats.add_dim: negative index") (fun () ->
      Stats.incr_dim t f (-1))

(* Ids registered after a [t] was created must still work (the arrays grow
   on demand; create only snapshots the sizes known at that point). *)
let test_late_registration () =
  let t = Stats.create () in
  let f = Stats.fam "test.fam.late" in
  let h = Stats.hist "test.hist.late" ~limits:[| 10. |] in
  Stats.incr_dim t f 2;
  Stats.observe t h 3.;
  Alcotest.(check (float 0.)) "late fam" 1. (Stats.get_dim t f 2);
  let _, counts = Stats.hist_counts t h in
  Alcotest.(check (array (float 0.))) "late hist" [| 1.; 0. |] counts

(* ---- Am.send argument validation (the fixed ~src/~dst handling) ---- *)

let test_send_validation () =
  let m = Machine.create ~nprocs:2 () in
  let am = Ace_net.Am.create m Ace_net.Cost_model.cm5_ace in
  Alcotest.check_raises "bad src" (Invalid_argument "Am.send: bad src")
    (fun () -> Ace_net.Am.send am ~now:0. ~src:5 ~dst:0 ~bytes:0 (fun ~time:_ -> ()));
  Alcotest.check_raises "bad dst" (Invalid_argument "Am.send: bad dst")
    (fun () -> Ace_net.Am.send am ~now:0. ~src:0 ~dst:(-1) ~bytes:0 (fun ~time:_ -> ()))

(* ---- per-node / per-link counters agree with the scalars ---- *)

let test_net_dims_sum () =
  let nprocs = 4 in
  let rt = Ace_runtime.Runtime.create ~nprocs () in
  for _ = 1 to Ace_apps.Em3d.n_spaces do
    ignore (Ace_runtime.Runtime.new_space rt "SC")
  done;
  let module A = Ace_apps.Em3d.Make (Ace_runtime.Ops.Api) in
  Ace_runtime.Runtime.run rt (fun ctx -> ignore (A.run em3d_cfg ctx));
  let st = Machine.stats (Ace_runtime.Runtime.machine rt) in
  let total = Stats.get st "net.messages" in
  Alcotest.(check bool) "messages flowed" true (total > 0.);
  let sum f =
    List.fold_left (fun a (_, v) -> a +. v) 0. (Stats.dim_cells st (Stats.fam f))
  in
  Alcotest.(check (float 0.)) "by_src sums to total" total (sum "net.msgs.by_src");
  Alcotest.(check (float 0.)) "by_dst sums to total" total (sum "net.msgs.by_dst");
  Alcotest.(check (float 0.)) "by_link sums to total" total (sum "net.msgs.by_link");
  Alcotest.(check (float 0.))
    "bytes by_src sums to net.bytes" (Stats.get st "net.bytes")
    (sum "net.bytes.by_src");
  let _, counts =
    Stats.hist_counts st
      (Stats.hist "net.latency_cycles"
         ~limits:[| 50.; 100.; 200.; 400.; 800.; 1600.; 3200.; 6400. |])
  in
  Alcotest.(check (float 0.))
    "latency histogram counts every message" total
    (Array.fold_left ( +. ) 0. counts)

(* Per-link cells at a size past the old dense/sparse switch (256 nodes):
   one allgather is P rooted broadcasts, so every ordered pair of distinct
   nodes carries exactly one message. *)
let test_net_links_300 () =
  let nprocs = 300 in
  let rt = Ace_runtime.Runtime.create ~nprocs () in
  ignore (Ace_runtime.Runtime.new_space rt "SC");
  Ace_runtime.Runtime.run rt (fun ctx ->
      let me = Ace_runtime.Ops.me ctx in
      let parts = Ace_runtime.Ops.allgather ctx [| me |] in
      Array.iteri (fun p part -> assert (part = [| p |])) parts);
  let st = Machine.stats (Ace_runtime.Runtime.machine rt) in
  let total = Stats.get st "net.messages" in
  Alcotest.(check (float 0.))
    "one message per ordered pair"
    (float_of_int (nprocs * (nprocs - 1)))
    total;
  let sum f =
    List.fold_left (fun a (_, v) -> a +. v) 0. (Stats.dim_cells st (Stats.fam f))
  in
  Alcotest.(check (float 0.)) "by_link sums to total" total (sum "net.msgs.by_link");
  Alcotest.(check (float 0.)) "by_src sums to total" total (sum "net.msgs.by_src");
  Alcotest.(check (float 0.)) "by_dst sums to total" total (sum "net.msgs.by_dst");
  let link = Stats.fam "net.msgs.by_link" in
  let bad = ref [] in
  for src = 0 to nprocs - 1 do
    for dst = 0 to nprocs - 1 do
      let want = if src = dst then 0. else 1. in
      if Stats.get_dim st link ((src * nprocs) + dst) <> want then
        bad := (src, dst) :: !bad
    done
  done;
  Alcotest.(check (list (pair int int))) "every link cell" [] (List.rev !bad)

(* ---- the trace file: well-formed, per-proc rows, expected span kinds ---- *)

let test_trace_file () =
  let path = tmp_trace () in
  let nprocs = 4 in
  ignore (Driver.run_ace ~trace:path ~nprocs (module Ace_apps.Em3d) em3d_cfg);
  let evs = Trace_read.load path in
  Sys.remove path;
  Alcotest.(check int) "proc rows" nprocs (Trace_read.nprocs evs);
  let real = List.filter (fun e -> not (Trace_read.is_meta e)) evs in
  Alcotest.(check bool) "has events" true (List.length real > 0);
  List.iter
    (fun (e : Trace_read.ev) ->
      Alcotest.(check bool) "known phase" true
        (List.mem e.Trace_read.ph [ 'X'; 'b'; 'e'; 'i' ]);
      Alcotest.(check bool) "tid in range" true
        (e.Trace_read.tid >= 0 && e.Trace_read.tid < nprocs))
    real;
  let count p = List.length (List.filter p real) in
  let span cat (e : Trace_read.ev) = e.Trace_read.ph = 'X' && e.Trace_read.cat = cat in
  Alcotest.(check bool) "protocol-call spans" true (count (span "call") > 0);
  Alcotest.(check bool) "barrier spans" true (count (span "barrier") > 0);
  List.iter
    (fun (e : Trace_read.ev) ->
      if span "barrier" e then
        Alcotest.(check bool) "barrier has gen" true
          (Trace_read.int_arg "gen" e <> None))
    real;
  (* every message arc is a matched b/e pair *)
  let phase c (e : Trace_read.ev) = e.Trace_read.ph = c && e.Trace_read.cat = "msg" in
  let ids c =
    List.filter_map
      (fun e -> if phase c e then Some e.Trace_read.id else None)
      real
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "has message arcs" true (count (phase 'b') > 0);
  Alcotest.(check int) "arcs pair up" 0 (compare (ids 'b') (ids 'e'));
  Alcotest.(check int) "arc ids unique" (count (phase 'b')) (List.length (ids 'b'))

(* Lock holds show up for applications that lock (TSP's best bound). *)
let test_lock_holds () =
  let path = tmp_trace () in
  ignore (Driver.run_ace ~trace:path ~nprocs:4 (module Ace_apps.Tsp) Ace_apps.Tsp.default);
  let evs = Trace_read.load path in
  Sys.remove path;
  let holds =
    List.filter
      (fun (e : Trace_read.ev) ->
        e.Trace_read.ph = 'X' && e.Trace_read.cat = "lock"
        && e.Trace_read.name = "lock.hold")
      evs
  in
  Alcotest.(check bool) "lock.hold spans" true (List.length holds > 0);
  List.iter
    (fun (e : Trace_read.ev) ->
      Alcotest.(check bool) "hold has rid" true (Trace_read.int_arg "rid" e <> None);
      Alcotest.(check bool) "hold duration >= 0" true (e.Trace_read.dur >= 0.))
    holds

(* Direct-dispatched protocol calls go through the same probes as
   dispatched ones: the TSP kernel at O3 shows every lock hold and its
   protocol calls, as it does at O0. *)
let test_direct_calls_traced () =
  let path = tmp_trace () in
  let src = List.assoc "TSP" Ace_lang.Kernels.all in
  ignore
    (Ace_harness.Table4.run_compiled ~trace:path ~nprocs:8 ~level:Ace_lang.Opt.O3
       src);
  let evs = Trace_read.load path in
  Sys.remove path;
  let spans cat name =
    List.length
      (List.filter
         (fun (e : Trace_read.ev) ->
           e.Trace_read.ph = 'X' && e.Trace_read.cat = cat
           && e.Trace_read.name = name)
         evs)
  in
  Alcotest.(check int) "lock.hold spans" 328 (spans "lock" "lock.hold");
  Alcotest.(check bool) "start_read spans" true (spans "call" "start_read" > 0)

(* The CRL baseline traces too (no spaces: region args only). *)
let test_crl_trace () =
  let path = tmp_trace () in
  ignore (Driver.run_crl ~trace:path ~nprocs:4 (module Ace_apps.Em3d) em3d_cfg);
  let evs = Trace_read.load path in
  Sys.remove path;
  let real = List.filter (fun e -> not (Trace_read.is_meta e)) evs in
  Alcotest.(check bool) "crl call spans" true
    (List.exists
       (fun (e : Trace_read.ev) ->
         e.Trace_read.ph = 'X' && e.Trace_read.cat = "call")
       real);
  Alcotest.(check (list (pair string (float 0.))))
    "no spaces in a crl trace" []
    (List.map (fun (r : Analyze.row) -> (r.Analyze.label, r.Analyze.total))
       (Analyze.hottest_spaces real))

(* ---- determinism: tracing must not move a single simulated second ---- *)

let test_traced_identical () =
  let run trace =
    Driver.run_ace ?trace ~nprocs:4 (module Ace_apps.Em3d) em3d_cfg
  in
  let plain = run None in
  let path = tmp_trace () in
  let traced = run (Some path) in
  Sys.remove path;
  Alcotest.(check bool) "simulated seconds bit-identical" true
    (plain.Driver.seconds = traced.Driver.seconds);
  Alcotest.(check bool) "results bit-identical" true
    (plain.Driver.result = traced.Driver.result)

(* ---- pinned instrumentation output ----

   Hex digests of the Chrome trace and the DAG JSON, recorded before the
   trace and critical-path hooks were routed through one probe interface.
   The water run below ([ace_demo water --procs 4 --steps 1
   --phase-protocols NULL,PIPELINE --drop 0.05 --batch]) emits every event
   name the simulator has: call spans, barrier, barrier_hook, lock.hold,
   msg, drop, retransmit, ack_piggyback, coalesce and change_protocol->*. *)

let water_cfg : Ace_apps.Water.config =
  {
    Ace_apps.Water.core =
      {
        Ace_apps.Water.default.Ace_apps.Water.core with
        Ace_apps.Water_core.n_mol = 32;
        steps = 1;
      };
    phase_protocols = Some ("NULL", "PIPELINE");
  }

let water_faults =
  Ace_net.Faults.spec ~drop:0.05 ~dup:0. ~jitter:0.
    ~seed:Ace_net.Faults.default_seed ()

(* [ace_demo em3d --procs 2 --steps 1 --backend crl] *)
let crl_em3d_cfg =
  { Ace_apps.Em3d.default with Ace_apps.Em3d.n_nodes = 200; steps = 1 }

let file_bytes path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let dag_bytes c =
  let b = Buffer.create 4096 in
  Crit.to_buffer c b;
  Buffer.contents b

(* One run with the requested recorders attached: the outcome, the trace
   file's bytes and the DAG JSON's bytes (empty when not recorded). *)
let recorded ~trace ~crit ~nprocs run =
  let path = if trace then Some (tmp_trace ()) else None in
  let c = if crit then Some (Crit.create ~nprocs ()) else None in
  let out = run ?trace:path ?crit:c () in
  ( out,
    Option.fold ~none:"" ~some:file_bytes path,
    Option.fold ~none:"" ~some:dag_bytes c )

let hex s = Digest.to_hex (Digest.string s)

let test_pinned_water () =
  let _, tr, dag =
    recorded ~trace:true ~crit:true ~nprocs:4 (fun ?trace ?crit () ->
        Driver.run_ace ~faults:water_faults ~batch:true ?trace ?crit ~nprocs:4
          (module Ace_apps.Water) water_cfg)
  in
  Alcotest.(check string) "ace water trace" "c02f09813c95f6de8177e6dc3d7a3d0e"
    (hex tr);
  Alcotest.(check string) "ace water DAG" "423e4217421884c39dd7d494242fbed5"
    (hex dag)

(* The CRL trace is pinned byte for byte. The CRL DAG's op-class kinds are
   not (its coherence calls are blamed on the op that made them), but the
   path, its total and the link and processor blame are. *)
let test_pinned_crl () =
  let _, tr, _ =
    recorded ~trace:true ~crit:false ~nprocs:2 (fun ?trace ?crit () ->
        Driver.run_crl ?trace ?crit ~nprocs:2 (module Ace_apps.Em3d) crl_em3d_cfg)
  in
  Alcotest.(check string) "crl em3d trace" "b6b2f920bddff0b3e87452a6e26a0803"
    (hex tr);
  let c = Crit.create ~nprocs:2 () in
  ignore (Driver.run_crl ~crit:c ~nprocs:2 (module Ace_apps.Em3d) crl_em3d_cfg);
  let dag = Critpath.of_crit c in
  let bp = Critpath.blamed_path dag in
  Alcotest.(check int) "nodes" 2943 (Critpath.n_nodes dag);
  Alcotest.(check int) "path steps" 1723 (List.length bp);
  Alcotest.(check (float 0.)) "blamed" 1033787. (Critpath.total_blame bp);
  Alcotest.(check (list (pair (pair int int) (float 0.))))
    "link blame"
    [ ((1, 0), 116584.); ((0, 1), 112968.) ]
    (Critpath.blame_by_link dag bp);
  Alcotest.(check (list (pair int (float 0.))))
    "processor blame"
    [ (0, 710114.); (1, 323673.) ]
    (Critpath.blame_by_node dag bp)

(* Trace and critical-path recording attached together: each recorder's
   output equals its solo run's, and simulated output equals the plain
   run's. *)
let test_recorders_together () =
  let check name ~nprocs run =
    let plain, _, _ = recorded ~trace:false ~crit:false ~nprocs run in
    let _, tr_only, _ = recorded ~trace:true ~crit:false ~nprocs run in
    let _, _, dag_only = recorded ~trace:false ~crit:true ~nprocs run in
    let both, tr, dag = recorded ~trace:true ~crit:true ~nprocs run in
    Alcotest.(check bool) (name ^ ": seconds") true
      (plain.Driver.seconds = both.Driver.seconds);
    Alcotest.(check bool) (name ^ ": result") true
      (plain.Driver.result = both.Driver.result);
    Alcotest.(check bool) (name ^ ": trace bytes") true (String.equal tr_only tr);
    Alcotest.(check bool) (name ^ ": DAG bytes") true (String.equal dag_only dag)
  in
  check "ace" ~nprocs:4 (fun ?trace ?crit () ->
      Driver.run_ace ~faults:water_faults ~batch:true ?trace ?crit ~nprocs:4
        (module Ace_apps.Water) water_cfg);
  check "crl" ~nprocs:4 (fun ?trace ?crit () ->
      Driver.run_crl ?trace ?crit ~nprocs:4 (module Ace_apps.Em3d) em3d_cfg)

(* ---- analyses on a hand-built trace with known answers ---- *)

let test_analyze_synthetic () =
  let tr = Trace.create () in
  Trace.span tr ~name:"start_read" ~cat:"call" ~tid:0 ~ts:10. ~dur:5.
    ~args:[ ("space", 0); ("rid", 3) ] ();
  Trace.span tr ~name:"start_read" ~cat:"call" ~tid:1 ~ts:20. ~dur:7.
    ~args:[ ("space", 0); ("rid", 3) ] ();
  Trace.span tr ~name:"end_write" ~cat:"call" ~tid:0 ~ts:40. ~dur:2.
    ~args:[ ("space", 1); ("rid", 4) ] ();
  Trace.span tr ~name:"barrier" ~cat:"barrier" ~tid:0 ~ts:100. ~dur:8.
    ~args:[ ("gen", 0) ] ();
  Trace.span tr ~name:"barrier" ~cat:"barrier" ~tid:1 ~ts:103. ~dur:5.
    ~args:[ ("gen", 0) ] ();
  Trace.arc tr ~name:"msg" ~cat:"msg" ~tid_src:0 ~tid_dst:1 ~ts:50.
    ~ts_end:120. ~args:[ ("src", 0); ("dst", 1); ("bytes", 16) ] ();
  Trace.lock_acquired tr ~tid:1 ~rid:4 ~ts:60.;
  Trace.lock_released tr ~tid:1 ~rid:4 ~ts:75.;
  let path = tmp_trace () in
  Trace.write_file tr ~nprocs:2 path;
  let evs = Trace_read.load path in
  Sys.remove path;
  let real = List.filter (fun e -> not (Trace_read.is_meta e)) evs in

  (match Analyze.call_breakdown real with
  | [ a; b ] ->
      Alcotest.(check string) "hottest call" "start_read" a.Analyze.label;
      Alcotest.(check (float 0.)) "start_read total" 12. a.Analyze.total;
      Alcotest.(check int) "start_read count" 2 a.Analyze.count;
      Alcotest.(check string) "second call" "end_write" b.Analyze.label
  | rows -> Alcotest.failf "expected 2 call rows, got %d" (List.length rows));

  (match Analyze.hottest_regions real with
  | hot :: _ ->
      (* region 4: 2 cyc of end_write + 15 cyc of lock.hold *)
      Alcotest.(check string) "hottest region" "region 4" hot.Analyze.label;
      Alcotest.(check (float 0.)) "region 4 time" 17. hot.Analyze.total
  | [] -> Alcotest.fail "no region rows");

  (match Analyze.barrier_skew real with
  | [ b ] ->
      Alcotest.(check int) "gen" 0 b.Analyze.gen;
      Alcotest.(check int) "arrivals" 2 b.Analyze.arrivals;
      Alcotest.(check (float 0.)) "skew" 3. b.Analyze.skew;
      Alcotest.(check (float 0.)) "span" 8. b.Analyze.span
  | rows -> Alcotest.failf "expected 1 barrier row, got %d" (List.length rows));

  let m = Analyze.messages real in
  Alcotest.(check int) "one message" 1 m.Analyze.messages;
  Alcotest.(check int) "bytes" 16 m.Analyze.bytes;
  Alcotest.(check (float 0.)) "latency" 70. m.Analyze.mean_latency;
  match m.Analyze.links with
  | [ l ] -> Alcotest.(check string) "link" "0->1" l.Analyze.link
  | rows -> Alcotest.failf "expected 1 link row, got %d" (List.length rows)

(* ---- the JSON parser itself ---- *)

let test_json_parser () =
  let open Ace_obs.Json in
  (match parse {| {"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null} |} with
  | Obj [ ("a", List [ Num 1.; Num 2.5; Num -300. ]); ("b", Str "x\ny");
          ("c", Bool true); ("d", Null) ] -> ()
  | _ -> Alcotest.fail "unexpected parse");
  List.iter
    (fun s ->
      match parse s with
      | exception Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" s)
    [ "{"; "[1,]"; "{\"a\":}"; "12 34"; "\"unterminated"; "nul" ]

let () =
  Alcotest.run "trace"
    [
      ( "stats",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "hist validation" `Quick test_hist_validation;
          Alcotest.test_case "families" `Quick test_fam;
          Alcotest.test_case "late registration" `Quick test_late_registration;
          Alcotest.test_case "net dims sum" `Quick test_net_dims_sum;
          Alcotest.test_case "net links at 300 nodes" `Quick test_net_links_300;
        ] );
      ( "am",
        [ Alcotest.test_case "send validation" `Quick test_send_validation ] );
      ( "trace",
        [
          Alcotest.test_case "file well-formed" `Quick test_trace_file;
          Alcotest.test_case "lock holds" `Quick test_lock_holds;
          Alcotest.test_case "direct calls traced" `Quick test_direct_calls_traced;
          Alcotest.test_case "crl trace" `Quick test_crl_trace;
          Alcotest.test_case "tracing is invisible" `Quick test_traced_identical;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "ace water trace and DAG" `Quick test_pinned_water;
          Alcotest.test_case "crl em3d trace and DAG" `Quick test_pinned_crl;
          Alcotest.test_case "trace and critpath together" `Quick
            test_recorders_together;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "synthetic trace" `Quick test_analyze_synthetic;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
    ]
