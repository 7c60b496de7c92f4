(* The protocol conformance kit: coherence-oracle semantics on hand-built
   observation logs, the deterministic first-racy-pair report of the race
   checker, differential fuzzing (clean on the shipped registry, catches a
   deliberately broken protocol with a replayable shrunk counterexample),
   and schedule-independence of the five-benchmark grid under random
   event-queue tie-breaks. *)

module Oracle = Ace_check.Oracle
module Schedule = Ace_check.Schedule
module Prog = Ace_check.Prog
module Runner = Ace_check.Runner
module Repro = Ace_check.Repro
module Event_queue = Ace_engine.Event_queue
module Faults = Ace_net.Faults
module Runtime = Ace_runtime.Runtime
module Ops = Ace_runtime.Ops
module E = Ace_harness.Experiments
module Driver = Ace_harness.Driver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- oracle semantics on hand-built logs ---------- *)

let wr o ~node ~rid ~epoch ?(lseq = -1) v =
  Oracle.add o ~node ~rid ~epoch ~kind:Oracle.Write ~lseq ~value:v

let rd o ~node ~rid ~epoch ?(lseq = -1) v =
  Oracle.add o ~node ~rid ~epoch ~kind:Oracle.Read ~lseq ~value:v

let oracle_accepts_legal_log () =
  let o = Oracle.create ~nprocs:2 () in
  wr o ~node:0 ~rid:7 ~epoch:0 5.;
  rd o ~node:1 ~rid:7 ~epoch:1 5.;
  rd o ~node:0 ~rid:7 ~epoch:2 5.;
  check "no violations" true (Oracle.check o = None)

let oracle_flags_stale_read_after_barrier () =
  let o = Oracle.create ~nprocs:2 () in
  wr o ~node:0 ~rid:7 ~epoch:0 5.;
  rd o ~node:1 ~rid:7 ~epoch:1 0. (* stale: initial contents *);
  match Oracle.check o with
  | None -> Alcotest.fail "stale read not flagged"
  | Some v ->
      check "not a race" false v.Oracle.vrace;
      check_int "offending node" 1 v.Oracle.vobs.Oracle.onode;
      check_int "offending region" 7 v.Oracle.vrid;
      check "wanted the written value" true (v.Oracle.vwant = 5.);
      check "names the missed write" true
        (match v.Oracle.vprev with
        | Some w -> w.Oracle.onode = 0 && w.Oracle.ovalue = 5.
        | None -> false)

let oracle_orders_lock_chain () =
  let o = Oracle.create ~nprocs:2 () in
  (* two locked read-modify-write sections in the same epoch; chain order
     is the acquisition order, not node order *)
  rd o ~node:1 ~rid:3 ~epoch:0 ~lseq:0 0.;
  wr o ~node:1 ~rid:3 ~epoch:0 ~lseq:0 4.;
  rd o ~node:0 ~rid:3 ~epoch:0 ~lseq:1 4.;
  wr o ~node:0 ~rid:3 ~epoch:0 ~lseq:1 9.;
  rd o ~node:1 ~rid:3 ~epoch:1 9.;
  check "locked chain is legal" true (Oracle.check o = None);
  (* same shape, but the second holder reads a value the first holder's
     write should have replaced: lost update *)
  let o = Oracle.create ~nprocs:2 () in
  rd o ~node:1 ~rid:3 ~epoch:0 ~lseq:0 0.;
  wr o ~node:1 ~rid:3 ~epoch:0 ~lseq:0 4.;
  rd o ~node:0 ~rid:3 ~epoch:0 ~lseq:1 0. (* stale: missed lock #0's write *);
  match Oracle.check o with
  | None -> Alcotest.fail "lost locked update not flagged"
  | Some v ->
      check "not a race" false v.Oracle.vrace;
      check "wants lock #0's value" true (v.Oracle.vwant = 4.)

let oracle_checks_batched_flush_ordering () =
  (* a write-combining protocol may coalesce an epoch's writes into one
     flush at the barrier, but the flushed value must be the last one in
     program order *)
  let o = Oracle.create ~nprocs:2 () in
  wr o ~node:0 ~rid:1 ~epoch:0 2.;
  wr o ~node:0 ~rid:1 ~epoch:0 9.;
  rd o ~node:1 ~rid:1 ~epoch:1 9.;
  check "last write wins after flush" true (Oracle.check o = None);
  let o = Oracle.create ~nprocs:2 () in
  wr o ~node:0 ~rid:1 ~epoch:0 2.;
  wr o ~node:0 ~rid:1 ~epoch:0 9.;
  rd o ~node:1 ~rid:1 ~epoch:1 2. (* saw the overwritten intermediate *);
  match Oracle.check o with
  | None -> Alcotest.fail "intermediate flush value not flagged"
  | Some v -> check "wants the final value" true (v.Oracle.vwant = 9.)

let oracle_flags_unsynchronized_race () =
  let o = Oracle.create ~nprocs:2 () in
  wr o ~node:0 ~rid:2 ~epoch:0 3.;
  rd o ~node:1 ~rid:2 ~epoch:0 0.;
  match Oracle.check o with
  | None -> Alcotest.fail "race not flagged"
  | Some v ->
      check "flagged as race" true v.Oracle.vrace;
      check "pairs the write" true
        (match v.Oracle.vprev with
        | Some a -> a.Oracle.okind = Oracle.Write && a.Oracle.onode = 0
        | None -> false)

let oracle_live_tracking () =
  (* the tracking entry points (record/lock/barrier) assign epochs and
     lock numbers the same way the observer does *)
  let o = Oracle.create ~nprocs:2 () in
  Oracle.record_write o ~node:0 ~rid:0 ~value:5.;
  Oracle.barrier o ~node:0;
  Oracle.barrier o ~node:1;
  Oracle.lock o ~node:1 ~rid:0;
  Oracle.record_read o ~node:1 ~rid:0 ~value:5.;
  Oracle.unlock o ~node:1 ~rid:0;
  check "no violations" true (Oracle.check o = None);
  check_int "two observations" 2 (Oracle.observations o)

(* ---------- race checker: deterministic first pair ---------- *)

(* Three staggered accesses in one epoch: a locked write (node 0), then an
   unlocked read (node 1), then an unlocked write (node 2). The reported
   pair must be the locked write racing the unlocked read — the first
   conflict to materialize — run after run. *)
let race_report_first_pair () =
  let run () =
    let rt = Runtime.create ~nprocs:3 () in
    Ace_protocols.Proto_lib.register_all rt;
    ignore (Runtime.new_space rt "SC");
    Runtime.run rt (fun ctx ->
        let me = Ops.me ctx in
        if me = 0 then ignore (Ops.alloc ctx ~space:0 ~len:1);
        Ops.barrier ctx ~space:0;
        let h = Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:0 ~seq:0) in
        Ops.change_protocol ctx ~space:0 "RACE_CHECK";
        (match me with
        | 0 ->
            Ops.lock ctx h;
            Ops.start_write ctx h;
            (Ops.data ctx h).(0) <- 1.;
            Ops.end_write ctx h;
            Ops.unlock ctx h
        | 1 ->
            Ops.work ctx 1_000_000.;
            Ops.start_read ctx h;
            ignore (Ops.data ctx h).(0);
            Ops.end_read ctx h
        | _ ->
            Ops.work ctx 2_000_000.;
            Ops.start_write ctx h;
            (Ops.data ctx h).(0) <- 2.;
            Ops.end_write ctx h);
        Ops.barrier ctx ~space:0);
    Ace_protocols.Proto_race_check.reports (Runtime.space rt 0)
  in
  let reports = run () in
  check_int "one report" 1 (List.length reports);
  let r = List.hd reports in
  let open Ace_protocols.Proto_race_check in
  check_int "first access: the locked write by node 0" 0 r.first.node;
  check "first is a write" true r.first.writer;
  check "first holds the lock" true r.first.locked;
  check_int "second access: the unlocked read by node 1" 1 r.second.node;
  check "second is a read" false r.second.writer;
  check "second is unlocked" false r.second.locked;
  (* determinism: an identical run reports the identical pair *)
  let again = List.hd (run ()) in
  check "repeat run reports the same pair" true
    (again.first = r.first && again.second = r.second)

(* ---------- differential fuzzer ---------- *)

let fault_specs = [ Faults.spec ~drop:0.03 ~dup:0.02 ~jitter:25. ~seed:11 () ]

let fuzz_registry_clean () =
  let report =
    Runner.fuzz ~seed:7 ~count:40 ~schedules:8 ~fault_specs
      ~batch_modes:[ false; true ] ()
  in
  check "no counterexample" true (report.Runner.counterexample = None);
  check_int "ran all programs" 40 report.Runner.programs

let fuzz_catches_broken_protocol () =
  let report =
    Runner.fuzz
      ~protocols:[ "SC"; Runner.broken_protocol.Ace_runtime.Protocol.name ]
      ~seed:3 ~count:200 ~schedules:8 ~fault_specs:[] ~batch_modes:[ false ]
      ()
  in
  match report.Runner.counterexample with
  | None -> Alcotest.fail "broken protocol escaped the fuzzer"
  | Some ((p, fl) as cex) ->
      check "blames the broken protocol" true
        (fl.Runner.cell.Runner.proto = "BROKEN_DYN_UPDATE");
      check "counterexample is shrunk" true (List.length p.Prog.epochs <= 2);
      (* the shrunk counterexample replays from its .repro round trip *)
      let r = Runner.to_repro cex in
      let path = Filename.temp_file "acecheck" ".repro" in
      Repro.write path r;
      let r2 = Repro.read path in
      Sys.remove path;
      check "repro round-trips" true
        (Prog.to_string r2.Repro.prog = Prog.to_string p
        && r2.Repro.proto = r.Repro.proto
        && r2.Repro.policy = r.Repro.policy);
      check "replay still fails" true (Runner.replay r2 <> None);
      (* malformed headers name the field and the value *)
      let text = Repro.to_string r in
      let set key value =
        String.split_on_char '\n' text
        |> List.map (fun l ->
               if String.starts_with ~prefix:(key ^ " ") l then
                 key ^ " " ^ value
               else l)
        |> String.concat "\n"
      in
      let error_of s =
        match Repro.of_string s with
        | _ -> None
        | exception Invalid_argument m -> Some m
      in
      let rejects what s want =
        Alcotest.(check (option string)) what (Some want) (error_of s)
      in
      rejects "bad batch" (set "batch" "maybe")
        {|Repro.of_string: bad batch "maybe"|};
      rejects "bad faults" (set "faults" "drop=x")
        {|Repro.of_string: bad faults "drop=x"|};
      rejects "bad policy" (set "policy" "sometimes")
        {|Repro.of_string: bad policy "sometimes"|};
      rejects "bad proto" (set "proto" "") {|Repro.of_string: bad proto ""|};
      let with_engine e =
        set "batch" (string_of_bool r.Repro.batch ^ "\nengine " ^ e)
      in
      check "engine seq accepted and ignored" true
        (Repro.to_string (Repro.of_string (with_engine "seq")) = text);
      rejects "engine par:N names the removed engine" (with_engine "par:4")
        {|Repro.of_string: bad engine "par:4" (the parallel engine was removed; only "seq" replays)|}

let prog_text_roundtrip () =
  let st = Random.State.make [| 99 |] in
  for _ = 1 to 50 do
    let p = Prog.generate () st in
    let q = Prog.of_string (Prog.to_string p) in
    check "program text round-trips" true (Prog.to_string q = Prog.to_string p)
  done

let schedule_policies_roundtrip () =
  for i = 0 to 40 do
    let pol = Schedule.of_index i in
    check "policy text round-trips" true
      (Event_queue.policy_of_string (Event_queue.policy_to_string pol) = pol)
  done;
  check "index 0 is FIFO" true (Schedule.of_index 0 = Event_queue.Fifo)

(* ---------- seed matrix: benchmark results are schedule-independent ---- *)

let scale = { E.nprocs = 4; factor = 1 }

let policies =
  [
    Event_queue.Fifo;
    Event_queue.Random 11;
    Event_queue.Random 22;
    Event_queue.Random 33;
  ]

let results_under policy =
  [
    ("em3d",
     (Driver.run_ace ~policy ~nprocs:scale.E.nprocs
        (module Ace_apps.Em3d) (E.em3d_cfg scale 2)).Driver.result);
    ("bh",
     (Driver.run_ace ~policy ~nprocs:scale.E.nprocs
        (module Ace_apps.Barnes_hut) (E.bh_cfg scale 2)).Driver.result);
    ("water",
     (Driver.run_ace ~policy ~nprocs:scale.E.nprocs
        (module Ace_apps.Water) (E.water_cfg scale 2)).Driver.result);
    ("bsc",
     (Driver.run_ace ~policy ~nprocs:scale.E.nprocs
        (module Ace_apps.Cholesky) (E.bsc_cfg scale)).Driver.result);
    ("tsp",
     (Driver.run_ace ~policy ~nprocs:scale.E.nprocs
        (module Ace_apps.Tsp) (E.tsp_cfg scale)).Driver.result);
  ]

let benchmarks_schedule_independent () =
  let reference = results_under Event_queue.Fifo in
  List.iter
    (fun policy ->
      let got = results_under policy in
      List.iter2
        (fun (name, want) (_, have) ->
          Alcotest.(check string)
            (Printf.sprintf "%s checksum under %s" name
               (Event_queue.policy_to_string policy))
            (Printf.sprintf "%.17g" want)
            (Printf.sprintf "%.17g" have))
        reference got)
    (List.tl policies)

let () =
  Alcotest.run "conformance"
    [
      ( "oracle",
        [
          Alcotest.test_case "legal log" `Quick oracle_accepts_legal_log;
          Alcotest.test_case "stale read after barrier" `Quick
            oracle_flags_stale_read_after_barrier;
          Alcotest.test_case "lock-protected visibility" `Quick
            oracle_orders_lock_chain;
          Alcotest.test_case "batched-flush ordering" `Quick
            oracle_checks_batched_flush_ordering;
          Alcotest.test_case "unsynchronized race" `Quick
            oracle_flags_unsynchronized_race;
          Alcotest.test_case "live tracking" `Quick oracle_live_tracking;
        ] );
      ( "race_check",
        [
          Alcotest.test_case "deterministic first racy pair" `Quick
            race_report_first_pair;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "registry is clean" `Quick fuzz_registry_clean;
          Alcotest.test_case "broken protocol is caught" `Quick
            fuzz_catches_broken_protocol;
          Alcotest.test_case "program text round-trips" `Quick
            prog_text_roundtrip;
          Alcotest.test_case "schedule policies round-trip" `Quick
            schedule_policies_roundtrip;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "five-benchmark seed matrix" `Slow
            benchmarks_schedule_independent;
        ] );
    ]
