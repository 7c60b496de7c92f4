(* Unit and property tests for the discrete-event engine. *)

module Eq = Ace_engine.Event_queue
module Ivar = Ace_engine.Ivar
module Machine = Ace_engine.Machine
module Rng = Ace_engine.Det_rng
module Stats = Ace_engine.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- event queue ---- *)

let eq_ordering () =
  let q = Eq.create () in
  let out = ref [] in
  let push t v = Eq.push q ~time:t (fun () -> out := v :: !out) in
  push 3. "c";
  push 1. "a";
  push 2. "b";
  Eq.drain q (fun _ f -> f ());
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !out)

let eq_tie_break () =
  let q = Eq.create () in
  let out = ref [] in
  for i = 0 to 9 do
    Eq.push q ~time:5. (fun () -> out := i :: !out)
  done;
  while Eq.pop_min q do
    Eq.popped_thunk q ()
  done;
  Alcotest.(check (list int)) "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let eq_drain_allows_reentrant_push () =
  (* thunks push new events while draining, as simulation fibers do *)
  let q = Eq.create () in
  let out = ref [] in
  let rec step n t =
    out := (t, n) :: !out;
    if n < 5 then Eq.push q ~time:(t +. 2.) (fun () -> step (n + 1) (t +. 2.))
  in
  Eq.push q ~time:1. (fun () -> step 0 1.);
  Eq.push q ~time:4. (fun () -> out := (4., 100) :: !out);
  Eq.drain q (fun _ f -> f ());
  Alcotest.(check (list (pair (float 0.) int)))
    "interleaved by time"
    [ (1., 0); (3., 1); (4., 100); (5., 2); (7., 3); (9., 4); (11., 5) ]
    (List.rev !out);
  Alcotest.(check bool) "empty after drain" true (Eq.is_empty q)

let eq_rejects_bad_time () =
  Alcotest.check_raises "negative time" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Eq.push (Eq.create ()) ~time:(-1.) ignore);
  Alcotest.check_raises "nan time" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Eq.push (Eq.create ()) ~time:Float.nan ignore)

let eq_length_and_peek () =
  let q = Eq.create () in
  check "empty" true (Eq.is_empty q);
  Eq.push q ~time:7. ignore;
  Eq.push q ~time:3. ignore;
  check_int "length" 2 (Eq.length q);
  check "peek" true (Eq.peek_time q = Some 3.)

let eq_heap_property =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.push q ~time:(abs_float t) ignore) times;
      let rec drain last =
        if not (Eq.pop_min q) then true
        else
          let t = Eq.popped_time q in
          t >= last && drain t
      in
      drain neg_infinity)

(* Random interleaved push/pop sequences against a sorted-list reference
   model: every pop must return the pending event with the least
   (time, push-index) — i.e. timestamp order with FIFO tie-break — through
   arbitrary grow/shrink patterns of the 4-ary heap. Times are drawn from a
   tiny grid so ties are common. *)
let eq_model_property =
  QCheck.Test.make ~name:"interleaved push/pop matches sorted-list model"
    ~count:500
    QCheck.(list (option (int_bound 7)))
    (fun ops ->
      let q = Eq.create () in
      let model = ref [] (* sorted (time, k) ascending *) in
      let k = ref 0 in
      let insert tm =
        let entry = (tm, !k) in
        let rec ins = function
          | [] -> [ entry ]
          | e :: rest -> if entry < e then entry :: e :: rest else e :: ins rest
        in
        model := ins !model
      in
      let ok = ref true in
      let popped = ref [] in
      (* pop once and compare (time, push-index) — carried by the thunk —
         against the model's head *)
      let check_pop expected =
        if not (Eq.pop_min q) then ok := false
        else begin
          Eq.popped_thunk q ();
          match !popped with
          | got :: _ ->
              if got <> expected then ok := false;
              if Eq.popped_time q <> fst expected then ok := false
          | [] -> ok := false
        end
      in
      List.iter
        (fun op ->
          match op with
          | Some t ->
              let tm = float_of_int t in
              let idx = !k in
              Eq.push q ~time:tm (fun () -> popped := (tm, idx) :: !popped);
              insert tm;
              incr k
          | None -> (
              match !model with
              | [] -> if Eq.pop_min q then ok := false
              | expected :: rest ->
                  model := rest;
                  check_pop expected))
        ops;
      (* drain the remainder; it must replay the model exactly *)
      List.iter check_pop !model;
      if Eq.pop_min q then ok := false;
      !ok)

(* ---- ivar ---- *)

let ivar_basics () =
  let iv = Ivar.create () in
  check "not filled" false (Ivar.is_filled iv);
  let got = ref None in
  Ivar.on_fill iv (fun ~time v -> got := Some (time, v));
  Ivar.fill iv ~time:4. 42;
  check "waiter ran" true (!got = Some (4., 42));
  check "peek" true (Ivar.peek iv = Some (4., 42));
  (* late waiter runs immediately *)
  let late = ref false in
  Ivar.on_fill iv (fun ~time:_ _ -> late := true);
  check "late waiter" true !late

let ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv ~time:0. ();
  Alcotest.check_raises "double fill" (Failure "Ivar.fill: already filled")
    (fun () -> Ivar.fill iv ~time:1. ())

let ivar_waiter_order () =
  let iv = Ivar.create () in
  let out = ref [] in
  for i = 0 to 4 do
    Ivar.on_fill iv (fun ~time:_ () -> out := i :: !out)
  done;
  Ivar.fill iv ~time:0. ();
  Alcotest.(check (list int)) "registration order" [ 0; 1; 2; 3; 4 ]
    (List.rev !out)

(* ---- deterministic rng ---- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r in
      v >= 0. && v < 1.)

let rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* ---- machine ---- *)

let machine_advance_and_time () =
  let m = Machine.create ~nprocs:2 () in
  Machine.run m (fun p ->
      Machine.advance p (float_of_int ((10 * p.Machine.id) + 10)));
  check "time is max clock" true (Machine.time m = 20.)

let machine_barrier_sync () =
  let m = Machine.create ~nprocs:4 () in
  let b = Machine.Barrier.create m ~cost:(fun _ -> 5.) in
  let release_times = ref [] in
  Machine.run m (fun p ->
      Machine.advance p (float_of_int (p.Machine.id * 100));
      Machine.Barrier.wait b p;
      release_times := p.Machine.clock :: !release_times);
  (* everyone released at max arrival (300) + cost (5) *)
  check "all equal" true (List.for_all (fun t -> t = 305.) !release_times)

let machine_barrier_reusable () =
  let m = Machine.create ~nprocs:3 () in
  let b = Machine.Barrier.create m ~cost:(fun _ -> 1.) in
  let count = ref 0 in
  Machine.run m (fun p ->
      for _ = 1 to 5 do
        Machine.Barrier.wait b p;
        incr count
      done);
  check_int "all generations" 15 !count

let machine_await_fill_ordering () =
  let m = Machine.create ~nprocs:2 () in
  let iv = Ivar.create () in
  let observed = ref 0. in
  Machine.run m (fun p ->
      if p.Machine.id = 0 then begin
        Machine.advance p 50.;
        Ivar.fill iv ~time:p.Machine.clock 99
      end
      else begin
        let v = Machine.await p iv in
        observed := p.Machine.clock;
        assert (v = 99)
      end);
  check "waiter resumed at fill time" true (!observed = 50.)

let machine_deadlock_detected () =
  let m = Machine.create ~nprocs:1 () in
  let iv : unit Ivar.t = Ivar.create () in
  let raised = ref false in
  (try Machine.run m (fun p -> Machine.await p iv)
   with Failure _ -> raised := true);
  check "deadlock reported" true !raised

let machine_deterministic () =
  let run () =
    let m = Machine.create ~nprocs:8 () in
    let b = Machine.Barrier.create m ~cost:(fun _ -> 3.) in
    let trace = Buffer.create 64 in
    Machine.run m (fun p ->
        let rng = Rng.create p.Machine.id in
        for _ = 1 to 20 do
          Machine.advance p (float_of_int (Rng.int rng 50));
          Machine.Barrier.wait b p;
          if p.Machine.id = 0 then
            Buffer.add_string trace (Printf.sprintf "%.0f;" p.Machine.clock)
        done);
    Buffer.contents trace
  in
  Alcotest.(check string) "bit-identical runs" (run ()) (run ())

let machine_rejects_negative_advance () =
  let m = Machine.create ~nprocs:1 () in
  let raised = ref false in
  (try Machine.run m (fun p -> Machine.advance p (-1.))
   with Invalid_argument _ -> raised := true);
  check "negative advance rejected" true !raised

(* ---- same-timestamp order fixtures ----

   Bit-identical simulated output rests on two tie-breaks: events at equal
   times run in push (FIFO) order, and a barrier's last arriver keeps
   running inside the releasing event, ahead of the waiters it wakes. Each
   fixture runs a 4-processor program whose per-processor event logs and
   final time depend on exactly those orders, and pins them. *)

type log = (int * float) list array

let run_fixture make : log * float =
  let n = 4 in
  let m = Machine.create ~nprocs:n () in
  let logs = Array.make n [] in
  let log i tag t = logs.(i) <- (tag, t) :: logs.(i) in
  let program = make m in
  Machine.run m (fun p -> program log p);
  (Array.map List.rev logs, Machine.time m)

let check_fixture make ~logs ~time =
  let got_logs, got_time = run_fixture make in
  Alcotest.(check (array (list (pair int (float 0.))))) "per-proc logs" logs
    got_logs;
  Alcotest.(check (float 0.)) "final time" time got_time

(* One skewed barrier first, so the events below start from a release. *)
let after_barrier m body =
  let b = Machine.Barrier.create m ~cost:(fun _ -> 4.) in
  fun log p ->
    Machine.advance p (float_of_int p.Machine.id);
    Machine.Barrier.wait b p;
    body log p

(* Every processor schedules an event on every other processor at one
   absolute timestamp: three same-time events per destination, run in the
   pushers' execution order. *)
let fixture_ties () =
  check_fixture
    (fun m ->
      after_barrier m (fun log p ->
          let me = p.Machine.id in
          Machine.advance p (float_of_int (3 * me));
          for dst = 0 to 3 do
            if dst <> me then
              Machine.schedule m ~time:100. (fun () -> log dst me 100.)
          done;
          Machine.advance p 50.;
          log me (-1) p.Machine.clock))
    ~logs:
      [|
        [ (-1, 57.); (1, 100.); (2, 100.); (3, 100.) ];
        [ (-1, 60.); (0, 100.); (2, 100.); (3, 100.) ];
        [ (-1, 63.); (0, 100.); (1, 100.); (3, 100.) ];
        [ (-1, 66.); (0, 100.); (1, 100.); (2, 100.) ];
      |]
    ~time:100.

(* Relayed events: a delivered event re-schedules onto another processor
   at a shared timestamp, so an event's pushes (not just a fiber's) must
   keep their order. *)
let fixture_relay () =
  check_fixture
    (fun m ->
      after_barrier m (fun log p ->
          let me = p.Machine.id in
          if me = 3 then
            for k = 0 to 4 do
              let t1 = 30. +. float_of_int k in
              Machine.schedule m ~time:t1 (fun () ->
                  log 0 (100 + k) t1;
                  Machine.schedule m ~time:70. (fun () -> log 2 (200 + k) 70.))
            done;
          Machine.advance p 80.;
          log me (-1) p.Machine.clock))
    ~logs:
      [|
        [ (100, 30.); (101, 31.); (102, 32.); (103, 33.); (104, 34.); (-1, 87.) ];
        [ (-1, 87.) ];
        [ (200, 70.); (201, 70.); (202, 70.); (203, 70.); (204, 70.); (-1, 87.) ];
        [ (-1, 87.) ];
      |]
    ~time:87.

(* Processor 0 blocks on an ivar that an event scheduled by processor 3
   fills; the waiter resumes at the fill time. *)
let fixture_ivar () =
  check_fixture
    (fun m ->
      let iv = Ivar.create () in
      after_barrier m (fun log p ->
          match p.Machine.id with
          | 0 ->
              Machine.advance p 5.;
              let v = Machine.await p iv in
              log 0 v p.Machine.clock
          | 3 ->
              Machine.advance p 20.;
              let t = p.Machine.clock +. 15. in
              Machine.schedule m ~time:t (fun () -> Ivar.fill iv ~time:t 42);
              Machine.advance p 1.;
              log 3 (-1) p.Machine.clock
          | i ->
              Machine.advance p 2.;
              log i (-1) p.Machine.clock))
    ~logs:[| [ (42, 42.) ]; [ (-1, 9.) ]; [ (-1, 9.) ]; [ (-1, 28.) ] |]
    ~time:42.

(* Barrier rounds with rotating arrival order: a different processor is
   the last arriver each round. *)
let fixture_barrier () =
  let rounds = [ (0, 16.); (1, 32.); (2, 49.); (3, 66.); (4, 84.) ] in
  check_fixture
    (fun m ->
      let b = Machine.Barrier.create m ~cost:(fun n -> float_of_int (2 * n)) in
      fun log p ->
        let me = p.Machine.id in
        for round = 0 to 4 do
          Machine.advance p (float_of_int (((me + round) * 7) mod 13));
          Machine.Barrier.wait b p;
          log me round p.Machine.clock
        done)
    ~logs:(Array.make 4 rounds) ~time:84.

(* After a skewed barrier the last arriver keeps running inside the
   releasing event, so its same-time push beats the woken processors'
   pushes. All four race an event onto processor 0 at one timestamp right
   after each release; the service order is pinned. *)
let fixture_last_arriver_race () =
  check_fixture
    (fun m ->
      let b = Machine.Barrier.create m ~cost:(fun _ -> 4.) in
      fun log p ->
        let me = p.Machine.id in
        for round = 1 to 3 do
          Machine.advance p (float_of_int ((7 * (me + round)) mod 13));
          Machine.Barrier.wait b p;
          let t = 200. *. float_of_int round in
          Machine.schedule m ~time:t (fun () -> log 0 me t)
        done;
        log me (-1) p.Machine.clock)
    ~logs:
      [|
        [
          (-1, 38.); (2, 200.); (1, 200.); (3, 200.); (0, 200.); (3, 400.);
          (0, 400.); (2, 400.); (1, 400.); (2, 600.); (1, 600.); (3, 600.);
          (0, 600.);
        ];
        [ (-1, 38.) ];
        [ (-1, 38.) ];
        [ (-1, 38.) ];
      |]
    ~time:600.

(* ---- stats ---- *)

let stats_counters () =
  let s = Stats.create () in
  Stats.incr s "x";
  Stats.add s "x" 2.5;
  Stats.incr s "y";
  check "x" true (Stats.get s "x" = 3.5);
  check "missing is zero" true (Stats.get s "z" = 0.);
  check_int "listing" 2 (List.length (Stats.to_list s))

let stats_merge_roundtrip () =
  let a = Stats.create () in
  let b = Stats.create () in
  Stats.add a "x" 2.;
  Stats.add b "x" 3.;
  Stats.add b "y" 1.;
  let f = Stats.fam "test.merge.fam" in
  Stats.add_dim a f 0 5.;
  Stats.add_dim b f 0 7.;
  Stats.add_dim b f 3 1.;
  Stats.merge_into a b;
  check "scalar summed" true (Stats.get a "x" = 5.);
  check "scalar adopted" true (Stats.get a "y" = 1.);
  check "dim summed" true (Stats.get_dim a f 0 = 12.);
  check "dim adopted" true (Stats.get_dim a f 3 = 1.);
  check "source untouched" true (Stats.get b "x" = 3.);
  Stats.reset b;
  check "source resets clean" true (Stats.get b "x" = 0.)

let () =
  Alcotest.run "engine"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick eq_ordering;
          Alcotest.test_case "tie break" `Quick eq_tie_break;
          Alcotest.test_case "reentrant drain" `Quick eq_drain_allows_reentrant_push;
          Alcotest.test_case "bad time" `Quick eq_rejects_bad_time;
          Alcotest.test_case "length/peek" `Quick eq_length_and_peek;
          QCheck_alcotest.to_alcotest eq_heap_property;
          QCheck_alcotest.to_alcotest eq_model_property;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basics" `Quick ivar_basics;
          Alcotest.test_case "double fill" `Quick ivar_double_fill;
          Alcotest.test_case "waiter order" `Quick ivar_waiter_order;
        ] );
      ( "det_rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          QCheck_alcotest.to_alcotest rng_bounds;
          QCheck_alcotest.to_alcotest rng_float_range;
          QCheck_alcotest.to_alcotest rng_shuffle_permutation;
        ] );
      ( "machine",
        [
          Alcotest.test_case "advance/time" `Quick machine_advance_and_time;
          Alcotest.test_case "barrier sync" `Quick machine_barrier_sync;
          Alcotest.test_case "barrier reuse" `Quick machine_barrier_reusable;
          Alcotest.test_case "await ordering" `Quick machine_await_fill_ordering;
          Alcotest.test_case "deadlock" `Quick machine_deadlock_detected;
          Alcotest.test_case "deterministic" `Quick machine_deterministic;
          Alcotest.test_case "negative advance" `Quick
            machine_rejects_negative_advance;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "same-timestamp events" `Quick fixture_ties;
          Alcotest.test_case "relayed events" `Quick fixture_relay;
          Alcotest.test_case "delivered ivar wakeup" `Quick fixture_ivar;
          Alcotest.test_case "barrier last-arriver rotation" `Quick
            fixture_barrier;
          Alcotest.test_case "post-barrier same-time contention" `Quick
            fixture_last_arriver_race;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick stats_counters;
          Alcotest.test_case "merge roundtrip" `Quick stats_merge_roundtrip;
        ] );
    ]
