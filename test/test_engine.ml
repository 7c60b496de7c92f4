(* Unit and property tests for the discrete-event engine, plus allocation
   guards for the coherence miss legs built on it. *)

module Eq = Ace_engine.Event_queue
module Ivar = Ace_engine.Ivar
module Machine = Ace_engine.Machine
module Rng = Ace_engine.Det_rng
module Stats = Ace_engine.Stats
module Crit = Ace_engine.Crit

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

(* Model-based test of the run queue under each tie-break policy: random
   pushes, pops and drains over four timestamps, so ties and long same-time
   runs are the common case. A drain pushes again from inside its callback
   (re-entrantly, at any of the four times, including the one being
   drained). The reference is a sorted list of (time, key, seq) with the
   key each policy documents: 0 under Fifo; under Random one draw
   [Det_rng.int (1 lsl 22)] per push, in push order, from the seeded
   stream; under Rotate 1 iff [seq mod stride = offset]. So every pop is
   checked against the exact documented order, not just timestamp order.
   The variants from the smallest capacity a machine gets (16 slots, 4
   runs) grow the slot store and the run heap under every policy. *)
type qop = Push of int | Pop | Drain of int list

let qop_arb =
  let open QCheck.Gen in
  let gen =
    frequency
      [
        (6, map (fun t -> Push t) (int_bound 3));
        (3, return Pop);
        (1, map (fun l -> Drain l) (list_size (int_bound 8) (int_bound 3)));
      ]
  in
  let print = function
    | Push t -> Printf.sprintf "Push %d" t
    | Pop -> "Pop"
    | Drain l -> "Drain [" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  in
  QCheck.make ~print gen

let eq_policy_model ?capacity policy =
  QCheck.Test.make ~count:300
    ~name:
      ((match capacity with
       | Some c -> Printf.sprintf "%d-slot queue under " c
       | None -> "queue model under ")
      ^ Eq.policy_to_string policy)
    (QCheck.list qop_arb)
    (fun ops ->
      let q = Eq.create ~policy ?capacity () in
      let rng = match policy with Eq.Random s -> Some (Rng.create s) | _ -> None in
      let key seq =
        match policy with
        | Eq.Fifo -> 0
        | Eq.Random _ -> Rng.int (Option.get rng) (1 lsl 22)
        | Eq.Rotate { stride; offset } -> if seq mod stride = offset then 1 else 0
      in
      let model = ref [] (* sorted (time, key, seq) *) in
      let next_seq = ref 0 in
      let ran = ref (-1) (* seq of the last thunk run *) in
      let push t =
        let seq = !next_seq in
        incr next_seq;
        let entry = (float_of_int t, key seq, seq) in
        Eq.push q ~time:(float_of_int t) (fun () -> ran := seq);
        model := List.merge compare [ entry ] !model
      in
      (* the event at [time] whose thunk is [thunk] must be the model's head *)
      let expect time thunk =
        match !model with
        | [] -> QCheck.Test.fail_report "queue popped past the model's end"
        | (t, _, seq) :: rest ->
            model := rest;
            thunk ();
            if time <> t || !ran <> seq then
              QCheck.Test.fail_reportf "popped (%g, #%d), model says (%g, #%d)"
                time !ran t seq
      in
      let drain children =
        let children = ref children in
        Eq.drain q (fun time thunk ->
            expect time thunk;
            match !children with
            | t :: rest ->
                children := rest;
                push t
            | [] -> ())
      in
      List.iter
        (fun op ->
          (match op with
          | Push t -> push t
          | Pop ->
              if Eq.pop_min q then expect (Eq.popped_time q) (Eq.popped_thunk q)
              else if !model <> [] then QCheck.Test.fail_report "pop_min on a non-empty queue failed"
          | Drain children -> drain children);
          if Eq.length q <> List.length !model then
            QCheck.Test.fail_report "length differs from the model";
          let head = match !model with (t, _, _) :: _ -> Some t | [] -> None in
          if Eq.peek_time q <> head then
            QCheck.Test.fail_report "peek_time differs from the model")
        ops;
      drain [];
      !model = [] && Eq.is_empty q)

let eq_policy_models =
  let policies =
    [
      Eq.Fifo;
      Eq.Random 1;
      Eq.Random 42;
      Eq.Rotate { stride = 2; offset = 0 };
      Eq.Rotate { stride = 3; offset = 1 };
    ]
  in
  List.map (fun p -> eq_policy_model p) policies
  @ List.map (eq_policy_model ~capacity:16) policies

(* ---- ivar ---- *)

let ivar_basics () =
  let iv = Ivar.create () in
  check "not filled" false (Ivar.is_filled iv);
  check "no value yet" true
    (match Ivar.value iv with _ -> false | exception Invalid_argument _ -> true);
  let got = ref None in
  Ivar.on_fill iv (fun ~time v -> got := Some (time, v));
  Ivar.fill iv ~time:4. 42;
  check "waiter ran" true (!got = Some (4., 42));
  check "fill time" true (Ivar.fill_time iv = 4.);
  check_int "value" 42 (Ivar.value iv);
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

(* The event queue is sized by machine size (8 slots per processor,
   clamped to 16..128), so a fuzzer-sized machine is cheaper to build than
   a 32-proc one. *)
let machine_create_allocation () =
  let words nprocs =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Machine.create ~nprocs ()));
    Gc.minor_words () -. w0
  in
  let small = words 2 and large = words 32 in
  check
    (Printf.sprintf "2 procs: %.0f words < 32 procs: %.0f words" small large)
    true (small < large)

(* Machine.advance is the fiber switch every simulated compute interval
   pays for. Two procs interleave (equal steps, so every advance parks one
   fiber and resumes the other); beyond the continuation the runtime
   captures, the switch may allocate only a few words. *)
let machine_advance_allocation () =
  let n = 200_000 in
  let m = Machine.create ~nprocs:2 () in
  let w0 = Gc.minor_words () in
  Machine.run m (fun p ->
      for _ = 1 to n do
        Machine.advance p 1.
      done);
  let per = (Gc.minor_words () -. w0) /. float_of_int (2 * n) in
  check "clocks advanced" true (Machine.time m = float_of_int n);
  check
    (Printf.sprintf "%.2f minor words per advance <= 12" per)
    true (per <= 12.)

(* Machine.await on a filled ivar continues without yielding, so it must
   not allocate at all; the tolerance is one word of measurement slack. *)
let machine_await_filled_allocation () =
  let n = 200_000 in
  let m = Machine.create ~nprocs:1 () in
  let iv = Ivar.create () in
  Ivar.fill iv ~time:0. 7;
  let per = ref infinity in
  Machine.run m (fun p ->
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Machine.await p iv))
      done;
      per := (Gc.minor_words () -. w0) /. float_of_int n);
  check
    (Printf.sprintf "%.2f minor words per filled await <= 1" !per)
    true (!per <= 1.)

(* One round of the pending-await path: proc 0 advances and fills, proc 1
   awaits the ivar before it is filled and so parks until the fill wakes
   it. The ivars are made before the measurement; what remains is the two
   switches, the fill and the waiter registration. *)
let machine_await_pending_allocation () =
  let n = 100_000 in
  let ivs = Array.init n (fun _ -> Ivar.create ()) in
  let m = Machine.create ~nprocs:2 () in
  let w0 = Gc.minor_words () in
  Machine.run m (fun p ->
      for i = 0 to n - 1 do
        if p.Machine.id = 0 then begin
          Machine.advance p 1.;
          Ivar.fill ivs.(i) ~time:p.Machine.clock ()
        end
        else Machine.await p ivs.(i)
      done);
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  check "clocks advanced" true (Machine.time m = float_of_int n);
  check
    (Printf.sprintf "%.2f minor words per advance+fill+await round <= 40" per)
    true (per <= 40.)

(* ---- coherence-leg allocation ----

   The miss legs of [Ace_region.Blocks], each repeated by one processor on
   a 4-word region homed at node 0 while the others stay idle. Between
   iterations the test puts the directory and the copies back host-side
   (no messages), so every iteration is the same miss. Each bound is the
   minor words one iteration allocated when the guard was written (counts
   are deterministic per build), so a leg that grows a closure per miss
   fails it. *)

module Store = Ace_region.Store
module Dir = Ace_region.Dir
module Blocks = Ace_region.Blocks

let leg_words ~nprocs ~by body =
  let n = 20_000 and warm = 100 in
  let m = Machine.create ~nprocs () in
  let am = Ace_net.Am.create m Ace_net.Cost_model.cm5_ace in
  let net = Ace_net.Reliable.create am in
  let store = Store.create ~nprocs () in
  let meta = Store.alloc store ~home:0 ~len:4 ~space:0 in
  let per = ref infinity in
  Machine.run m (fun p ->
      if p.Machine.id = by then begin
        let ctx = Blocks.make_ctx net store p in
        for _ = 1 to warm do
          body ctx meta p
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          body ctx meta p
        done;
        per := (Gc.minor_words () -. w0) /. float_of_int n
      end);
  !per

let check_words name ~bound per =
  check (Printf.sprintf "%.2f minor words per %s <= %.0f" per name bound) true
    (per <= bound)

(* Node 1 reads an Invalid copy: request, data grant, pin and unpin. *)
let read_miss_allocation () =
  leg_words ~nprocs:2 ~by:1 (fun ctx meta _ ->
      Blocks.fetch_shared ctx meta;
      Blocks.begin_access ctx meta ~write:false;
      Blocks.end_access ctx meta ~write:false;
      (Option.get (Store.copy_of meta ~node:1)).Store.cstate <- Store.Invalid;
      Dir.remove meta.Store.dir.Store.sharers 1)
  |> check_words "read miss" ~bound:148.

(* Node 1 writes an Invalid copy while node 2 shares the region: request,
   one invalidation and its ack, data grant. *)
let write_miss_allocation () =
  leg_words ~nprocs:3 ~by:1 (fun ctx meta _ ->
      let d = meta.Store.dir in
      let c2 = Store.ensure_copy_c meta ~node:2 in
      c2.Store.cstate <- Store.Shared;
      Dir.add d.Store.sharers 2;
      Blocks.fetch_exclusive ctx meta;
      Blocks.begin_access ctx meta ~write:true;
      Blocks.end_access ctx meta ~write:true;
      d.Store.owner <- -1;
      (Option.get (Store.copy_of meta ~node:1)).Store.cstate <- Store.Invalid;
      Dir.remove d.Store.sharers 1)
  |> check_words "write miss" ~bound:277.

(* The home pushes its value to its one consumer, node 1, and waits for
   it to land (STATIC_UPDATE without batching). *)
let static_push_allocation () =
  leg_words ~nprocs:2 ~by:0 (fun ctx meta p ->
      Machine.await p (Blocks.push_to ctx meta ~dsts:[ 1 ]))
  |> check_words "static push" ~bound:130.

(* ---- deferred charges ----

   [Machine.defer] ... [Machine.settle] must be [Machine.advance] per
   charge with fewer fiber switches and nothing else: the same events at
   the same times in the same order. Each processor runs a random list of
   charges, explicit settles, awaits of ivars that scheduled events fill,
   and sends (an event scheduled at the sender's clock plus a delay); at
   the end all meet at a barrier and charge a few cycles more, which the
   fiber's exit settles. The program runs once with [advance] for every
   charge and once with [defer], the settles splitting each processor's
   charges into runs (without settles, a run can outgrow the charge
   buffer). Every settle, await and event pop logs (time, processor, tag);
   the logs and the final clocks must be identical under every tie-break
   policy. *)

type dop = Charge of float | Settle | Await of int | Send of float

let dprog_arb =
  let open QCheck.Gen in
  let gen =
    int_range 2 8 >>= fun nprocs ->
    int_range 1 4 >>= fun nivars ->
    list_repeat nivars (int_range 0 60) >>= fun fills ->
    let op settle_w =
      frequency
        ((8, map (fun c -> Charge (float_of_int c /. 2.)) (int_range 0 8))
         :: (1, map (fun k -> Await k) (int_bound (nivars - 1)))
         :: (1, map (fun d -> Send (float_of_int d)) (int_range 0 6))
         :: (if settle_w > 0 then [ (settle_w, return Settle) ] else []))
    in
    list_repeat nprocs
      (int_range 0 4 >>= fun settle_w -> list_size (int_range 0 150) (op settle_w))
    >|= fun progs -> (nprocs, fills, progs)
  in
  let print (nprocs, fills, progs) =
    let op = function
      | Charge c -> Printf.sprintf "%g" c
      | Settle -> "S"
      | Await k -> Printf.sprintf "A%d" k
      | Send d -> Printf.sprintf "M%g" d
    in
    Printf.sprintf "nprocs=%d fills=[%s]\n%s" nprocs
      (String.concat ";" (List.map string_of_int fills))
      (String.concat "\n"
         (List.map (fun ops -> String.concat " " (List.map op ops)) progs))
  in
  QCheck.make ~print gen

let run_dprog ~policy ~deferred (nprocs, fills, progs) =
  let m = Machine.create ~policy ~nprocs () in
  let b = Machine.Barrier.create m ~cost:(fun _ -> 2.) in
  let ivs = Array.of_list (List.map (fun _ -> Ivar.create ()) fills) in
  let progs = Array.of_list progs in
  let procs = Array.make nprocs None in
  let log = ref [] in
  let note time proc tag = log := (time, proc, tag) :: !log in
  let charge p c = if deferred then Machine.defer p c else Machine.advance p c in
  Machine.run m (fun p ->
      let id = p.Machine.id in
      procs.(id) <- Some p;
      if id = 0 then
        List.iteri
          (fun k t ->
            let time = float_of_int t in
            Machine.schedule m ~time (fun () ->
                note time (-1) k;
                Ivar.fill ivs.(k) ~time ()))
          fills;
      List.iteri
        (fun i op ->
          match op with
          | Charge c -> charge p c
          | Settle ->
              Machine.settle p;
              note p.Machine.clock id i
          | Await k ->
              Machine.await p ivs.(k);
              note p.Machine.clock id i
          | Send d ->
              Machine.settle p;
              let time = p.Machine.clock +. d in
              Machine.schedule m ~time (fun () -> note time id (1000 + i)))
        progs.(id);
      Machine.Barrier.wait b p;
      note p.Machine.clock id (-2);
      charge p 1.;
      charge p (float_of_int id);
      charge p 0.5);
  let clocks =
    Array.map (function Some p -> p.Machine.clock | None -> nan) procs
  in
  (List.rev !log, clocks, Machine.time m)

let deferred_charges_equivalence =
  List.map
    (fun policy ->
      let name = Eq.policy_to_string policy in
      QCheck.Test.make ~count:150
        ~name:(Printf.sprintf "defer/settle = advance under %s" name)
        dprog_arb
        (fun prog ->
          let eager = run_dprog ~policy ~deferred:false prog in
          let deferred = run_dprog ~policy ~deferred:true prog in
          eager = deferred))
    [
      Eq.Fifo;
      Eq.policy_of_string "random:1";
      Eq.policy_of_string "rotate:3:1";
    ]

(* A Blocks entry point called with a charge still deferred is rejected,
   naming the entry point. *)
let blocks_rejects_pending () =
  let m = Machine.create ~nprocs:2 () in
  let am = Ace_net.Am.create m Ace_net.Cost_model.cm5_ace in
  let net = Ace_net.Reliable.create am in
  let store = Store.create ~nprocs:2 () in
  let meta = Store.alloc store ~home:0 ~len:4 ~space:0 in
  let msg = ref "" in
  Machine.run m (fun p ->
      if p.Machine.id = 1 then begin
        let ctx = Blocks.make_ctx net store p in
        Machine.defer p 3.;
        (try Blocks.fetch_shared ctx meta with Invalid_argument s -> msg := s);
        Machine.settle p
      end);
  Alcotest.(check string)
    "rejected" "Blocks.fetch_shared: called with deferred charges pending" !msg;
  check "settled" true (Machine.time m = 3.)

(* A run with a DAG recorder attached: compute intervals on both chains,
   an ivar filled ahead of its await but with a later fill time, one
   awaited before it is filled, a barrier, and a second phase. The
   serialized DAG is pinned, so moving the clock bump and the causal
   bookkeeping around the fiber switch cannot reorder or re-cause a node. *)
let machine_crit_dag_pinned () =
  let m = Machine.create ~nprocs:2 () in
  let c = Crit.create ~nprocs:2 () in
  Machine.set_crit m (Some c);
  let b = Machine.Barrier.create m ~cost:(fun _ -> 3.) in
  let early = Ivar.create () and late = Ivar.create () in
  Machine.run m (fun p ->
      for i = 1 to 5 do
        Machine.advance p (float_of_int (i * (p.Machine.id + 1)))
      done;
      if p.Machine.id = 0 then begin
        (* at 15; proc 1 reaches its awaits at 30 *)
        Machine.schedule m ~time:22. (fun () -> Ivar.fill early ~time:40. 1);
        Machine.schedule m ~time:55. (fun () -> Ivar.fill late ~time:55. 2)
      end
      else begin
        check "early value" true (Machine.await p early = 1);
        check "late value" true (Machine.await p late = 2)
      end;
      Machine.Barrier.wait b p;
      Machine.advance p 2.);
  Machine.run m (fun p -> Machine.advance p (float_of_int (4 - p.Machine.id)));
  Machine.set_crit m None;
  let buf = Buffer.create 1024 in
  Crit.to_buffer c buf;
  Alcotest.(check string)
    "DAG md5" "5559ab67888479a8667e16706d6a9e83"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

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

(* The one interning table behind Stats ids, families, histograms and Crit
   kinds: ids are dense in first-intern order, re-interning returns the old
   id and keeps its value, and an id not handed out is rejected. *)
let intern_table () =
  let module I = Ace_engine.Intern in
  let t = I.create 0 in
  let ids = List.map (fun (n, v) -> I.intern t n v) [ ("b", 1); ("a", 2); ("b", 3); ("c", 4) ] in
  Alcotest.(check (list int)) "dense, first-intern order" [ 0; 1; 0; 2 ] ids;
  Alcotest.(check int) "size" 3 (I.size t);
  Alcotest.(check (array string)) "names by id" [| "b"; "a"; "c" |] (I.names t);
  Alcotest.(check int) "value fixed at first intern" 1 (I.value t 0);
  Alcotest.(check string) "name" "c" (I.name t 2);
  Alcotest.check_raises "unknown id" (Invalid_argument "Intern: unknown id") (fun () ->
      ignore (I.name t 3))

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
        ]
        @ List.map QCheck_alcotest.to_alcotest eq_policy_models );
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
          Alcotest.test_case "create allocation" `Quick
            machine_create_allocation;
          Alcotest.test_case "advance allocation" `Quick
            machine_advance_allocation;
          Alcotest.test_case "await allocation (filled)" `Quick
            machine_await_filled_allocation;
          Alcotest.test_case "await allocation (pending)" `Quick
            machine_await_pending_allocation;
          Alcotest.test_case "read miss allocation" `Quick read_miss_allocation;
          Alcotest.test_case "write miss allocation" `Quick
            write_miss_allocation;
          Alcotest.test_case "static push allocation" `Quick
            static_push_allocation;
          Alcotest.test_case "Blocks rejects pending charges" `Quick
            blocks_rejects_pending;
          Alcotest.test_case "crit DAG pinned" `Quick machine_crit_dag_pinned;
          Alcotest.test_case "barrier sync" `Quick machine_barrier_sync;
          Alcotest.test_case "barrier reuse" `Quick machine_barrier_reusable;
          Alcotest.test_case "await ordering" `Quick machine_await_fill_ordering;
          Alcotest.test_case "deadlock" `Quick machine_deadlock_detected;
          Alcotest.test_case "deterministic" `Quick machine_deterministic;
          Alcotest.test_case "negative advance" `Quick
            machine_rejects_negative_advance;
        ] );
      ("deferred", List.map QCheck_alcotest.to_alcotest deferred_charges_equivalence);
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
          Alcotest.test_case "intern table" `Quick intern_table;
        ] );
    ]
