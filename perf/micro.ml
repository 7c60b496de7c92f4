(* Layer micro-benchmarks. Each drives one layer through its public entry
   points with a fixed-size batch of operations and reports host
   nanoseconds per operation as the fastest of several batches. *)

module Event_queue = Ace_engine.Event_queue
module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Trace = Ace_engine.Trace
module Crit = Ace_engine.Crit
module Am = Ace_net.Am
module Reliable = Ace_net.Reliable
module Faults = Ace_net.Faults
module Cost_model = Ace_net.Cost_model
module Runtime = Ace_runtime.Runtime
module Ops = Ace_runtime.Ops
module Crl = Ace_crl.Crl
module Em3d = Ace_apps.Em3d
module Oracle = Ace_check.Oracle

let batches = 5

(* [batch ()] returns (host seconds, operations); ns/op of the fastest. *)
let ns_per_op batch =
  Stat.fastest
    (List.init batches (fun _ ->
         let s, ops = batch () in
         s *. 1e9 /. float_of_int ops))

let time f =
  let t0 = Stat.now_ns () in
  f ();
  Stat.seconds_since t0

let timed_loop n f =
  let t0 = Stat.now_ns () in
  for _ = 1 to n do
    f ()
  done;
  (Stat.seconds_since t0, n)

(* ---- engine ---- *)

(* push + pop_min with [depth] events pending throughout *)
let queue_pair ~depth =
  let pairs = 200_000 in
  ns_per_op (fun () ->
      let q = Event_queue.create () in
      for i = 1 to depth do
        Event_queue.push q ~time:(float_of_int i) ignore
      done;
      timed_loop pairs (fun () ->
          ignore (Event_queue.pop_min q);
          Event_queue.push q
            ~time:(Event_queue.popped_time q +. float_of_int depth)
            ignore))

(* one fiber clock advance: a suspend, a queue round trip, a resume *)
let advance ~nprocs =
  let per_proc = 100_000 / nprocs in
  ns_per_op (fun () ->
      let m = Machine.create ~nprocs () in
      let s =
        time (fun () ->
            Machine.run m (fun p ->
                for _ = 1 to per_proc do
                  Machine.advance p 1.
                done))
      in
      (s, nprocs * per_proc))

(* one barrier arrival *)
let barrier ~nprocs =
  let per_proc = 50_000 / nprocs in
  ns_per_op (fun () ->
      let m = Machine.create ~nprocs () in
      let b = Machine.Barrier.create m ~cost:(fun _ -> 10.) in
      let s =
        time (fun () ->
            Machine.run m (fun p ->
                for _ = 1 to per_proc do
                  Machine.Barrier.wait b p
                done))
      in
      (s, nprocs * per_proc))

(* ---- net ---- *)

(* Node 0 of a 2-node machine sends [n] messages to node 1, each charged
   its send overhead; ns per delivered message. *)
let sends ?faults send =
  let n = 20_000 in
  ns_per_op (fun () ->
      let m = Machine.create ~nprocs:2 () in
      let am = Am.create m Cost_model.cm5_ace in
      Option.iter (fun spec -> Am.set_faults am (Some (Faults.make spec))) faults;
      let net = Reliable.create am in
      let delivered = ref 0 in
      let s =
        time (fun () ->
            Machine.run m (fun p ->
                if p.Machine.id = 0 then
                  for _ = 1 to n do
                    send am net p (fun ~time:_ -> incr delivered)
                  done))
      in
      if !delivered <> n then failwith "micro: lost or duplicated message";
      (s, n))

let am_send () = sends (fun am _ p h -> Am.send_from am p ~dst:1 ~bytes:16 h)

let reliable_send ?faults () =
  sends ?faults (fun _ net p h -> Reliable.send_from net p ~dst:1 ~bytes:16 h)

(* node 0 multicasts 2 parts to each of 8 nodes per call; ns per part *)
let send_multi () =
  let calls = 2_000 and dsts = 8 in
  ns_per_op (fun () ->
      let m = Machine.create ~nprocs:(dsts + 1) () in
      let am = Am.create m Cost_model.cm5_ace in
      let delivered = ref 0 in
      let h ~time:_ = incr delivered in
      let parts =
        List.concat_map
          (fun d -> [ Am.part ~dst:d ~bytes:16 h; Am.part ~dst:d ~bytes:16 h ])
          (List.init dsts (fun i -> i + 1))
      in
      let s =
        time (fun () ->
            Machine.run m (fun p ->
                if p.Machine.id = 0 then
                  for _ = 1 to calls do
                    Am.send_multi_from am p parts
                  done))
      in
      if !delivered <> calls * 2 * dsts then failwith "micro: lost part";
      (s, calls * 2 * dsts))

(* ---- region, ace, crl: SPMD programs on a small machine ---- *)

(* Run [body] on a fresh [nprocs]-node runtime whose space 0 runs
   [proto]. The node whose [body] returns [Some (seconds, ops)] timed its
   own loop from inside its fiber, so machine set-up is excluded. *)
let on_runtime ~nprocs ~proto body =
  ns_per_op (fun () ->
      let rt = Runtime.create ~nprocs () in
      Ace_protocols.Proto_lib.register_all rt;
      Ace_combinator.Library.register_all rt;
      ignore (Runtime.new_space rt proto);
      let out = ref None in
      Runtime.run rt (fun ctx ->
          match body ctx with Some r -> out := Some r | None -> ());
      Option.get !out)

(* node 0's first region, mapped on every node *)
let shared_region ctx ~len =
  if Ops.me ctx = 0 then ignore (Ops.alloc ctx ~space:0 ~len);
  Ops.barrier ctx ~space:0;
  Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:0 ~seq:0)

(* both nodes write one region in turn under SC, so writes move it *)
let write_transfer () =
  let n = 2_000 in
  on_runtime ~nprocs:2 ~proto:"SC" (fun ctx ->
      let h = shared_region ctx ~len:4 in
      let s, _ =
        timed_loop n (fun () ->
            Ops.start_write ctx h;
            let d = Ops.data ctx h in
            d.(0) <- d.(0) +. 1.;
            Ops.end_write ctx h)
      in
      Ops.barrier ctx ~space:0;
      if Ops.me ctx = 0 then Some (s, 2 * n) else None)

(* node 1 reads [n] regions homed at node 0 once each: every read misses *)
let read_miss () =
  let n = 2_000 in
  on_runtime ~nprocs:2 ~proto:"SC" (fun ctx ->
      if Ops.me ctx = 0 then
        for _ = 1 to n do
          ignore (Ops.alloc ctx ~space:0 ~len:4)
        done;
      Ops.barrier ctx ~space:0;
      let r =
        if Ops.me ctx = 1 then begin
          let hs =
            Array.init n (fun seq ->
                Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:0 ~seq))
          in
          let t0 = Stat.now_ns () in
          Array.iter
            (fun h ->
              Ops.start_read ctx h;
              Ops.end_read ctx h)
            hs;
          Some (Stat.seconds_since t0, n)
        end
        else None
      in
      Ops.barrier ctx ~space:0;
      r)

(* DYN_UPDATE: 8 sharers hold copies, the home writes; ns per pushed copy *)
let update_push () =
  let n = 500 and sharers = 8 in
  on_runtime ~nprocs:(sharers + 1) ~proto:"DYN_UPDATE" (fun ctx ->
      let h = shared_region ctx ~len:4 in
      if Ops.me ctx > 0 then begin
        Ops.start_read ctx h;
        Ops.end_read ctx h
      end;
      Ops.barrier ctx ~space:0;
      let r =
        if Ops.me ctx = 0 then begin
          let s, _ =
            timed_loop n (fun () ->
                Ops.start_write ctx h;
                let d = Ops.data ctx h in
                d.(0) <- d.(0) +. 1.;
                Ops.end_write ctx h)
          in
          Some (s, n * sharers)
        end
        else None
      in
      Ops.barrier ctx ~space:0;
      r)

(* start_read + end_read on a valid local copy *)
let read_hit proto =
  let n = 100_000 in
  on_runtime ~nprocs:2 ~proto (fun ctx ->
      let h = shared_region ctx ~len:4 in
      let r =
        if Ops.me ctx = 0 then
          Some
            (timed_loop n (fun () ->
                 Ops.start_read ctx h;
                 Ops.end_read ctx h))
        else None
      in
      Ops.barrier ctx ~space:0;
      r)

(* ACE_MAP of an already-mapped region *)
let map_hit () =
  let n = 100_000 in
  on_runtime ~nprocs:2 ~proto:"SC" (fun ctx ->
      let h = shared_region ctx ~len:4 in
      let rid = Ops.rid h in
      let r =
        if Ops.me ctx = 0 then Some (timed_loop n (fun () -> ignore (Ops.map ctx rid)))
        else None
      in
      Ops.barrier ctx ~space:0;
      r)

let crl_read_hit () =
  let n = 100_000 in
  ns_per_op (fun () ->
      let sys = Crl.create ~nprocs:2 () in
      let out = ref (0., 1) in
      Crl.run sys (fun ctx ->
          if Crl.me ctx = 0 then begin
            let h = Crl.alloc ctx ~space:0 ~len:4 in
            out :=
              timed_loop n (fun () ->
                  Crl.start_read ctx h;
                  Crl.end_read ctx h)
          end;
          Crl.barrier ctx ~space:0);
      !out)

(* ---- set-up, acelang, check ---- *)

(* µs to build one machine as Driver.run_ace does for a 1-space app *)
let machine_us ~nprocs =
  let n = max 1 (2048 / nprocs) in
  ns_per_op (fun () ->
      timed_loop n (fun () ->
          Workloads.build_machine (Workloads.Ace { nprocs; spaces = 1; dsl = true })))
  /. 1000.

(* ms to compile one Table 4 kernel at O3 against a full registry *)
let compile_ms () =
  let rt = Runtime.create ~nprocs:4 () in
  Ace_protocols.Proto_lib.register_all rt;
  let registry = Ace_lang.Registry.of_runtime rt in
  let kernels = Ace_lang.Kernels.all in
  ns_per_op (fun () ->
      let s =
        time (fun () ->
            List.iter
              (fun (_, src) ->
                ignore (Ace_lang.Compile.compile ~registry ~level:Ace_lang.Opt.O3 src))
              kernels)
      in
      (s, List.length kernels))
  /. 1e6

(* record + check, per observation, over fuzz-sized race-free histories:
   4 nodes, each writes its own region in one epoch and reads its
   neighbour's in the next, for 2 rounds *)
let oracle_per_obs () =
  let histories = 2_000 and nodes = 4 and rounds = 2 in
  let epoch o f =
    for node = 0 to nodes - 1 do
      f node
    done;
    for node = 0 to nodes - 1 do
      Oracle.barrier o ~node
    done
  in
  ns_per_op (fun () ->
      let s =
        time (fun () ->
            for _ = 1 to histories do
              let o = Oracle.create ~nprocs:nodes () in
              for r = 1 to rounds do
                let v = float_of_int r in
                epoch o (fun node -> Oracle.record_write o ~node ~rid:node ~value:v);
                epoch o (fun node ->
                    Oracle.record_read o ~node ~rid:((node + 1) mod nodes) ~value:v)
              done;
              if Oracle.check o <> None then failwith "micro: oracle violation"
            done)
      in
      (s, histories * rounds * 2 * nodes))

(* ---- obs: instrumentation switched on, EM3D at 32 procs ---- *)

let em3d_32 ?trace ?crit () =
  let nprocs = 32 in
  let rt = Runtime.create ~nprocs () in
  Ace_protocols.Proto_lib.register_all rt;
  Ace_combinator.Library.register_all rt;
  for _ = 1 to Em3d.n_spaces do
    ignore (Runtime.new_space rt "SC")
  done;
  Runtime.set_trace rt trace;
  Machine.set_crit (Runtime.machine rt) crit;
  let module A = Em3d.Make (Ops.Api) in
  let cfg = { Em3d.default with Em3d.steps = 2 } in
  let s = time (fun () -> Runtime.run rt (fun ctx -> ignore (A.run cfg ctx))) in
  (s, Stats.get (Machine.stats (Runtime.machine rt)) "net.messages")

(* extra host ns per message with the tracer / critical-path recorder on;
   the three variants alternate so host drift hits them alike *)
let instrumentation_on () =
  let rounds = 5 in
  let off = ref infinity and tr = ref infinity and cr = ref infinity in
  let msgs = ref 0. in
  for _ = 1 to rounds do
    let s, m = em3d_32 () in
    off := min !off s;
    msgs := m;
    tr := min !tr (fst (em3d_32 ~trace:(Trace.create ()) ()));
    cr := min !cr (fst (em3d_32 ~crit:(Crit.create ~nprocs:32 ()) ()))
  done;
  let per s = (s -. !off) *. 1e9 /. !msgs in
  (per !tr, per !cr)

(* Every micro as (name, unit, measure). *)
let all () =
  let instr = lazy (instrumentation_on ()) in
  [
    ("engine.queue_pair_ns.d32", "ns", fun () -> queue_pair ~depth:32);
    ("engine.queue_pair_ns.d1024", "ns", fun () -> queue_pair ~depth:1024);
    ("engine.advance_ns.p32", "ns", fun () -> advance ~nprocs:32);
    ("engine.advance_ns.p1024", "ns", fun () -> advance ~nprocs:1024);
    ("engine.barrier_ns.p32", "ns", fun () -> barrier ~nprocs:32);
    ("engine.barrier_ns.p1024", "ns", fun () -> barrier ~nprocs:1024);
    ("net.am_send_ns", "ns", am_send);
    ("net.reliable_send_ns", "ns", fun () -> reliable_send ());
    ( "net.reliable_lossy_ns", "ns",
      fun () -> reliable_send ~faults:(List.hd Workloads.fuzz_faults) () );
    ("net.send_multi_ns_per_part", "ns", send_multi);
    ("region.write_transfer_ns", "ns", write_transfer);
    ("region.read_miss_ns", "ns", read_miss);
    ("region.update_push_ns", "ns", update_push);
    ("ace.read_hit_ns.SC", "ns", fun () -> read_hit "SC");
    ("ace.read_hit_ns.NULL", "ns", fun () -> read_hit "NULL");
    ("ace.read_hit_ns.DSL_SC", "ns", fun () -> read_hit "DSL_SC");
    ("ace.map_hit_ns", "ns", map_hit);
    ("crl.read_hit_ns", "ns", crl_read_hit);
    ("setup.machine_us.p4", "us", fun () -> machine_us ~nprocs:4);
    ("setup.machine_us.p32", "us", fun () -> machine_us ~nprocs:32);
    ("setup.machine_us.p1024", "us", fun () -> machine_us ~nprocs:1024);
    ("acelang.compile_ms", "ms", compile_ms);
    ("check.oracle_ns_per_obs", "ns", oracle_per_obs);
    ("obs.trace_on_ns_per_msg", "ns", fun () -> fst (Lazy.force instr));
    ("obs.critpath_on_ns_per_msg", "ns", fun () -> snd (Lazy.force instr));
  ]
