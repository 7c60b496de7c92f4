(* Tests for the region store and the coherence building blocks, including
   a property test that random properly-synchronized programs running under
   the invalidation legs compute exactly what a sequential execution does. *)

module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Rng = Ace_engine.Det_rng
module Store = Ace_region.Store
module Dir = Ace_region.Dir
module Blocks = Ace_region.Blocks
module Am = Ace_net.Am
module Cost_model = Ace_net.Cost_model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type world = {
  m : Machine.t;
  am : Am.t;
  net : Ace_net.Reliable.t;
  store : Store.t;
  barrier : Machine.Barrier.b;
}

let make_world ~nprocs =
  let m = Machine.create ~nprocs () in
  let am = Am.create m Cost_model.cm5_ace in
  {
    m;
    am;
    net = Ace_net.Reliable.create am;
    store = Store.create ~nprocs ();
    barrier = Machine.Barrier.create m ~cost:(fun _ -> 10.);
  }

let run w f =
  Machine.run w.m (fun p -> f (Blocks.make_ctx w.net w.store p) p)

let bar w p = Machine.Barrier.wait w.barrier p

(* ---- store ---- *)

let store_alloc_get () =
  let s = Store.create ~nprocs:4 () in
  let meta = Store.alloc s ~home:2 ~len:8 ~space:0 in
  check_int "rid" 0 meta.Store.rid;
  check_int "home" 2 meta.Store.home;
  check_int "count" 1 (Store.count s);
  check_int "bytes" 64 (Store.bytes meta);
  check "home copy aliases master" true
    (match Store.copy_of meta ~node:2 with
    | Some c -> c.Store.cdata == meta.Store.master
    | None -> false);
  Store.check_invariants meta

let store_bad_args () =
  let s = Store.create ~nprocs:2 () in
  Alcotest.check_raises "bad home" (Invalid_argument "Store.alloc: bad home")
    (fun () -> ignore (Store.alloc s ~home:5 ~len:1 ~space:0));
  Alcotest.check_raises "bad len" (Invalid_argument "Store.alloc: bad length")
    (fun () -> ignore (Store.alloc s ~home:0 ~len:0 ~space:0));
  Alcotest.check_raises "bad rid" (Invalid_argument "Store.get: bad rid")
    (fun () -> ignore (Store.get s 0))

let store_sharers () =
  let s = Store.create ~nprocs:4 () in
  let meta = Store.alloc s ~home:0 ~len:1 ~space:0 in
  Dir.add meta.Store.dir.Store.sharers 2;
  Alcotest.(check (list int)) "sharers" [ 0; 2 ] (Store.sharers meta ~except:3);
  Alcotest.(check (list int)) "except" [ 2 ] (Store.sharers meta ~except:0)

(* ---- basic coherence legs ---- *)

let fetch_shared_moves_data () =
  let w = make_world ~nprocs:2 in
  let meta = Store.alloc w.store ~home:0 ~len:2 ~space:0 in
  run w (fun ctx p ->
      if p.Machine.id = 0 then begin
        meta.Store.master.(0) <- 3.25;
        meta.Store.master.(1) <- -1.;
        bar w p
      end
      else begin
        bar w p;
        Blocks.fetch_shared ctx meta;
        let c = Option.get (Store.copy_of meta ~node:1) in
        assert (c.Store.cdata.(0) = 3.25 && c.Store.cdata.(1) = -1.);
        assert (c.Store.cstate = Store.Shared)
      end);
  Store.check_invariants meta;
  check "node 1 registered" true (Dir.mem meta.Store.dir.Store.sharers 1)

let fetch_exclusive_invalidates () =
  let w = make_world ~nprocs:3 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  run w (fun ctx p ->
      match p.Machine.id with
      | 1 ->
          Blocks.fetch_shared ctx meta;
          bar w p;
          bar w p;
          (* after node 2 wrote, our copy must be invalid *)
          let c = Option.get (Store.copy_of meta ~node:1) in
          assert (c.Store.cstate = Store.Invalid);
          Blocks.fetch_shared ctx meta;
          assert ((Option.get (Store.copy_of meta ~node:1)).Store.cdata.(0) = 7.)
      | 2 ->
          bar w p;
          Blocks.fetch_exclusive ctx meta;
          (Option.get (Store.copy_of meta ~node:2)).Store.cdata.(0) <- 7.;
          bar w p
      | _ ->
          bar w p;
          bar w p);
  Store.check_invariants meta;
  (* node 1's refetch recalled node 2's ownership; the written value is in
     the master *)
  check "master holds written value" true (meta.Store.master.(0) = 7.)

let recall_from_owner () =
  (* a reader after a remote writer sees the written data via recall *)
  let w = make_world ~nprocs:3 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  run w (fun ctx p ->
      match p.Machine.id with
      | 1 ->
          Blocks.fetch_exclusive ctx meta;
          (Option.get (Store.copy_of meta ~node:1)).Store.cdata.(0) <- 11.;
          bar w p;
          bar w p
      | 2 ->
          bar w p;
          Blocks.fetch_shared ctx meta;
          assert ((Option.get (Store.copy_of meta ~node:2)).Store.cdata.(0) = 11.);
          bar w p
      | _ ->
          bar w p;
          bar w p);
  Store.check_invariants meta;
  check "owner downgraded" true (meta.Store.dir.Store.owner = -1);
  check "master refreshed" true (meta.Store.master.(0) = 11.)

let writeback_and_flush () =
  let w = make_world ~nprocs:2 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  run w (fun ctx p ->
      if p.Machine.id = 1 then begin
        Blocks.fetch_exclusive ctx meta;
        (Option.get (Store.copy_of meta ~node:1)).Store.cdata.(0) <- 5.;
        Blocks.flush ctx meta;
        assert (meta.Store.master.(0) = 5.);
        assert ((Option.get (Store.copy_of meta ~node:1)).Store.cstate = Store.Invalid);
        assert (not (Dir.mem meta.Store.dir.Store.sharers 1))
      end);
  Store.check_invariants meta

let push_update_refreshes_sharers () =
  let w = make_world ~nprocs:3 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  run w (fun ctx p ->
      match p.Machine.id with
      | 2 ->
          Blocks.fetch_shared ctx meta;
          bar w p;
          bar w p;
          (* sharer copy refreshed without any action of ours *)
          assert ((Option.get (Store.copy_of meta ~node:2)).Store.cdata.(0) = 9.)
      | 1 ->
          bar w p;
          Blocks.fetch_shared ctx meta;
          (Option.get (Store.copy_of meta ~node:1)).Store.cdata.(0) <- 9.;
          Machine.await p (Blocks.push_update ctx meta);
          (* push fills when forwarded; give deliveries a barrier to land *)
          bar w p
      | _ ->
          bar w p;
          bar w p);
  check "master updated" true (meta.Store.master.(0) = 9.)

let push_to_explicit_consumers () =
  let w = make_world ~nprocs:4 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  run w (fun ctx p ->
      match p.Machine.id with
      | 3 ->
          ignore (Store.ensure_copy meta ~node:3);
          bar w p;
          bar w p;
          let c = Option.get (Store.copy_of meta ~node:3) in
          assert (c.Store.cdata.(0) = 2.5);
          (* the push validated the Invalid copy: the next read hits *)
          assert (c.Store.cstate = Store.Shared)
      | 1 ->
          ignore (Store.ensure_copy meta ~node:1);
          bar w p;
          (Option.get (Store.copy_of meta ~node:1)).Store.cdata.(0) <- 2.5;
          Machine.await p (Blocks.push_to ctx meta ~dsts:[ 3 ]);
          bar w p
      | _ ->
          bar w p;
          bar w p);
  check "master included" true (meta.Store.master.(0) = 2.5)

(* ---- access atomicity (deferral) ---- *)

let invalidation_deferred_during_read () =
  (* node 1 holds an active read; node 2's exclusive fetch must not
     complete until node 1 ends the read *)
  let w = make_world ~nprocs:3 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  let writer_done = ref 0. and reader_end = ref 0. in
  run w (fun ctx p ->
      match p.Machine.id with
      | 1 ->
          Blocks.fetch_shared ctx meta;
          Blocks.begin_access ctx meta ~write:false;
          bar w p;
          Machine.advance p 10_000.;
          reader_end := p.Machine.clock;
          Blocks.end_access ctx meta ~write:false
      | 2 ->
          bar w p;
          Blocks.fetch_exclusive ctx meta;
          writer_done := p.Machine.clock
      | _ -> bar w p);
  check "write waited for reader" true (!writer_done > !reader_end)

let fetch_add_unique_values () =
  let w = make_world ~nprocs:8 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  let seen = Hashtbl.create 64 in
  run w (fun ctx p ->
      for _ = 1 to 10 do
        let v =
          if p.Machine.id = meta.Store.home then begin
            (* home: in-place RMW on the aliased master under the
               directory-transaction bracket *)
            Blocks.home_rmw_begin ctx meta;
            let v = meta.Store.master.(0) in
            meta.Store.master.(0) <- v +. 1.;
            Blocks.home_rmw_end ctx meta;
            v
          end
          else begin
            Blocks.fetch_add ctx meta ~delta:1.;
            (Option.get (Store.copy_of meta ~node:p.Machine.id)).Store.cdata.(0)
          end
        in
        assert (not (Hashtbl.mem seen v));
        Hashtbl.add seen v ()
      done);
  check_int "80 unique tickets" 80 (Hashtbl.length seen);
  check "final count" true (meta.Store.master.(0) = 80.)

let locks_mutual_exclusion () =
  let w = make_world ~nprocs:8 in
  let meta = Store.alloc w.store ~home:3 ~len:1 ~space:0 in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  run w (fun ctx p ->
      for _ = 1 to 5 do
        Blocks.home_lock ctx meta;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        incr total;
        Machine.advance p 100.;
        decr inside;
        Blocks.home_unlock ctx meta
      done);
  check_int "never concurrent" 1 !max_inside;
  check_int "all sections ran" 40 !total

let lock_fetch_carries_data () =
  let w = make_world ~nprocs:2 in
  let meta = Store.alloc w.store ~home:0 ~len:1 ~space:0 in
  meta.Store.master.(0) <- 42.;
  run w (fun ctx p ->
      if p.Machine.id = 1 then begin
        Blocks.lock_fetch ctx meta;
        assert ((Option.get (Store.copy_of meta ~node:1)).Store.cdata.(0) = 42.);
        Blocks.home_unlock ctx meta
      end);
  check "done" true true

(* ---- property: coherence = sequential semantics ---- *)

(* A random program: [rounds] phases; in each phase every region is written
   by exactly one (randomly chosen) node, read by several, with a barrier
   between phases. Under the invalidation legs the values observed must
   match a sequential execution of the same schedule. *)
let coherence_matches_reference =
  QCheck.Test.make ~name:"synchronized programs match sequential execution"
    ~count:25
    QCheck.(pair (int_range 1 1000) (pair (int_range 2 6) (int_range 1 4)))
    (fun (seed, (nprocs, nregions)) ->
      let rounds = 4 in
      let w = make_world ~nprocs in
      let metas =
        Array.init nregions (fun i ->
            Store.alloc w.store ~home:(i mod nprocs) ~len:1 ~space:0)
      in
      (* schedule: writer.(round).(region), readers derived from seed *)
      let rng = Rng.create seed in
      let writer =
        Array.init rounds (fun _ -> Array.init nregions (fun _ -> Rng.int rng nprocs))
      in
      (* reference values: v(r, round) = writer*1000 + round *)
      let expected = Array.make nregions 0. in
      for round = 0 to rounds - 1 do
        for r = 0 to nregions - 1 do
          expected.(r) <- float_of_int ((writer.(round).(r) * 1000) + round)
        done
      done;
      let failures = ref 0 in
      run w (fun ctx p ->
          let me = p.Machine.id in
          for round = 0 to rounds - 1 do
            for r = 0 to nregions - 1 do
              if writer.(round).(r) = me then begin
                Blocks.fetch_exclusive ctx metas.(r);
                Blocks.begin_access ctx metas.(r) ~write:true;
                (Option.get (Store.copy_of metas.(r) ~node:me)).Store.cdata.(0) <-
                  float_of_int ((me * 1000) + round);
                Blocks.end_access ctx metas.(r) ~write:true
              end
            done;
            bar w p;
            (* every node reads every region and checks the phase value *)
            for r = 0 to nregions - 1 do
              Blocks.fetch_shared ctx metas.(r);
              Blocks.begin_access ctx metas.(r) ~write:false;
              let v = (Option.get (Store.copy_of metas.(r) ~node:me)).Store.cdata.(0) in
              Blocks.end_access ctx metas.(r) ~write:false;
              if v <> float_of_int ((writer.(round).(r) * 1000) + round) then
                incr failures
            done;
            bar w p
          done);
      Array.iter Store.check_invariants metas;
      !failures = 0)

let () =
  Alcotest.run "region"
    [
      ( "store",
        [
          Alcotest.test_case "alloc/get" `Quick store_alloc_get;
          Alcotest.test_case "bad args" `Quick store_bad_args;
          Alcotest.test_case "sharers" `Quick store_sharers;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "fetch_shared" `Quick fetch_shared_moves_data;
          Alcotest.test_case "fetch_exclusive" `Quick fetch_exclusive_invalidates;
          Alcotest.test_case "recall" `Quick recall_from_owner;
          Alcotest.test_case "writeback/flush" `Quick writeback_and_flush;
          Alcotest.test_case "push_update" `Quick push_update_refreshes_sharers;
          Alcotest.test_case "push_to" `Quick push_to_explicit_consumers;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "deferred invalidation" `Quick
            invalidation_deferred_during_read;
          Alcotest.test_case "fetch_add unique" `Quick fetch_add_unique_values;
          Alcotest.test_case "lock mutex" `Quick locks_mutual_exclusion;
          Alcotest.test_case "lock_fetch data" `Quick lock_fetch_carries_data;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest coherence_matches_reference ] );
    ]
