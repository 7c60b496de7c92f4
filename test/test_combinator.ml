(* Tests for the protocol language (Lang) and the combinator library:
   compiled null hooks and the unregistered-hook rule, DSL_<X> aliases
   registering exactly like X, layer semantics (counting is transparent,
   write-combining publishes at sync points, every layer keeps its base
   spec's contract), duplicate-registration rejection, and the
   broken-canary combinator that the conformance kit must catch and
   shrink. *)

module Lang = Ace_runtime.Lang
module Library = Ace_combinator.Library
module Runtime = Ace_runtime.Runtime
module Protocol = Ace_runtime.Protocol
module Ops = Ace_runtime.Ops
module Store = Ace_region.Store
module Registry = Ace_lang.Registry
module Stats = Ace_engine.Stats
module Runner = Ace_check.Runner
module Prog = Ace_check.Prog
module Repro = Ace_check.Repro
module Driver = Ace_harness.Driver
module E = Ace_harness.Experiments

let check = Alcotest.(check bool)

(* Absent hooks must compile to THE null hook (physical equality), not a
   lookalike — the registry derivation and direct dispatch depend on it. *)
let null_hooks_are_physical () =
  let p = Library.migratory in
  check "end_read is the null hook" true (p.Protocol.end_read == Protocol.null_hook);
  check "barrier is the null hook" true (p.Protocol.barrier == Protocol.null_hook);
  check "attach is the null hook" true (p.Protocol.attach == Protocol.null_hook);
  let wo = Library.write_once in
  check "write_once start_write is live" true
    (wo.Protocol.start_write != Protocol.null_hook);
  check "write_once start_write unregistered" false wo.Protocol.has_start_write

let effectful_unregistered_rejected () =
  let bad =
    Lang.define ~contract:Lang.Drf
      ~start_write:[ Lang.Charge Lang.Start_hit ]
      ~unregistered:[ Lang.Start_write ] "BAD_UNREG"
  in
  let rejected spec =
    match Lang.compile spec with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "compile rejects effectful unregistered hook" true (rejected bad);
  (* direct dispatch deletes an unregistered hook, and with it the log an
     Observe keeps, so an Observe is not allowed there either *)
  check "compile rejects an unregistered Observe" true
    (rejected
       { bad with Lang.start_write = [ Lang.Observe (fun _ _ -> ()) ] })

(* Fig. 1's registration data of the library entries, derived from their
   specs: (optimizable, has start_read, end_read, start_write, end_write),
   the values the entries were registered with when they were hand-set. *)
let derived_registration () =
  let expected =
    [
      ("DSL_SC", (false, true, true, true, true));
      ("DSL_WRITE_ONCE", (true, true, false, false, false));
      ("DSL_MIGRATORY", (false, true, false, true, false));
      ("DSL_WC_UPDATE", (true, true, false, true, true));
      ("DSL_SC_STATS", (false, true, true, true, true));
    ]
  in
  Alcotest.(check (list string)) "library entries" (List.map fst expected) Library.names;
  List.iter
    (fun p ->
      check (p.Protocol.name ^ " registration") true
        (List.assoc p.Protocol.name expected
        = ( p.Protocol.optimizable,
            p.Protocol.has_start_read,
            p.Protocol.has_end_read,
            p.Protocol.has_start_write,
            p.Protocol.has_end_write )))
    Library.all

(* An Observe is host-side only: one that moves the clock raises when the
   hook runs, instead of silently changing simulated output. *)
let observe_must_not_advance () =
  let run observe =
    let rt = Runtime.create ~nprocs:2 () in
    Runtime.register rt
      (Lang.compile
         (Lang.define "OBSERVE_TEST" ~contract:Lang.Drf ~start_read:[ Lang.Fetch_shared; Lang.Observe observe ]));
    ignore (Runtime.new_space rt "OBSERVE_TEST");
    Runtime.run rt (fun ctx ->
        let h = Ops.alloc ctx ~space:0 ~len:1 in
        Ops.start_read ctx h;
        Ops.end_read ctx h)
  in
  run (fun _ _ -> ());
  Alcotest.check_raises "clock moved"
    (Invalid_argument "Lang: an Observe action moved the processor clock") (fun () ->
      run (fun ctx _ -> Ace_engine.Machine.advance ctx.Protocol.proc 1.))

(* ---------- run equivalence (small grid) ---------- *)

(* Run one small benchmark twice — hand-written vs combinator protocol —
   and demand identical simulated seconds, checksum, message count and
   per-space dispatch counters. *)
let run_pair (type c) (module App : Driver.APP with type config = c)
    (cfg : c) ~nprocs hand dsl ~with_proto =
  let capture proto =
    let msgs = ref 0. and dispatch = ref [] in
    let out =
      Driver.run_ace ~nprocs
        ~stats:(fun st ->
          msgs := Stats.get st "net.messages";
          let fam = Stats.fam "ace.dispatch.by_space" in
          dispatch :=
            List.init App.n_spaces (fun i -> Stats.get_dim st fam i))
        (module App)
        (with_proto cfg proto)
    in
    (out, !msgs, !dispatch)
  in
  let oh, mh, dh = capture hand and od, md, dd = capture dsl in
  check (dsl ^ " seconds = " ^ hand) true
    (oh.Driver.seconds = od.Driver.seconds);
  check (dsl ^ " result = " ^ hand) true (oh.Driver.result = od.Driver.result);
  check (dsl ^ " messages = " ^ hand) true (mh = md);
  check (dsl ^ " dispatch counters = " ^ hand) true (dh = dd)

let em3d_cfg =
  { Ace_apps.Em3d.default with Ace_apps.Em3d.n_nodes = 64; steps = 2 }

let bsc_cfg =
  {
    Ace_apps.Cholesky.default with
    Ace_apps.Cholesky.core =
      { Ace_apps.Cholesky.default.Ace_apps.Cholesky.core with
        Ace_apps.Chol_core.nb = 4 };
  }

let em3d_with cfg p = { cfg with Ace_apps.Em3d.protocol = Some p }
let bsc_with cfg p = { cfg with Ace_apps.Cholesky.protocol = Some p }

let sc_run_equivalence () =
  run_pair (module Ace_apps.Em3d) em3d_cfg ~nprocs:4 "SC" "DSL_SC"
    ~with_proto:em3d_with

let migratory_run_equivalence () =
  run_pair (module Ace_apps.Em3d) em3d_cfg ~nprocs:4 "MIGRATORY"
    "DSL_MIGRATORY" ~with_proto:em3d_with

let write_once_run_equivalence () =
  run_pair (module Ace_apps.Cholesky) bsc_cfg ~nprocs:4 "WRITE_ONCE"
    "DSL_WRITE_ONCE" ~with_proto:bsc_with

(* ---------- layers ---------- *)

(* The counting layer charges no simulated cycles, so SC under it is
   bit-identical to plain SC — while its counters observe the run. *)
let counting_layer_transparent () =
  let sr = ref 0. in
  let plain = Driver.run_ace ~nprocs:4 (module Ace_apps.Em3d)
      (em3d_with em3d_cfg "SC")
  in
  let layered =
    Driver.run_ace ~nprocs:4
      ~stats:(fun st -> sr := Stats.get st "comb.dsl_sc_stats.start_read")
      (module Ace_apps.Em3d)
      (em3d_with em3d_cfg "DSL_SC_STATS")
  in
  check "seconds identical" true (plain.Driver.seconds = layered.Driver.seconds);
  check "result identical" true (plain.Driver.result = layered.Driver.result);
  check "counters observed the run" true (!sr > 0.)

(* The write-combining layer defers a non-home writer's update pushes: the
   master must be stale right after end_write and fresh after the next
   sync point (barrier; and separately unlock). *)
let write_combining_flushes_at_sync () =
  let run_with ~sync =
    let rt = Runtime.create ~nprocs:2 () in
    Library.register_all rt;
    ignore (Runtime.new_space rt "DSL_WC_UPDATE");
    let before = ref nan and after = ref nan in
    Runtime.run rt (fun ctx ->
        let me = Ops.me ctx in
        if me = 0 then ignore (Ops.alloc ctx ~space:0 ~len:1);
        Ops.barrier ctx ~space:0;
        let h = Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:0 ~seq:0) in
        (* node 1 becomes a sharer, then writes (single-writer contract) *)
        Ops.start_read ctx h;
        Ops.end_read ctx h;
        Ops.barrier ctx ~space:0;
        if me = 1 then begin
          Ops.start_write ctx h;
          (Ops.data ctx h).(0) <- 42.;
          Ops.end_write ctx h;
          (* queued, not pushed: the home master is still stale *)
          before := h.Store.master.(0);
          sync ctx h
        end;
        Ops.barrier ctx ~space:0;
        if me = 0 then after := h.Store.master.(0));
    (!before, !after)
  in
  let b1, a1 = run_with ~sync:(fun _ _ -> ()) in
  check "stale before the barrier" true (b1 = 0.);
  check "published by the barrier" true (a1 = 42.);
  let b2, a2 =
    run_with ~sync:(fun ctx h ->
        (* an unlock is also a sync point: publish without waiting for the
           epoch barrier *)
        Ops.lock ctx h;
        Ops.unlock ctx h;
        check "published by the unlock" true (h.Store.master.(0) = 42.))
  in
  check "stale before the unlock too" true (b2 = 0.);
  check "still published at the end" true (a2 = 42.)

(* ---------- registry and lint ---------- *)

let dsl_names_registered () =
  let rt = Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  Library.register_all rt;
  let names = List.map (fun p -> p.Protocol.name) (Runtime.protocols rt) in
  List.iter
    (fun n -> check ("has " ^ n) true (List.mem n names))
    Library.names

let duplicate_dsl_registration_rejected () =
  let rt = Runtime.create ~nprocs:2 () in
  Library.register_all rt;
  Alcotest.check_raises "re-registering the library"
    (Invalid_argument "Runtime.register: duplicate protocol DSL_SC")
    (fun () -> Library.register_all rt)

(* A DSL_<X> alias registers exactly like X (Fig. 1 flags, optimizable
   bit) apart from its name: the two names share one spec. *)
let dsl_aliases_equal_originals () =
  let rt = Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  Library.register_all rt;
  List.iter
    (fun original ->
      let entry n = Registry.of_protocol (Runtime.find_protocol rt n) in
      check
        ("DSL_" ^ original ^ " = " ^ original)
        true
        ({ (entry ("DSL_" ^ original)) with Registry.name = original }
        = entry original))
    [ "SC"; "WRITE_ONCE"; "MIGRATORY" ]

(* ---------- conformance-kit enrollment ---------- *)

let dsl_protocols_in_default_grid () =
  List.iter
    (fun n -> check ("fuzzed by default: " ^ n) true
        (List.mem n Runner.default_protocols))
    Library.names

(* A layer keeps the contract of the spec it wraps. *)
let layers_keep_contract () =
  List.iter
    (fun (s : Lang.spec) ->
      List.iter
        (fun (layer, l) ->
          check (s.Lang.name ^ " under " ^ layer) true
            ((l s).Lang.contract = s.Lang.contract))
        [
          ("with_name", Lang.with_name "LAYERED");
          ("counting", fun s -> Lang.counting s);
          ("write_combining", Lang.write_combining);
        ])
    (Lang.sc :: Lang.null :: Ace_protocols.Proto_lib.specs)

(* Each library protocol, and the combinator canary, runs the programs
   the protocol it was built from runs. *)
let library_contracts () =
  let contract_of name =
    (List.find
       (fun p -> p.Protocol.name = name)
       (Runtime.builtins @ Ace_protocols.Proto_lib.all))
      .Protocol.contract
  in
  List.iter2
    (fun p base ->
      check (p.Protocol.name ^ " keeps " ^ base ^ "'s contract") true
        (p.Protocol.contract = contract_of base))
    (Library.all @ [ Library.broken_sc ])
    [ "SC"; "WRITE_ONCE"; "MIGRATORY"; "DYN_UPDATE"; "SC"; "SC" ]

(* The canary: the kit must catch the broken combinator, shrink it, and
   the .repro must round-trip and still fail. *)
let fuzz_catches_broken_combinator () =
  let name = Library.broken_sc.Protocol.name in
  let report =
    Runner.fuzz ~protocols:[ "SC"; name ] ~seed:3 ~count:200 ~schedules:8
      ~fault_specs:[] ~batch_modes:[ false ] ()
  in
  match report.Runner.counterexample with
  | None -> Alcotest.fail "broken combinator escaped the fuzzer"
  | Some ((p, fl) as cex) ->
      check "blames the broken combinator" true
        (fl.Runner.cell.Runner.proto = name);
      check "counterexample is shrunk" true (List.length p.Prog.epochs <= 2);
      let r = Runner.to_repro cex in
      let path = Filename.temp_file "acecheck" ".repro" in
      Repro.write path r;
      let r2 = Repro.read path in
      Sys.remove path;
      check "repro round-trips" true
        (Prog.to_string r2.Repro.prog = Prog.to_string p
        && r2.Repro.proto = r.Repro.proto);
      check "replay still fails" true (Runner.replay r2 <> None)

(* Mid-run switching into and out of a DSL protocol stays coherent (the
   Ace_ChangeProtocol surface the bench identity grid leans on). *)
let change_protocol_roundtrip_through_dsl () =
  let rt = Runtime.create ~nprocs:4 () in
  Ace_protocols.Proto_lib.register_all rt;
  Library.register_all rt;
  ignore (Runtime.new_space rt "SC");
  let captured = ref 0. in
  Runtime.run rt (fun ctx ->
      let me = Ops.me ctx in
      let mine = Ops.alloc ctx ~space:0 ~len:1 in
      Ops.barrier ctx ~space:0;
      Ops.change_protocol ctx ~space:0 "DSL_SC";
      Ops.start_write ctx mine;
      (Ops.data ctx mine).(0) <- float_of_int me;
      Ops.end_write ctx mine;
      Ops.change_protocol ctx ~space:0 "DSL_MIGRATORY";
      Ops.start_write ctx mine;
      (Ops.data ctx mine).(0) <- (Ops.data ctx mine).(0) +. 100.;
      Ops.end_write ctx mine;
      Ops.change_protocol ctx ~space:0 "SC";
      let sum = ref 0. in
      for o = 0 to 3 do
        let h = Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:o ~seq:0) in
        Ops.start_read ctx h;
        sum := !sum +. (Ops.data ctx h).(0);
        Ops.end_read ctx h
      done;
      if me = 2 then captured := !sum);
  check "sum of (me + 100)" true (!captured = 406.)

(* Mid-run switches into and out of STATIC_UPDATE and PIPELINE: an
   EM3D-like relaxation between spaces A and B under STATIC_UPDATE (each
   half-step writes one space, then passes that space's barrier, as
   EM3D's E and H do), then locked accumulations into space ACC under
   PIPELINE, with SC before, between and after. Values are small dyadic
   rationals, so every sum is exact whatever order the locks grant in,
   and the checksum node 0 reads must equal the sequential program's
   exactly. *)
(* [one_space] keeps A and B in one space, so one space's learning window
   sees both halves of the relaxation: each array's regions are first
   written with no consumers in that window, and their readers come later. *)
let switch_through_state_machines ?(one_space = false) ~batch () =
  let p = 4 and k = 2 and steps = 3 in
  let a = Array.init p (fun o -> Array.init k (fun i -> float_of_int ((o * 10) + i))) in
  let b = Array.make_matrix p k 0. and acc = Array.make p 0. in
  for _ = 1 to steps do
    for o = 0 to p - 1 do
      for i = 0 to k - 1 do
        b.(o).(i) <- a.(o).(i) +. (0.5 *. a.((o + 1) mod p).(i))
      done
    done;
    for o = 0 to p - 1 do
      for i = 0 to k - 1 do
        a.(o).(i) <- b.(o).(i) +. (0.25 *. b.((o + p - 1) mod p).(i))
      done
    done
  done;
  for o = 0 to p - 1 do
    for t = 0 to p - 1 do
      acc.(t) <- acc.(t) +. a.(o).(0)
    done
  done;
  let sum m = Array.fold_left (fun s r -> Array.fold_left ( +. ) s r) 0. m in
  let reference = sum a +. sum b +. Array.fold_left ( +. ) 0. acc in
  let rt = Runtime.create ~nprocs:p () in
  Ace_protocols.Proto_lib.register_all rt;
  (* arrays A, B and the accumulators: their spaces, and the allocation
     sequence number of each array's first region in its space *)
  let sa = 0 and sb = 1 and sacc = 2 in
  let space = if one_space then [| 0; 0; 1 |] else [| 0; 1; 2 |] in
  let base = [| 0; (if one_space then k else 0); 0 |] in
  for _ = 0 to space.(sacc) do
    ignore (Runtime.new_space rt "SC")
  done;
  Ace_net.Am.set_batching (Runtime.am rt) batch;
  let captured = ref nan in
  Runtime.run rt (fun ctx ->
      let me = Ops.me ctx in
      let own x n = Array.init n (fun _ -> Ops.alloc ctx ~space:space.(x) ~len:1) in
      (* allocated in this order: [base] counts on it *)
      let ma = own sa k in
      let mb = own sb k in
      let mine = [| ma; mb; own sacc 1 |] in
      let region x o i =
        if o = me then mine.(x).(i)
        else
          Ops.map ctx
            (Ops.global_id ctx ~space:space.(x) ~owner:o ~seq:(base.(x) + i))
      in
      let read h =
        Ops.start_read ctx h;
        let v = (Ops.data ctx h).(0) in
        Ops.end_read ctx h;
        v
      in
      let write h v =
        Ops.start_write ctx h;
        (Ops.data ctx h).(0) <- v;
        Ops.end_write ctx h
      in
      let switch name xs =
        List.iter
          (fun space -> Ops.change_protocol ctx ~space name)
          (List.sort_uniq compare (List.map (fun x -> space.(x)) xs))
      in
      for i = 0 to k - 1 do
        write mine.(sa).(i) (float_of_int ((me * 10) + i))
      done;
      Ops.barrier ctx ~space:space.(sa);
      switch "STATIC_UPDATE" [ sa; sb ];
      for _ = 1 to steps do
        for i = 0 to k - 1 do
          write mine.(sb).(i)
            (read mine.(sa).(i) +. (0.5 *. read (region sa ((me + 1) mod p) i)))
        done;
        Ops.barrier ctx ~space:space.(sb);
        for i = 0 to k - 1 do
          write mine.(sa).(i)
            (read mine.(sb).(i) +. (0.25 *. read (region sb ((me + p - 1) mod p) i)))
        done;
        Ops.barrier ctx ~space:space.(sa)
      done;
      switch "SC" [ sa; sb ];
      let contribution = read mine.(sa).(0) in
      switch "PIPELINE" [ sacc ];
      for r = 0 to p - 1 do
        let h = region sacc ((me + r) mod p) 0 in
        Ops.lock ctx h;
        let v = read h in
        write h (v +. contribution);
        Ops.unlock ctx h
      done;
      Ops.barrier ctx ~space:space.(sacc);
      switch "SC" [ sacc ];
      if me = 0 then begin
        let total = ref 0. in
        for o = 0 to p - 1 do
          for i = 0 to k - 1 do
            total := !total +. read (region sa o i) +. read (region sb o i)
          done;
          total := !total +. read (region sacc o 0)
        done;
        captured := !total
      end);
  Alcotest.(check (float 0.)) "checksum = sequential reference" reference !captured

(* A STATIC_UPDATE consumer that starts reading after the learning window
   has closed: R is homed at node 0 and written every iteration by
   [writer]; node 2 reads it only from iteration 3 on, so no learned list
   names it. Its read miss makes it a sharer at the home, and every later
   push must reach it there (the home forwards to sharers the writer's
   list missed, and a home writer pushes to its current sharers). *)
let late_consumer ~writer ~batch () =
  let iters = 7 and first_read = 3 in
  let rt = Runtime.create ~nprocs:3 () in
  Ace_protocols.Proto_lib.register_all rt;
  let space = (Runtime.new_space rt "STATIC_UPDATE").Protocol.sid in
  Ace_net.Am.set_batching (Runtime.am rt) batch;
  let seen = ref [] in
  Runtime.run rt (fun ctx ->
      let me = Ops.me ctx in
      if me = 0 then ignore (Ops.alloc ctx ~space ~len:1);
      Ops.barrier ctx ~space;
      let r = Ops.map ctx (Ops.global_id ctx ~space ~owner:0 ~seq:0) in
      for t = 0 to iters - 1 do
        if me = writer then begin
          Ops.start_write ctx r;
          (Ops.data ctx r).(0) <- float_of_int t;
          Ops.end_write ctx r
        end;
        Ops.barrier ctx ~space;
        if me = 2 && t >= first_read then begin
          Ops.start_read ctx r;
          seen := (t, (Ops.data ctx r).(0)) :: !seen;
          Ops.end_read ctx r
        end;
        Ops.barrier ctx ~space
      done);
  Alcotest.(check (list (pair int (float 0.))))
    "every read sees its iteration's value"
    (List.init (iters - first_read) (fun i ->
         (first_read + i, float_of_int (first_read + i))))
    (List.rev !seen)

let () =
  Alcotest.run "ace_combinator"
    [
      ( "compile",
        [
          Alcotest.test_case "null hooks physical" `Quick
            null_hooks_are_physical;
          Alcotest.test_case "effectful unregistered rejected" `Quick
            effectful_unregistered_rejected;
          Alcotest.test_case "derived registration" `Quick derived_registration;
          Alcotest.test_case "observe must not advance" `Quick
            observe_must_not_advance;
        ] );
      ( "run equivalence",
        [
          Alcotest.test_case "SC" `Quick sc_run_equivalence;
          Alcotest.test_case "MIGRATORY" `Quick migratory_run_equivalence;
          Alcotest.test_case "WRITE_ONCE" `Quick write_once_run_equivalence;
        ] );
      ( "layers",
        [
          Alcotest.test_case "counting transparent" `Quick
            counting_layer_transparent;
          Alcotest.test_case "write-combining sync flush" `Quick
            write_combining_flushes_at_sync;
          Alcotest.test_case "contract kept" `Quick layers_keep_contract;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names registered" `Quick dsl_names_registered;
          Alcotest.test_case "duplicates rejected" `Quick
            duplicate_dsl_registration_rejected;
          Alcotest.test_case "DSL aliases equal originals" `Quick
            dsl_aliases_equal_originals;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "enrolled in default grid" `Quick
            dsl_protocols_in_default_grid;
          Alcotest.test_case "library contracts" `Quick library_contracts;
          Alcotest.test_case "kit catches broken combinator" `Slow
            fuzz_catches_broken_combinator;
          Alcotest.test_case "change_protocol through DSL" `Quick
            change_protocol_roundtrip_through_dsl;
          Alcotest.test_case "switch through STATIC_UPDATE and PIPELINE" `Quick
            (switch_through_state_machines ~batch:false);
          Alcotest.test_case "switch through STATIC_UPDATE and PIPELINE, batched"
            `Quick
            (switch_through_state_machines ~batch:true);
          Alcotest.test_case "switch through STATIC_UPDATE and PIPELINE, one space"
            `Quick
            (switch_through_state_machines ~one_space:true ~batch:false);
          Alcotest.test_case
            "switch through STATIC_UPDATE and PIPELINE, one space, batched" `Quick
            (switch_through_state_machines ~one_space:true ~batch:true);
          Alcotest.test_case "late consumer, home writer" `Quick
            (late_consumer ~writer:0 ~batch:false);
          Alcotest.test_case "late consumer, remote writer" `Quick
            (late_consumer ~writer:1 ~batch:false);
          Alcotest.test_case "late consumer, home writer, batched" `Quick
            (late_consumer ~writer:0 ~batch:true);
          Alcotest.test_case "late consumer, remote writer, batched" `Quick
            (late_consumer ~writer:1 ~batch:true);
        ] );
    ]
