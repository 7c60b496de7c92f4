(* Tests for the protocol language (Lang) and the combinator library:
   compiled null hooks and the unregistered-hook rule, DSL_<X> aliases
   registering exactly like X, layer semantics (counting is transparent,
   write-combining publishes at sync points), duplicate-registration
   rejection, and the broken-canary combinator that the conformance kit
   must catch and shrink. *)

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
  let p = Library.migratory.Library.proto in
  check "end_read is the null hook" true (p.Protocol.end_read == Protocol.null_hook);
  check "barrier is the null hook" true (p.Protocol.barrier == Protocol.null_hook);
  check "attach is the null hook" true (p.Protocol.attach == Protocol.null_hook);
  let wo = Library.write_once.Library.proto in
  check "write_once start_write is live" true
    (wo.Protocol.start_write != Protocol.null_hook);
  check "write_once start_write unregistered" false wo.Protocol.has_start_write

let effectful_unregistered_rejected () =
  let bad =
    Lang.define
      ~start_write:[ Lang.Charge Lang.Start_hit ]
      ~unregistered:[ Lang.Start_write ] "BAD_UNREG"
  in
  let rejected spec =
    match Lang.compile spec with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "compile rejects effectful unregistered hook" true (rejected bad);
  (* an embedded handler counts as effectful, whatever it does *)
  check "compile rejects an unregistered Call" true
    (rejected
       { bad with Lang.start_write = [ Lang.Call (fun _ _ -> ()) ] })

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
    (fun () -> Library.register_all rt);
  Alcotest.check_raises "duplicate admits alias"
    (Invalid_argument "Prog.register_admits_like: duplicate DSL_SC")
    (fun () -> Prog.register_admits_like ~name:"DSL_SC" ~like:"SC")

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

let admits_follows_alias () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let p = Prog.generate () st in
    let f = Prog.features p in
    List.iter
      (fun (e : Library.entry) ->
        check "alias admissibility" true
          (Prog.admits f e.Library.proto.Protocol.name
          = Prog.admits f e.Library.admits_like))
      (Library.broken :: Library.all)
  done

(* The canary: the kit must catch the broken combinator, shrink it, and
   the .repro must round-trip and still fail. *)
let fuzz_catches_broken_combinator () =
  let name = Library.broken.Library.proto.Protocol.name in
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

let () =
  Alcotest.run "ace_combinator"
    [
      ( "compile",
        [
          Alcotest.test_case "null hooks physical" `Quick
            null_hooks_are_physical;
          Alcotest.test_case "effectful unregistered rejected" `Quick
            effectful_unregistered_rejected;
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
          Alcotest.test_case "admissibility follows alias" `Quick
            admits_follows_alias;
          Alcotest.test_case "kit catches broken combinator" `Slow
            fuzz_catches_broken_combinator;
          Alcotest.test_case "change_protocol through DSL" `Quick
            change_protocol_roundtrip_through_dsl;
        ] );
    ]
