(* Tests for the Ace runtime: spaces, dispatch, protocol registry,
   Ace_ChangeProtocol semantics, collectives and region naming. *)

module Runtime = Ace_runtime.Runtime
module Ops = Ace_runtime.Ops
module Protocol = Ace_runtime.Protocol
module Store = Ace_region.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?(spaces = 1) ~nprocs () =
  let rt = Runtime.create ~nprocs () in
  Ace_protocols.Proto_lib.register_all rt;
  for _ = 1 to spaces do
    ignore (Runtime.new_space rt "SC")
  done;
  rt

let registry_contents () =
  let rt = make ~nprocs:2 () in
  let names = List.map (fun p -> p.Protocol.name) (Runtime.protocols rt) in
  List.iter
    (fun n -> check ("has " ^ n) true (List.mem n names))
    [
      "SC"; "NULL"; "DYN_UPDATE"; "STATIC_UPDATE"; "MIGRATORY"; "WRITE_ONCE";
      "COUNTER"; "PIPELINE"; "RACE_CHECK";
    ]

let duplicate_registration_rejected () =
  let rt = make ~nprocs:2 () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Runtime.register: duplicate protocol SC") (fun () ->
      Runtime.register rt (Runtime.find_protocol rt "SC"))

let unknown_protocol_rejected () =
  let rt = make ~nprocs:2 () in
  Alcotest.check_raises "unknown" (Invalid_argument "unknown protocol BOGUS")
    (fun () -> ignore (Runtime.find_protocol rt "BOGUS"))

let spaces_keep_separate_protocols () =
  let rt = make ~spaces:2 ~nprocs:2 () in
  Runtime.run rt (fun ctx ->
      Ops.change_protocol ctx ~space:1 "DYN_UPDATE";
      let sp0 = Runtime.space rt 0 and sp1 = Runtime.space rt 1 in
      assert (sp0.Protocol.proto.Protocol.name = "SC");
      assert (sp1.Protocol.proto.Protocol.name = "DYN_UPDATE"));
  check "done" true true

let dispatch_follows_space () =
  (* after allocating from two spaces, each region's accesses run its own
     space's protocol; verify via the regions list per space *)
  let rt = make ~spaces:2 ~nprocs:2 () in
  Runtime.run rt (fun ctx ->
      if Ops.me ctx = 0 then begin
        let a = Ops.alloc ctx ~space:0 ~len:1 in
        let b = Ops.alloc ctx ~space:1 ~len:1 in
        assert (a.Store.space = 0 && b.Store.space = 1)
      end);
  check_int "space 0 regions" 1 (List.length (Runtime.space rt 0).Protocol.rids);
  check_int "space 1 regions" 1 (List.length (Runtime.space rt 1).Protocol.rids)

let change_protocol_flushes () =
  (* switching away from SC flushes cached remote copies back home *)
  let rt = make ~nprocs:2 () in
  Runtime.run rt (fun ctx ->
      let me = Ops.me ctx in
      let rids =
        Ops.bcast ctx ~root:0 (fun () ->
            [| Ops.rid (Ops.alloc ctx ~space:0 ~len:1) |])
      in
      let h = Ops.map ctx rids.(0) in
      if me = 1 then begin
        (* take the region exclusively and write it *)
        Ops.start_write ctx h;
        (Ops.data ctx h).(0) <- 123.;
        Ops.end_write ctx h
      end;
      Ops.barrier ctx ~space:0;
      Ops.change_protocol ctx ~space:0 "NULL";
      (* after the flush the master holds the written value and nobody is
         an exclusive owner *)
      if me = 0 then begin
        assert (h.Store.master.(0) = 123.);
        assert (h.Store.dir.Store.owner = -1)
      end);
  check "done" true true

let change_protocol_and_back_stays_coherent () =
  let rt = make ~nprocs:4 () in
  let captured = ref 0. in
  Runtime.run rt (fun ctx ->
      let me = Ops.me ctx in
      let mine = Ops.alloc ctx ~space:0 ~len:1 in
      Ops.barrier ctx ~space:0;
      (* SC phase: write own *)
      Ops.start_write ctx mine;
      (Ops.data ctx mine).(0) <- float_of_int me;
      Ops.end_write ctx mine;
      Ops.change_protocol ctx ~space:0 "NULL";
      (* NULL phase: home-local writes *)
      Ops.start_write ctx mine;
      (Ops.data ctx mine).(0) <- (Ops.data ctx mine).(0) +. 100.;
      Ops.end_write ctx mine;
      Ops.change_protocol ctx ~space:0 "SC";
      (* SC again: everyone reads everything *)
      let sum = ref 0. in
      for o = 0 to 3 do
        let h = Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:o ~seq:0) in
        Ops.start_read ctx h;
        sum := !sum +. (Ops.data ctx h).(0);
        Ops.end_read ctx h
      done;
      if me = 2 then captured := !sum);
  check "sum of (me + 100)" true (!captured = 406.)

let collective_new_space () =
  let rt = Runtime.create ~nprocs:3 () in
  Ace_protocols.Proto_lib.register_all rt;
  let sids = ref [] in
  Runtime.run rt (fun ctx ->
      let s1 = Ops.new_space ctx "SC" in
      let s2 = Ops.new_space ctx "SC" in
      if Ops.me ctx = 0 then sids := [ s1; s2 ]);
  Alcotest.(check (list int)) "two shared spaces" [ 0; 1 ] !sids;
  check_int "exactly two created" 2 rt.Protocol.nspaces

let global_id_naming () =
  let rt = make ~nprocs:3 () in
  let ok = ref true in
  Runtime.run rt (fun ctx ->
      let mine =
        Array.init 3 (fun _ -> Ops.rid (Ops.alloc ctx ~space:0 ~len:1))
      in
      Ops.barrier ctx ~space:0;
      (* every node resolves every (owner, seq) to the allocated rid *)
      Array.iteri
        (fun seq rid ->
          if Ops.global_id ctx ~space:0 ~owner:(Ops.me ctx) ~seq <> rid then
            ok := false)
        mine;
      let remote = Ops.global_id ctx ~space:0 ~owner:((Ops.me ctx + 1) mod 3) ~seq:2 in
      if remote < 0 then ok := false);
  check "naming consistent" true !ok

let map_costs_hit_vs_miss () =
  let rt = make ~nprocs:2 () in
  let delta_miss = ref 0. and delta_hit = ref 0. in
  Runtime.run rt (fun ctx ->
      if Ops.me ctx = 0 then begin
        let rid = Ops.rid (Ops.alloc ctx ~space:0 ~len:1) in
        let t0 = ctx.Protocol.proc.Ace_engine.Machine.clock in
        ignore (Ops.map ctx rid);
        let t1 = ctx.Protocol.proc.Ace_engine.Machine.clock in
        ignore (Ops.map ctx rid);
        let t2 = ctx.Protocol.proc.Ace_engine.Machine.clock in
        delta_miss := t1 -. t0;
        delta_hit := t2 -. t1
      end);
  (* the first map of an unmapped region on node 0 is a hit (home copy
     exists from alloc), so compare against a remote node's first map *)
  check "hit cheaper than alloc" true (!delta_hit <= !delta_miss)

let null_protocol_cheaper_than_sc () =
  let time_with proto =
    let rt = make ~nprocs:1 () in
    Runtime.run rt (fun ctx ->
        let h = Ops.alloc ctx ~space:0 ~len:1 in
        Ops.change_protocol ctx ~space:0 proto;
        for _ = 1 to 100 do
          Ops.start_write ctx h;
          (Ops.data ctx h).(0) <- 1.;
          Ops.end_write ctx h
        done);
    Runtime.time_seconds rt
  in
  check "null hooks cost less" true (time_with "NULL" < time_with "SC")

(* ---- read-hit allocation ----

   One read hit, [start_read] + [end_read] on a region the caller homes,
   through Ace's dispatch to the SC protocol and through CRL. Each bound is
   the exact minor words one hit allocated when the guard was written:
   a per-call closure in the dispatch or a park per charge shows. (They
   live here, not beside the engine's allocation guards, because linking
   [Ops] into the engine tests interns its DAG kinds and so moves the
   pinned DAG's bytes.) *)

module Crl = Ace_crl.Crl

let check_words name ~bound per =
  check (Printf.sprintf "%.2f minor words per %s <= %.0f" per name bound) true
    (per <= bound)

let hit_words ~warm ~n hit =
  for _ = 1 to warm do
    hit ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    hit ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let ace_read_hit_allocation () =
  let rt = Runtime.create ~nprocs:2 () in
  ignore (Runtime.new_space rt "SC");
  let per = ref infinity in
  Runtime.run rt (fun ctx ->
      if Ops.me ctx = 0 then begin
        let h = Ops.alloc ctx ~space:0 ~len:4 in
        per :=
          hit_words ~warm:100 ~n:20_000 (fun () ->
              Ops.start_read ctx h;
              Ops.end_read ctx h)
      end);
  check_words "Ace SC read hit" ~bound:28. !per

let crl_read_hit_allocation () =
  let sys = Crl.create ~nprocs:2 () in
  let per = ref infinity in
  Crl.run sys (fun ctx ->
      if Crl.me ctx = 0 then begin
        let h = Crl.alloc ctx ~space:0 ~len:4 in
        per :=
          hit_words ~warm:100 ~n:20_000 (fun () ->
              Crl.start_read ctx h;
              Crl.end_read ctx h)
      end);
  check_words "CRL read hit" ~bound:16. !per

let () =
  Alcotest.run "ace_runtime"
    [
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick registry_contents;
          Alcotest.test_case "duplicates" `Quick duplicate_registration_rejected;
          Alcotest.test_case "unknown" `Quick unknown_protocol_rejected;
        ] );
      ( "spaces",
        [
          Alcotest.test_case "separate protocols" `Quick
            spaces_keep_separate_protocols;
          Alcotest.test_case "dispatch follows space" `Quick dispatch_follows_space;
          Alcotest.test_case "collective new_space" `Quick collective_new_space;
        ] );
      ( "change_protocol",
        [
          Alcotest.test_case "flush semantics" `Quick change_protocol_flushes;
          Alcotest.test_case "round trip coherent" `Quick
            change_protocol_and_back_stays_coherent;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "global_id" `Quick global_id_naming;
          Alcotest.test_case "map hit/miss" `Quick map_costs_hit_vs_miss;
          Alcotest.test_case "null cheaper" `Quick null_protocol_cheaper_than_sc;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "Ace read hit" `Quick ace_read_hit_allocation;
          Alcotest.test_case "CRL read hit" `Quick crl_read_hit_allocation;
        ] );
    ]
