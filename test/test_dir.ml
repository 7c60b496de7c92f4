(* Compact sharer-set (Dir) tests: differential QCheck properties against
   the old bool-array representation, a visit-order regression pinning the
   iteration order the simulator's schedules depend on, and the directory
   memory sublinearity assertion behind the scaling experiment. *)

module Dir = Ace_region.Dir
module Store = Ace_region.Store

(* ---- reference model: the representation Dir replaced ---- *)

type reference = { rnprocs : int; flags : bool array }

let ref_create nprocs = { rnprocs = nprocs; flags = Array.make nprocs false }
let ref_add r n = r.flags.(n) <- true
let ref_remove r n = r.flags.(n) <- false
let ref_mem r n = r.flags.(n)
let ref_clear r = Array.fill r.flags 0 r.rnprocs false
let ref_count r = Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.flags

let ref_iter r ~except f =
  for n = 0 to r.rnprocs - 1 do
    if r.flags.(n) && n <> except then f n
  done

let collect iter =
  let acc = ref [] in
  iter (fun n -> acc := n :: !acc);
  List.rev !acc

(* ---- differential property ---- *)

type op = Add of int | Remove of int | Clear | Iter of int

(* Node ids are drawn from a small window scaled to nprocs so sequences
   regularly revisit the same ids (exercising no-op adds and removes) yet
   still cross the small->bitset boundary when the window exceeds the
   inline capacity. *)
let op_gen nprocs =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> Add (n mod nprocs)) (int_bound (nprocs - 1)));
        (3, map (fun n -> Remove (n mod nprocs)) (int_bound (nprocs - 1)));
        (1, return Clear);
        (2, map (fun n -> Iter (n mod nprocs)) (int_bound (nprocs - 1)));
      ])

let ops_arb =
  let gen =
    QCheck.Gen.(
      int_range 2 200 >>= fun nprocs ->
      list_size (int_bound 60) (op_gen nprocs) >|= fun ops -> (nprocs, ops))
  in
  let print (nprocs, ops) =
    Printf.sprintf "nprocs=%d [%s]" nprocs
      (String.concat "; "
         (List.map
            (function
              | Add n -> Printf.sprintf "add %d" n
              | Remove n -> Printf.sprintf "remove %d" n
              | Clear -> "clear"
              | Iter e -> Printf.sprintf "iter ~except:%d" e)
            ops))
  in
  QCheck.make ~print gen

let dir_matches_bool_array =
  QCheck.Test.make ~name:"Dir = bool array under random op sequences"
    ~count:500 ops_arb (fun (nprocs, ops) ->
      let d = Dir.create ~nprocs and r = ref_create nprocs in
      List.iter
        (fun op ->
          (match op with
          | Add n ->
              Dir.add d n;
              ref_add r n
          | Remove n ->
              Dir.remove d n;
              ref_remove r n
          | Clear ->
              Dir.clear d;
              ref_clear r
          | Iter except ->
              let got = collect (fun f -> Dir.iter d ~except f) in
              let want = collect (fun f -> ref_iter r ~except f) in
              if got <> want then QCheck.Test.fail_report "iter order differs";
              if Dir.to_list d ~except <> want then
                QCheck.Test.fail_report "to_list differs");
          if Dir.count d <> ref_count r then
            QCheck.Test.fail_report "count differs";
          for n = 0 to nprocs - 1 do
            if Dir.mem d n <> ref_mem r n then
              QCheck.Test.fail_report "mem differs"
          done)
        ops;
      true)

(* The invalidation walk removes already-visited nodes from inside the
   callback; the remaining visit sequence must be unaffected, in both
   representation modes. *)
let iter_robust_to_self_removal =
  QCheck.Test.make ~name:"iter tolerates callback removing visited nodes"
    ~count:300
    QCheck.(pair (int_range 2 200) (list_of_size (Gen.int_bound 30) small_nat))
    (fun (nprocs, nodes) ->
      let d = Dir.create ~nprocs and r = ref_create nprocs in
      List.iter
        (fun n ->
          let n = n mod nprocs in
          Dir.add d n;
          ref_add r n)
        nodes;
      let want = collect (fun f -> ref_iter r ~except:(-1) f) in
      let got = ref [] in
      Dir.iter d ~except:(-1) (fun n ->
          got := n :: !got;
          Dir.remove d n);
      List.rev !got = want && Dir.count d = 0)

(* ---- visit-order regression at the paper's machine size ---- *)

(* Pin the exact ascending order for a mixed population at nprocs=32, in
   small mode, across the overflow, and via Store.iter_sharers — the order
   every simulated invalidation/update fan-out follows. *)
let visit_order_nprocs32 () =
  let d = Dir.create ~nprocs:32 in
  List.iter (Dir.add d) [ 17; 3; 29; 3; 0; 11 ];
  Alcotest.(check (list int))
    "small mode ascending" [ 0; 3; 11; 17; 29 ]
    (collect (fun f -> Dir.iter d ~except:(-1) f));
  Alcotest.(check (list int))
    "except skips without reordering" [ 0; 3; 17; 29 ]
    (collect (fun f -> Dir.iter d ~except:11 f));
  List.iter (Dir.add d) [ 31; 5; 23 ];
  (* 8 ids > small_cap: now in bitset mode *)
  Alcotest.(check bool) "overflowed" false (Dir.is_small d);
  Alcotest.(check (list int))
    "bitset mode ascending" [ 0; 3; 5; 11; 17; 23; 29; 31 ]
    (collect (fun f -> Dir.iter d ~except:(-1) f));
  let store = Store.create ~nprocs:32 () in
  let meta = Store.alloc store ~home:7 ~len:4 ~space:0 in
  List.iter (Dir.add meta.Store.dir.Store.sharers) [ 19; 2; 30 ];
  Alcotest.(check (list int))
    "iter_sharers ascending, home included" [ 2; 7; 19; 30 ]
    (collect (fun f -> Store.iter_sharers meta ~except:(-1) f));
  Alcotest.(check (list int))
    "iter_sharers ~except" [ 2; 19; 30 ]
    (collect (fun f -> Store.iter_sharers meta ~except:7 f))

(* [Store.sharers] builds its result list and nothing else: 3 words (one
   cons cell) per sharer, in the inline mode and the bitset mode alike.
   Averaged over many calls so the two reads of the counter vanish. *)
let sharers_allocation () =
  let store = Store.create ~nprocs:200 () in
  let meta = Store.alloc store ~home:7 ~len:4 ~space:0 in
  let words ~except =
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Store.sharers meta ~except))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let expect label want =
    let got = Store.sharers meta ~except:7 in
    Alcotest.(check (list int)) (label ^ " ascending") want got;
    let per = words ~except:7 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f words for %d sharers" label per
         (List.length want))
      true
      (Float.abs (per -. float_of_int (3 * List.length want)) < 0.01)
  in
  List.iter (Dir.add meta.Store.dir.Store.sharers) [ 19; 2; 30 ];
  expect "inline" [ 2; 19; 30 ];
  List.iter (Dir.add meta.Store.dir.Store.sharers) [ 199; 64; 61; 0; 125 ];
  Alcotest.(check bool) "overflowed" false
    (Dir.is_small meta.Store.dir.Store.sharers);
  expect "bitset" [ 0; 2; 19; 30; 61; 64; 125; 199 ]

(* ---- directory memory sublinearity ---- *)

(* A sparsely-shared population (every region mapped everywhere, cached by
   a handful of nodes — the EM3D shape) must cost per-region directory
   memory far below one word per node, and growing far slower than the
   machine: the whole point of the compact representation. *)
let sublinear_directory_memory () =
  let words_per_region nprocs =
    let store = Store.create ~nprocs () in
    let regions = 64 in
    for i = 0 to regions - 1 do
      let meta = Store.alloc store ~home:(i mod nprocs) ~len:8 ~space:0 in
      (* every node maps it... *)
      for node = 0 to nprocs - 1 do
        ignore (Store.map_note meta ~node)
      done;
      (* ...but only three neighbours ever cache or share it *)
      for k = 1 to 3 do
        let node = (meta.Store.home + k) mod nprocs in
        ignore (Store.ensure_copy_c meta ~node);
        Dir.add meta.Store.dir.Store.sharers node
      done
    done;
    float_of_int (Store.dir_words store) /. float_of_int regions
  in
  let w32 = words_per_region 32 and w1024 = words_per_region 1024 in
  (* At 1024 nodes the old bool array + eager copy records cost >= 2048
     words per region; the compact form must stay two orders below. *)
  Alcotest.(check bool)
    (Printf.sprintf "1024-node sparsely-shared region is compact (%.1f words)"
       w1024)
    true (w1024 < 64.);
  (* 32x the machine must cost well under 2x the directory memory. *)
  Alcotest.(check bool)
    (Printf.sprintf "sublinear growth 32->1024 (%.1f -> %.1f words/region)" w32
       w1024)
    true (w1024 < 2. *. w32)

let () =
  Alcotest.run "dir"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest dir_matches_bool_array;
          QCheck_alcotest.to_alcotest iter_robust_to_self_removal;
        ] );
      ( "regression",
        [
          Alcotest.test_case "visit order @32" `Quick visit_order_nprocs32;
          Alcotest.test_case "sharers allocation" `Quick sharers_allocation;
        ] );
      ( "memory",
        [
          Alcotest.test_case "sublinear directory memory" `Quick
            sublinear_directory_memory;
        ] );
    ]
