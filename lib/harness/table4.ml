(* Table 4: compiler-generated code at each optimization level vs code
   written by hand for the runtime system. The compiled versions run the
   MiniAce kernels through the Ace compiler pipeline at O0..O3; the hand
   versions are the same computations written directly against the runtime
   the way an experienced programmer would (pre-mapped handles, one access
   section per loop nest, no dispatch where the protocol is known). *)

module Ops = Ace_runtime.Ops
module Runtime = Ace_runtime.Runtime
module Machine = Ace_engine.Machine
module Pool = Ace_engine.Pool

let fresh_runtime ~nprocs =
  let rt = Runtime.create ~nprocs () in
  Ace_protocols.Proto_lib.register_all rt;
  rt

(* ---- compiled versions ---- *)

let run_compiled ?trace ~nprocs ~level source =
  let rt = fresh_runtime ~nprocs in
  Driver.traced ?trace (Runtime.machine rt) ~nprocs (fun () ->
      let registry = Ace_lang.Registry.of_runtime rt in
      let ir, _diag = Ace_lang.Compile.compile ~registry ~level source in
      let result = Ace_lang.Interp.run_spmd rt ir in
      (Runtime.time_seconds rt, result))

(* ---- hand-written runtime versions of the same kernels ---- *)

(* Shared rid exchange in the hand versions uses the same collective the
   applications use. *)

let hand_em3d (ctx : Ops.ctx) =
  let k = 8 and d = 4 and steps = 8 in
  let me = Ops.me ctx and nprocs = Ops.nprocs ctx in
  let alloc space i v =
    let h = Ops.alloc ctx ~space ~len:1 in
    Ops.start_write ctx h;
    (Ops.data ctx h).(0) <- v;
    Ops.end_write ctx h;
    ignore i;
    h
  in
  let e = Array.init k (fun i -> alloc 0 i (float_of_int ((me * 100) + i))) in
  let h = Array.init k (fun i -> alloc 1 i (float_of_int ((me * 100) + i) +. 0.5)) in
  Ops.barrier ctx ~space:0;
  Ops.change_protocol ctx ~space:0 "STATIC_UPDATE";
  Ops.change_protocol ctx ~space:1 "STATIC_UPDATE";
  let nb = (me + 1) mod nprocs in
  (* pre-mapped neighbour handles: the hand optimization the compiler
     misses (§5.3's extra ACE_MAP discussion) *)
  let enbr =
    Array.init (k * d) (fun idx ->
        let i = idx / d and dd = idx mod d in
        if dd < d - 1 then h.((i + dd) mod k)
        else Ops.map ctx (Ops.global_id ctx ~space:1 ~owner:nb ~seq:i))
  in
  let hnbr =
    Array.init (k * d) (fun idx ->
        let i = idx / d and dd = idx mod d in
        if dd < d - 1 then e.((i + dd) mod k)
        else Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:nb ~seq:i))
  in
  Ops.barrier ctx ~space:0;
  let compute own nbr space =
    for i = 0 to k - 1 do
      Ops.start_read ctx own.(i);
      let acc = ref (Ops.data ctx own.(i)).(0) in
      Ops.end_read ctx own.(i);
      for dd = 0 to d - 1 do
        let hh = nbr.((i * d) + dd) in
        Ops.start_read ctx hh;
        acc := !acc -. (0.05 *. (Ops.data ctx hh).(0));
        Ops.end_read ctx hh;
        Ops.work ctx 24.
      done;
      Ops.start_write ctx own.(i);
      (Ops.data ctx own.(i)).(0) <- !acc;
      Ops.end_write ctx own.(i)
    done;
    Ops.barrier ctx ~space
  in
  for _ = 1 to steps do
    compute e enbr 0;
    compute h hnbr 1
  done;
  Ops.start_read ctx e.(0);
  let r = (Ops.data ctx e.(0)).(0) in
  Ops.end_read ctx e.(0);
  r

let hand_bsc (ctx : Ops.ctx) =
  let nb = 8 and b = 6 in
  let me = Ops.me ctx and nprocs = Ops.nprocs ctx in
  for kk = 0 to nb - 1 do
    if kk mod nprocs = me then begin
      let init f =
        let h = Ops.alloc ctx ~space:0 ~len:(b * b) in
        Ops.start_write ctx h;
        let d = Ops.data ctx h in
        for i = 0 to b - 1 do
          for j = 0 to b - 1 do
            d.((i * b) + j) <- f i j
          done
        done;
        Ops.end_write ctx h;
        h
      in
      ignore
        (init (fun i j ->
             if i = j then 10. +. float_of_int kk
             else 0.5 /. float_of_int (1 + i + j)));
      ignore (init (fun i j -> 0.3 /. float_of_int (1 + i + j + kk)))
    end
  done;
  Ops.barrier ctx ~space:0;
  let handle_of kk which =
    let owner = kk mod nprocs in
    let t = (kk - owner) / nprocs in
    Ops.map ctx (Ops.global_id ctx ~space:0 ~owner ~seq:((2 * t) + which))
  in
  let diag = Array.init nb (fun kk -> Some (handle_of kk 0)) in
  let sub = Array.init nb (fun kk -> Some (handle_of kk 1)) in
  let get a kk = match a.(kk) with Some h -> h | None -> assert false in
  Ops.barrier ctx ~space:0;
  Ops.change_protocol ctx ~space:0 "WRITE_ONCE";
  for kk = 0 to nb - 1 do
    if kk mod nprocs = me then begin
      let hd = get diag kk in
      Ops.start_write ctx hd;
      let dg = Ops.data ctx hd in
      for j = 0 to b - 1 do
        let dd = ref dg.((j * b) + j) in
        for s = 0 to j - 1 do
          dd := !dd -. (dg.((j * b) + s) *. dg.((j * b) + s));
          Ops.work ctx 24.
        done;
        let dj = sqrt !dd in
        Ops.work ctx 30.;
        dg.((j * b) + j) <- dj;
        for i = j + 1 to b - 1 do
          let v = ref dg.((i * b) + j) in
          for s = 0 to j - 1 do
            v := !v -. (dg.((i * b) + s) *. dg.((j * b) + s));
            Ops.work ctx 24.
          done;
          dg.((i * b) + j) <- !v /. dj
        done;
        for i = 0 to j - 1 do
          dg.((i * b) + j) <- 0.
        done
      done;
      Ops.end_write ctx hd;
      if kk + 1 < nb then begin
        let hs = get sub kk in
        Ops.start_read ctx hd;
        Ops.start_write ctx hs;
        let sb = Ops.data ctx hs in
        for x = 0 to b - 1 do
          for j = 0 to b - 1 do
            let v = ref sb.((x * b) + j) in
            for s = 0 to j - 1 do
              v := !v -. (sb.((x * b) + s) *. dg.((j * b) + s));
              Ops.work ctx 24.
            done;
            sb.((x * b) + j) <- !v /. dg.((j * b) + j)
          done
        done;
        Ops.end_write ctx hs;
        Ops.end_read ctx hd
      end
    end;
    Ops.barrier ctx ~space:0;
    if kk + 1 < nb && (kk + 1) mod nprocs = me then begin
      let hs = get sub kk and hd = get diag (kk + 1) in
      Ops.start_read ctx hs;
      Ops.start_write ctx hd;
      let sb = Ops.data ctx hs and dg = Ops.data ctx hd in
      for i = 0 to b - 1 do
        for j = 0 to b - 1 do
          let acc = ref 0. in
          for s = 0 to b - 1 do
            acc := !acc +. (sb.((i * b) + s) *. sb.((j * b) + s));
            Ops.work ctx 24.
          done;
          dg.((i * b) + j) <- dg.((i * b) + j) -. !acc
        done
      done;
      Ops.end_write ctx hd;
      Ops.end_read ctx hs
    end;
    Ops.barrier ctx ~space:0
  done;
  let hd = get diag (nb - 1) in
  Ops.start_read ctx hd;
  let r = (Ops.data ctx hd).(0) in
  Ops.end_read ctx hd;
  r

let hand_tsp (ctx : Ops.ctx) =
  let me = Ops.me ctx in
  if me = 0 then begin
    let counter = Ops.alloc ctx ~space:0 ~len:1 in
    let best = Ops.alloc ctx ~space:1 ~len:1 in
    ignore counter;
    Ops.start_write ctx best;
    (Ops.data ctx best).(0) <- 1000000.;
    Ops.end_write ctx best
  end;
  Ops.barrier ctx ~space:0;
  let counter = Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:0 ~seq:0) in
  let best = Ops.map ctx (Ops.global_id ctx ~space:1 ~owner:0 ~seq:0) in
  Ops.barrier ctx ~space:0;
  Ops.change_protocol ctx ~space:0 "COUNTER";
  let njobs = 160 in
  let rec loop () =
    (* hand version: bare fetch-and-add, no lock (the programmer knows the
       counter protocol's RMW is already atomic) *)
    Ops.start_write ctx counter;
    let j = int_of_float (Ops.data ctx counter).(0) in
    (Ops.data ctx counter).(0) <- float_of_int (j + 1);
    Ops.end_write ctx counter;
    if j < njobs then begin
      Ops.start_read ctx best;
      let bound = (Ops.data ctx best).(0) in
      Ops.end_read ctx best;
      Ops.work ctx (4000. +. (float_of_int (j * 37 mod 29) *. 400.));
      let result = float_of_int (900000 - (j * 13)) in
      if result < bound then begin
        Ops.lock ctx best;
        Ops.start_write ctx best;
        if result < (Ops.data ctx best).(0) then
          (Ops.data ctx best).(0) <- result;
        Ops.end_write ctx best;
        Ops.unlock ctx best
      end;
      loop ()
    end
  in
  loop ();
  Ops.barrier ctx ~space:1;
  Ops.start_read ctx best;
  let r = (Ops.data ctx best).(0) in
  Ops.end_read ctx best;
  r

let hand_water (ctx : Ops.ctx) =
  let k = 4 and sw = 30 and steps = 4 in
  let me = Ops.me ctx and nprocs = Ops.nprocs ctx in
  let mols =
    Array.init k (fun i ->
        let h = Ops.alloc ctx ~space:0 ~len:4 in
        Ops.start_write ctx h;
        (Ops.data ctx h).(0) <- float_of_int me +. (float_of_int i *. 0.1) +. 1.;
        (Ops.data ctx h).(1) <- 0.;
        Ops.end_write ctx h;
        h)
  in
  Ops.barrier ctx ~space:0;
  let p = (me + 1) mod nprocs in
  let others =
    Array.init k (fun i ->
        Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:p ~seq:i))
  in
  for _ = 1 to steps do
    Ops.change_protocol ctx ~space:0 "NULL";
    for i = 0 to k - 1 do
      (* hand version: one access section around the whole sweep loop *)
      Ops.start_write ctx mols.(i);
      let d = Ops.data ctx mols.(i) in
      for _ = 1 to sw do
        d.(0) <- d.(0) -. (0.01 *. d.(0));
        Ops.work ctx 30.
      done;
      Ops.end_write ctx mols.(i)
    done;
    Ops.change_protocol ctx ~space:0 "PIPELINE";
    for i = 0 to k - 1 do
      let other = others.(i) in
      Ops.lock ctx other;
      Ops.start_write ctx other;
      let d = Ops.data ctx other in
      d.(1) <- d.(1) +. 0.5;
      Ops.end_write ctx other;
      Ops.unlock ctx other;
      Ops.work ctx 40.
    done;
    Ops.barrier ctx ~space:0
  done;
  Ops.change_protocol ctx ~space:0 "SC";
  Ops.barrier ctx ~space:0;
  Ops.start_read ctx mols.(0);
  let d = Ops.data ctx mols.(0) in
  let r = d.(0) +. d.(1) in
  Ops.end_read ctx mols.(0);
  r

let hand_bh (ctx : Ops.ctx) =
  let k = 4 and steps = 4 in
  let me = Ops.me ctx and nprocs = Ops.nprocs ctx in
  let n = nprocs * k in
  let mine =
    Array.init k (fun i ->
        let h = Ops.alloc ctx ~space:0 ~len:2 in
        Ops.start_write ctx h;
        (Ops.data ctx h).(0) <- float_of_int ((me * 10) + i);
        (Ops.data ctx h).(1) <- 1.;
        Ops.end_write ctx h;
        h)
  in
  Ops.barrier ctx ~space:0;
  let all =
    Array.init n (fun idx ->
        Ops.map ctx (Ops.global_id ctx ~space:0 ~owner:(idx / k) ~seq:(idx mod k)))
  in
  Ops.change_protocol ctx ~space:0 "DYN_UPDATE";
  Ops.barrier ctx ~space:0;
  for _ = 1 to steps do
    for i = 0 to k - 1 do
      Ops.start_read ctx mine.(i);
      let x = (Ops.data ctx mine.(i)).(0) in
      Ops.end_read ctx mine.(i);
      let fsum = ref 0. in
      for jj = 0 to n - 1 do
        let h = all.(jj) in
        Ops.start_read ctx h;
        fsum := !fsum +. (((Ops.data ctx h).(0) -. x) *. (Ops.data ctx h).(1) *. 0.001);
        Ops.end_read ctx h;
        Ops.work ctx 70.
      done;
      Ops.start_write ctx mine.(i);
      (Ops.data ctx mine.(i)).(0) <- x +. (!fsum *. 0.01);
      Ops.end_write ctx mine.(i)
    done;
    Ops.barrier ctx ~space:0
  done;
  Ops.start_read ctx mine.(0);
  let r = (Ops.data ctx mine.(0)).(0) in
  Ops.end_read ctx mine.(0);
  r

let hands =
  [
    ("Barnes-Hut", (hand_bh, 1));
    ("BSC", (hand_bsc, 1));
    ("EM3D", (hand_em3d, 2));
    ("TSP", (hand_tsp, 2));
    ("WATER", (hand_water, 1));
  ]

let run_hand ?trace ~nprocs name =
  let hand, n_spaces = List.assoc name hands in
  let rt = fresh_runtime ~nprocs in
  for _ = 1 to n_spaces do
    ignore (Runtime.new_space rt "SC")
  done;
  Driver.traced ?trace (Runtime.machine rt) ~nprocs (fun () ->
      let result = ref nan in
      Runtime.run rt (fun ctx ->
          let r = hand ctx in
          if Ops.me ctx = 0 then result := r);
      (Runtime.time_seconds rt, !result))

type row = {
  name : string;
  base : float;
  li : float;
  li_mc : float;
  li_mc_dc : float;
  hand : float;
  results : float list; (* computed answers at O0..O3 and by hand *)
  wall : float; (* host seconds spent simulating this row *)
}

(* Each (benchmark x variant) cell — four optimization levels plus the hand
   version — is an independent simulation, so the whole table fans out
   through the domain pool; reassembly is positional and the simulated
   times are identical to a serial run. *)
let variants = 5

let table4 ?(nprocs = 32) ?jobs ?trace_dir () =
  let benchmarks = Array.of_list Ace_lang.Kernels.all in
  let cell i =
    let name, source = benchmarks.(i / variants) in
    let variant = [| "o0"; "o1"; "o2"; "o3"; "hand" |].(i mod variants) in
    let trace =
      Driver.trace_path trace_dir ~fig:"table4" ~row:name ~side:variant
    in
    match i mod variants with
    | 4 -> fun () -> run_hand ?trace ~nprocs name
    | v ->
        let level =
          match v with
          | 0 -> Ace_lang.Opt.O0
          | 1 -> Ace_lang.Opt.O1
          | 2 -> Ace_lang.Opt.O2
          | _ -> Ace_lang.Opt.O3
        in
        fun () -> run_compiled ?trace ~nprocs ~level source
  in
  let cells =
    Array.init (variants * Array.length benchmarks) (fun i -> Driver.timed (cell i))
  in
  let out = Pool.run_all ?jobs cells in
  Array.to_list
    (Array.mapi
       (fun b (name, _) ->
         let at v = out.((b * variants) + v) in
         let (base_t, base_r), w0 = at 0 in
         let (li_t, li_r), w1 = at 1 in
         let (mc_t, mc_r), w2 = at 2 in
         let (dc_t, dc_r), w3 = at 3 in
         let (hand_t, hand_r), w4 = at 4 in
         {
           name;
           base = base_t;
           li = li_t;
           li_mc = mc_t;
           li_mc_dc = dc_t;
           hand = hand_t;
           results = [ base_r; li_r; mc_r; dc_r; hand_r ];
           wall = w0 +. w1 +. w2 +. w3 +. w4;
         })
       benchmarks)

let print_rows rows =
  Printf.printf "%-24s %10s %10s %10s %10s %10s  %s\n" "Optimization"
    "Barnes-Hut" "BSC" "EM3D" "TSP" "WATER" "";
  let line name f =
    Printf.printf "%-24s" name;
    List.iter (fun r -> Printf.printf " %10.4f" (f r)) rows;
    Printf.printf "\n"
  in
  line "Base case" (fun r -> r.base);
  line "Loop Invariance (LI)" (fun r -> r.li);
  line "LI + Merging Calls (MC)" (fun r -> r.li_mc);
  line "LI + MC + Direct Calls" (fun r -> r.li_mc_dc);
  line "Hand-optimized" (fun r -> r.hand);
  Printf.printf "%-24s" "compiled/hand ratio";
  List.iter (fun r -> Printf.printf " %9.2fx" (r.li_mc_dc /. r.hand)) rows;
  Printf.printf "\n"

(* Every variant computed the base case's answer (to 1e-6 relative). *)
let agree = function
  | [] -> false
  | base :: rest ->
      List.for_all
        (fun r -> abs_float (base -. r) <= 1e-6 *. (1. +. abs_float base))
        rest
