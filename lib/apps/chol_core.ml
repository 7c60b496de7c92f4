(* Blocked sparse Cholesky kernels (Rothberg's BSC in the paper; the Tk15.O
   input is proprietary-era Harwell-Boeing data, replaced per DESIGN.md by a
   deterministic banded sparse SPD generator with the same block structure).

   Blocks are dense [b x b] row-major float arrays; block (i, j) of the
   lower triangle exists iff i - j <= band. *)

module Rng = Ace_engine.Det_rng

type config = { nb : int; b : int; band : int; seed : int }

let block_exists cfg ~i ~j = i >= j && i - j <= cfg.band

(* Deterministic banded SPD matrix, as dense blocks of the lower triangle
   (keyed (i, j), i >= j). Diagonal dominance makes it SPD. *)
let generate cfg =
  let n = cfg.nb * cfg.b in
  let rng = Rng.create cfg.seed in
  let full = Array.make_matrix n n 0. in
  for r = 0 to n - 1 do
    for c = 0 to r do
      if (r / cfg.b) - (c / cfg.b) <= cfg.band then begin
        let v = Rng.float rng -. 0.5 in
        full.(r).(c) <- v;
        full.(c).(r) <- v
      end
    done
  done;
  for r = 0 to n - 1 do
    let s = ref 0. in
    for c = 0 to n - 1 do
      s := !s +. abs_float full.(r).(c)
    done;
    full.(r).(r) <- !s +. 1.
  done;
  let blocks = Hashtbl.create 64 in
  for i = 0 to cfg.nb - 1 do
    for j = 0 to i do
      if block_exists cfg ~i ~j then begin
        let blk = Array.make (cfg.b * cfg.b) 0. in
        for r = 0 to cfg.b - 1 do
          for c = 0 to cfg.b - 1 do
            blk.((r * cfg.b) + c) <- full.((i * cfg.b) + r).((j * cfg.b) + c)
          done
        done;
        Hashtbl.add blocks (i, j) blk
      end
    done
  done;
  blocks

(* The input as the SPMD program sees it: [generate cfg], built once per
   domain and shared by every simulated processor, which only reads it.
   [reference] and [residual] factor or compare against a copy of their
   own, so they keep calling [generate]. *)
let input_memo = Input_memo.create ()

let input cfg = Input_memo.get input_memo cfg generate

(* In-place Cholesky of a diagonal block: A := L with L lower triangular,
   L L^T = A. Upper strictly-triangular entries are zeroed. *)
let potrf ~b a =
  for j = 0 to b - 1 do
    let d = ref a.((j * b) + j) in
    for k = 0 to j - 1 do
      d := !d -. (a.((j * b) + k) *. a.((j * b) + k))
    done;
    if !d <= 0. then failwith "potrf: not positive definite";
    let ljj = sqrt !d in
    a.((j * b) + j) <- ljj;
    for i = j + 1 to b - 1 do
      let s = ref a.((i * b) + j) in
      for k = 0 to j - 1 do
        s := !s -. (a.((i * b) + k) *. a.((j * b) + k))
      done;
      a.((i * b) + j) <- !s /. ljj
    done;
    for i = 0 to j - 1 do
      a.((i * b) + j) <- 0.
    done
  done

(* Triangular solve: A := A * L^{-T} for a subdiagonal block (L is the
   factored diagonal block). *)
let trsm ~b l a =
  for r = 0 to b - 1 do
    for j = 0 to b - 1 do
      let s = ref a.((r * b) + j) in
      for k = 0 to j - 1 do
        s := !s -. (a.((r * b) + k) *. l.((j * b) + k))
      done;
      a.((r * b) + j) <- !s /. l.((j * b) + j)
    done
  done

(* Update: C := C - A * B^T. *)
let gemm_nt ~b c a bt =
  for r = 0 to b - 1 do
    for j = 0 to b - 1 do
      let s = ref 0. in
      for k = 0 to b - 1 do
        s := !s +. (a.((r * b) + k) *. bt.((j * b) + k))
      done;
      c.((r * b) + j) <- c.((r * b) + j) -. !s
    done
  done

(* Simulated cycle costs at ~4 cycles per floating-point op (33 MHz SPARC,
   no fused ops). *)
let flops_per_cycle = 0.25
let potrf_cycles b = float_of_int (b * b * b) /. 3. /. flops_per_cycle
let trsm_cycles b = float_of_int (b * b * b) /. 1. /. flops_per_cycle /. 2.
let gemm_cycles b = float_of_int (2 * b * b * b) /. flops_per_cycle

(* Sequential blocked right-looking Cholesky over the block table. *)
let reference cfg =
  let blocks = generate cfg in
  let get i j = Hashtbl.find_opt blocks (i, j) in
  for k = 0 to cfg.nb - 1 do
    let akk = match get k k with Some blk -> blk | None -> assert false in
    potrf ~b:cfg.b akk;
    for i = k + 1 to cfg.nb - 1 do
      match get i k with Some aik -> trsm ~b:cfg.b akk aik | None -> ()
    done;
    for j = k + 1 to cfg.nb - 1 do
      match get j k with
      | None -> ()
      | Some ajk ->
          for i = j to cfg.nb - 1 do
            match (get i k, get i j) with
            | Some aik, Some aij -> gemm_nt ~b:cfg.b aij aik ajk
            | _ -> ()
          done
    done
  done;
  blocks

let checksum blocks =
  Hashtbl.fold
    (fun _ blk acc -> acc +. Array.fold_left (fun a v -> a +. abs_float v) 0. blk)
    blocks 0.

(* Verify L L^T = A on the band (used by tests). *)
let residual cfg ~l =
  let a = generate cfg in
  let n = cfg.nb * cfg.b in
  let getl r c =
    if c > r then 0.
    else
      let i = r / cfg.b and j = c / cfg.b in
      match Hashtbl.find_opt l (i, j) with
      | Some blk -> blk.(((r mod cfg.b) * cfg.b) + (c mod cfg.b))
      | None -> 0.
  in
  let geta r c =
    (* lower-triangle lookup: r >= c here *)
    match Hashtbl.find_opt a (r / cfg.b, c / cfg.b) with
    | Some blk -> blk.(((r mod cfg.b) * cfg.b) + (c mod cfg.b))
    | None -> 0.
  in
  let max_err = ref 0. in
  for r = 0 to n - 1 do
    for c = 0 to r do
      let s = ref 0. in
      for k = 0 to c do
        s := !s +. (getl r k *. getl c k)
      done;
      let expected =
        if (r / cfg.b) - (c / cfg.b) <= cfg.band then geta r c else 0.
      in
      let e = abs_float (!s -. expected) in
      if e > !max_err then max_err := e
    done
  done;
  !max_err
