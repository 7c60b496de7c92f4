(* Execute annotated IR on the Ace runtime inside the simulated machine.

   Every simulated processor runs the program's [main] as its SPMD body.
   Instruction costs model compiled SPARC code: a couple of cycles per
   operator/assignment, function-call overhead, and the runtime's own
   charges for maps and protocol calls. Direct-dispatch calls skip the
   space-indirection cost; removed calls cost nothing at all (the interp
   still performs the zero-cost access bookkeeping the real compiled null
   call would not need, because the simulator uses it to serialize
   coherence actions).

   [run_spmd] first compiles each function into OCaml closures, once per
   run and on its first call: every variable becomes an index into the
   call's [value array], every operator and annotation decision is taken
   at compile time, and a call site binds its callee on first execution
   (so recursion works). The closures perform every charge, runtime call
   and subexpression evaluation in the order a direct walk of the IR tree
   would, so simulated time is exactly that of the IR's semantics; each
   [let] below that sequences two evaluations is load-bearing. *)

module Ops = Ace_runtime.Ops
module Protocol = Ace_runtime.Protocol
module Store = Ace_region.Store
module Blocks = Ace_region.Blocks
module Machine = Ace_engine.Machine

exception Runtime_error of string

type value =
  | Unbound (* a variable not yet assigned in this call *)
  | VNum of float
  | VMapped of Store.meta
  | VReg of int (* region id *)
  | VRegArr of int array
  | VNumArr of float array
  | VSpace of int

exception Return_exc of value option

type frame = { ctx : Ops.ctx; vars : value array }

(* Instruction cost model. Arithmetic is charged through the kernels'
   explicit work() calls (the same flops the hand-written versions charge),
   so compiled-vs-hand differences isolate annotation overhead, as in the
   paper's §5.3; the small per-op charge models residual compiled-code
   slop (temporaries, no register allocation). *)
let op_cycles = 0.5
let call_overhead = 12.
let access_cycles = 1.

(* Every instruction charge is deferred ([Machine.defer]): a run of
   charges parks once, at the next runtime call that settles (every [Ops]
   entry point the interpreter calls, and a removed call's bookkeeping), with
   the same events at the same times as charging each at once. *)
let charge fr c = Machine.defer fr.ctx.Protocol.proc c
let settle fr = Machine.settle fr.ctx.Protocol.proc
let fail msg = raise (Runtime_error msg)

(* ---- variables ---- *)

(* Compile-time map from one function's variable names to frame slots. *)
type scope = { slots : (string, int) Hashtbl.t; mutable nslots : int }

let slot sc x =
  match Hashtbl.find_opt sc.slots x with
  | Some i -> i
  | None ->
      let i = sc.nslots in
      Hashtbl.add sc.slots x i;
      sc.nslots <- i + 1;
      i

let lookup fr x i =
  match Array.unsafe_get fr.vars i with
  | Unbound -> fail ("unbound variable " ^ x)
  | v -> v

let set fr i v = Array.unsafe_set fr.vars i v

let num_var fr x i =
  match Array.unsafe_get fr.vars i with
  | VNum v -> v
  | Unbound -> fail ("unbound variable " ^ x)
  | _ -> fail "expected a number"

let mapped fr t i =
  match lookup fr t i with
  | VMapped meta -> meta
  | _ -> fail (t ^ " is not a mapped handle")

let space_sid fr s i =
  match lookup fr s i with
  | VSpace sid -> sid
  | _ -> fail (s ^ " is not a space")

(* ---- expressions ---- *)

let bool v = if v then 1. else 0.

let rec cexpr sc (e : Ir.nexpr) : frame -> float =
  match e with
  | Ir.NNum v -> fun _ -> v
  | Ir.NVar x ->
      let i = slot sc x in
      fun fr -> num_var fr x i
  | Ir.NMe -> fun fr -> float_of_int (Ops.me fr.ctx)
  | Ir.NNprocs -> fun fr -> float_of_int (Ops.nprocs fr.ctx)
  | Ir.NSqrt e ->
      let e = cexpr sc e in
      fun fr ->
        charge fr 30. (* software-assisted sqrt on the 33 MHz SPARC *);
        sqrt (e fr)
  | Ir.NMod (a, b) ->
      let a = cexpr sc a and b = cexpr sc b in
      fun fr ->
        charge fr 8.;
        let b = b fr in
        if b = 0. then fail "mod by zero";
        float_of_int (int_of_float (a fr) mod int_of_float b)
  | Ir.NNot e ->
      let e = cexpr sc e in
      fun fr ->
        charge fr op_cycles;
        if e fr = 0. then 1. else 0.
  | Ir.NIdx (a, i) ->
      let ai = slot sc a and i = cexpr sc i in
      fun fr ->
        charge fr op_cycles;
        let idx = int_of_float (i fr) in
        (match lookup fr a ai with
        | VNumArr arr ->
            if idx < 0 || idx >= Array.length arr then
              fail ("index out of bounds on " ^ a);
            Array.unsafe_get arr idx
        | _ -> fail (a ^ " is not a local array"))
  | Ir.NBin (op, a, b) -> (
      let a = cexpr sc a and b = cexpr sc b in
      (* charge, then [a], then [b] *)
      let bin f fr =
        charge fr op_cycles;
        let x = a fr in
        f x (b fr)
      in
      let test p = bin (fun x y -> bool (p x y)) in
      match op with
      | Ast.Add -> bin ( +. )
      | Ast.Sub -> bin ( -. )
      | Ast.Mul -> bin ( *. )
      | Ast.Div -> bin ( /. )
      | Ast.Lt -> test (fun x y -> x < y)
      | Ast.Le -> test (fun x y -> x <= y)
      | Ast.Gt -> test (fun x y -> x > y)
      | Ast.Ge -> test (fun x y -> x >= y)
      | Ast.Eq -> test (fun x y -> x = y)
      | Ast.Ne -> test (fun x y -> x <> y)
      | Ast.And -> test (fun x y -> x <> 0. && y <> 0.)
      | Ast.Or -> test (fun x y -> x <> 0. || y <> 0.))

let crexpr sc (r : Ir.rexpr) : frame -> int =
  match r with
  | Ir.RVar x ->
      let i = slot sc x in
      fun fr ->
        (match lookup fr x i with
        | VReg rid -> rid
        | _ -> fail (x ^ " is not a region"))
  | Ir.RIdx (a, i) ->
      let ai = slot sc a and i = cexpr sc i in
      fun fr ->
        let idx = int_of_float (i fr) in
        (match lookup fr a ai with
        | VRegArr arr ->
            if idx < 0 || idx >= Array.length arr then
              fail ("region index out of bounds on " ^ a);
            let rid = arr.(idx) in
            if rid < 0 then fail (a ^ " element unset");
            rid
        | _ -> fail (a ^ " is not a region array"))

(* ---- protocol calls ---- *)

(* A protocol call on handle [t]: dynamic ([Ops]' dispatch), direct
   ([Ops]' direct variant) or removed. A removed call is gone from the
   compiled code: it charges nothing and shows in no trace, and [removed]
   only keeps the simulator's access bookkeeping consistent. *)
let protocol_call sc t (a : Ir.ann) ~dispatched ~direct ~removed =
  let ti = slot sc t in
  if a.Ir.removed then fun fr -> removed fr (mapped fr t ti)
  else
    let call = if a.Ir.direct then direct else dispatched in
    fun fr ->
      let meta = mapped fr t ti in
      charge fr call_overhead;
      call fr.ctx meta

let removed_start ~write fr meta =
  settle fr;
  Blocks.begin_access fr.ctx.Protocol.bctx meta ~write

let removed_end ~write fr meta =
  settle fr;
  Blocks.end_access fr.ctx.Protocol.bctx meta ~write

let removed_lock _ _ = ()

(* ---- statements and functions ---- *)

type cfunc = {
  params : int array; (* slot of each parameter, in order *)
  nslots : int;
  body : frame -> unit;
}

(* A compiled call: fresh frame, parameters bound in order (a repeated
   name keeps the last argument), [None] if the body falls off its end. *)
let invoke ctx fname c (argv : value array) =
  if Array.length c.params <> Array.length argv then
    fail ("arity mismatch calling " ^ fname);
  let fr = { ctx; vars = Array.make c.nslots Unbound } in
  Array.iteri (fun k v -> set fr c.params.(k) v) argv;
  match c.body fr with () -> None | exception Return_exc v -> v

(* [resolve name] is the compiled form of the program's first function
   called [name], or [None]; see [resolver]. *)
let rec cstmt resolve sc (s : Ir.istmt) : frame -> unit =
  let cexpr = cexpr sc and cstmt = cstmt resolve sc in
  match s with
  | Ir.IDeclArr (x, n) ->
      let xi = slot sc x and n = cexpr n in
      fun fr ->
        let n = int_of_float (n fr) in
        set fr xi (VNumArr (Array.make (max n 0) 0.))
  | Ir.IDeclRegArr (x, n) ->
      let xi = slot sc x and n = cexpr n in
      fun fr ->
        let n = int_of_float (n fr) in
        set fr xi (VRegArr (Array.make (max n 0) (-1)))
  | Ir.IAssign (x, e) ->
      let xi = slot sc x and e = cexpr e in
      fun fr ->
        charge fr op_cycles;
        set fr xi (VNum (e fr))
  | Ir.IStoreLocal (a, i, e) ->
      let ai = slot sc a and i = cexpr i and e = cexpr e in
      fun fr ->
        charge fr op_cycles;
        let idx = int_of_float (i fr) in
        let v = e fr in
        (match lookup fr a ai with
        | VNumArr arr ->
            if idx < 0 || idx >= Array.length arr then
              fail ("index out of bounds on " ^ a);
            Array.unsafe_set arr idx v
        | _ -> fail (a ^ " is not a local array"))
  | Ir.INewSpace (x, proto) ->
      let xi = slot sc x in
      fun fr -> set fr xi (VSpace (Ops.new_space fr.ctx proto))
  | Ir.IRegAssign (x, r) ->
      let xi = slot sc x and r = crexpr sc r in
      fun fr ->
        charge fr op_cycles;
        set fr xi (VReg (r fr))
  | Ir.IGmalloc (x, s, n) ->
      let xi = slot sc x and si = slot sc s and n = cexpr n in
      fun fr ->
        let sid = space_sid fr s si in
        let len = int_of_float (n fr) in
        let h = Ops.alloc fr.ctx ~space:sid ~len in
        set fr xi (VReg (Ops.rid h))
  | Ir.IGlobalId (x, s, owner, k) ->
      let xi = slot sc x and si = slot sc s in
      let owner = cexpr owner and k = cexpr k in
      fun fr ->
        let sid = space_sid fr s si in
        let owner = int_of_float (owner fr) in
        let seq = int_of_float (k fr) in
        set fr xi (VReg (Ops.global_id fr.ctx ~space:sid ~owner ~seq))
  | Ir.IStoreReg (a, i, r) ->
      let ai = slot sc a and i = cexpr i and r = crexpr sc r in
      fun fr ->
        charge fr op_cycles;
        let idx = int_of_float (i fr) in
        let rid = r fr in
        (match lookup fr a ai with
        | VRegArr arr ->
            if idx < 0 || idx >= Array.length arr then
              fail ("region index out of bounds on " ^ a);
            arr.(idx) <- rid
        | _ -> fail (a ^ " is not a region array"))
  | Ir.IMap (t, r) ->
      let ti = slot sc t and r = crexpr sc r in
      fun fr ->
        let rid = r fr in
        set fr ti (VMapped (Ops.map fr.ctx rid))
  | Ir.IStart (mode, t, a) ->
      let write = mode = Ir.Write in
      protocol_call sc t a
        ~dispatched:(if write then Ops.start_write else Ops.start_read)
        ~direct:(if write then Ops.direct_start_write else Ops.direct_start_read)
        ~removed:(removed_start ~write)
  | Ir.IEnd (mode, t, a) ->
      let write = mode = Ir.Write in
      protocol_call sc t a
        ~dispatched:(if write then Ops.end_write else Ops.end_read)
        ~direct:(if write then Ops.direct_end_write else Ops.direct_end_read)
        ~removed:(removed_end ~write)
  | Ir.ILoadShared (x, t, i) ->
      let xi = slot sc x and ti = slot sc t and i = cexpr i in
      fun fr ->
        charge fr access_cycles;
        let meta = mapped fr t ti in
        let idx = int_of_float (i fr) in
        (* [Ops.data] settles, so the index's charges too land before the
           load, as they would eagerly: the copy may change at any event
           in between *)
        let data = Ops.data fr.ctx meta in
        if idx < 0 || idx >= Array.length data then
          fail "shared index out of bounds";
        set fr xi (VNum (Array.unsafe_get data idx))
  | Ir.IStoreShared (t, i, e) ->
      let ti = slot sc t and i = cexpr i and e = cexpr e in
      fun fr ->
        charge fr access_cycles;
        let meta = mapped fr t ti in
        let idx = int_of_float (i fr) in
        let v = e fr in
        let data = Ops.data fr.ctx meta in
        if idx < 0 || idx >= Array.length data then
          fail "shared index out of bounds";
        Array.unsafe_set data idx v
  | Ir.ISeq l -> (
      match Array.of_list (List.map cstmt l) with
      | [| s |] -> s
      | ss ->
          fun fr ->
            for k = 0 to Array.length ss - 1 do
              (Array.unsafe_get ss k) fr
            done)
  | Ir.IIf (c, a, b) ->
      let c = cexpr c and a = cstmt a and b = cstmt b in
      fun fr ->
        charge fr op_cycles;
        if c fr <> 0. then a fr else b fr
  | Ir.IWhile (c, body) ->
      let c = cexpr c and body = cstmt body in
      fun fr ->
        while
          charge fr op_cycles;
          c fr <> 0.
        do
          body fr
        done
  | Ir.IFor (i, lo, hi, step, body) ->
      let ii = slot sc i in
      let lo = cexpr lo and hi = cexpr hi and step = cexpr step in
      let body = cstmt body in
      fun fr ->
        set fr ii (VNum (lo fr));
        while
          charge fr op_cycles;
          let v = num_var fr i ii in
          v < hi fr
        do
          body fr;
          let st = step fr in
          set fr ii (VNum (num_var fr i ii +. st))
        done
  | Ir.IBarrier s ->
      let si = slot sc s in
      fun fr -> Ops.barrier fr.ctx ~space:(space_sid fr s si)
  | Ir.ILock (t, a) ->
      protocol_call sc t a ~dispatched:Ops.lock ~direct:Ops.direct_lock
        ~removed:removed_lock
  | Ir.IUnlock (t, a) ->
      protocol_call sc t a ~dispatched:Ops.unlock ~direct:Ops.direct_unlock
        ~removed:removed_lock
  | Ir.IChangeProto (s, proto) ->
      let si = slot sc s in
      fun fr -> Ops.change_protocol fr.ctx ~space:(space_sid fr s si) proto
  | Ir.IWork e ->
      let e = cexpr e in
      fun fr -> charge fr (e fr)
  | Ir.ICallStmt (dst, f, args) -> (
      let args = Array.of_list (List.map cexpr args) in
      let callee = ref None in
      let call fr =
        let argv = Array.map (fun a -> VNum (a fr)) args in
        charge fr call_overhead;
        let c =
          match !callee with
          | Some c -> c
          | None -> (
              match resolve f with
              | Some c ->
                  callee := Some c;
                  c
              | None -> fail ("unknown function " ^ f))
        in
        invoke fr.ctx f c argv
      in
      match dst with
      | None -> fun fr -> ignore (call fr)
      | Some x ->
          let xi = slot sc x in
          fun fr ->
            set fr xi (match call fr with Some v -> v | None -> VNum 0.))
  | Ir.IReturn None -> fun _ -> raise (Return_exc None)
  | Ir.IReturn (Some e) ->
      let e = cexpr e in
      fun fr -> raise (Return_exc (Some (VNum (e fr))))

let cfunc resolve (f : Ir.ifunc) =
  let scope = { slots = Hashtbl.create 16; nslots = 0 } in
  let params = Array.of_list (List.map (slot scope) f.Ir.params) in
  let body = cstmt resolve scope f.Ir.body in
  (* every slot is assigned while compiling, none while running *)
  { params; nslots = scope.nslots; body }

(* The program's lazily compiled function table; compiling never runs
   simulated code, so no fiber can observe a half-built entry. *)
let resolver (prog : Ir.iprogram) =
  let compiled = Hashtbl.create 8 in
  let rec resolve name =
    match Hashtbl.find_opt compiled name with
    | Some _ as c -> c
    | None -> (
        match List.find_opt (fun f -> f.Ir.fname = name) prog with
        | None -> None
        | Some f ->
            let c = cfunc resolve f in
            Hashtbl.replace compiled name c;
            Some c)
  in
  resolve

(* Run [main] as the SPMD body on every simulated processor of [rt];
   returns node 0's numeric return value (nan if none). *)
let run_spmd (rt : Protocol.runtime) (prog : Ir.iprogram) : float =
  let resolve = resolver prog in
  let result = ref nan in
  Ace_runtime.Runtime.run rt (fun ctx ->
      let r =
        match resolve "main" with
        | Some c -> invoke ctx "main" c [||]
        | None -> fail "unknown function main"
      in
      if Ops.me ctx = 0 then
        match r with Some (VNum v) -> result := v | Some _ | None -> ());
  !result