(* The region name service both front-ends (Ace's [Ops] and [Crl]) share:
   deterministic region names, and SPMD collectives for distributing region
   ids (the bootstrap role that a startup broadcast plays in CRL).

   A region's name is (space, owner, seq): the [seq]-th region [owner]
   allocated in the naming namespace [space] (Ace's space id; a pure
   namespace on CRL, whose regions have no spaces). Every processor must
   execute the same sequence of collective calls; ops are matched by a
   per-processor call counter.

   Slots are materialised lazily, one ivar per (op, consumer) pair, created
   by whichever of the delivery or the consumer's await comes first and
   removed once the consumer has taken the value. Live state is therefore
   bounded by the number of in-flight deliveries, where the old
   [Array.init nprocs] per op held nprocs ivars for every op ever started —
   nprocs² of them across an allgather. The table is keyed on the int
   [op * nprocs + consumer] with an identity hash: an allgather on 1024
   nodes takes a million find/add/remove rounds, so the generic polymorphic
   hash would dominate them. *)

module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Net = Ace_net.Reliable

module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

type t = {
  slots : int array Ivar.t Slots.t; (* op * nprocs + consumer *)
  nprocs : int;
  names : (int * int * int, int) Hashtbl.t; (* (space, owner, seq) -> rid *)
  alloc_seq : (int * int, int ref) Hashtbl.t; (* (space, owner) -> next seq *)
}

let create ~nprocs =
  {
    slots = Slots.create 16;
    nprocs;
    names = Hashtbl.create 64;
    alloc_seq = Hashtbl.create 16;
  }

(* Name [rid], just allocated by [owner] in [space], with the next
   sequence number. *)
let name t ~space ~owner rid =
  let seq =
    match Hashtbl.find_opt t.alloc_seq (space, owner) with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.alloc_seq (space, owner) r;
        r
  in
  Hashtbl.replace t.names (space, owner, !seq) rid;
  incr seq

(* The rid named (space, owner, seq). A local query costs a map hit; a
   remote one is one name-service round trip to the owner. Callers must
   synchronize (barrier) after the allocation phase. *)
let global_id t (bctx : Blocks.ctx) ~space ~owner ~seq =
  let p = bctx.Blocks.proc in
  let me = p.Machine.id in
  let lookup () =
    match Hashtbl.find_opt t.names (space, owner, seq) with
    | Some rid -> rid
    | None ->
        invalid_arg
          (Printf.sprintf "global_id (%d, %d, %d): not allocated (missing barrier?)"
             space owner seq)
  in
  if owner = me then begin
    Machine.advance p (Net.cost bctx.Blocks.net).Ace_net.Cost_model.map_hit;
    lookup ()
  end
  else
    Net.rpc bctx.Blocks.net p ~dst:owner ~bytes:Blocks.ctl_bytes (fun reply ~time ->
        let rid = lookup () in
        Net.send bctx.Blocks.net ~now:time ~src:owner ~dst:me ~bytes:Blocks.ctl_bytes
          (fun ~time -> Ivar.fill reply ~time rid))

let slot t ~op ~node =
  let key = (op * t.nprocs) + node in
  match Slots.find_opt t.slots key with
  | Some v -> v
  | None ->
      let v = Ivar.create () in
      Slots.add t.slots key v;
      v

(* [bcast t bctx ~ctr ~root f]: the root evaluates [f ()] and sends the
   array to every other node; everyone returns the array. The root takes
   its own result directly — no self-slot is ever created. [ctr] is the
   calling processor's collective-op counter. *)
let bcast t (bctx : Blocks.ctx) ~ctr ~root f =
  let p = bctx.Blocks.proc in
  let me = p.Machine.id in
  let op = !ctr in
  incr ctr;
  if me = root then begin
    let arr = f () in
    let bytes = (8 * Array.length arr) + Blocks.ctl_bytes in
    for dst = 0 to t.nprocs - 1 do
      if dst <> root then
        Net.send_from bctx.Blocks.net p ~dst ~bytes (fun ~time ->
            Ivar.fill (slot t ~op ~node:dst) ~time arr)
    done;
    arr
  end
  else begin
    let v = slot t ~op ~node:me in
    let arr = Machine.await p v in
    Slots.remove t.slots ((op * t.nprocs) + me);
    arr
  end

(* [allgather t bctx ~ctr mine] returns an array of every node's
   contribution, indexed by node. Implemented as P rooted broadcasts. *)
let allgather t bctx ~ctr mine =
  Array.init t.nprocs (fun root -> bcast t bctx ~ctr ~root (fun () -> mine))
