(* SPMD collectives for distributing region ids (the bootstrap role that a
   startup broadcast plays in CRL). Every processor must execute the same
   sequence of collective calls; ops are matched by a per-processor call
   counter.

   Slots are materialised lazily, one ivar per (op, consumer) pair, created
   by whichever of the delivery or the consumer's await comes first and
   removed once the consumer has taken the value. Live state is therefore
   bounded by the number of in-flight deliveries, where the old
   [Array.init nprocs] per op held nprocs ivars for every op ever started —
   nprocs² of them across an allgather. *)

module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Net = Ace_net.Reliable

type t = {
  slots : (int, int array Ivar.t) Hashtbl.t; (* op * nprocs + consumer *)
  nprocs : int;
}

let create ~nprocs = { slots = Hashtbl.create 16; nprocs }

let slot t ~op ~node =
  let key = (op * t.nprocs) + node in
  match Hashtbl.find_opt t.slots key with
  | Some v -> v
  | None ->
      let v = Ivar.create () in
      Hashtbl.add t.slots key v;
      v

(* [bcast t bctx ~ctr ~root f]: the root evaluates [f ()] and sends the
   array to every other node; everyone returns the array. The root takes
   its own result directly — no self-slot is ever created. *)
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
    Hashtbl.remove t.slots ((op * t.nprocs) + me);
    arr
  end

(* [allgather t bctx ~ctr mine] returns an array of every node's
   contribution, indexed by node. Implemented as P rooted broadcasts. *)
let allgather t bctx ~ctr mine =
  Array.init t.nprocs (fun root -> bcast t bctx ~ctr ~root (fun () -> mine))
