(* Pipelined-writes protocol (the Water inter-molecular protocol of paper
   §5.2: "we improve performance by pipelining writes to a molecule during
   the inter-molecular calculation phase").

   Accumulations happen under the region lock, as the application writes
   them. The protocol specializes every step of that pattern:

   - lock: takes the home lock and drops the (possibly stale) local copy,
     so the read inside the critical section fetches the freshly
     accumulated master;
   - start_write: ensures a valid copy (a hit right after that read);
   - end_write: ships the new value home *asynchronously* — the processor
     moves on to the next molecule while the update is in flight;
   - unlock: rides the in-flight update — the home releases the lock the
     moment the data lands (a combined update+release message), so the
     caller never blocks and the next lock holder always sees the
     accumulated value;
   - barrier: drains outstanding updates and drops cached copies so the
     next phase reads fresh data.

   Under the default SC protocol the same source pays a blocking exclusive
   fetch (with an invalidation storm of every position reader) per
   accumulation; here it pays one lock round trip and one data fetch, with
   the write and the release pipelined. *)

module Protocol = Ace_runtime.Protocol
module Lang = Ace_runtime.Lang
module Blocks = Ace_region.Blocks
module Store = Ace_region.Store
module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Stats = Ace_engine.Stats

let sid_pipelined = Stats.intern "proto.pipeline.writes"
let sid_combined = Stats.intern "proto.pipeline.combined_release"

let stats (ctx : Protocol.ctx) = Machine.stats ctx.Protocol.rt.Protocol.machine

type pipe_state = {
  mutable outstanding : unit Ivar.t list;
  last_push : (int, unit Ivar.t) Hashtbl.t; (* rid -> in-flight update *)
}

type Protocol.pstate += Pipe of pipe_state

let state (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = ctx.Protocol.proc.Machine.id in
  match sp.Protocol.pstate.(node) with
  | Pipe s -> s
  | _ ->
      let s = { outstanding = []; last_push = Hashtbl.create 32 } in
      sp.Protocol.pstate.(node) <- Pipe s;
      s

let end_write (ctx : Protocol.ctx) meta =
  let s = state ctx (Lang.space_of ctx meta) in
  let bctx = ctx.Protocol.bctx in
  (* Bulk-transfer mode write-combines the pipelined update: it parks in
     the queue and rides the next lock request (or a blocking leg / the
     barrier flush) as part of one vectored message, instead of paying its
     own message here. The ivar contract is identical. *)
  let iv =
    if Ace_net.Reliable.batching bctx.Blocks.net then
      Blocks.queue_write_home bctx meta
    else Blocks.write_home_async bctx meta
  in
  Stats.incr_id (stats ctx) sid_pipelined;
  s.outstanding <- iv :: s.outstanding;
  Hashtbl.replace s.last_push meta.Store.rid iv

(* The grant carries the freshly accumulated master, so the critical
   section's read and write hit locally: lock + value in one round trip. *)
let lock_fetch (ctx : Protocol.ctx) meta = Blocks.lock_fetch ctx.Protocol.bctx meta

let unlock (ctx : Protocol.ctx) meta =
  let s = state ctx (Lang.space_of ctx meta) in
  match Hashtbl.find_opt s.last_push meta.Store.rid with
  | Some iv when not (Ivar.is_filled iv) ->
      (* combined update+release: the home unlocks when the data lands *)
      Stats.incr_id (stats ctx) sid_combined;
      Blocks.unlock_after ctx.Protocol.bctx meta iv
  | Some _ | None -> Blocks.home_unlock ctx.Protocol.bctx meta

let barrier (ctx : Protocol.ctx) (sp : Protocol.space) =
  let s = state ctx sp in
  Blocks.flush_writes ctx.Protocol.bctx;
  List.iter (fun iv -> Machine.await ctx.Protocol.proc iv) s.outstanding;
  s.outstanding <- [];
  Hashtbl.reset s.last_push;
  (* Cached reader copies may be stale after remote accumulation: drop them
     so post-barrier readers refetch the final values. *)
  let node = ctx.Protocol.proc.Machine.id in
  List.iter
    (fun rid ->
      let meta = Store.get ctx.Protocol.rt.Protocol.store rid in
      if node <> meta.Store.home then
        match Store.copy_of meta ~node with
        | Some c -> c.Store.cstate <- Store.Invalid
        | None -> ())
    sp.Protocol.rids

(* Bulk-transfer mode: adopting the protocol prefetches the whole space in
   one batched fetch (one vectored request per home, one bulk grant back) —
   the first intermolecular sweep then starts from warm caches instead of
   paying a read miss per molecule. Harmless for correctness: any value
   accumulated later arrives via the lock grant ([lock_fetch]). *)
let attach (ctx : Protocol.ctx) (sp : Protocol.space) =
  let bctx = ctx.Protocol.bctx in
  if Ace_net.Reliable.batching bctx.Blocks.net then
    Blocks.fetch_shared_batch bctx
      (List.map (Store.get ctx.Protocol.rt.Protocol.store) sp.Protocol.rids)

let spec =
  Lang.(
    define "PIPELINE" ~optimizable:true
      ~start_read:[ Charge Start_hit; Fetch_shared ]
      ~start_write:[ Charge Start_hit; Fetch_shared ]
      ~end_write:[ Charge End_op; Call end_write ]
      ~lock:[ Charge Lock_base; Call lock_fetch ]
      ~unlock:[ Charge Lock_base; Call unlock ]
      ~barrier:[ Call barrier ]
      ~attach:[ Charge Null_hook; Call attach ]
      ~detach:[ Call barrier; Flush_space ])
