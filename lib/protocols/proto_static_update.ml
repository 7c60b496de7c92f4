(* Static update protocol (paper §3.3; essentially Falsafi et al.'s EM3D
   protocol): sharer lists are learned during the first iteration — the
   ordinary read misses register consumers at the directory — and from the
   first barrier onward each writer pushes the regions it wrote directly to
   their learned consumers at every barrier.

   This is the protocol whose barrier handler the Ace_Barrier(space)
   dispatch invokes automatically (paper: "Since the barriers specify the
   space they operate on, the underlying system invokes the static update
   barrier handler routine automatically"). *)

module Protocol = Ace_runtime.Protocol
module Lang = Ace_runtime.Lang
module Blocks = Ace_region.Blocks
module Store = Ace_region.Store
module Machine = Ace_engine.Machine

type static_state = {
  mutable learning : int; (* barriers left in the learning window *)
  mutable written : int list; (* rids written since the last barrier *)
  learned : (int, int list) Hashtbl.t; (* rid -> consumer nodes *)
}

(* The learning window spans the first two barriers *at which this node has
   writes to publish*: consumers of a region written before write-barrier N
   register their read misses in the phase that follows it, so their
   identities are only complete at write-barrier N+1 (EM3D: writes to E
   happen before Barrier(eval), the reads of E in the H phase after it).
   Barriers without pending writes (setup synchronization) do not consume
   the window. *)
let learning_barriers = 2

type Protocol.pstate += Static of static_state

let state (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = ctx.Protocol.proc.Machine.id in
  match sp.Protocol.pstate.(node) with
  | Static s -> s
  | _ ->
      let s =
        { learning = learning_barriers; written = []; learned = Hashtbl.create 64 }
      in
      sp.Protocol.pstate.(node) <- Static s;
      s

(* After a write's fetch: remember the region for the next barrier. *)
let note_written (ctx : Protocol.ctx) meta =
  let s = state ctx (Lang.space_of ctx meta) in
  if not (List.mem meta.Store.rid s.written) then
    s.written <- meta.Store.rid :: s.written

(* At a barrier: snapshot consumer lists at the end of the learning
   iteration (one bookkeeping message per written region models shipping
   the directory's sharer list to the writer), then push every region
   written since the previous barrier to its consumers, wait for the data
   to land, and only then let the caller enter the global barrier. *)
let barrier (ctx : Protocol.ctx) (sp : Protocol.space) =
  let s = state ctx sp in
  let bctx = ctx.Protocol.bctx in
  let store = ctx.Protocol.rt.Protocol.store in
  let me = ctx.Protocol.proc.Machine.id in
  if s.learning > 0 && s.written <> [] then begin
    (* (Re)snapshot consumer lists while the learning window is open; one
       bookkeeping message per region models shipping the directory's
       sharer list to the writer. *)
    List.iter
      (fun rid ->
        let meta = Store.get store rid in
        let consumers = Store.sharers meta ~except:me in
        let consumers = List.filter (fun n -> n <> meta.Store.home) consumers in
        Hashtbl.replace s.learned rid consumers;
        Machine.advance ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Ace_net.Cost_model.am_send_overhead)
      s.written;
    s.learning <- s.learning - 1
  end;
  let items =
    List.map
      (fun rid ->
        let meta = Store.get store rid in
        let consumers =
          match Hashtbl.find_opt s.learned rid with
          | Some c -> c
          | None ->
              (* Region first written after learning ended: learn it now. *)
              let c =
                List.filter
                  (fun n -> n <> meta.Store.home)
                  (Store.sharers meta ~except:me)
              in
              Hashtbl.replace s.learned rid c;
              c
        in
        (meta, consumers))
      s.written
  in
  s.written <- [];
  if Ace_net.Reliable.batching bctx.Blocks.net then
    (* Bulk-transfer mode: the whole end-of-phase burst is write-combined —
       one vectored message per consumer instead of one per (region,
       consumer) pair. *)
    Machine.await ctx.Protocol.proc (Blocks.push_to_batch bctx items)
  else begin
    let pending =
      List.map (fun (meta, consumers) -> Blocks.push_to bctx meta ~dsts:consumers) items
    in
    List.iter (fun iv -> Machine.await ctx.Protocol.proc iv) pending
  end

(* Reads are ordinary misses: during learning the miss records us as a
   consumer; in steady state pushed data makes it a hit. Detach pushes
   anything still unpublished, then flushes to base state. *)
let spec =
  Lang.(
    define "STATIC_UPDATE" ~optimizable:true
      ~start_read:[ Charge Start_hit; Fetch_shared ]
      ~start_write:[ Charge Start_hit; Fetch_shared; Call note_written ]
      ~barrier:[ Call barrier ] ~lock:sc_lock ~unlock:sc_unlock
      ~detach:[ Call barrier; Flush_space ])
