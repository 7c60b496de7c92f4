(* The Ace library routines of Table 2, as seen by application code. Every
   access-control call looks up the region's space and dispatches to its
   current protocol (paper §4.1), charging the dispatch indirection from the
   cost model. *)

module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Trace = Ace_engine.Trace
module Store = Ace_region.Store
module Blocks = Ace_region.Blocks
module Cost_model = Ace_net.Cost_model
module Crit = Ace_engine.Crit

let fam_dispatch_space = Stats.fam "ace.dispatch.by_space"

(* Critical-path activity kinds: while a protocol-op dispatch (or the
   pre-barrier hook) is running, the processor's compute intervals — the
   dispatch charge, the handler's own charges, and any miss latency paid
   inside — are blamed on the op and the region's space. *)
let k_start_read = Crit.kind "start_read"
let k_end_read = Crit.kind "end_read"
let k_start_write = Crit.kind "start_write"
let k_end_write = Crit.kind "end_write"
let k_lock = Crit.kind "lock"
let k_unlock = Crit.kind "unlock"
let k_barrier_hook = Crit.kind "barrier_hook"

type ctx = Protocol.ctx
type h = Store.meta

let me (ctx : ctx) = ctx.Protocol.proc.Machine.id
let nprocs (ctx : ctx) = Machine.nprocs ctx.Protocol.rt.Protocol.machine
let cost (ctx : ctx) = ctx.Protocol.rt.Protocol.cost
let rid (h : h) = h.Store.rid

let charge ctx c = Machine.advance ctx.Protocol.proc c

let space_of (ctx : ctx) (h : h) =
  Runtime.space ctx.Protocol.rt h.Store.space

(* Ace_GMalloc: allocate a region homed at the caller from [space]. *)
let alloc (ctx : ctx) ~space ~len =
  let sp = Runtime.space ctx.Protocol.rt space in
  let meta =
    Store.alloc ctx.Protocol.rt.Protocol.store ~home:(me ctx) ~len
      ~space:sp.Protocol.sid
  in
  sp.Protocol.rids <- meta.Store.rid :: sp.Protocol.rids;
  let rt = ctx.Protocol.rt in
  let seq =
    match Hashtbl.find_opt rt.Protocol.alloc_seq (space, me ctx) with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add rt.Protocol.alloc_seq (space, me ctx) r;
        r
  in
  Hashtbl.replace rt.Protocol.names (space, me ctx, !seq) meta.Store.rid;
  incr seq;
  charge ctx (cost ctx).Cost_model.map_miss;
  meta

(* ACE_MAP: translate a region id into a local handle. Ace's mapping is the
   cheap cached lookup the paper credits for its edge over CRL. *)
let map (ctx : ctx) r =
  let meta = Store.get ctx.Protocol.rt.Protocol.store r in
  let existed = Store.map_note meta ~node:(me ctx) in
  let c = cost ctx in
  charge ctx (if existed then c.Cost_model.map_hit else c.Cost_model.map_miss);
  meta

let unmap (ctx : ctx) (_ : h) = charge ctx (cost ctx).Cost_model.unmap

let data (ctx : ctx) (h : h) =
  match Store.copy_of h ~node:(me ctx) with
  | Some c -> c.Store.cdata
  | None ->
      (* Mapped but never accessed: materialize the (zeroed, Invalid) cache
         entry mapping used to create eagerly. Host-side only — no cost. *)
      if Store.is_mapped h ~node:(me ctx) then
        (Store.ensure_copy_c h ~node:(me ctx)).Store.cdata
      else invalid_arg "Ops.data: region not mapped on this node"

(* The dispatcher charges only the space-indirection cost; each protocol
   handler charges its own processing (so a null handler really is nearly
   free, and direct-dispatched compiled code can drop even the
   indirection). Each dispatch bumps the per-space call counter and, when a
   tracer is attached, records a span covering the protocol handler on the
   calling processor's row (recording never touches the virtual clock). *)
let dispatch_access ctx h name kid hook =
  let rt = ctx.Protocol.rt in
  let m = rt.Protocol.machine in
  let run () =
    charge ctx (cost ctx).Cost_model.dispatch;
    Stats.incr_dim (Machine.stats m) fam_dispatch_space h.Store.space;
    match Machine.trace m with
    | None -> hook (space_of ctx h).Protocol.proto ctx h
    | Some tr ->
        let p = ctx.Protocol.proc in
        let t0 = p.Machine.clock in
        hook (space_of ctx h).Protocol.proto ctx h;
        Trace.span tr ~name ~cat:"call" ~tid:p.Machine.id ~ts:t0
          ~dur:(p.Machine.clock -. t0)
          ~args:[ ("space", h.Store.space); ("rid", h.Store.rid) ] ()
  in
  match Machine.crit m with
  | None -> run ()
  | Some c ->
      let proc = ctx.Protocol.proc.Machine.id in
      let old_k, old_s =
        Crit.swap_activity c ~proc ~kind:kid ~space:h.Store.space
      in
      run ();
      Crit.set_activity c ~proc ~kind:old_k ~space:old_s

let start_read (ctx : ctx) h =
  dispatch_access ctx h "start_read" k_start_read (fun p -> p.Protocol.start_read);
  Blocks.begin_access ctx.Protocol.bctx h ~write:false

let end_read (ctx : ctx) h =
  dispatch_access ctx h "end_read" k_end_read (fun p -> p.Protocol.end_read);
  Blocks.end_access ctx.Protocol.bctx h ~write:false

let start_write (ctx : ctx) h =
  dispatch_access ctx h "start_write" k_start_write (fun p -> p.Protocol.start_write);
  Blocks.begin_access ctx.Protocol.bctx h ~write:true

let end_write (ctx : ctx) h =
  dispatch_access ctx h "end_write" k_end_write (fun p -> p.Protocol.end_write);
  Blocks.end_access ctx.Protocol.bctx h ~write:true

(* Lock spans come in two kinds: the [lock]/[unlock] protocol-call spans
   (cat "call", like any other dispatch) and a [lock.hold] span (cat
   "lock") stretching from lock acquisition to the matching unlock. *)
let lock (ctx : ctx) h =
  dispatch_access ctx h "lock" k_lock (fun p -> p.Protocol.lock);
  match Machine.trace ctx.Protocol.rt.Protocol.machine with
  | None -> ()
  | Some tr ->
      let p = ctx.Protocol.proc in
      Trace.lock_acquired tr ~tid:p.Machine.id ~rid:h.Store.rid
        ~ts:p.Machine.clock

let unlock (ctx : ctx) h =
  (match Machine.trace ctx.Protocol.rt.Protocol.machine with
  | None -> ()
  | Some tr ->
      let p = ctx.Protocol.proc in
      Trace.lock_released tr ~tid:p.Machine.id ~rid:h.Store.rid
        ~ts:p.Machine.clock);
  dispatch_access ctx h "unlock" k_unlock (fun p -> p.Protocol.unlock)

let base_barrier (ctx : ctx) =
  Machine.Barrier.wait ctx.Protocol.rt.Protocol.base_barrier ctx.Protocol.proc

(* Ace_Barrier(space): the space's protocol gets to act first (e.g. a static
   update protocol propagates its writes), then the processors synchronize.
   The protocol's pre-barrier work is traced as a "call" span; the global
   synchronization itself is traced (per generation) by Machine.Barrier. *)
let barrier (ctx : ctx) ~space =
  let sp = Runtime.space ctx.Protocol.rt space in
  let m = ctx.Protocol.rt.Protocol.machine in
  let run_hook () =
    charge ctx (cost ctx).Cost_model.dispatch;
    match Machine.trace m with
    | None -> sp.Protocol.proto.Protocol.barrier ctx sp
    | Some tr ->
        let p = ctx.Protocol.proc in
        let t0 = p.Machine.clock in
        sp.Protocol.proto.Protocol.barrier ctx sp;
        Trace.span tr ~name:"barrier_hook" ~cat:"call" ~tid:p.Machine.id ~ts:t0
          ~dur:(p.Machine.clock -. t0)
          ~args:[ ("space", space) ] ()
  in
  (match Machine.crit m with
  | None -> run_hook ()
  | Some c ->
      let proc = ctx.Protocol.proc.Machine.id in
      let old_k, old_s =
        Crit.swap_activity c ~proc ~kind:k_barrier_hook ~space
      in
      run_hook ();
      Crit.set_activity c ~proc ~kind:old_k ~space:old_s);
  base_barrier ctx

(* Ace_ChangeProtocol: collective. The old protocol defines the transition
   semantics via its detach hook (flush to base state for the default
   protocol); barriers separate detach, the swap, and attach so no node can
   race ahead with the new protocol while another still runs the old one. *)
let change_protocol (ctx : ctx) ~space name =
  let rt = ctx.Protocol.rt in
  let sp = Runtime.space rt space in
  let newp = Runtime.find_protocol rt name in
  (* Collective-call matching is a correctness condition, not a debug
     check (cf. [new_space]): it must survive -noassert builds and name
     the mismatch. The first node to arrive posts its request; every later
     node compares before any node can reach the swap barrier, so node 0
     can never silently win over a disagreeing peer. *)
  (match Hashtbl.find_opt rt.Protocol.change_req space with
  | None -> Hashtbl.replace rt.Protocol.change_req space (name, me ctx)
  | Some (first_name, first_node) ->
      if not (String.equal first_name name) then
        invalid_arg
          (Printf.sprintf
             "Ops.change_protocol: collective call on node %d requests \
              protocol %S for space %d but node %d requested %S (mismatched \
              Ace_ChangeProtocol across nodes?)"
             (me ctx) name sp.Protocol.sid first_node first_name));
  (match Machine.trace ctx.Protocol.rt.Protocol.machine with
  | None -> ()
  | Some tr ->
      let p = ctx.Protocol.proc in
      Trace.instant tr
        ~name:(Printf.sprintf "change_protocol->%s" name)
        ~cat:"proto" ~tid:p.Machine.id ~ts:p.Machine.clock
        ~args:[ ("space", space) ] ());
  (* No fiber may block with a non-empty write-combining queue, and the
     swap barriers below block without passing through a Blocks entry
     point: a parked [queue_write_home] update crossing the swap would be
     invisible to readers under the new protocol (and a combined
     update+release gated on it could stall another node forever). Free
     when the queue is empty — always, with batching off. *)
  Blocks.flush_writes ctx.Protocol.bctx;
  sp.Protocol.proto.Protocol.detach ctx sp;
  base_barrier ctx;
  if me ctx = 0 then begin
    Hashtbl.remove rt.Protocol.change_req space;
    sp.Protocol.proto <- newp;
    Array.fill sp.Protocol.pstate 0 (Array.length sp.Protocol.pstate)
      Protocol.Pstate_none
  end;
  base_barrier ctx;
  newp.Protocol.attach ctx sp;
  base_barrier ctx

(* Collective adaptation point: every node calls this at an epoch boundary
   for [space]. The installed engine (Adapt.install) memoizes one decision
   per (space, epoch) from a single counter snapshot, so all nodes see the
   same advice and the collective [change_protocol] below cannot disagree.
   Without an installed engine this is free and returns [None]. *)
let adapt (ctx : ctx) ~space =
  match Adapt.installed ctx.Protocol.rt with
  | None -> None
  | Some t ->
      let sp = Runtime.space ctx.Protocol.rt space in
      let advice =
        Adapt.note_epoch t ~space:sp.Protocol.sid ~node:(me ctx)
          ~current:sp.Protocol.proto.Protocol.name
      in
      (match advice with
      | Some name -> change_protocol ctx ~space name
      | None -> ());
      advice

(* Collective Ace_NewSpace for SPMD program text (Fig. 2 lines 2-3): the
   k-th collective call on every node denotes the same space. *)
let new_space (ctx : ctx) proto_name =
  let k = ctx.Protocol.space_ctr in
  ctx.Protocol.space_ctr <- k + 1;
  let rt = ctx.Protocol.rt in
  let sp =
    if k < rt.Protocol.nspaces then Runtime.space rt k
    else Runtime.new_space rt proto_name
  in
  (* Collective-call matching is a correctness condition, not a debug
     check: it must survive -noassert builds and name the mismatch. *)
  if not (String.equal sp.Protocol.proto.Protocol.name proto_name) then
    invalid_arg
      (Printf.sprintf
         "Ops.new_space: collective call %d on node %d requests protocol %S \
          but space %d is bound to %S (mismatched Ace_NewSpace sequence \
          across nodes?)"
         k (me ctx) proto_name sp.Protocol.sid sp.Protocol.proto.Protocol.name);
  sp.Protocol.proto.Protocol.attach ctx sp;
  sp.Protocol.sid

let work (ctx : ctx) cycles = charge ctx cycles

(* Deterministic region naming: the rid of the [seq]-th region [owner]
   allocated from [space]. Remote queries are one name-service round trip
   to the owner. Callers must synchronize (barrier) after the allocation
   phase before looking names up. *)
let global_id (ctx : ctx) ~space ~owner ~seq =
  let rt = ctx.Protocol.rt in
  let lookup () =
    match Hashtbl.find_opt rt.Protocol.names (space, owner, seq) with
    | Some rid -> rid
    | None ->
        invalid_arg
          (Printf.sprintf "global_id (%d, %d, %d): not allocated (missing barrier?)"
             space owner seq)
  in
  if owner = me ctx then begin
    charge ctx (cost ctx).Cost_model.map_hit;
    lookup ()
  end
  else
    Ace_net.Reliable.rpc ctx.Protocol.bctx.Blocks.net ctx.Protocol.proc
      ~dst:owner ~bytes:Blocks.ctl_bytes (fun reply ~time ->
        let rid = lookup () in
        Ace_net.Reliable.send ctx.Protocol.bctx.Blocks.net ~now:time ~src:owner
          ~dst:(me ctx) ~bytes:Blocks.ctl_bytes (fun ~time ->
            Ace_engine.Ivar.fill reply ~time rid))

let bcast (ctx : ctx) ~root f =
  let ctr = ref ctx.Protocol.coll_ctr in
  let out =
    Ace_region.Collective.bcast ctx.Protocol.rt.Protocol.coll ctx.Protocol.bctx
      ~ctr ~root f
  in
  ctx.Protocol.coll_ctr <- !ctr;
  out

let allgather (ctx : ctx) mine =
  let ctr = ref ctx.Protocol.coll_ctr in
  let out =
    Ace_region.Collective.allgather ctx.Protocol.rt.Protocol.coll
      ctx.Protocol.bctx ~ctr mine
  in
  ctx.Protocol.coll_ctr <- !ctr;
  out

(* The shared DSM facade (paper §5.1: same sources on both systems). *)
module Api : Ace_region.Dsm_intf.S with type ctx = Protocol.ctx and type h = Store.meta =
struct
  type nonrec ctx = ctx
  type nonrec h = h

  let me = me
  let nprocs = nprocs
  let alloc = alloc
  let rid = rid
  let map = map
  let unmap = unmap
  let data = data
  let start_read = start_read
  let end_read = end_read
  let start_write = start_write
  let end_write = end_write
  let lock = lock
  let unlock = unlock
  let barrier = barrier
  let change_protocol = change_protocol
  let adapt = adapt
  let work = work
  let global_id = global_id
  let bcast = bcast
  let allgather = allgather
end
