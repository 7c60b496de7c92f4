(* The Ace library routines of Table 2, as seen by application code. Every
   access-control call looks up the region's space and dispatches to its
   current protocol (paper §4.1), charging the dispatch indirection from the
   cost model. *)

module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Store = Ace_region.Store
module Blocks = Ace_region.Blocks
module Cost_model = Ace_net.Cost_model

let fam_dispatch_space = Stats.fam "ace.dispatch.by_space"

(* Protocol-call probes: a trace span per call and, in the causal DAG, the
   call's compute — dispatch charge, handler charges, and any miss latency
   paid inside — blamed on the op and the region's space. *)
let op_start_read = Machine.op "start_read"
let op_end_read = Machine.op "end_read"
let op_start_write = Machine.op "start_write"
let op_end_write = Machine.op "end_write"
let op_lock = Machine.op "lock"
let op_unlock = Machine.op "unlock"
let op_barrier_hook = Machine.op "barrier_hook"

type ctx = Protocol.ctx
type h = Store.meta

let me (ctx : ctx) = ctx.Protocol.proc.Machine.id
let nprocs (ctx : ctx) = Machine.nprocs ctx.Protocol.rt.Protocol.machine
let cost (ctx : ctx) = ctx.Protocol.rt.Protocol.cost
let rid (h : h) = h.Store.rid

let charge ctx c = Machine.advance ctx.Protocol.proc c

(* Replay the charges the interpreter deferred before this call (see
   [Machine.defer]): the entry points below read or write state other
   processors see, so they run at the clock an eager charge would have
   reached. A no-op for application code, which never runs with a charge
   pending. *)
let settle (ctx : ctx) = Machine.settle ctx.Protocol.proc

let space_of (ctx : ctx) (h : h) =
  Runtime.space ctx.Protocol.rt h.Store.space

(* Ace_GMalloc: allocate a region homed at the caller from [space]. *)
let alloc (ctx : ctx) ~space ~len =
  settle ctx;
  let sp = Runtime.space ctx.Protocol.rt space in
  let meta =
    Store.alloc ctx.Protocol.rt.Protocol.store ~home:(me ctx) ~len
      ~space:sp.Protocol.sid
  in
  sp.Protocol.rids <- meta.Store.rid :: sp.Protocol.rids;
  Ace_region.Collective.name ctx.Protocol.rt.Protocol.coll ~space ~owner:(me ctx)
    meta.Store.rid;
  charge ctx (cost ctx).Cost_model.map_miss;
  meta

(* ACE_MAP: translate a region id into a local handle. Ace's mapping is the
   cheap cached lookup the paper credits for its edge over CRL. *)
let map (ctx : ctx) r =
  settle ctx;
  let meta = Store.get ctx.Protocol.rt.Protocol.store r in
  let existed = Store.map_note meta ~node:(me ctx) in
  let c = cost ctx in
  charge ctx (if existed then c.Cost_model.map_hit else c.Cost_model.map_miss);
  meta

let unmap (ctx : ctx) (_ : h) = charge ctx (cost ctx).Cost_model.unmap

let data (ctx : ctx) (h : h) =
  settle ctx;
  Store.data h ~node:(me ctx)

(* The dispatcher charges only the space-indirection cost; each protocol
   handler charges its own processing (so a null handler really is nearly
   free). The charge and the handler's leading charges are deferred
   ([Machine.call], [Lang]'s [Charge]): a hit's dispatch and handler park
   once, at the settle after the call, before [Blocks] runs or the call
   returns. [hook] is one of the static selectors below, so a call builds
   no closure. *)
let access ctx h op ~charge hook =
  Machine.call ctx.Protocol.proc op ~space:h.Store.space ~rid:h.Store.rid
    ~charge hook ctx h;
  settle ctx

(* A dispatched call pays the indirection and bumps the per-space call
   counter. The direct calls ([direct_start_read] .. [direct_unlock]) are
   for compiled code that knows the space's protocol (paper §4.2): they
   drop the indirection, so they charge and count nothing, but run under
   the same probe. *)
let dispatch_access ctx h op hook =
  Stats.incr_dim
    (Machine.stats ctx.Protocol.rt.Protocol.machine)
    fam_dispatch_space h.Store.space;
  access ctx h op ~charge:(cost ctx).Cost_model.dispatch hook

let proto (ctx : ctx) (h : h) = (space_of ctx h).Protocol.proto
let start_read_hook ctx h = (proto ctx h).Protocol.start_read ctx h
let end_read_hook ctx h = (proto ctx h).Protocol.end_read ctx h
let start_write_hook ctx h = (proto ctx h).Protocol.start_write ctx h
let end_write_hook ctx h = (proto ctx h).Protocol.end_write ctx h
let lock_hook ctx h = (proto ctx h).Protocol.lock ctx h
let unlock_hook ctx h = (proto ctx h).Protocol.unlock ctx h

let start_read (ctx : ctx) h =
  dispatch_access ctx h op_start_read start_read_hook;
  Blocks.begin_access ctx.Protocol.bctx h ~write:false

let end_read (ctx : ctx) h =
  dispatch_access ctx h op_end_read end_read_hook;
  Blocks.end_access ctx.Protocol.bctx h ~write:false

let start_write (ctx : ctx) h =
  dispatch_access ctx h op_start_write start_write_hook;
  Blocks.begin_access ctx.Protocol.bctx h ~write:true

let end_write (ctx : ctx) h =
  dispatch_access ctx h op_end_write end_write_hook;
  Blocks.end_access ctx.Protocol.bctx h ~write:true

(* Lock spans come in two kinds: the [lock]/[unlock] protocol-call spans
   (cat "call", like any other dispatch) and a [lock.hold] span (cat
   "lock") stretching from lock acquisition to the matching unlock. *)
let lock (ctx : ctx) h =
  dispatch_access ctx h op_lock lock_hook;
  Machine.lock_acquired ctx.Protocol.proc ~rid:h.Store.rid

let unlock (ctx : ctx) h =
  Machine.lock_released ctx.Protocol.proc ~rid:h.Store.rid;
  dispatch_access ctx h op_unlock unlock_hook

let direct_start_read (ctx : ctx) h =
  access ctx h op_start_read ~charge:0. start_read_hook;
  Blocks.begin_access ctx.Protocol.bctx h ~write:false

let direct_end_read (ctx : ctx) h =
  access ctx h op_end_read ~charge:0. end_read_hook;
  Blocks.end_access ctx.Protocol.bctx h ~write:false

let direct_start_write (ctx : ctx) h =
  access ctx h op_start_write ~charge:0. start_write_hook;
  Blocks.begin_access ctx.Protocol.bctx h ~write:true

let direct_end_write (ctx : ctx) h =
  access ctx h op_end_write ~charge:0. end_write_hook;
  Blocks.end_access ctx.Protocol.bctx h ~write:true

let direct_lock (ctx : ctx) h =
  access ctx h op_lock ~charge:0. lock_hook;
  Machine.lock_acquired ctx.Protocol.proc ~rid:h.Store.rid

let direct_unlock (ctx : ctx) h =
  Machine.lock_released ctx.Protocol.proc ~rid:h.Store.rid;
  access ctx h op_unlock ~charge:0. unlock_hook

let base_barrier (ctx : ctx) =
  Machine.Barrier.wait ctx.Protocol.rt.Protocol.base_barrier ctx.Protocol.proc

(* Ace_Barrier(space): the space's protocol gets to act first (e.g. a static
   update protocol propagates its writes), then the processors synchronize.
   The protocol's pre-barrier work is traced as a "call" span; the global
   synchronization itself is traced (per generation) by Machine.Barrier. *)
let barrier_hook ctx (sp : Protocol.space) =
  sp.Protocol.proto.Protocol.barrier ctx sp

let barrier (ctx : ctx) ~space =
  let sp = Runtime.space ctx.Protocol.rt space in
  Machine.call ctx.Protocol.proc op_barrier_hook ~space ~rid:(-1)
    ~charge:(cost ctx).Cost_model.dispatch barrier_hook ctx sp;
  base_barrier ctx

(* Ace_ChangeProtocol: collective. The old protocol defines the transition
   semantics via its detach hook (flush to base state for the default
   protocol); barriers separate detach, the swap, and attach so no node can
   race ahead with the new protocol while another still runs the old one. *)
let change_protocol (ctx : ctx) ~space name =
  settle ctx;
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
  Machine.instant rt.Protocol.machine ~name:("change_protocol->" ^ name)
    ~cat:"proto" ~tid:(me ctx) ~ts:ctx.Protocol.proc.Machine.clock
    [ ("space", space) ];
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
  settle ctx;
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
  settle ctx;
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

let global_id (ctx : ctx) ~space ~owner ~seq =
  settle ctx;
  Ace_region.Collective.global_id ctx.Protocol.rt.Protocol.coll ctx.Protocol.bctx
    ~space ~owner ~seq

let bcast (ctx : ctx) ~root f =
  settle ctx;
  Ace_region.Collective.bcast ctx.Protocol.rt.Protocol.coll ctx.Protocol.bctx
    ~ctr:ctx.Protocol.coll_ctr ~root f

let allgather (ctx : ctx) mine =
  settle ctx;
  Ace_region.Collective.allgather ctx.Protocol.rt.Protocol.coll ctx.Protocol.bctx
    ~ctr:ctx.Protocol.coll_ctr mine

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
