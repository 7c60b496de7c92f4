(* A CRL-like region DSM (Johnson, Kaashoek, Wallach, SOSP '95): the same
   region API as Ace but with one fixed, compiled-in protocol — home-based
   sequentially consistent invalidation — and CRL's cost profile (a hash
   lookup on every rgn_map, no dispatch indirection). This is the baseline
   of the paper's Figure 7a. *)

module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Store = Ace_region.Store
module Blocks = Ace_region.Blocks
module Cost_model = Ace_net.Cost_model

let fam_calls_node = Stats.fam "crl.calls.by_node"

type t = {
  machine : Machine.t;
  am : Ace_net.Am.t;
  net : Ace_net.Reliable.t;
  cost : Cost_model.t;
  store : Store.t;
  base_barrier : Machine.Barrier.b;
  coll : Ace_region.Collective.t;
      (* region names and collectives, shared with the Ace runtime: the
         [space] argument is a pure naming namespace here (CRL regions have
         no spaces), so the same SPMD sources resolve the same names on both
         backends *)
}

let create ?(cost = Cost_model.cm5_crl) ?policy ~nprocs () =
  let machine = Machine.create ?policy ~nprocs () in
  let am = Ace_net.Am.create machine cost in
  {
    machine;
    am;
    net = Ace_net.Reliable.create am;
    cost;
    store = Ace_region.Store.create ~stats:(Machine.stats machine) ~nprocs ();
    base_barrier =
      Machine.Barrier.create machine ~cost:(fun p -> Cost_model.barrier_cost cost p);
    coll = Ace_region.Collective.create ~nprocs;
  }

type ctx = {
  sys : t;
  proc : Machine.proc;
  bctx : Blocks.ctx;
  coll_ctr : int ref;
}

let make_ctx sys proc =
  { sys; proc; bctx = Blocks.make_ctx sys.net sys.store proc; coll_ctr = ref 0 }

let run sys program = Machine.run sys.machine (fun proc -> program (make_ctx sys proc))

let machine sys = sys.machine
let am sys = sys.am
let net sys = sys.net
let store sys = sys.store

let time_seconds sys =
  Machine.seconds sys.machine ~cycles_per_sec:sys.cost.Cost_model.cycles_per_sec

type h = Store.meta

let me ctx = ctx.proc.Machine.id
let nprocs ctx = Machine.nprocs ctx.sys.machine
let rid (h : h) = h.Store.rid
let charge ctx c = Machine.advance ctx.proc c

(* rgn_create: CRL regions are homed at their creator; [space] only names
   the region for [global_id] (CRL has no spaces). *)
let alloc ctx ~space ~len =
  let meta = Store.alloc ctx.sys.store ~home:(me ctx) ~len ~space:(-1) in
  Ace_region.Collective.name ctx.sys.coll ~space ~owner:(me ctx) meta.Store.rid;
  charge ctx ctx.sys.cost.Cost_model.map_miss;
  meta

(* rgn_map: a region-table hash lookup on every call. *)
let map ctx r =
  let meta = Store.get ctx.sys.store r in
  let existed = Store.map_note meta ~node:(me ctx) in
  let c = ctx.sys.cost in
  charge ctx (if existed then c.Cost_model.map_hit else c.Cost_model.map_miss);
  meta

let unmap ctx (_ : h) = charge ctx ctx.sys.cost.Cost_model.unmap

let data ctx (h : h) = Store.data h ~node:(me ctx)

let op_start_read = Machine.op "start_read"
let op_end_read = Machine.op "end_read"
let op_start_write = Machine.op "start_write"
let op_end_write = Machine.op "end_write"
let op_lock = Machine.op "lock"
let op_unlock = Machine.op "unlock"

(* Wrap a coherence call with the per-node call counter and the same
   protocol-call probe as Ace's dispatch: a trace span and, in the causal
   DAG, blame on the op (CRL regions have no space, so spans carry only
   the region id). [f] is one of the static bodies below, so a call
   builds no closure. *)
let coh_call ctx op (h : h) f =
  Stats.incr_dim (Machine.stats ctx.sys.machine) fam_calls_node (me ctx);
  Machine.call ctx.proc op ~space:(-1) ~rid:h.Store.rid ~charge:0. f ctx h

let start_read_body ctx h =
  charge ctx ctx.sys.cost.Cost_model.start_hit;
  Blocks.fetch_shared ctx.bctx h

let end_body ctx _ = charge ctx ctx.sys.cost.Cost_model.end_op

let start_write_body ctx h =
  charge ctx ctx.sys.cost.Cost_model.start_hit;
  Blocks.fetch_exclusive ctx.bctx h

let lock_body ctx h =
  charge ctx ctx.sys.cost.Cost_model.lock_base;
  Blocks.home_lock ctx.bctx h

let unlock_body ctx h =
  charge ctx ctx.sys.cost.Cost_model.lock_base;
  Blocks.home_unlock ctx.bctx h

let start_read ctx h =
  coh_call ctx op_start_read h start_read_body;
  Blocks.begin_access ctx.bctx h ~write:false

let end_read ctx h =
  coh_call ctx op_end_read h end_body;
  Blocks.end_access ctx.bctx h ~write:false

let start_write ctx h =
  coh_call ctx op_start_write h start_write_body;
  Blocks.begin_access ctx.bctx h ~write:true

let end_write ctx h =
  coh_call ctx op_end_write h end_body;
  Blocks.end_access ctx.bctx h ~write:true

let lock ctx h =
  coh_call ctx op_lock h lock_body;
  Machine.lock_acquired ctx.proc ~rid:h.Store.rid

let unlock ctx h =
  Machine.lock_released ctx.proc ~rid:h.Store.rid;
  coh_call ctx op_unlock h unlock_body

let barrier ctx ~space:_ = Machine.Barrier.wait ctx.sys.base_barrier ctx.proc

(* CRL has one fixed protocol; protocol changes are performance hints that a
   single-protocol system safely ignores. *)
let change_protocol _ctx ~space:_ _name = ()

(* CRL has no protocols to adapt between either. *)
let adapt _ctx ~space:_ = None

let work ctx cycles = charge ctx cycles

let global_id ctx ~space ~owner ~seq =
  Ace_region.Collective.global_id ctx.sys.coll ctx.bctx ~space ~owner ~seq

let bcast ctx ~root f =
  Ace_region.Collective.bcast ctx.sys.coll ctx.bctx ~ctr:ctx.coll_ctr ~root f

let allgather ctx mine =
  Ace_region.Collective.allgather ctx.sys.coll ctx.bctx ~ctr:ctx.coll_ctr mine

module Api : Ace_region.Dsm_intf.S with type ctx = ctx and type h = Store.meta =
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
