(* A CRL-like region DSM (Johnson, Kaashoek, Wallach, SOSP '95): the same
   region API as Ace but with one fixed, compiled-in protocol — home-based
   sequentially consistent invalidation — and CRL's cost profile (a hash
   lookup on every rgn_map, no dispatch indirection). This is the baseline
   of the paper's Figure 7a. *)

module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Trace = Ace_engine.Trace
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
  (* deterministic region naming, as in the Ace runtime: the [space]
     argument is a pure naming namespace here (CRL regions have no
     spaces), so the same SPMD sources resolve the same names on both
     backends *)
  names : (int * int * int, int) Hashtbl.t;
  alloc_seq : (int * int, int ref) Hashtbl.t;
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
    names = Hashtbl.create 64;
    alloc_seq = Hashtbl.create 16;
  }

type ctx = {
  sys : t;
  proc : Machine.proc;
  bctx : Blocks.ctx;
  mutable coll_ctr : int;
}

let make_ctx sys proc =
  { sys; proc; bctx = Blocks.make_ctx sys.net sys.store proc; coll_ctr = 0 }

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

(* rgn_create: CRL regions are homed at their creator; [space] is ignored
   (CRL has no spaces). *)
let alloc ctx ~space ~len =
  let meta = Store.alloc ctx.sys.store ~home:(me ctx) ~len ~space:(-1) in
  let sys = ctx.sys in
  let seq =
    match Hashtbl.find_opt sys.alloc_seq (space, me ctx) with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add sys.alloc_seq (space, me ctx) r;
        r
  in
  Hashtbl.replace sys.names (space, me ctx, !seq) meta.Store.rid;
  incr seq;
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

let data ctx (h : h) =
  match Store.copy_of h ~node:(me ctx) with
  | Some c -> c.Store.cdata
  | None ->
      (* Mapped but never accessed: materialize the (zeroed, Invalid) cache
         entry mapping used to create eagerly. Host-side only — no cost. *)
      if Store.is_mapped h ~node:(me ctx) then
        (Store.ensure_copy_c h ~node:(me ctx)).Store.cdata
      else invalid_arg "Crl.data: region not mapped on this node"

(* Wrap a coherence call with the per-node call counter and — when a tracer
   is attached — a span on the caller's row (CRL regions have no space, so
   spans carry only the region id; recording never moves the clock). *)
let coh_call ctx name (h : h) f =
  Stats.incr_dim (Machine.stats ctx.sys.machine) fam_calls_node (me ctx);
  match Machine.trace ctx.sys.machine with
  | None -> f ()
  | Some tr ->
      let p = ctx.proc in
      let t0 = p.Machine.clock in
      f ();
      Trace.span tr ~name ~cat:"call" ~tid:p.Machine.id ~ts:t0
        ~dur:(p.Machine.clock -. t0)
        ~args:[ ("rid", h.Store.rid) ] ()

let start_read ctx h =
  coh_call ctx "start_read" h (fun () ->
      charge ctx ctx.sys.cost.Cost_model.start_hit;
      Blocks.fetch_shared ctx.bctx h);
  Blocks.begin_access ctx.bctx h ~write:false

let end_read ctx h =
  coh_call ctx "end_read" h (fun () ->
      charge ctx ctx.sys.cost.Cost_model.end_op);
  Blocks.end_access ctx.bctx h ~write:false

let start_write ctx h =
  coh_call ctx "start_write" h (fun () ->
      charge ctx ctx.sys.cost.Cost_model.start_hit;
      Blocks.fetch_exclusive ctx.bctx h);
  Blocks.begin_access ctx.bctx h ~write:true

let end_write ctx h =
  coh_call ctx "end_write" h (fun () ->
      charge ctx ctx.sys.cost.Cost_model.end_op);
  Blocks.end_access ctx.bctx h ~write:true

let lock ctx h =
  coh_call ctx "lock" h (fun () ->
      charge ctx ctx.sys.cost.Cost_model.lock_base;
      Blocks.home_lock ctx.bctx h);
  match Machine.trace ctx.sys.machine with
  | None -> ()
  | Some tr ->
      Trace.lock_acquired tr ~tid:(me ctx) ~rid:h.Store.rid
        ~ts:ctx.proc.Machine.clock

let unlock ctx h =
  (match Machine.trace ctx.sys.machine with
  | None -> ()
  | Some tr ->
      Trace.lock_released tr ~tid:(me ctx) ~rid:h.Store.rid
        ~ts:ctx.proc.Machine.clock);
  coh_call ctx "unlock" h (fun () ->
      charge ctx ctx.sys.cost.Cost_model.lock_base;
      Blocks.home_unlock ctx.bctx h)

let barrier ctx ~space:_ = Machine.Barrier.wait ctx.sys.base_barrier ctx.proc

(* CRL has one fixed protocol; protocol changes are performance hints that a
   single-protocol system safely ignores. *)
let change_protocol _ctx ~space:_ _name = ()

(* CRL has no protocols to adapt between either. *)
let adapt _ctx ~space:_ = None

(* Deterministic region naming lookup; remote queries are one name-service
   round trip to the owner (same convention as Ace's Ops.global_id). *)
let global_id ctx ~space ~owner ~seq =
  let sys = ctx.sys in
  let lookup () =
    match Hashtbl.find_opt sys.names (space, owner, seq) with
    | Some rid -> rid
    | None ->
        invalid_arg
          (Printf.sprintf
             "Crl.global_id (%d, %d, %d): not allocated (missing barrier?)"
             space owner seq)
  in
  if owner = me ctx then begin
    charge ctx sys.cost.Cost_model.map_hit;
    lookup ()
  end
  else
    Ace_net.Reliable.rpc ctx.bctx.Blocks.net ctx.proc ~dst:owner
      ~bytes:Blocks.ctl_bytes (fun reply ~time ->
        let rid = lookup () in
        Ace_net.Reliable.send ctx.bctx.Blocks.net ~now:time ~src:owner
          ~dst:(me ctx) ~bytes:Blocks.ctl_bytes (fun ~time ->
            Ace_engine.Ivar.fill reply ~time rid))

let work ctx cycles = charge ctx cycles

let bcast ctx ~root f =
  let ctr = ref ctx.coll_ctr in
  let out = Ace_region.Collective.bcast ctx.sys.coll ctx.bctx ~ctr ~root f in
  ctx.coll_ctr <- !ctr;
  out

let allgather ctx mine =
  let ctr = ref ctx.coll_ctr in
  let out = Ace_region.Collective.allgather ctx.sys.coll ctx.bctx ~ctr mine in
  ctx.coll_ctr <- !ctr;
  out

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
