(* The protocol language: the one way a protocol is defined (the paper's
   "linguistic mechanisms", §2.1/§3.2, taken further than the paper did).

   A protocol is declared as a {!spec}: one list of actions per hook point
   of {!Protocol.protocol} — start/end read, start/end write, lock, unlock
   on regions; barrier, attach, detach on spaces. Every protocol of the
   library, state machines included, is written in these actions; there is
   no escape hatch for embedded handler code. {!compile} lowers a spec to
   the handler record and is the only place such a record is built:

   - an empty action list compiles to the *physically shared*
     {!Protocol.null_hook}, so the acelang registry's [handler != null_hook]
     derivation sees exactly which synchronization points are null;
   - a non-empty list compiles once into straight closures: hooks of up to
     three actions call their steps directly, longer ones chain, and each
     [Charge] reads its cost-model field without a dispatch-time match and
     defers its cycles ([Machine.defer]); every other action but a counter
     and an assertion settles them first, so a hook's leading charges and
     the dispatch in front of it park once;
   - the registration data of Fig. 1 is derived from the action lists, so
     the Table-4 passes can never skip a live hook nor reorder a call that
     must stay in place:
     - [has_*]: a point is registered iff it has actions. The one exception,
       [unregistered], declares an access point null for dispatch although
       it has actions; compilation rejects it unless every action there is
       an assertion or a counter — WRITE_ONCE's "assertion only; registered
       as null" idiom;
     - [optimizable]: false iff some start/end read/write hook, guards
       included, takes an exclusive copy, runs a home read-modify-write
       ([Fetch_add], [Home_rmw_begin]/[_end]) or observes the access
       ([Observe]) — calls whose place in the program the optimizer must
       not move (§4.2).

   [Observe] is the one action that runs host code: a protocol's private
   bookkeeping (RACE_CHECK's access log). Compilation wraps it so that it
   raises [Invalid_argument] if the processor's clock moved, so it can
   never change simulated output.

   A spec also declares its {!contract}, the programs the protocol runs
   correctly; [compile] copies it into the record.

   Layers ({!counting}, {!write_combining}) are spec-to-spec transforms, so
   composition happens before compilation and costs nothing at dispatch
   time; a layer keeps the contract of the spec it wraps. *)

module Blocks = Ace_region.Blocks
module Store = Ace_region.Store
module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Stats = Ace_engine.Stats
module Cost_model = Ace_net.Cost_model

(* Cost-model selectors, so specs name charges symbolically. *)
type charge = Start_hit | End_op | Lock_base | Null_hook

(* An action at a hook whose argument is ['a]: a region ([Store.meta]) at
   start/end read/write, lock and unlock; a space ([Protocol.space]) at
   barrier, attach and detach. Constructors typed at one of the two are
   only available there. *)
type _ action =
  | Charge : charge -> 'a action  (* advance the clock by a cost-model field *)
  | Count : string -> 'a action  (* bump a named counter; simulated-time free *)
  | If_batching : 'a action list * 'a action list -> 'a action
      (* bulk-transfer mode on the reliable transport? then / else *)
  | Publish : 'a action
      (* drain the space's write-combining queue (see [Queue_update]) *)
  | Observe : (Protocol.ctx -> 'a -> unit) -> 'a action
      (* host-side bookkeeping; must not move the processor's clock *)
  | If_home : Store.meta action list * Store.meta action list -> Store.meta action
      (* is this node the region's home? then / else *)
  | Fetch_shared : Store.meta action  (* ensure a valid local copy *)
  | Fetch_exclusive : Store.meta action  (* ensure the sole valid copy *)
  | Read_home : Store.meta action  (* one uncached fetch of the master *)
  | Fetch_add : Store.meta action  (* the home adds 1 atomically *)
  | Home_rmw_begin : Store.meta action  (* home: lock around an in-place RMW *)
  | Home_rmw_end : Store.meta action
  | Push_update : Store.meta action  (* push the local value to home + sharers, await *)
  | Queue_update : Store.meta action  (* record the rid for the next [Publish] *)
  | Assert_home : Store.meta action  (* debug assertion: only the home writes *)
  | Home_lock : Store.meta action  (* acquire the region's home-based lock *)
  | Home_unlock : Store.meta action  (* release the region's home-based lock *)
  | Lock_fetch : Store.meta action  (* home lock whose grant carries the master *)
  | Write_home_async : Store.meta action  (* ship the value home, don't wait *)
  | If_write_pending : Store.meta action list * Store.meta action list -> Store.meta action
      (* is this node's last [Write_home_async] of the region in flight? *)
  | Unlock_after_write : Store.meta action
      (* release when the in-flight write lands (else a plain release) *)
  | Flush_space : Protocol.space action  (* write back / drop every cached copy *)
  | Drop_remote_copies : Protocol.space action  (* discard non-home copies unsent *)
  | Push_learned : Protocol.space action
      (* push the queued regions to their learned consumers, await *)
  | Drain_writes : Protocol.space action  (* await every [Write_home_async] *)
  | Prefetch_space : Protocol.space action  (* one batched shared fetch of all *)

type contract = Protocol.contract =
  | Drf | Read_only | Writer_per_epoch | Fixed_writer | Write_once | Incr_only

type raction = Store.meta action
type saction = Protocol.space action
type point = Start_read | End_read | Start_write | End_write

type spec = {
  name : string;
  contract : contract;
  start_read : raction list;
  end_read : raction list;
  start_write : raction list;
  end_write : raction list;
  lock : raction list;
  unlock : raction list;
  barrier : saction list;
  attach : saction list;
  detach : saction list;
  unregistered : point list;
      (* hooks forced to [has_* = false] despite having actions; only
         observational actions are allowed there (checked by compile) *)
}

let define ?(start_read = []) ?(end_read = []) ?(start_write = [])
    ?(end_write = []) ?(lock = []) ?(unlock = []) ?(barrier = []) ?(attach = [])
    ?(detach = []) ?(unregistered = []) ~contract name =
  {
    name;
    contract;
    start_read;
    end_read;
    start_write;
    end_write;
    lock;
    unlock;
    barrier;
    attach;
    detach;
    unregistered;
  }

(* The home-based lock every protocol but PIPELINE uses. *)
let sc_lock = [ Charge Lock_base; Home_lock ]
let sc_unlock = [ Charge Lock_base; Home_unlock ]

let space_of (ctx : Protocol.ctx) (meta : Store.meta) =
  ctx.Protocol.rt.Protocol.spaces.(meta.Store.space)

let batching (ctx : Protocol.ctx) =
  Ace_net.Reliable.batching ctx.Protocol.bctx.Blocks.net

(* {2 Per-(space, node) protocol state}

   Kept in the space's pstate slot, created by the first action that needs
   it, so a protocol pays only for the state its own actions use
   ([Ops.change_protocol] clears the slot):

   - a queue of dirty rids, filled by [Queue_update] and drained by
     [Publish] (DYN_UPDATE's bulk-transfer mode, the [write_combining]
     layer) or by [Push_learned] (STATIC_UPDATE);
   - [Push_learned]'s learned consumer sets, which wrap that queue;
   - [Write_home_async]'s in-flight updates (PIPELINE). *)

type wc_state = { mutable written : int list }

type learned = {
  queue : wc_state;
  mutable learning : int; (* barriers left in the learning window *)
  consumers : (int, int list) Hashtbl.t; (* rid -> consumer nodes *)
}

type pipe_state = {
  mutable outstanding : unit Ivar.t list;
  last_push : (int, unit Ivar.t) Hashtbl.t; (* rid -> in-flight update *)
}

type Protocol.pstate += Wc of wc_state | Learned of learned | Pipe of pipe_state

let wc_state (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = ctx.Protocol.proc.Machine.id in
  match sp.Protocol.pstate.(node) with
  | Wc s -> s
  | Learned l -> l.queue
  | _ ->
      let s = { written = [] } in
      sp.Protocol.pstate.(node) <- Wc s;
      s

(* The learning window spans the first two barriers *at which this node has
   writes to publish*: consumers of a region written before write-barrier N
   register their read misses in the phase that follows it, so their
   identities are only complete at write-barrier N+1 (EM3D: writes to E
   happen before Barrier(eval), the reads of E in the H phase after it).
   Barriers without pending writes (setup synchronization) do not consume
   the window. *)
let learning_barriers = 2

let learned (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = ctx.Protocol.proc.Machine.id in
  match sp.Protocol.pstate.(node) with
  | Learned l -> l
  | st ->
      let queue = match st with Wc s -> s | _ -> { written = [] } in
      let l = { queue; learning = learning_barriers; consumers = Hashtbl.create 64 } in
      sp.Protocol.pstate.(node) <- Learned l;
      l

let pipe_state (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = ctx.Protocol.proc.Machine.id in
  match sp.Protocol.pstate.(node) with
  | Pipe s -> s
  | _ ->
      let s = { outstanding = []; last_push = Hashtbl.create 32 } in
      sp.Protocol.pstate.(node) <- Pipe s;
      s

(* [l] without [x], for an ascending [l]: only the cells before [x] are
   copied. *)
let rec without x = function
  | [] -> []
  | y :: ys as l -> if y = x then ys else if y > x then l else y :: without x ys

(* The nodes other than the home and this one that hold a copy: who a
   pushed update must reach. *)
let consumers (ctx : Protocol.ctx) (meta : Store.meta) =
  without meta.Store.home
    (Store.sharers meta ~except:ctx.Protocol.proc.Machine.id)

(* Publish everything queued since the last sync point. In bulk-transfer
   mode this is one batched push (one vectored message per consumer);
   otherwise per-region awaited pushes in program order. Consumers
   synchronize before reading, so they observe the same values at the same
   sync points as an immediate push. *)
let publish (ctx : Protocol.ctx) (sp : Protocol.space) =
  let s = wc_state ctx sp in
  match s.written with
  | [] -> ()
  | rids ->
      s.written <- [];
      let store = ctx.Protocol.rt.Protocol.store in
      let bctx = ctx.Protocol.bctx in
      if batching ctx then begin
        let items =
          List.rev_map
            (fun rid ->
              let meta = Store.get store rid in
              (meta, consumers ctx meta))
            rids
        in
        Machine.await ctx.Protocol.proc (Blocks.push_to_batch bctx items)
      end
      else
        List.iter
          (fun rid ->
            Machine.await ctx.Protocol.proc
              (Blocks.push_update bctx (Store.get store rid)))
          (List.rev rids)

(* {2 Space-wide actions} *)

(* Flush every cached copy this node holds of the space's regions — the
   base-state semantics of Ace_ChangeProtocol away from a coherent
   protocol (paper §3.1). In bulk-transfer mode the whole detach storm is
   one batched invalidation: per-home coalesced writebacks/sharer-drops,
   cache entries reclaimed outright. *)
let flush_space (ctx : Protocol.ctx) (sp : Protocol.space) =
  let bctx = ctx.Protocol.bctx in
  let store = ctx.Protocol.rt.Protocol.store in
  if batching ctx then
    Blocks.invalidate_batch bctx (List.map (Store.get store) sp.Protocol.rids)
  else begin
    let node = Blocks.node bctx in
    List.iter
      (fun rid ->
        let meta = Store.get store rid in
        match Store.copy_of meta ~node with
        | Some c when c.Store.cstate <> Store.Invalid -> Blocks.flush bctx meta
        | Some _ | None -> ())
      sp.Protocol.rids
  end

(* Drop every non-home copy this node holds, unsent: under NULL only homes
   write, so the master needs no publishing and the next protocol starts
   from fresh fetches. *)
let drop_remote_copies (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = Blocks.node ctx.Protocol.bctx in
  List.iter
    (fun rid ->
      let meta = Store.get ctx.Protocol.rt.Protocol.store rid in
      if node <> meta.Store.home then
        match Store.copy_of meta ~node with
        | Some c -> c.Store.cstate <- Store.Invalid
        | None -> ())
    sp.Protocol.rids

(* {2 Learned-consumer push} (STATIC_UPDATE, paper §3.3)

   Snapshot consumer lists while the learning window is open (one
   bookkeeping message per written region models shipping the directory's
   sharer list to the writer), then push every region queued since the
   previous barrier to its consumers and wait for the data to land. In
   bulk-transfer mode the whole end-of-phase burst is one vectored message
   per consumer instead of one per (region, consumer) pair. *)
let push_learned (ctx : Protocol.ctx) (sp : Protocol.space) =
  let l = learned ctx sp in
  let written = l.queue.written in
  let bctx = ctx.Protocol.bctx in
  let store = ctx.Protocol.rt.Protocol.store in
  if l.learning > 0 && written <> [] then begin
    List.iter
      (fun rid ->
        Hashtbl.replace l.consumers rid (consumers ctx (Store.get store rid));
        Machine.advance ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.am_send_overhead)
      written;
    l.learning <- l.learning - 1
  end;
  let items =
    List.map
      (fun rid ->
        let meta = Store.get store rid in
        match Hashtbl.find_opt l.consumers rid with
        | Some c -> (meta, c)
        | None ->
            (* first written after learning ended: learn it now *)
            let c = consumers ctx meta in
            Hashtbl.replace l.consumers rid c;
            (meta, c))
      written
  in
  l.queue.written <- [];
  if batching ctx then Machine.await ctx.Protocol.proc (Blocks.push_to_batch bctx items)
  else
    List.iter (Machine.await ctx.Protocol.proc)
      (List.map (fun (meta, dsts) -> Blocks.push_to bctx meta ~dsts) items)

(* {2 Pipelined writes} (PIPELINE, paper §5.2) *)

(* Ship the region's value home without waiting. Bulk-transfer mode
   write-combines it: the update parks in the queue and rides the next lock
   request (or a blocking leg / the barrier's drain) in one vectored
   message; the ivar contract is identical. *)
let write_home_async (ctx : Protocol.ctx) (meta : Store.meta) =
  let s = pipe_state ctx (space_of ctx meta) in
  let bctx = ctx.Protocol.bctx in
  let iv =
    if batching ctx then Blocks.queue_write_home bctx meta
    else Blocks.write_home_async bctx meta
  in
  s.outstanding <- iv :: s.outstanding;
  Hashtbl.replace s.last_push meta.Store.rid iv

let pending_write (ctx : Protocol.ctx) (meta : Store.meta) =
  match Hashtbl.find_opt (pipe_state ctx (space_of ctx meta)).last_push meta.Store.rid with
  | Some iv when not (Ivar.is_filled iv) -> Some iv
  | Some _ | None -> None

(* A combined update+release: the home unlocks the moment the data lands,
   so the caller never blocks and the next holder sees the new value. *)
let unlock_after_write (ctx : Protocol.ctx) (meta : Store.meta) =
  match pending_write ctx meta with
  | Some iv -> Blocks.unlock_after ctx.Protocol.bctx meta iv
  | None -> Blocks.home_unlock ctx.Protocol.bctx meta

let drain_writes (ctx : Protocol.ctx) (sp : Protocol.space) =
  let s = pipe_state ctx sp in
  Blocks.flush_writes ctx.Protocol.bctx;
  List.iter (Machine.await ctx.Protocol.proc) s.outstanding;
  s.outstanding <- [];
  Hashtbl.reset s.last_push

(* {2 Compilation} *)

(* Which argument a hook takes; [Publish] needs it to find the space. *)
type _ site = Region : Store.meta site | Space : Protocol.space site

(* A [Charge] is deferred: the run of charges a hook starts with parks
   once, at the next action that settles (or at [Ops]' settle after the
   dispatch). *)
let charge_fn : type a. charge -> Protocol.ctx -> a -> unit = function
  | Start_hit ->
      fun ctx _ ->
        Machine.defer ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.start_hit
  | End_op ->
      fun ctx _ ->
        Machine.defer ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.end_op
  | Lock_base ->
      fun ctx _ ->
        Machine.defer ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.lock_base
  | Null_hook ->
      fun ctx _ ->
        Machine.defer ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.null_hook

let nop _ _ = ()

(* Straight-line composition: up to three steps are called directly. *)
let rec chain = function
  | [] -> nop
  | [ f ] -> f
  | [ f; g ] ->
      fun ctx x ->
        f ctx x;
        g ctx x
  | [ f; g; h ] ->
      fun ctx x ->
        f ctx x;
        g ctx x;
        h ctx x
  | f :: rest ->
      let rest = chain rest in
      fun ctx x ->
        f ctx x;
        rest ctx x

let rec action_fn : type a. a site -> a action -> Protocol.ctx -> a -> unit =
 fun site -> function
  | Charge c -> charge_fn c
  | Count key ->
      let id = Stats.intern key in
      fun ctx _ ->
        Stats.incr_id (Machine.stats ctx.Protocol.rt.Protocol.machine) id
  | If_batching (yes, no) ->
      let yes = seq site yes and no = seq site no in
      fun ctx x -> if batching ctx then yes ctx x else no ctx x
  | Publish -> (
      match site with
      | Region -> fun ctx meta -> publish ctx (space_of ctx meta)
      | Space -> publish)
  | Observe f ->
      fun ctx x ->
        let proc = ctx.Protocol.proc in
        let t = proc.Machine.clock in
        f ctx x;
        if proc.Machine.clock <> t then
          invalid_arg "Lang: an Observe action moved the processor clock"
  | If_home (yes, no) ->
      let yes = seq site yes and no = seq site no in
      fun ctx meta ->
        if ctx.Protocol.proc.Machine.id = meta.Store.home then yes ctx meta
        else no ctx meta
  | Fetch_shared -> fun ctx meta -> Blocks.fetch_shared ctx.Protocol.bctx meta
  | Fetch_exclusive ->
      fun ctx meta -> Blocks.fetch_exclusive ctx.Protocol.bctx meta
  | Read_home -> fun ctx meta -> Blocks.read_home ctx.Protocol.bctx meta
  | Fetch_add -> fun ctx meta -> Blocks.fetch_add ctx.Protocol.bctx meta ~delta:1.0
  | Home_rmw_begin -> fun ctx meta -> Blocks.home_rmw_begin ctx.Protocol.bctx meta
  | Home_rmw_end -> fun ctx meta -> Blocks.home_rmw_end ctx.Protocol.bctx meta
  | Push_update ->
      fun ctx meta ->
        Machine.await ctx.Protocol.proc
          (Blocks.push_update ctx.Protocol.bctx meta)
  | Queue_update ->
      fun ctx meta ->
        let s = wc_state ctx (space_of ctx meta) in
        if not (List.mem meta.Store.rid s.written) then
          s.written <- meta.Store.rid :: s.written
  | Assert_home ->
      fun ctx meta -> assert (ctx.Protocol.proc.Machine.id = meta.Store.home)
  | Home_lock -> fun ctx meta -> Blocks.home_lock ctx.Protocol.bctx meta
  | Home_unlock -> fun ctx meta -> Blocks.home_unlock ctx.Protocol.bctx meta
  | Lock_fetch -> fun ctx meta -> Blocks.lock_fetch ctx.Protocol.bctx meta
  | Write_home_async -> write_home_async
  | If_write_pending (yes, no) ->
      let yes = seq site yes and no = seq site no in
      fun ctx meta -> if pending_write ctx meta <> None then yes ctx meta else no ctx meta
  | Unlock_after_write -> unlock_after_write
  | Flush_space -> flush_space
  | Drop_remote_copies -> drop_remote_copies
  | Push_learned -> push_learned
  | Drain_writes -> drain_writes
  | Prefetch_space ->
      fun ctx sp ->
        Blocks.fetch_shared_batch ctx.Protocol.bctx
          (List.map (Store.get ctx.Protocol.rt.Protocol.store) sp.Protocol.rids)

(* Every action but a charge, a counter and an assertion reads or moves
   shared state, so it settles the hook's deferred charges first. *)
and step : type a. a site -> a action -> Protocol.ctx -> a -> unit =
 fun site act ->
  let f = action_fn site act in
  match act with
  | Charge _ | Count _ | Assert_home -> f
  | _ ->
      fun ctx x ->
        Machine.settle ctx.Protocol.proc;
        f ctx x

and seq : type a. a site -> a action list -> Protocol.ctx -> a -> unit =
 fun site acts -> chain (List.map (step site) acts)

(* A hook: the empty list is THE null hook (physical equality matters —
   the registry compares with [!=]); inside a guard an empty branch does
   nothing. *)
let hook site = function [] -> Protocol.null_hook | acts -> seq site acts

(* Only assertions and counters may live on an [unregistered] hook: the
   direct-dispatch pass deletes these calls, so anything that charges
   cycles or moves data there would silently change simulated output, and
   an [Observe] there would silently lose its log. *)
let observational : raction -> bool = function
  | Assert_home | Count _ -> true
  | _ -> false

(* Calls the optimizer must leave in place: exclusive ownership, home
   read-modify-writes and observed accesses. *)
let rec pinned : raction -> bool = function
  | Fetch_exclusive | Fetch_add | Home_rmw_begin | Home_rmw_end | Observe _ -> true
  | If_batching (a, b) | If_home (a, b) | If_write_pending (a, b) ->
      List.exists pinned a || List.exists pinned b
  | _ -> false

let point_name = function
  | Start_read -> "start_read"
  | End_read -> "end_read"
  | Start_write -> "start_write"
  | End_write -> "end_write"

let compile (s : spec) : Protocol.protocol =
  let acts_of = function
    | Start_read -> s.start_read
    | End_read -> s.end_read
    | Start_write -> s.start_write
    | End_write -> s.end_write
  in
  List.iter
    (fun pt ->
      if not (List.for_all observational (acts_of pt)) then
        invalid_arg
          (Printf.sprintf
             "Lang.compile: %s.%s is unregistered but has effectful actions"
             s.name (point_name pt)))
    s.unregistered;
  let has pt = acts_of pt <> [] && not (List.mem pt s.unregistered) in
  let points = [ Start_read; End_read; Start_write; End_write ] in
  {
    Protocol.name = s.name;
    contract = s.contract;
    optimizable = not (List.exists (fun pt -> List.exists pinned (acts_of pt)) points);
    has_start_read = has Start_read;
    has_end_read = has End_read;
    has_start_write = has Start_write;
    has_end_write = has End_write;
    start_read = hook Region s.start_read;
    end_read = hook Region s.end_read;
    start_write = hook Region s.start_write;
    end_write = hook Region s.end_write;
    barrier = hook Space s.barrier;
    lock = hook Region s.lock;
    unlock = hook Region s.unlock;
    attach = hook Space s.attach;
    detach = hook Space s.detach;
  }

(* {2 Layers}

   Layers transform specs, not compiled records, so a stack of layers still
   compiles to one flat closure chain per hook and the [has_*] flags stay
   truthful after composition. *)

let with_name name s = { s with name }

(* Logging/counting layer: prepend a counter bump to every hook that
   already has actions. Counters cost zero simulated cycles and no hook
   goes from null to live (or back), so the layered protocol is
   semantics-transparent: bit-identical simulated output, plus
   [<prefix>.<hook>] observation counters. *)
let counting ?prefix s =
  let prefix =
    match prefix with
    | Some p -> p
    | None -> "comb." ^ String.lowercase_ascii s.name
  in
  let count : type a. string -> a action list -> a action list =
   fun hook acts -> match acts with [] -> [] | _ -> Count (prefix ^ "." ^ hook) :: acts
  in
  {
    s with
    start_read = count "start_read" s.start_read;
    end_read = count "end_read" s.end_read;
    start_write = count "start_write" s.start_write;
    end_write = count "end_write" s.end_write;
    lock = count "lock" s.lock;
    unlock = count "unlock" s.unlock;
    barrier = count "barrier" s.barrier;
    attach = count "attach" s.attach;
    detach = count "detach" s.detach;
  }

(* Write-combining layer: every [Push_update] in end_write becomes a queue
   entry, and every synchronization point — barrier, unlock, detach —
   publishes the queue before its own actions. DYN_UPDATE's bulk-transfer
   contract, applied in both batching modes. *)
let write_combining s =
  let defer = List.map (function Push_update -> Queue_update | a -> a) in
  {
    s with
    end_write = defer s.end_write;
    barrier = Publish :: s.barrier;
    unlock = Publish :: s.unlock;
    detach = Publish :: s.detach;
  }

(* {2 The built-in protocols} (registered by every [Runtime.create]) *)

(* The default protocol: a sequentially consistent, home-based
   invalidation protocol (MSI over regions) — what Ace programs get until
   they opt into a custom protocol. Its exclusive fetch makes it not
   optimizable: SC forbids reordering protocol calls (paper §4.2). *)
let sc =
  define "SC" ~contract:Drf
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~end_read:[ Charge End_op ]
    ~start_write:[ Charge Start_hit; Fetch_exclusive ]
    ~end_write:[ Charge End_op ] ~lock:sc_lock ~unlock:sc_unlock
    ~detach:[ Flush_space ]

(* The null protocol: no coherence actions at all. Correct only while each
   region is accessed by nodes already holding a fresh copy and written
   only at its home (e.g. Water's intra-molecular phase, paper §2.2).
   Locks remain real so synchronization stays sound. *)
let null =
  define "NULL" ~contract:Read_only ~lock:sc_lock ~unlock:sc_unlock
    ~detach:[ Drop_remote_copies ]
