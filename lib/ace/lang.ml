(* The protocol language: the one way a protocol is defined (the paper's
   "linguistic mechanisms", §2.1/§3.2, taken further than the paper did).

   A protocol is declared as a {!spec}: one list of actions per hook point
   of {!Protocol.protocol} — start/end read, start/end write, lock, unlock
   on regions; barrier, attach, detach on spaces. {!compile} lowers a spec
   to the handler record and is the only place such a record is built:

   - an empty action list compiles to the *physically shared*
     {!Protocol.null_hook}, so the acelang registry's [handler != null_hook]
     derivation sees exactly which synchronization points are null;
   - a non-empty list compiles once into straight closures: hooks of up to
     three actions call their steps directly, longer ones chain, and each
     [Charge] reads its cost-model field without a dispatch-time match;
   - the [has_*] flags of Fig. 1's registration script are derived from the
     action lists, so the Table-4 direct-dispatch deletion pass can never
     skip a live hook. The one exception, [unregistered], declares an
     access point null for dispatch although it has actions; compilation
     rejects it unless every action there is observational (assertions,
     counters) — WRITE_ONCE's "assertion only; registered as null" idiom.

   Protocols whose state machines are not primitives here (STATIC_UPDATE,
   PIPELINE, RACE_CHECK) embed their handler code with [Call], which
   compilation treats as effectful.

   Layers ({!counting}, {!write_combining}) are spec-to-spec transforms, so
   composition happens before compilation and costs nothing at dispatch
   time. *)

module Blocks = Ace_region.Blocks
module Store = Ace_region.Store
module Machine = Ace_engine.Machine
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
  | Call : (Protocol.ctx -> 'a -> unit) -> 'a action
      (* an existing handler, for state machines that are not primitives *)
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
  | Flush_space : Protocol.space action  (* write back / drop every cached copy *)
  | Drop_remote_copies : Protocol.space action  (* discard non-home copies unsent *)

type raction = Store.meta action
type saction = Protocol.space action
type point = Start_read | End_read | Start_write | End_write

type spec = {
  name : string;
  optimizable : bool;
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

let define ?(optimizable = true) ?(start_read = []) ?(end_read = [])
    ?(start_write = []) ?(end_write = []) ?(lock = []) ?(unlock = [])
    ?(barrier = []) ?(attach = []) ?(detach = []) ?(unregistered = []) name =
  {
    name;
    optimizable;
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

(* {2 Write-combining state}

   One dirty-rid queue per (space, node), kept in the space's per-node
   protocol state: DYN_UPDATE's bulk-transfer mode and the
   [write_combining] layer share it. *)

type wc_state = { mutable written : int list }
type Protocol.pstate += Wc of wc_state

let wc_state (ctx : Protocol.ctx) (sp : Protocol.space) =
  let node = ctx.Protocol.proc.Machine.id in
  match sp.Protocol.pstate.(node) with
  | Wc s -> s
  | _ ->
      let s = { written = [] } in
      sp.Protocol.pstate.(node) <- Wc s;
      s

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
        let me = ctx.Protocol.proc.Machine.id in
        let items =
          List.rev_map
            (fun rid ->
              let meta = Store.get store rid in
              let consumers =
                List.filter
                  (fun n -> n <> meta.Store.home)
                  (Store.sharers meta ~except:me)
              in
              (meta, consumers))
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

(* {2 Space-wide detach actions} *)

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

(* {2 Compilation} *)

(* Which argument a hook takes; [Publish] needs it to find the space. *)
type _ site = Region : Store.meta site | Space : Protocol.space site

let charge_fn : type a. charge -> Protocol.ctx -> a -> unit = function
  | Start_hit ->
      fun ctx _ ->
        Machine.advance ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.start_hit
  | End_op ->
      fun ctx _ ->
        Machine.advance ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.end_op
  | Lock_base ->
      fun ctx _ ->
        Machine.advance ctx.Protocol.proc
          ctx.Protocol.rt.Protocol.cost.Cost_model.lock_base
  | Null_hook ->
      fun ctx _ ->
        Machine.advance ctx.Protocol.proc
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
  | Call f -> f
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
  | Flush_space -> flush_space
  | Drop_remote_copies -> drop_remote_copies

and seq : type a. a site -> a action list -> Protocol.ctx -> a -> unit =
 fun site acts -> chain (List.map (action_fn site) acts)

(* A hook: the empty list is THE null hook (physical equality matters —
   the registry compares with [!=]); inside a guard an empty branch does
   nothing. *)
let hook site = function [] -> Protocol.null_hook | acts -> seq site acts

(* Only observational actions may live on an [unregistered] hook: the
   direct-dispatch pass deletes these calls, so anything that charges
   cycles or moves data there would silently change simulated output. *)
let observational : raction -> bool = function
  | Assert_home | Count _ -> true
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
  {
    Protocol.name = s.name;
    optimizable = s.optimizable;
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
   they opt into a custom protocol. Not optimizable: SC forbids reordering
   protocol calls (paper §4.2). *)
let sc =
  define "SC" ~optimizable:false
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
  define "NULL" ~optimizable:true ~lock:sc_lock ~unlock:sc_unlock
    ~detach:[ Drop_remote_copies ]
