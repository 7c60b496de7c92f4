(* The Ace protocol interface: full access control (paper §2.1/§3.2).

   A protocol supplies handlers for every access and synchronization point —
   start/end read, start/end write, barrier, lock, unlock — plus attach and
   detach hooks run when a space adopts or drops the protocol
   (Ace_NewSpace / Ace_ChangeProtocol). The [has_*] flags mirror the
   registration script of Fig. 1: they tell the compiler which handlers are
   null so direct-dispatch can delete the calls, and [optimizable] gates the
   optimization passes (§4.2). Records are built only by [Lang.compile],
   which derives the flags from the protocol's spec. *)

module Machine = Ace_engine.Machine
module Store = Ace_region.Store
module Blocks = Ace_region.Blocks

(* Protocol-private, per-space per-node state. Each protocol extends this
   type with its own constructor (OCaml's answer to the paper's untyped
   space-data pointer, but type-safe). *)
type pstate = ..
type pstate += Pstate_none

(* Slot for an installed protocol-adaptation engine (see Adapt): extensible
   so the runtime record can hold it without depending on the module that
   defines it. *)
type adapt_slot = ..
type adapt_slot += Adapt_none

type runtime = {
  machine : Machine.t;
  am : Ace_net.Am.t;
  net : Ace_net.Reliable.t; (* reliable transport over [am]; all region
                               traffic routes through it *)
  cost : Ace_net.Cost_model.t;
  store : Store.t;
  mutable spaces : space array;
  mutable nspaces : int;
  registry : (string, protocol) Hashtbl.t;
  base_barrier : Machine.Barrier.b;
  coll : Ace_region.Collective.t;
  (* deterministic region naming: (space, owner, allocation seq) -> rid,
     queried remotely via Ops.global_id *)
  names : (int * int * int, int) Hashtbl.t;
  alloc_seq : (int * int, int ref) Hashtbl.t;
  (* collective Ace_ChangeProtocol agreement: space sid -> (protocol name,
     node) posted by the first arriving node; later nodes must match it
     before any node reaches the swap barrier (cleared during the swap) *)
  change_req : (int, string * int) Hashtbl.t;
  (* installed adaptation engine, if any (Adapt.install) *)
  mutable adapt : adapt_slot;
}

and space = {
  sid : int;
  mutable proto : protocol;
  mutable rids : int list; (* regions allocated from this space *)
  mutable pstate : pstate array; (* per node *)
}

and ctx = {
  rt : runtime;
  proc : Machine.proc;
  bctx : Blocks.ctx;
  mutable coll_ctr : int; (* collective-op matching counter *)
  mutable space_ctr : int; (* collective new_space matching counter *)
}

and protocol = {
  name : string;
  optimizable : bool;
  has_start_read : bool;
  has_end_read : bool;
  has_start_write : bool;
  has_end_write : bool;
  start_read : ctx -> Store.meta -> unit;
  end_read : ctx -> Store.meta -> unit;
  start_write : ctx -> Store.meta -> unit;
  end_write : ctx -> Store.meta -> unit;
  barrier : ctx -> space -> unit;
  lock : ctx -> Store.meta -> unit;
  unlock : ctx -> Store.meta -> unit;
  attach : ctx -> space -> unit;
  detach : ctx -> space -> unit;
}

(* A registered null handler still costs its call unless the compiler's
   direct-dispatch pass deletes it (paper §4.2). *)
let null_hook (ctx : ctx) _ =
  Machine.advance ctx.proc ctx.rt.cost.Ace_net.Cost_model.null_hook
