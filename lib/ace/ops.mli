(** The Ace library routines (paper Table 2) plus the runtime annotations of
    Fig. 3, as seen by application code.

    Every access-control call ([start_read] .. [unlock]) looks up the
    region's space and dispatches to the space's current protocol (§4.1),
    charging the dispatch indirection from the cost model; the protocol's
    handler does the rest. All calls must run inside a simulated processor
    fiber ({!Runtime.run}). *)

type ctx = Protocol.ctx
type h = Ace_region.Store.meta

(** Calling processor's id / the machine size. *)
val me : ctx -> int

val nprocs : ctx -> int

(** Region id of a handle. *)
val rid : h -> int

(** Ace_GMalloc: allocate a region of [len] floats from [space], homed at
    the caller; records its deterministic global name for {!global_id}. *)
val alloc : ctx -> space:int -> len:int -> h

(** ACE_MAP: translate a region id into a local handle (cached mapping). *)
val map : ctx -> int -> h

(** ACE_UNMAP. *)
val unmap : ctx -> h -> unit

(** The calling node's view of the region payload; valid between a
    [start_*] and the matching [end_*]. Raises [Invalid_argument] if the
    region is not mapped on this node. *)
val data : ctx -> h -> float array

(** ACE_START_READ / ACE_END_READ / ACE_START_WRITE / ACE_END_WRITE:
    dispatch to the space's protocol, then maintain the access section
    (coherence actions arriving mid-section are deferred to the end). *)
val start_read : ctx -> h -> unit

val end_read : ctx -> h -> unit
val start_write : ctx -> h -> unit
val end_write : ctx -> h -> unit

(** Ace_Lock / Ace_UnLock on a region, via the space's protocol. *)
val lock : ctx -> h -> unit

val unlock : ctx -> h -> unit

(** Direct dispatch (§4.2), for compiled code that knows the space's
    protocol: the same calls as [start_read] .. [unlock], to the space's
    current protocol and under the same trace and DAG probes, without the
    dispatch indirection's charge and per-space count. *)
val direct_start_read : ctx -> h -> unit

val direct_end_read : ctx -> h -> unit
val direct_start_write : ctx -> h -> unit
val direct_end_write : ctx -> h -> unit
val direct_lock : ctx -> h -> unit
val direct_unlock : ctx -> h -> unit

(** The machine-wide barrier with no protocol hook (used by protocols and
    by [change_protocol] internally). *)
val base_barrier : ctx -> unit

(** Ace_Barrier(space): the space's protocol acts first (e.g. a static
    update protocol propagates its writes), then the processors
    synchronize. *)
val barrier : ctx -> space:int -> unit

(** Ace_ChangeProtocol: collective. The old protocol defines the transition
    semantics via its detach hook (flush to base state for the default
    protocol); barriers fence the detach, the swap, and the attach. *)
val change_protocol : ctx -> space:int -> string -> unit

(** Collective adaptation point: consult the runtime's installed
    adaptation engine ({!Adapt.install}) for [space] and collectively
    switch its protocol if the engine so advises, returning the protocol
    switched to. Free (and [None]) when no engine is installed. *)
val adapt : ctx -> space:int -> string option

(** Collective Ace_NewSpace for SPMD program text (Fig. 2): the k-th
    collective call on every node denotes the same space; returns its id. *)
val new_space : ctx -> string -> int

(** Charge local computation cycles. *)
val work : ctx -> float -> unit

(** Deterministic region naming: the rid of the [seq]-th region [owner]
    allocated from [space]. Remote queries cost one name-service round
    trip. Callers must synchronize (barrier) after the allocation phase. *)
val global_id : ctx -> space:int -> owner:int -> seq:int -> int

(** Collective broadcast of an int array computed at [root]. *)
val bcast : ctx -> root:int -> (unit -> int array) -> int array

(** Collective all-gather of one int array per node, indexed by node. *)
val allgather : ctx -> int array -> int array array

(** The backend-neutral DSM facade shared with {!Ace_crl.Crl.Api} (paper
    §5.1: the same application sources run on both systems). *)
module Api :
  Ace_region.Dsm_intf.S with type ctx = Protocol.ctx and type h = h
