(** A CRL-like region DSM (Johnson, Kaashoek, Wallach, SOSP '95): the same
    region API as Ace but one fixed, compiled-in protocol — home-based
    sequentially consistent invalidation — and CRL's cost profile (a hash
    lookup on every [map], no dispatch indirection). The baseline of the
    paper's Figure 7a. *)

type t
(** One simulated machine plus CRL runtime. *)

(** [policy] fixes the event queue's same-timestamp tie-break (default
    FIFO); see {!Ace_engine.Event_queue.policy}. *)
val create :
  ?cost:Ace_net.Cost_model.t ->
  ?policy:Ace_engine.Event_queue.policy ->
  nprocs:int -> unit -> t

type ctx
(** Per-processor context, handed to the SPMD program by {!run}. *)

(** Run an SPMD program on every simulated processor. *)
val run : t -> (ctx -> unit) -> unit

val machine : t -> Ace_engine.Machine.t

(** The raw Active Messages layer (attach a fault model here with
    [Am.set_faults]) and the reliable transport the runtime routes
    through. *)
val am : t -> Ace_net.Am.t

val net : t -> Ace_net.Reliable.t
val store : t -> Ace_region.Store.t

(** Total simulated seconds at the modelled clock rate. *)
val time_seconds : t -> float

type h = Ace_region.Store.meta
(** A mapped region handle. *)

val me : ctx -> int
val nprocs : ctx -> int
val rid : h -> int

(** rgn_create: regions are homed at their creator; [space] is ignored
    (CRL has no spaces). *)
val alloc : ctx -> space:int -> len:int -> h

(** rgn_map: a region-table hash lookup on every call. *)
val map : ctx -> int -> h

val unmap : ctx -> h -> unit
val data : ctx -> h -> float array

(** rgn_start_read .. rgn_end_write: the fixed SC invalidation protocol,
    with CRL's access-section atomicity. *)
val start_read : ctx -> h -> unit

val end_read : ctx -> h -> unit
val start_write : ctx -> h -> unit
val end_write : ctx -> h -> unit
val lock : ctx -> h -> unit
val unlock : ctx -> h -> unit
val barrier : ctx -> space:int -> unit

(** No-op: a single-protocol system safely ignores protocol hints. *)
val change_protocol : ctx -> space:int -> string -> unit

(** No-op ([None]): CRL has no protocols to adapt between. *)
val adapt : ctx -> space:int -> string option

val work : ctx -> float -> unit

(** Deterministic region naming: the rid of the [seq]-th region [owner]
    allocated with namespace [space] (a pure naming namespace on CRL).
    Remote queries cost one name-service round trip to the owner. *)
val global_id : ctx -> space:int -> owner:int -> seq:int -> int

val bcast : ctx -> root:int -> (unit -> int array) -> int array
val allgather : ctx -> int array -> int array array

(** The backend-neutral DSM facade (paper §5.1). *)
module Api : Ace_region.Dsm_intf.S with type ctx = ctx and type h = h
