(** Region naming, per-node cached copies, and home directories.

    A region is an arbitrarily-sized coherence unit (user-specified
    granularity, paper §2.3). Every region has a home node; the home holds
    the authoritative [master] copy except while some node holds the region
    exclusively (recorded in the directory). *)

type state = Invalid | Shared | Exclusive

type copy = {
  cdata : float array;     (** node-local cached data *)
  mutable cstate : state;
  mutable readers : int;   (** active start_read..end_read sections *)
  mutable writers : int;   (** active start_write..end_write sections
                               (compiled code may nest them after hoisting) *)
  mutable deferred : (float -> unit) list;
      (** coherence actions (invalidation, recall) that arrived during an
          active access, run at the matching end_* — CRL's access
          atomicity guarantee *)
}

type dir = {
  mutable owner : int;             (** node holding a modified copy; -1 = none *)
  sharers : Dir.t;                 (** nodes with a (possibly) valid copy —
                                       compact two-mode set, memory
                                       proportional to the sharer count *)
  mutable busy : bool;             (** home transaction in progress *)
  pending : (float -> unit) Queue.t; (** queued transactions, by arrival *)
}

type hlock = {
  mutable held_by : int;           (** -1 = free *)
  waiting : (int * (float -> unit)) Queue.t;
}

(** Per-region cache-entry table: a short assoc list while few nodes hold
    copies, overflowing to a dense per-node array for widely-replicated
    regions (where dense is proportional to the live population anyway).
    Access it through {!ensure_copy}/{!copy_of}/{!drop_copy}. *)
type cmap

type meta = {
  rid : int;
  home : int;
  len : int;                       (** payload length, floats *)
  mutable space : int;             (** owning space id; -1 = none (CRL) *)
  master : float array;            (** authoritative copy at home *)
  copies : cmap;                   (** per-node cache entries *)
  mapped : Dir.t;                  (** nodes that mapped the region but may
                                       not hold a cache entry yet — a map
                                       call costs one compact-set bit, not
                                       a zeroed copy record *)
  dir : dir;
  lock : hlock;
}

type t

(** [create ?stats ~nprocs ()] makes an empty store. When [stats] (the
    owning machine's counters) is supplied, every allocation bumps
    [region.allocs]/[region.bytes], the per-home [region.allocs.by_home]
    family, and the [region.alloc_bytes] size histogram. *)
val create : ?stats:Ace_engine.Stats.t -> nprocs:int -> unit -> t

val nprocs : t -> int

(** [alloc t ~home ~len ~space] creates a region homed at [home]. The home's
    cache entry aliases [master] and starts [Shared]. *)
val alloc : t -> home:int -> len:int -> space:int -> meta

val get : t -> int -> meta
val count : t -> int
val bytes : meta -> int

(** Total heap words of per-region directory bookkeeping (sharer sets plus
    copy-table indexes, payload excluded) across all live regions. Both
    structures only grow over a region's lifetime, so reading this at the
    end of a run yields the run's peak. *)
val dir_words : t -> int

(** The node's cache entry, creating an [Invalid] zeroed one if absent.
    Returns whether it already existed (a "map hit"). *)
val ensure_copy : meta -> node:int -> copy * bool

(** The map-call bookkeeping: marks the node in the compact mapped set and
    returns whether the node already had the region mapped or cached — the
    map_hit/map_miss split. Unlike {!ensure_copy}, no cache entry is
    allocated; it appears on first actual access. *)
val map_note : meta -> node:int -> bool

(** Whether the node has the region mapped (or holds a cache entry). *)
val is_mapped : meta -> node:int -> bool

(** [ensure_copy] without the existence flag (and without allocating the
    pair) — the variant coherence hot paths use. *)
val ensure_copy_c : meta -> node:int -> copy

(** Cache entry if present. *)
val copy_of : meta -> node:int -> copy option

(** [node]'s view of the region payload: its cache entry's data, created
    (zeroed, [Invalid]) for a region mapped on [node] but never accessed.
    Raises [Invalid_argument] if the region is not mapped on [node]. *)
val data : meta -> node:int -> float array

(** {2 Bulk payload movement}

    All region data crossing the simulated wire moves through these blits
    (one [memmove] per region, never a per-element loop). [src]/[dst] is a
    region image — a copy's [cdata] or the home's [master]; [buf] is a
    message payload buffer, with the region's slice at offset [at]. [pos]
    and [len] select a partial slice of the region (default: all of it);
    ranges are validated against the region length so a wrong-sized payload
    fails at the blit instead of silently corrupting a neighbour. *)

(** [blit_out meta ~src ~at buf] copies a region slice of [src] out into
    the payload buffer [buf] at offset [at]. *)
val blit_out :
  meta -> ?pos:int -> ?len:int -> src:float array -> at:int ->
  float array -> unit

(** [blit_in meta ~buf ~at dst] copies the payload slice back into the
    region image [dst]. *)
val blit_in :
  meta -> ?pos:int -> ?len:int -> buf:float array -> at:int ->
  float array -> unit

(** Fresh heap copy of a whole region image (the payload a data message
    carries). Validates the image length. *)
val snapshot : meta -> src:float array -> float array

(** Remove a node's cache entry entirely, returning its memory to the GC —
    the region free/remap path, also used by the batched invalidation leg.
    The entry must be quiescent ([Invalid_argument] otherwise: active
    accesses or parked coherence actions), and the home's entry can never
    be dropped (it aliases [master]). Any cached [copy] pointer taken
    before the drop — including {!Blocks.t}'s one-slot memo — is stale
    after it. *)
val drop_copy : meta -> node:int -> unit

(** [iter_sharers meta ~except f] applies [f] to each current sharer node
    except [except], in ascending node order, without building a list.
    [f] must not toggle sharer bits of nodes it has not yet visited. *)
val iter_sharers : meta -> except:int -> (int -> unit) -> unit

(** Current sharer nodes, excluding [except], ascending. Allocates the
    list's cells (3 words a sharer) and nothing else; prefer
    {!iter_sharers} on hot paths. *)
val sharers : meta -> except:int -> int list

(** Directory invariant checks (used by tests and debug assertions):
    at most one owner; an owner implies no other sharer marked Exclusive. *)
val check_invariants : meta -> unit
