(** Coherence building blocks.

    The paper's §6 calls for "a library of protocol building blocks (for
    example, a routine for invalidating a cache block)"; this module is that
    library. Protocols (and the CRL baseline) are written by composing these
    primitives. All blocking entry points must be called from a simulated
    processor fiber; home-side transactions are serialized per region by the
    directory's busy/pending queue. Every fiber-side entry point raises
    [Invalid_argument] naming itself when the calling processor still has
    deferred charges ({!Ace_engine.Machine.defer}): they run at the
    caller's true clock, so the caller settles first.

    Each coherence leg is written once and shared by the entry points that
    use it: one update landing in the master (pushes, write-backs, recalls,
    pipelined and write-combined writes), one refresh of a consumer's copy,
    one per-destination push delivery (unbatched and batched pushes alike,
    with the home forwarding to sharers the writer's list missed), one lock
    acquire (with or without the data), and one counted fan-in
    ({!Ace_engine.Machine.Fanin}) for every leg that gathers acks, grants
    or deliveries. *)

(** A dirty-region update parked for write-combining (batching mode). *)
type wpend

type ctx = {
  net : Ace_net.Reliable.t;
      (** the reliable transport all coherence traffic routes through;
          with no fault model attached it forwards straight to [Am] *)
  store : Store.t;
  proc : Ace_engine.Machine.proc;
  node : int;  (** [proc.id], cached for the access hot path *)
  mutable lcache : (Store.meta * Store.copy) option;
      (** one-slot memo of the last local-copy lookup (see [local_copy]).
          Dropped-copy legs reset it or the memo serves a stale, orphaned
          entry. *)
  mutable wpending : wpend list;
      (** write-combining queue, newest first; always empty with batching
          off. Every blocking entry point drains it before waiting. *)
}

val make_ctx : Ace_net.Reliable.t -> Store.t -> Ace_engine.Machine.proc -> ctx
val node : ctx -> int

(** Size in bytes of a small control message. *)
val ctl_bytes : int

(** {2 Access sections}

    CRL-style access atomicity: a runtime brackets every access between
    [begin_access] and [end_access]; coherence actions (invalidations,
    recalls, update pushes) that arrive mid-access are deferred to the
    matching [end_access], so the data a program is reading or writing
    never changes underneath it. *)

val begin_access : ctx -> Store.meta -> write:bool -> unit
val end_access : ctx -> Store.meta -> write:bool -> unit

(** {2 Invalidation-protocol legs} *)

(** Obtain a valid [Shared] copy (3-hop recall from an exclusive owner if
    needed). No-op when the local copy is already valid. *)
val fetch_shared : ctx -> Store.meta -> unit

(** Obtain the [Exclusive] copy: recalls the owner, invalidates all other
    sharers (gathering acks), then grants ownership. *)
val fetch_exclusive : ctx -> Store.meta -> unit

(** If this node owns the region, send the data home and downgrade to
    [Shared]; otherwise no messages. *)
val writeback : ctx -> Store.meta -> unit

(** Writeback if owner, then drop the local copy ([Invalid]) and leave the
    sharer set. Used by [change_protocol]'s flush-to-base semantics. *)
val flush : ctx -> Store.meta -> unit

(** {2 Update-protocol legs} *)

(** Send this node's copy to the home; the home refreshes the master and
    forwards the update to every current sharer. The returned ivar fills
    when the home has forwarded (await it for a blocking update; ignore it
    to pipeline). *)
val push_update : ctx -> Store.meta -> unit Ace_engine.Ivar.t

(** Send this node's copy directly to an explicit set of nodes (plus the
    home master), the static-update pattern. The push also reaches every
    sharer [dsts] misses: the home forwards it to them, and a home writer
    adds its directory's sharers to the targets. Fills when every copy has
    been refreshed. *)
val push_to : ctx -> Store.meta -> dsts:int list -> unit Ace_engine.Ivar.t

(** {2 Home-mediated uncached access (counters, pipelined writes)} *)

(** Copy the master into the local buffer without joining the sharer set. *)
val read_home : ctx -> Store.meta -> unit

(** Non-blocking master update; fills on home arrival. *)
val write_home_async : ctx -> Store.meta -> unit Ace_engine.Ivar.t

(** {2 Region locks (queued at the home)} *)

(** Acquire the region's lock: one round trip from a remote node, a local
    queue operation at the home. *)
val home_lock : ctx -> Store.meta -> unit

val home_unlock : ctx -> Store.meta -> unit

(** {2 Home-executed read-modify-write} *)

(** Home-executed fetch-and-add on slot 0: one round trip; the old value is
    left in slot 0 of the caller's local copy. Not for the home node (its
    copy aliases the master) — see {!home_rmw_begin}. *)
val fetch_add : ctx -> Store.meta -> delta:float -> unit

(** Bracket a home-resident in-place read-modify-write of the master so it
    serializes with remote {!fetch_add}s (directory-transaction mutual
    exclusion, independent of the user-visible region lock). *)
val home_rmw_begin : ctx -> Store.meta -> unit

val home_rmw_end : ctx -> Store.meta -> unit

(** Release the region's lock when [after] fills (combined update+release);
    never blocks the caller. *)
val unlock_after : ctx -> Store.meta -> unit Ace_engine.Ivar.t -> unit

(** Home lock acquire whose grant carries the fresh master data (one round
    trip for lock + value). In batching mode, any queued write-combined
    updates ride with the lock request in one vectored message. *)
val lock_fetch : ctx -> Store.meta -> unit

(** {2 Bulk-transfer batching legs}

    Opt-in (consult [Reliable.batching]) coalesced variants of the legs
    above: same-destination messages merge into one vectored bulk message
    ({!Ace_net.Am.send_multi}) and a whole batch pays one sender overhead.
    With batching off these are never called and the ordinary legs behave
    bit-identically to before. *)

(** Batched read misses (bulk prefetch): fetch every [Invalid] region of
    the list with one vectored request per distinct home and one bulk data
    grant per home. Per-region misses are counted as usual; the
    requester-side miss overhead is charged once per batch
    ([coh.bulk_fetch] counts batches). No-op when nothing is missing. *)
val fetch_shared_batch : ctx -> Store.meta list -> unit

(** Batched flush of this node's involvement in the regions (the
    [change_protocol] detach and free/remap path): per-home coalesced
    writebacks and sharer-drops, quiescent cache entries dropped via
    [Store.drop_copy], local-copy memo reset. Caller must be quiescent on
    these regions (no open access sections, no concurrent recalls) —
    call between barriers. [coh.inval_batch] counts batches. *)
val invalidate_batch : ctx -> Store.meta list -> unit

(** Batched {!push_to}: one message per distinct destination for the whole
    (region, consumers) list, single sender overhead; each message part is
    delivered exactly as {!push_to}'s message is. Fills when every
    consumer copy and remote master is refreshed. *)
val push_to_batch :
  ctx -> (Store.meta * int list) list -> unit Ace_engine.Ivar.t

(** Park a dirty-region update for the next {!flush_writes} (the
    write-combining replacement for {!write_home_async}); fills when the
    master holds the update. [coh.write_combined] counts parked updates. *)
val queue_write_home : ctx -> Store.meta -> unit Ace_engine.Ivar.t

(** Flush the write-combining queue as one vectored send (no-op when
    empty). Every blocking entry point calls this implicitly. *)
val flush_writes : ctx -> unit
