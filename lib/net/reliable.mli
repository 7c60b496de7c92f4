(** Reliable, exactly-once, in-order message delivery over {!Am}.

    The region runtime (coherence building blocks, collectives, the name
    service) routes all its traffic through this transport, so every
    protocol survives a lossy network unchanged. Per directed link the
    sender numbers messages, retransmits on timeout with exponential
    backoff, and the receiver owes an ACK for every copy, suppresses
    duplicates, and releases handlers strictly in sequence order (early
    arrivals wait in a reorder buffer).

    ACKs are piggybacked and cumulative: an owed ACK rides the next data
    message on the reverse link for [ack_bytes] of header and zero extra
    messages, and a delayed-ACK timer ([ack_delay] cycles) covers quiet
    links with one dedicated message settling everything owed at once. An
    ACK lost with its carrier regenerates when the unACKed data
    retransmits.

    When the underlying [Am.t] has no fault model attached, every entry
    point forwards straight to [Am] with zero protocol overhead — no
    sequence numbers, ACKs or timers — so faultless runs are bit-identical
    to the raw transport.

    Counters (all under the machine's Stats): [net.retransmits] (plus the
    [net.retransmits.by_link] family), [net.timeouts] (timer expirations
    that found the message unACKed), [net.acks] (obligations created, one
    per received copy), [net.acks.piggybacked] (obligations that rode a
    reverse-link data message), [net.acks.cumulative] (obligations beyond
    the first folded into each dedicated ACK), [net.dup_suppressed], and
    [net.giveups] (messages abandoned after [max_retries] failed
    retransmissions — the blocked requester then appears in
    [Machine.run]'s deadlock report). Retransmissions are recorded in an
    attached trace as ["retransmit"] instants (category ["net"]). *)

type t

(** [create ?rto ?backoff ?max_retries ?ack_delay am]: [rto] is the initial
    retransmit timeout in cycles (armed after every transmission), scaled
    by [backoff] after each retransmission; after [max_retries] failed
    retransmissions the message is abandoned. [ack_delay] is the delayed-ACK
    timer: how long the receiver holds an owed ACK hoping for reverse-link
    traffic to piggyback on (keep it well under [rto]). Raises
    [Invalid_argument] on a non-positive [rto] or [ack_delay],
    [backoff < 1] or negative [max_retries]. *)
val create :
  ?rto:float -> ?backoff:float -> ?max_retries:int -> ?ack_delay:float ->
  Am.t -> t

val am : t -> Am.t
val machine : t -> Ace_engine.Machine.t
val cost : t -> Cost_model.t

(** Messages sent but not yet ACKed, across all channels. Nonzero after a
    completed run means some sender gave up. *)
val pending : t -> int

(** Same contracts as {!Am.send}/{!Am.send_from}/{!Am.rpc}, with the added
    guarantee that under a fault model the handler runs exactly once, and
    handlers on the same directed link run in send order. *)
val send :
  t -> now:float -> src:int -> dst:int -> bytes:int -> (time:float -> unit) -> unit

val send_from :
  t -> Ace_engine.Machine.proc -> dst:int -> bytes:int -> (time:float -> unit) -> unit

val rpc :
  t -> Ace_engine.Machine.proc -> dst:int -> bytes:int ->
  ('a Ace_engine.Ivar.t -> time:float -> unit) -> 'a

(** Re-export of {!Am.part} for transport clients. *)
val part : dst:int -> bytes:int -> (time:float -> unit) -> Am.part

(** Whether the underlying [Am.t] is in opt-in bulk-transfer mode — the
    switch the batched coherence legs consult (see {!Am.set_batching}). *)
val batching : t -> bool

(** {!Am.send_multi}/{!Am.send_multi_from} with reliable delivery: each
    coalesced destination group travels as one sequenced message, so a
    dropped vector retransmits whole and its parts still release in order
    against the link's other traffic. *)
val send_multi : t -> now:float -> src:int -> Am.part list -> unit

val send_multi_from : t -> Ace_engine.Machine.proc -> Am.part list -> unit
