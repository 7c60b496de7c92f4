(** Active Messages over the simulated network.

    A message carries a handler closure that executes atomically at the
    destination at delivery time — the same restriction as real Active
    Messages (von Eicken et al.): handlers must not block; they may send
    further messages and fill ivars. Payload size is declared for the cost
    model; the closure carries the actual data.

    {2 Message accounting}

    Two tallies exist and they deliberately count different things:

    - {!messages}/{!bytes_sent} count {e logical} sends — one per {!send}
      call, whatever the network later does to the message.
    - The [net.messages]/[net.bytes] Stats counters (and the per-src/dst,
      per-link families and the latency histogram) count {e physical}
      copies that travel the wire and deliver: a fault-dropped copy is
      excluded (tallied under [net.fault.dropped] and its per-link family
      instead), a fault-duplicated copy counts twice (the extra copy also
      tallied under [net.fault.duplicated]).

    With no fault model attached the two necessarily agree — every logical
    send is exactly one physical delivery (see the invariant test in
    [test_faults.ml]). *)

type t

val create : Ace_engine.Machine.t -> Cost_model.t -> t

val machine : t -> Ace_engine.Machine.t
val cost : t -> Cost_model.t

(** Attach (or detach) a fault model. With [None] — the default — every
    send takes the historical zero-overhead path and delivers exactly once,
    bit-identically to a build without fault support. With [Some f], every
    transmission draws drop/duplicate/jitter fates from [f]. Raw [Am] users
    see lost and duplicated handlers; route through {!Reliable} to get
    exactly-once delivery on a faulty network. *)
val set_faults : t -> Faults.t option -> unit

val faults : t -> Faults.t option

(** Opt-in bulk-transfer mode. The flag itself changes nothing in [Am] —
    every legacy entry point keeps its exact historical behaviour — it is
    the switch the upper layers ({!Blocks}' batched legs, the write-combining
    protocols) consult before taking a vectored path, so batching-off runs
    stay bit-identical to builds without batching support. *)
val set_batching : t -> bool -> unit

val batching : t -> bool

(** One entry of a multicast/vectored send: destination, declared payload
    size, and the handler to run at delivery. Build with {!part}. *)
type part

val part : dst:int -> bytes:int -> (time:float -> unit) -> part

(** [send_multi t ~now ~src parts] is the multicast primitive: parts for
    the {e same} destination coalesce into one vectored wire message whose
    size is the sum of the part sizes and whose delivery runs the part
    handlers in order at one arrival; distinct destinations each get their
    own copy (per-copy wire costs). Coalescing is tallied in
    [net.multi.sends], [net.coalesced] (physical messages saved, k-1 per
    k-part group) and the [net.coalesced.by_link] family, plus a
    ["coalesce"] trace instant per vectored message. Under a fault model
    each vectored message draws one fate — a dropped message loses all its
    parts (route through {!Reliable.send_multi} for retransmission). *)
val send_multi : t -> now:float -> src:int -> part list -> unit

(** [send_multi] charging the calling fiber {e one} sender overhead for the
    whole vector — the multicast half of the batching story: k same-source
    sends cost one injection. No-op on an empty list. *)
val send_multi_from : t -> Ace_engine.Machine.proc -> part list -> unit

(** Destination groups of a part list — (dst, summed bytes, merged handler)
    in first-appearance order, with the same coalescing accounting as
    {!send_multi} — for transports that put the groups on the wire
    themselves ({!Reliable.send_multi}). *)
val coalesce :
  t -> now:float -> src:int -> part list ->
  (int * int * (time:float -> unit)) list

(** [send t ~now ~src ~dst ~bytes h] injects a message at time [now]; the
    handler [h ~time] runs at the destination at delivery time. Does not
    charge sender processor overhead (see {!send_from}). Usable from inside
    message handlers. [src]/[dst] must name simulated processors — they
    feed the per-node and per-link message counters and the trace's
    send->deliver arcs. Under an attached fault model the handler may run
    zero, one or two times. *)
val send : t -> now:float -> src:int -> dst:int -> bytes:int -> (time:float -> unit) -> unit

(** [send_from t proc ~dst ~bytes h] charges the calling fiber the send
    overhead, then injects. *)
val send_from : t -> Ace_engine.Machine.proc -> dst:int -> bytes:int -> (time:float -> unit) -> unit

(** Send, and block the calling fiber until the handler's reply fills the
    returned value: [h] receives an ivar to fill (possibly after further
    messaging). *)
val rpc :
  t -> Ace_engine.Machine.proc -> dst:int -> bytes:int ->
  ('a Ace_engine.Ivar.t -> time:float -> unit) -> 'a

(** Logical sends / bytes: one per {!send} call (see {e Message accounting}
    above). *)
val messages : t -> int

val bytes_sent : t -> int
