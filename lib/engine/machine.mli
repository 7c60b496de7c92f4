(** A deterministic discrete-event simulation of an N-processor
    distributed-memory machine.

    Each simulated processor runs an OCaml function as a cooperative fiber
    (OCaml 5 effects). A fiber advances its private virtual clock with
    {!advance} (or {!defer} and {!settle}) and blocks on {!await}; the run
    loop always executes the earliest-timestamped pending work, so
    execution is sequentially deterministic.

    A fiber yields through one preallocated per-processor park effect,
    whose handler only stores the captured continuation: {!settle} queues
    the fiber's resumption before it parks, and {!await} on a pending ivar
    leaves a waiter that queues it at the fill. {!await} on a filled ivar
    never yields. Every charge of cycles costs one queue event; a run of
    charges recorded with {!defer} costs one park for the whole run, not
    one per charge, with the same events at the same times. *)

type t

(** A processor's fiber-switch state, private to the engine. *)
type fiber

type proc = private {
  id : int;
  mutable clock : float; (* virtual cycles *)
  machine : t;
  fiber : fiber;
}

(** The simulation engine. There is one: the single-queue, single-domain
    event loop below. The type survives as a one-constructor tag because
    callers still name it: the benchmark's fuzz workload ([perf/workloads.ml])
    builds [Ace_check.Runner.cell] records with [engine = Seq_engine]. *)
type engine = Seq_engine

(** [create ?policy ~nprocs ()] builds a fresh machine. [policy] fixes how
    same-timestamp events are ordered (default {!Event_queue.Fifo}, the
    historical bit-identical behaviour); any policy is a legal execution of
    the simulated machine, so program results at synchronization points must
    not depend on it — the conformance kit checks exactly that. The event
    queue starts with 8 slots per processor, clamped to 16..128. *)
val create : ?policy:Event_queue.policy -> nprocs:int -> unit -> t

val nprocs : t -> int
val stats : t -> Stats.t

(** The event queue's tie-break policy. *)
val policy : t -> Event_queue.policy

(** Attach (or detach) an event tracer. With [None] — the default — every
    instrumentation probe below reduces to one field read, and a traced
    run's simulated times are bit-identical to an untraced run's (the
    tracer only records; it never advances a clock). *)
val set_trace : t -> Trace.t option -> unit

(** Attach (or detach) a causal-DAG recorder for critical-path profiling,
    same contract as tracing: with [None] every probe is one field read,
    and a recorded run's simulated output is bit-identical. *)
val set_crit : t -> Crit.t option -> unit

(** [schedule t ~time f] runs [f] at virtual [time] on the event loop
    ([f] must not block). When a recorder is attached, [f] runs in the
    scheduling event's causal context. *)
val schedule : t -> time:float -> (unit -> unit) -> unit

(** {2 Fiber operations} — may only be called from inside a running fiber. *)

(** Advance the calling processor's clock by [cycles] (>= 0): [defer p
    cycles; settle p]. *)
val advance : proc -> float -> unit

(** [defer p cycles] records a charge of [cycles] (>= 0) without parking.
    The charge still costs its own queue event at its own time: {!settle}
    replays the recorded charges in order, one event each, with the same
    times, insertion order and clock additions as advancing each in turn.

    The contract: between a [defer] and the [settle] that follows it the
    fiber runs only pure code. It pushes no event, fills no ivar, sends
    nothing, reads no clock (its own lags by the pending charges) and
    touches no coherence state. What it may do is local work, bumping a
    statistics counter, and reading state that changes only inside a
    collective (a space's current protocol, swapped between the barriers
    of [change_protocol]). The runtime and interpreter code that defers
    settles before it calls anything else ([Blocks] rejects a processor
    with {!pending} charges), and application code never runs with a
    charge pending. With a tracer or a DAG recorder attached, [defer] is
    {!advance}, so instrumented runs record exactly the intervals they
    always did. *)
val defer : proc -> float -> unit

(** Replay the calling processor's deferred charges, parking once; a no-op
    when none are pending. {!advance}, {!await}, [Barrier.wait] and the
    fiber's exit settle first. *)
val settle : proc -> unit

(** Whether [p] has deferred charges not yet settled: one field read. *)
val pending : proc -> bool

(** {2 Instrumentation probes}

    The simulator's one instrumentation path: every hook outside the
    engine is one of these calls, and each feeds whichever of the tracer
    and the DAG recorder is attached. None moves a virtual clock beyond
    the cycles it is asked to advance. *)

(** A protocol-call class: its trace span name and its DAG activity kind,
    interned once. Make one per call at module initialisation. *)
type op

val op : string -> op

(** [call p op ~space ~rid ~charge f a b] runs one protocol call on [p]:
    it defers [charge] cycles (the dispatch indirection), then runs [f a
    b]. Passing [f]'s two arguments instead of a thunk lets a caller name
    a static function and build no closure per call. The DAG blames the
    whole call, charge included, on [op] and [space]; the trace's
    ["call"] span covers [f a b] only and carries a [space] arg when
    [space >= 0] and a [rid] arg when [rid >= 0]. *)
val call :
  proc -> op -> space:int -> rid:int -> charge:float -> ('a -> 'b -> unit) ->
  'a -> 'b -> unit

(** Lock [rid] acquired / released by [p] at its clock: the release emits
    the hold as a ["lock.hold"] span. *)
val lock_acquired : proc -> rid:int -> unit

val lock_released : proc -> rid:int -> unit

(** A point event on processor [tid]'s row (a drop, a retransmit, a
    protocol change, ...). *)
val instant :
  t -> name:string -> cat:string -> tid:int -> ts:float ->
  (string * int) list -> unit

(** {!advance}, with the cycles blamed on message send overhead instead of
    the processor's current activity. *)
val advance_send : proc -> float -> unit

(** [wire t ~src ~dst ~bytes ~now ~arrival f] puts one message on the
    wire: a send→deliver arc in the trace, a message node in the DAG, and
    [f] scheduled at [arrival] with that node as its cause. *)
val wire :
  t -> src:int -> dst:int -> bytes:int -> now:float -> arrival:float ->
  (unit -> unit) -> unit

(** A counted fan-in: a completion that runs once every expected arrival
    (acks, pushes, batched grants) has come in. Causally the completion
    depends on all of them, not only on the one that happened to arrive
    last. *)
module Fanin : sig
  type m := t
  type t

  (** A fan-in expecting no arrivals yet, whose completion is [k]. *)
  val create : m -> (float -> unit) -> t

  (** Expect one more arrival. A late arrival may be expected while
      others are in flight, as long as the count has not reached zero. *)
  val expect : t -> unit

  (** Arrivals still expected. A fan-in that expects none never
      completes by itself: its creator runs the completion directly. *)
  val pending : t -> int

  (** One expected arrival at [time]: folds the current causal context in;
      the last one makes the join of all arrivals the current cause and
      runs the completion at [time]. *)
  val arrive : t -> time:float -> unit
end

(** Block the calling fiber until the ivar is filled; the processor clock is
    advanced to at least the fill time. Returns the value. On an ivar that
    is already filled this never yields and allocates nothing; on a pending
    one it parks the fiber until the fill's wake-up event. *)
val await : proc -> 'a Ivar.t -> 'a

(** {2 Running} *)

(** [run t program] spawns [program proc] on every processor at time 0 and
    runs to completion. Raises [Failure] on deadlock (fibers alive, no
    events); the message names each blocked processor and the clock it
    stopped at. May be called repeatedly (e.g., successive phases). *)
val run : t -> (proc -> unit) -> unit

(** Maximum processor clock observed (total simulated time, cycles). *)
val time : t -> float

(** Convenience: simulated time in seconds at a given clock rate. *)
val seconds : t -> cycles_per_sec:float -> float

(** {2 Global synchronization primitives} *)

module Barrier : sig
  type b

  (** [create t ~cost] makes a reusable barrier whose release adds
      [cost nprocs] cycles after the last arrival. *)
  val create : t -> cost:(int -> float) -> b

  (** Block until all processors have arrived at this generation. *)
  val wait : b -> proc -> unit
end
