(** A deterministic discrete-event simulation of an N-processor
    distributed-memory machine.

    Each simulated processor runs an OCaml function as a cooperative fiber
    (OCaml 5 effects). A fiber advances its private virtual clock with
    {!advance} and blocks on {!await}; the run loop always executes the
    earliest-timestamped pending work, so execution is sequentially
    deterministic. *)

type t

type proc = private {
  id : int;
  mutable clock : float; (* virtual cycles *)
  machine : t;
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
    not depend on it — the conformance kit checks exactly that. *)
val create : ?policy:Event_queue.policy -> nprocs:int -> unit -> t

val nprocs : t -> int
val stats : t -> Stats.t

(** The event queue's tie-break policy. *)
val policy : t -> Event_queue.policy

(** Attach (or detach) an event tracer. With [None] — the default — every
    instrumentation point in the simulator reduces to one field read, and
    a traced run's simulated times are bit-identical to an untraced run's
    (the tracer only records; it never advances a clock). *)
val set_trace : t -> Trace.t option -> unit

val trace : t -> Trace.t option

(** Attach (or detach) a causal-DAG recorder for critical-path profiling,
    same contract as tracing: with [None] every hook is one field read,
    and a recorded run's simulated output is bit-identical. *)
val set_crit : t -> Crit.t option -> unit

val crit : t -> Crit.t option

(** [schedule t ~time f] runs [f] at virtual [time] on the event loop
    (used for message deliveries; [f] must not block). When a recorder is
    attached, [f] runs in the scheduling event's causal context. *)
val schedule : t -> time:float -> (unit -> unit) -> unit

(** Like {!schedule} but [f] runs with the given {!Crit} node as its
    causal context (used by message delivery, whose cause is the freshly
    recorded send→deliver arc). Plain push when no recorder is attached. *)
val schedule_cause : t -> time:float -> cause:int -> (unit -> unit) -> unit

(** {2 Fiber operations} — may only be called from inside a running fiber. *)

(** Advance the calling processor's clock by [cycles] (>= 0). *)
val advance : proc -> float -> unit

(** Like {!advance}, but when a recorder is attached the cycles are blamed
    on the given {!Crit} kind instead of the current activity (e.g.
    [Crit.k_send_ovh] for message send overhead). *)
val advance_as : proc -> int -> float -> unit

(** Block the calling fiber until the ivar is filled; the processor clock is
    advanced to at least the fill time. Returns the value. *)
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
