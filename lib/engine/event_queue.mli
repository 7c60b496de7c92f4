(** A deterministic priority queue of timestamped thunks.

    Events are ordered by timestamp; ties are broken by a pluggable
    {!policy} (insertion order by default), so a simulation run is
    bit-reproducible per policy. Implemented as a 4-ary heap of runs: a run
    is a FIFO of events with one timestamp and increasing tie-break order,
    so a push at the same time as the previous one is an O(1) append and
    the heap moves only unboxed floats and ints. The pop path is
    exceptionless and allocation-free (results land in per-queue slots
    rather than an option). *)

(** How same-timestamp events are ordered. A simulated machine does not
    define an order for simultaneous events, so every policy yields a legal
    execution; the conformance kit ({!Ace_check}) runs one program under
    many policies to check that program results are schedule-independent.

    - [Fifo] (default): insertion order — the historical behaviour,
      bit-identical to builds without policy support.
    - [Random seed]: each event draws a priority from a seeded splitmix64
      stream at push time; deterministic per seed.
    - [Rotate {stride; offset}]: every [stride]-th inserted event (those
      with [seq mod stride = offset]) is delayed behind its tie group — a
      round-robin "delay set" explorer in the CHESS style. *)
type policy =
  | Fifo
  | Random of int
  | Rotate of { stride : int; offset : int }

(** Round-trippable textual form ("fifo", "random:SEED",
    "rotate:STRIDE:OFFSET") — the representation [.repro] files use. *)
val policy_to_string : policy -> string

(** Raises [Invalid_argument] on anything {!policy_to_string} cannot
    produce. *)
val policy_of_string : string -> policy

type t

(** [create ?policy ?capacity ()] makes an empty queue with room for
    [capacity] pending events (default 128) in [capacity / 4] runs before
    its first growth; both double on demand, so the capacity changes
    set-up cost and memory only, never the order of events. Raises
    [Invalid_argument] on a [capacity] below 4, or on a [Rotate] with
    [stride < 2] or [offset] outside [0..stride-1]. *)
val create : ?policy:policy -> ?capacity:int -> unit -> t

(** The tie-break policy fixed at creation. *)
val policy : t -> policy

(** [push t ~time f] schedules [f] to run at virtual time [time].
    Raises [Invalid_argument] if [time] is negative or not finite. *)
val push : t -> time:float -> (unit -> unit) -> unit

(** [pop_min t] removes the earliest event and stores it in the slots read
    by {!popped_time} and {!popped_thunk}, returning [true]; returns [false]
    (touching nothing) if the queue is empty. Allocation-free. *)
val pop_min : t -> bool

(** Timestamp of the event most recently removed by {!pop_min}.
    Meaningless before the first successful [pop_min]. *)
val popped_time : t -> float

(** Thunk of the event most recently removed by {!pop_min}. *)
val popped_thunk : t -> unit -> unit

(** [drain t f] pops every event in order, calling [f time thunk] for each.
    [f] may push further events; draining continues until the queue is
    empty. [drain] does not update {!popped_time}. On return the
    {!popped_thunk} slot is cleared, so the queue retains no reference into
    the last event's closure graph. *)
val drain : t -> (float -> (unit -> unit) -> unit) -> unit

val is_empty : t -> bool
val length : t -> int

(** Timestamp of the earliest pending event. *)
val peek_time : t -> float option
