(** A persistent worker pool over OCaml 5 domains, for running independent
    simulations side by side: the experiment harness's grid cells and the
    conformance kit's reference run and schedule cells.

    Helpers are spawned on the first parallel {!run_all} that needs them
    and then reused by every later call, so a caller that submits many
    small batches (one per fuzzed program) pays for each domain once. A
    helper runs each batch with the submitting domain's [Gc] minor heap
    size, so a program that enlarges its minor heap gets the same GC
    cadence on every domain (in OCaml 5 a minor collection stops every
    domain, so one small-heap helper would collect the others early).

    Results never depend on the pool: tasks must share no mutable state,
    results come back in task order, and exceptions are reported as a
    serial run would report the first one. *)

(** [ACE_JOBS] when set, else [Domain.recommended_domain_count ()]. Raises
    [Invalid_argument] when [ACE_JOBS] is not a positive integer. *)
val default_jobs : unit -> int

(** [run_all ?jobs tasks] runs every task, at most [jobs] at a time
    (default {!default_jobs}), and returns their results in task order.
    The calling domain works on the batch too. Every task runs even when
    one raises; afterwards the lowest-index task's exception is re-raised
    with its backtrace.

    [jobs = 1], a single task, a call from inside a running task, or a call
    made while another domain's batch holds the pool runs the tasks in
    order on the calling domain. *)
val run_all : ?jobs:int -> (unit -> 'a) array -> 'a array
