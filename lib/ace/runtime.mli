(** Global Ace runtime state: the protocol registry, spaces, and SPMD
    program execution on the simulated machine. *)

(** Build a runtime on a fresh [nprocs]-node simulated machine. [cost]
    defaults to the Ace profile ({!Ace_net.Cost_model.cm5_ace}); pass the
    CRL profile (or a custom one) for ablations. [policy] fixes the event
    queue's same-timestamp tie-break (default FIFO — bit-identical to
    historical builds); program results must not depend on it. SC and NULL
    are pre-registered. *)
val create :
  ?cost:Ace_net.Cost_model.t ->
  ?policy:Ace_engine.Event_queue.policy ->
  nprocs:int -> unit -> Protocol.runtime

(** The pre-registered protocols, SC and NULL. *)
val builtins : Protocol.protocol list

val machine : Protocol.runtime -> Ace_engine.Machine.t

(** The raw Active Messages layer (attach a fault model here with
    [Am.set_faults]) and the reliable transport the runtime routes
    through. *)
val am : Protocol.runtime -> Ace_net.Am.t

val net : Protocol.runtime -> Ace_net.Reliable.t
val store : Protocol.runtime -> Ace_region.Store.t
val nprocs : Protocol.runtime -> int

(** Attach/detach an event tracer on the underlying machine (see
    {!Ace_engine.Machine.set_trace}); tracing never perturbs simulated
    time. *)
val set_trace : Protocol.runtime -> Ace_engine.Trace.t option -> unit

(** Add a protocol to the registry (the paper's registration script plus
    link step). Raises [Invalid_argument] on duplicate names. *)
val register : Protocol.runtime -> Protocol.protocol -> unit

(** Look a protocol up by name; raises [Invalid_argument] if unknown. *)
val find_protocol : Protocol.runtime -> string -> Protocol.protocol

(** All registered protocols, sorted by name. *)
val protocols : Protocol.runtime -> Protocol.protocol list

(** Ace_NewSpace before the simulation starts (experiment setup); from SPMD
    code use {!Ops.new_space}. *)
val new_space : Protocol.runtime -> string -> Protocol.space

(** The space with the given id; raises [Invalid_argument] if out of
    range. *)
val space : Protocol.runtime -> int -> Protocol.space

(** Per-processor context construction (done by {!run}). *)
val make_ctx : Protocol.runtime -> Ace_engine.Machine.proc -> Protocol.ctx

(** Drive an SPMD program: every simulated processor runs [program] with
    its own context. May be called repeatedly for successive phases. *)
val run : Protocol.runtime -> (Protocol.ctx -> unit) -> unit

(** Total simulated time so far, in seconds at the modelled clock rate. *)
val time_seconds : Protocol.runtime -> float
