(** Causal dependency-DAG recorder for critical-path profiling.

    Attach one to a machine with {!Machine.set_crit} to record, for every
    simulated happening that can bound completion time, a node with a
    "last cause" edge: compute intervals, message deliveries, ivar
    fill→wakeup edges, fan-in joins, and barrier releases. The DAG is
    analyzed by [Ace_obs.Critpath] (critical-path extraction, blame
    attribution, what-if replay).

    Recording never advances a virtual clock — simulated output is
    bit-identical to an unrecorded run — and with no recorder attached
    every hook in the simulator reduces to a single field read.

    A node [i] completes, under replay with per-class cost scaling, at
    [max (completion pred(i) + scale * cost(i), completion pred2(i))]:
    [pred] carries the node's own latency, [pred2] (usually -1, absent)
    is a pure happens-before constraint. *)

type t

val create : nprocs:int -> unit -> t
val nprocs : t -> int

(** Number of nodes recorded so far. *)
val length : t -> int

(** {2 Interned node kinds} (global, shared across recorders) *)

(** Intern a kind name (idempotent; e.g. a protocol-op activity label). *)
val kind : string -> int

val kind_name : int -> string

(** All interned kind names, indexed by kind id. *)
val kinds : unit -> string array

val k_msg : int
val k_barrier : int
val k_send_ovh : int

(** {2 Recording} — called by the simulator's hooks. *)

(** The causal context of the event currently executing (-1 outside any). *)
val cur : t -> int

val set_cur : t -> int -> unit

(** The current causal context, frozen: use instead of {!cur} whenever
    the id escapes into a deferred closure or an ivar — freezing fixes the
    node's time, cost, and meaning so later coalescing cannot mutate what
    the capture refers to. *)
val export_cur : t -> int

(** Run [f] with [cur] temporarily set (e.g. around a barrier-release
    fill, so woken fibers inherit the release as their cause). *)
val with_cur : t -> int -> (unit -> 'a) -> 'a

(** Per-processor chain head: the last node of the fiber's own activity. *)
val head : t -> int -> int

val set_head : t -> proc:int -> int -> unit

(** Append a node; returns its id. [time] is its completion time. *)
val node :
  t ->
  pred:int ->
  ?pred2:int ->
  kind:int ->
  a:int ->
  b:int ->
  time:float ->
  cost:float ->
  unit ->
  int

(** [join c x y] merges two causes into one happens-before node (zero
    cost, completion = the later input); -1 is the identity, so fan-in
    counters fold their contributions with no first-arrival case. *)
val join : t -> int -> int -> int

(** A compute interval on [proc] ending at [time], blamed on the proc's
    current activity. Consecutive intervals coalesce into one open node —
    across activity changes, with an exact per-(kind, space) split kept on
    the side — until the node freezes (acquires an incoming edge). *)
val advance : t -> proc:int -> time:float -> cycles:float -> unit

(** A fiber wakeup at [time] caused by [cause] (the filler's context, -1
    unknown); pred2 is the fiber's own prior chain. Sets the proc head. *)
val wake : t -> proc:int -> cause:int -> time:float -> int

(** Phase start for [proc] (Machine.run), caused by [cause] (the join of
    all previous heads, -1 on the first phase). Sets the proc head. *)
val root : t -> proc:int -> cause:int -> time:float -> int

(** {2 Activity tagging} — what compute intervals are blamed on. *)

(** Set the activity kind only (space preserved); returns the old kind. *)
val swap_kind : t -> proc:int -> int -> int

(** Set kind and space; returns the old pair. *)
val swap_activity : t -> proc:int -> kind:int -> space:int -> int * int

val set_activity : t -> proc:int -> kind:int -> space:int -> unit

(** {2 Node accessors} (for analysis) *)

val time_of : t -> int -> float
val pred_of : t -> int -> int
val heads_arr : t -> int array

(** Exact-length bulk copies of the node arrays
    [(pred, pred2, kind, a, b, time, cost)] — flushes open nodes first.
    Much cheaper than per-node accessor loops for snapshot construction. *)
val dump :
  t ->
  int array * int array * int array * int array * int array * float array
  * float array

(** The breakdown pool: per-activity splits of mixed ("seg") nodes, as
    rows (node, kind, space, cost). *)
val bd_count : t -> int

val bd_node_of : t -> int -> int
val bd_kind_of : t -> int -> int
val bd_space_of : t -> int -> int
val bd_cost_of : t -> int -> float

(** Latest node completion time (0 when empty). *)
val end_time : t -> float

(** {2 Active-recorder registry} — used by {!Machine.run} so {!Ivar.fill}
    can snapshot the filler's causal context without a machine in scope.
    Domain-local; the no-recorder fast path is one atomic load. *)

val activate : t -> unit
val deactivate : unit -> unit

(** The active recorder's [cur], or -1 when none is active. *)
val fill_cause : unit -> int

(** {2 Serialization} — the ace-critpath-v1 JSON format. *)

val to_buffer : t -> Buffer.t -> unit
val write_file : t -> string -> unit
