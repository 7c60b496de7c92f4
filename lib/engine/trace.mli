(** A low-overhead event tracer keyed to simulated time.

    Instrumentation points record spans (protocol calls, barrier
    generations, lock holds) and send->deliver arcs into an in-memory
    buffer; {!write_file} emits Chrome trace-event JSON (loadable in
    chrome://tracing or Perfetto) with one "thread" row per simulated
    processor. Timestamps are simulated cycles. Recording never advances a
    virtual clock, so traced runs produce bit-identical simulated output. *)

type ev = {
  name : string;
  cat : string;
  ph : char; (* 'X' complete, 'b'/'e' async begin/end, 'i' instant *)
  ts : float;
  dur : float;
  tid : int;
  id : int;
  args : (string * int) list;
}

type t

val create : unit -> t

(** Number of buffered events. *)
val n_events : t -> int

(** A completed span on processor [tid]: [[ts, ts + dur]]. *)
val span :
  t -> name:string -> cat:string -> tid:int -> ts:float -> dur:float ->
  ?args:(string * int) list -> unit -> unit

val instant :
  t -> name:string -> cat:string -> tid:int -> ts:float ->
  ?args:(string * int) list -> unit -> unit

(** A send->deliver arc from [tid_src] at [ts] to [tid_dst] at [ts_end],
    emitted as an async-nestable begin/end pair sharing a fresh id. *)
val arc :
  t -> name:string -> cat:string -> tid_src:int -> tid_dst:int -> ts:float ->
  ts_end:float -> ?args:(string * int) list -> unit -> unit

(** [lock_acquired]/[lock_released] bracket a lock hold; the release emits a
    ["lock.hold"] span (category ["lock"]) covering acquire to release. *)
val lock_acquired : t -> tid:int -> rid:int -> ts:float -> unit
val lock_released : t -> tid:int -> rid:int -> ts:float -> unit

val to_buffer : t -> nprocs:int -> Buffer.t -> unit
val write_file : t -> nprocs:int -> string -> unit
