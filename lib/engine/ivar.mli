(** Write-once synchronization cells.

    An ivar is filled exactly once, at a virtual time; waiters registered
    before the fill are notified with the fill time and value. *)

type 'a t

val create : unit -> 'a t

(** [fill t ~time v] fills the ivar and notifies all waiters.
    Raises [Failure] if already filled. *)
val fill : 'a t -> time:float -> 'a -> unit

val is_filled : 'a t -> bool

(** The fill time and the value of a filled ivar, read without allocating.
    Raise [Invalid_argument] if the ivar is not filled. *)
val fill_time : 'a t -> float

val value : 'a t -> 'a

(** [on_fill t f] calls [f ~time v] now if filled, otherwise when filled. *)
val on_fill : 'a t -> (time:float -> 'a -> unit) -> unit

(** The causal context of the fill — the active {!Crit} recorder's current
    node at fill time, or -1 when none was active (or not yet filled). *)
val cause : 'a t -> int
