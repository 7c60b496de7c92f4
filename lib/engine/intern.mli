(** A global interning table: names get dense integer ids 0, 1, 2, ... in
    first-intern order, each carrying a value fixed when it was interned.
    Tables are shared by all domains; every operation takes the table's
    mutex, so callers intern once (at module initialization) and keep the
    id. *)

type 'a t

(** [create filler] is an empty table; [filler] pads unused capacity. *)
val create : 'a -> 'a t

(** [intern t name v] is [name]'s id: an existing one (its value is left
    as it was), or the next dense id, which then carries [v]. *)
val intern : 'a t -> string -> 'a -> int

(** Ids handed out so far. *)
val size : 'a t -> int

(** Raises [Invalid_argument] on an id not handed out. *)
val name : 'a t -> int -> string

val value : 'a t -> int -> 'a

(** All interned names, indexed by id (a snapshot). *)
val names : 'a t -> string array
