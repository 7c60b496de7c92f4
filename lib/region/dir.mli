(** Compact sharer sets for region directories.

    A two-mode set of node ids in [0, nprocs): a limited-pointer inline
    encoding (a short sorted array, the common sparsely-shared case) that
    overflows to a packed int-word bitset once the sharing degree exceeds
    the inline capacity. Memory is proportional to the sharer population,
    not the machine size.

    Iteration visits nodes in ascending id order in both modes — the same
    order the previous [bool array] directory walk produced — allocates
    nothing, and tolerates the callback removing nodes already visited. *)

type t

(** Raises [Invalid_argument] when [nprocs <= 0]. All node arguments below
    must lie in [0, nprocs) ([Invalid_argument] otherwise). *)
val create : nprocs:int -> t

val nprocs : t -> int

(** Number of members. O(1). *)
val count : t -> int

(** Still in the inline small-set encoding (exposed for tests and memory
    accounting; coherence code never needs to know). *)
val is_small : t -> bool

val mem : t -> int -> bool

(** Idempotent insert. May switch the set to bitset mode; the set never
    switches back until {!clear}. *)
val add : t -> int -> unit

(** Idempotent removal. *)
val remove : t -> int -> unit

(** Remove every member, keeping whichever storage is already allocated. *)
val clear : t -> unit

(** [iter t ~except f] applies [f] to each member except [except] in
    ascending node order, without allocating. [f] may {!remove} nodes it
    has already been applied to (including its argument) but must not
    otherwise mutate the set mid-iteration. Pass [~except:(-1)] to visit
    every member. *)
val iter : t -> except:int -> (int -> unit) -> unit

(** [to_list t ~except] is the members except [except], ascending. It
    allocates the list's cells and nothing else. *)
val to_list : t -> except:int -> int list

(** Heap words of storage attributable to this set — the inline array plus
    any bitset words. Never shrinks except across mode resets, so an
    end-of-run sum over regions is the run's peak. *)
val words : t -> int
