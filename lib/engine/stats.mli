(** Named counters, dimensioned counter families, and fixed-bucket
    histograms accumulated during a simulation run.

    Names are interned to dense integer slots; hot callers intern once at
    module initialization and bump counters by id, which costs an array
    load/store per event instead of a string-keyed hash lookup. The string
    API remains for tests and one-off queries. *)

type t

(** A counter's interned slot. Interning is global (shared by all stats
    instances and all domains) and thread-safe. *)
type id

(** A dimensioned counter family: one named counter per small integer index
    (node id, space id, region id, link id). Interned like {!id}. *)
type fam

(** A fixed-bucket histogram, with limits declared at intern time. *)
type hist

val intern : string -> id

(** [fam name] interns a counter family. *)
val fam : string -> fam

(** [hist name ~limits] interns a histogram with the given strictly
    increasing bucket limits. A value [v] lands in the first bucket whose
    limit satisfies [v <= limit] ("le" semantics); values above the last
    limit land in an extra overflow bucket. Raises [Invalid_argument] on
    empty or non-increasing limits, or if [name] was already interned with
    different limits. *)
val hist : string -> limits:float array -> hist

val create : unit -> t
val add_id : t -> id -> float -> unit
val incr_id : t -> id -> unit
val get_id : t -> id -> float

val add : t -> string -> float -> unit
val incr : t -> string -> unit
val get : t -> string -> float
val reset : t -> unit

(** [add_dim t f ix v] bumps cell [ix] of family [f]. Raises
    [Invalid_argument] if [ix < 0]. *)
val add_dim : t -> fam -> int -> float -> unit

val incr_dim : t -> fam -> int -> unit
val get_dim : t -> fam -> int -> float

(** Sparse variants of {!add_dim}/{!incr_dim} for families whose index
    space is huge (e.g. nprocs² link ids) but whose populated set is small:
    cells live in a per-family hash table, so memory is proportional to the
    indexes actually touched rather than the largest one. A family may mix
    dense and sparse cells; {!get_dim}, {!dim_cells} and {!dims_to_list}
    sum both populations. *)
val add_dim_sparse : t -> fam -> int -> float -> unit

val incr_dim_sparse : t -> fam -> int -> unit

(** The nonzero [(index, value)] cells of family [f], in index order. *)
val dim_cells : t -> fam -> (int * float) list

(** [dim_open t f ~size] grows family [f] to at least [size] cells and
    returns the live cell array for direct indexing — the per-event cost
    becomes one array store. The reference stays valid as long as no later
    access grows the family past [size], so callers must fix the dimension
    up front (e.g. [nprocs] or [nprocs * nprocs]). Raises
    [Invalid_argument] if [size <= 0]. *)
val dim_open : t -> fam -> size:int -> float array

(** [bucket limits v] is the index of [v]'s bucket under "le" semantics
    (see {!hist}): the first [i] with [v <= limits.(i)], or
    [Array.length limits] for overflow. *)
val bucket : float array -> float -> int

(** [observe t h v] increments [v]'s bucket. *)
val observe : t -> hist -> float -> unit

(** [hist_counts t h] returns [(limits, counts)]; [counts] has one more
    entry than [limits] (the overflow bucket). *)
val hist_counts : t -> hist -> float array * float array

(** The live [(limits, counts)] arrays of [h], for hot paths that bucket
    inline with {!bucket} instead of calling {!observe} per event. Treat
    [limits] as read-only. *)
val hist_live : t -> hist -> float array * float array

(** [merge_into dst src] sums every counter, family cell, and histogram
    bucket of [src] into [dst] (the benchmark's statistics sink,
    [perf/bench.ml], uses it to total many runs). [src] is not
    modified. *)
val merge_into : t -> t -> unit

(** All scalar counters with a nonzero value, sorted by name. *)
val to_list : t -> (string * float) list

(** All families with at least one nonzero cell, sorted by name; each with
    its nonzero [(index, value)] cells in index order. *)
val dims_to_list : t -> (string * (int * float) list) list

(** All histograms with at least one observation, sorted by name. *)
val hists_to_list : t -> (string * (float array * float array)) list

val pp : Format.formatter -> t -> unit
