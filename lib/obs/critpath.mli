(** Critical-path analysis over a causal dependency DAG recorded by
    {!Ace_engine.Crit}: path extraction, blame attribution to (op class,
    space, link, node) buckets, and causal-profiling-style what-if replay
    with per-class latency scaling. *)

type dag = {
  nprocs : int;
  kinds : string array;
  pred : int array;
  pred2 : int array;
  kind : int array;
  a : int array; (* proc / msg src *)
  b : int array; (* space / msg dst *)
  time : float array;
  cost : float array;
  heads : int array;
  bd : (int * int * float) array array;
      (* per-node (kind, space, cost) cost split; empty for plain nodes,
         the exact per-activity breakdown for coalesced "seg" nodes *)
  end_time : float;
}

val n_nodes : dag -> int
val kind_name : dag -> int -> string

(** {2 Construction} *)

(** Snapshot a live recorder. *)
val of_crit : Ace_engine.Crit.t -> dag

(** Parse an ace-critpath-v1 document. Raises [Failure] (message prefix
    ["critpath: "]) on wrong schema, malformed structure or an index out
    of range — a predecessor below -1 or not an earlier node, a head
    outside [-1, nodes), a message endpoint outside [0, nprocs) — and
    [Json.Parse_error] on malformed JSON. *)
val of_json : Json.t -> dag

val of_string : string -> dag

(** Read a file. Raises [Sys_error] (unreadable), [Failure] (empty file,
    wrong schema, malformed structure), or [Json.Parse_error]. *)
val load : string -> dag

(** {2 Critical path and blame} *)

(** The latest node (path endpoint), -1 when the dag is empty. *)
val terminal : dag -> int

(** Node ids on the critical path, terminal first. *)
val critical_path : dag -> int list

(** The critical path with per-step blame [(node, cycles)]; the cycles sum
    to the whole simulated duration. *)
val blamed_path : dag -> (int * float) list

val total_blame : (int * float) list -> float

(** Each of these partitions the blamed path's cycles, sorted descending. *)

val blame_by_kind : dag -> (int * float) list -> (string * float) list

(** Space -1 collects path time with no space attribution (messages,
    barriers, plain compute). *)
val blame_by_space : dag -> (int * float) list -> (int * float) list

val blame_by_link : dag -> (int * float) list -> ((int * int) * float) list
val blame_by_node : dag -> (int * float) list -> (int * float) list

(** {2 Path segments} *)

type seg = {
  seg_kind : string;
  seg_a : int;
  seg_b : int;
  seg_cycles : float;
  seg_t0 : float;
  seg_t1 : float;
}

(** Chronological maximal runs of path steps in one blame bucket. *)
val segments : dag -> (int * float) list -> seg list

(** The [k] heaviest segments, by cycles. *)
val top_segments : dag -> (int * float) list -> k:int -> seg list

(** {2 What-if replay} *)

type target =
  | Link of int option * int option (* src, dst; None = wildcard *)
  | Op of string
  | Space of int

type whatif = { target : target; factor : float }

(** Parse "link=SRC->DST:F" / "link=*:F" / "op=NAME:F" / "space=N:F". *)
val parse_whatif : string -> (whatif, string) result

val describe_whatif : whatif -> string

(** Replay the DAG with scaled costs; predicted end time in cycles. *)
val replay : dag -> whatif list -> float

(** [(recorded_end, predicted_end, speedup)]. *)
val predict : dag -> whatif list -> float * float * float
