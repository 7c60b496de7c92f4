(* A min-heap of runs. A run is a FIFO of pending events that share one
   timestamp and have strictly increasing [order]; the heap is keyed by each
   run's head, (time, order). Popping the root run's head and re-sifting
   only that run's key is a k-way merge of sorted runs, so events come out
   in exact lexicographic (time, order) order whatever way the runs were
   cut.

   The simulator pops one event per simulated action, so this is the hottest
   data structure in the tree. Its shape follows the workload: SPMD
   processors run in lockstep, so most pushes carry the same timestamp as
   the push before them. Such a push is appended to the latest run in O(1)
   and never touches the heap, and popping a run that has a successor
   re-sifts a heap that holds runs, not events. Layout:

   - Events live in a slot store ([thunks], [orders], [next]), written once
     at push and cleared once at pop. [next] links a run's slots head to
     tail, and links free slots into a free list.
   - The heap moves only unboxed values: [times] is a bare [float array],
     [keys] and [heads] are [int array]s. No closure pointer moves during a
     sift, so sifts do no write barrier.
   - A 4-ary heap halves the tree depth of a binary one.
   - Popping writes the result into the per-queue [popped_*] slots instead
     of allocating a [Some (time, thunk)] pair.

   Ties (same timestamp) are broken by a pluggable policy. The policy's
   per-event priority [key] and the insertion number [seq] are packed into
   one word, [order = key lsl seq_bits lor seq], compared as a single int:
   lexicographic (key, seq) order at the cost of one int compare. Under the
   default [Fifo] every key is 0, so [order] IS [seq], ordering degenerates
   to insertion order, and every same-time push joins the latest run. *)

type policy =
  | Fifo
  | Random of int (* seed *)
  | Rotate of { stride : int; offset : int }

let validate_policy = function
  | Fifo | Random _ -> ()
  | Rotate { stride; offset } ->
      if stride < 2 || offset < 0 || offset >= stride then
        invalid_arg "Event_queue: Rotate needs stride >= 2 and 0 <= offset < stride"

let policy_to_string = function
  | Fifo -> "fifo"
  | Random seed -> Printf.sprintf "random:%d" seed
  | Rotate { stride; offset } -> Printf.sprintf "rotate:%d:%d" stride offset

let policy_of_string s =
  let fail () = invalid_arg ("Event_queue.policy_of_string: " ^ s) in
  match String.split_on_char ':' s with
  | [ "fifo" ] -> Fifo
  | [ "random"; seed ] -> (
      match int_of_string_opt seed with Some n -> Random n | None -> fail ())
  | [ "rotate"; stride; offset ] -> (
      match (int_of_string_opt stride, int_of_string_opt offset) with
      | Some st, Some off when st >= 2 && off >= 0 && off < st ->
          Rotate { stride = st; offset = off }
      | _ -> fail ())
  | _ -> fail ()

(* 40 bits of seq leaves 22 for the key on 63-bit ints. A queue would need
   a trillion pushes to overflow; [push] checks anyway (one compare). *)
let seq_bits = 40
let max_seq = 1 lsl seq_bits
let max_key = 1 lsl (62 - seq_bits)

type t = {
  (* slot store, indexed by slot *)
  mutable thunks : (unit -> unit) array;
  mutable orders : int array;
  mutable next : int array; (* next slot of the run, or of the free list; -1 ends *)
  mutable free : int; (* head of the free-slot list, -1 if empty *)
  (* heap of runs, indexed by heap position *)
  mutable times : float array; (* the run's timestamp *)
  mutable keys : int array; (* order of the run's head *)
  mutable heads : int array; (* slot of the run's head *)
  mutable runs : int;
  mutable size : int; (* pending events *)
  (* The latest run: the one the last push created or joined. [tail] is its
     last slot, or -1 once that slot has been popped (the run is gone). *)
  mutable tail : int;
  mutable tail_time : float;
  mutable tail_order : int;
  mutable next_seq : int;
  mutable popped_time : float; (* last event removed by [pop_min] *)
  mutable popped_thunk : unit -> unit;
  policy : policy;
  rng : Det_rng.t option; (* Some iff policy is Random *)
}

(* A queue starts with [capacity] slots and a quarter as many runs; both
   double on demand. Small first arrays keep machine set-up cheap (the
   conformance fuzzer builds tens of thousands of 2-4 node machines), so
   Machine.create sizes them by machine size. *)
let default_capacity = 128

(* Slots [lo..hi-1] chained into a free list, in index order. *)
let link_free next ~lo ~hi =
  for s = lo to hi - 2 do
    next.(s) <- s + 1
  done;
  next.(hi - 1) <- -1

let create ?(policy = Fifo) ?(capacity = default_capacity) () =
  validate_policy policy;
  if capacity < 4 then invalid_arg "Event_queue.create: capacity < 4";
  let runs = capacity / 4 in
  {
    thunks = Array.make capacity ignore;
    orders = Array.make capacity 0;
    next =
      (let next = Array.make capacity 0 in
       link_free next ~lo:0 ~hi:capacity;
       next);
    free = 0;
    times = Array.make runs 0.;
    keys = Array.make runs 0;
    heads = Array.make runs 0;
    runs = 0;
    size = 0;
    tail = -1;
    tail_time = 0.;
    tail_order = 0;
    next_seq = 0;
    popped_time = 0.;
    popped_thunk = ignore;
    policy;
    rng = (match policy with Random seed -> Some (Det_rng.create seed) | _ -> None);
  }

let policy t = t.policy

(* The policy's priority for the event about to get [seq]. Keys only matter
   relative to other same-timestamp events; [Rotate] delays every
   [stride]-th insertion (round-robin by [offset]) behind its tie group,
   [Random] draws a fresh priority per event from the seeded stream (push
   order is itself deterministic, so the whole run is deterministic per
   seed). *)
let next_key t seq =
  match t.policy with
  | Fifo -> 0
  | Random _ -> Det_rng.int (Option.get t.rng) max_key
  | Rotate { stride; offset } -> if seq mod stride = offset then 1 else 0

(* Called only when every slot is in use, so the new half is the free list. *)
let grow_slots t =
  let n = Array.length t.thunks in
  let thunks = Array.make (2 * n) ignore in
  Array.blit t.thunks 0 thunks 0 n;
  t.thunks <- thunks;
  let orders = Array.make (2 * n) 0 in
  Array.blit t.orders 0 orders 0 n;
  t.orders <- orders;
  let next = Array.make (2 * n) 0 in
  Array.blit t.next 0 next 0 n;
  link_free next ~lo:n ~hi:(2 * n);
  t.next <- next;
  t.free <- n

let grow_heap t =
  let n = Array.length t.times in
  let times = Array.make (2 * n) 0. in
  Array.blit t.times 0 times 0 n;
  t.times <- times;
  let keys = Array.make (2 * n) 0 in
  Array.blit t.keys 0 keys 0 n;
  t.keys <- keys;
  let heads = Array.make (2 * n) 0 in
  Array.blit t.heads 0 heads 0 n;
  t.heads <- heads

(* Insert a run (time, key, head) by walking a hole up from [i]: entries
   move at most once and the new entry is written exactly once.

   Both sifts bind the arrays to locals (a mutable record field cannot be
   cached across the stores inside the loop) and use unchecked accesses:
   every index is either the hole [i] (< capacity, ensured by [grow_heap]
   or by the pop that vacated a position), a parent (i-1)/4 < i, or a child
   index already compared against [runs]. *)
let sift_up t i time key head =
  let times = t.times and keys = t.keys and heads = t.heads in
  let i = ref i in
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times parent in
    if pt < time || (pt = time && Array.unsafe_get keys parent < key) then
      placed := true
    else begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set keys !i (Array.unsafe_get keys parent);
      Array.unsafe_set heads !i (Array.unsafe_get heads parent);
      i := parent
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set keys !i key;
  Array.unsafe_set heads !i head

(* Walk a hole down from the root, pulling the smallest of up to four
   children up each level, until (time, key) fits. *)
let sift_down t time key head =
  let times = t.times and keys = t.keys and heads = t.heads in
  let runs = t.runs in
  let i = ref 0 in
  let placed = ref false in
  while not !placed do
    let base = (!i lsl 2) + 1 in
    if base >= runs then placed := true
    else begin
      let best = ref base in
      let bt = ref (Array.unsafe_get times base) in
      let bk = ref (Array.unsafe_get keys base) in
      let last = if base + 3 < runs then base + 3 else runs - 1 in
      for c = base + 1 to last do
        let ct = Array.unsafe_get times c in
        if ct < !bt || (ct = !bt && Array.unsafe_get keys c < !bk) then begin
          best := c;
          bt := ct;
          bk := Array.unsafe_get keys c
        end
      done;
      if !bt < time || (!bt = time && !bk < key) then begin
        Array.unsafe_set times !i !bt;
        Array.unsafe_set keys !i !bk;
        Array.unsafe_set heads !i (Array.unsafe_get heads !best);
        i := !best
      end
      else placed := true
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set keys !i key;
  Array.unsafe_set heads !i head

let push t ~time thunk =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: bad time";
  let seq = t.next_seq in
  if seq >= max_seq then invalid_arg "Event_queue.push: seq overflow";
  t.next_seq <- seq + 1;
  let order = (next_key t seq lsl seq_bits) lor seq in
  if t.free < 0 then grow_slots t;
  let s = t.free in
  t.free <- Array.unsafe_get t.next s;
  Array.unsafe_set t.next s (-1);
  Array.unsafe_set t.thunks s thunk;
  Array.unsafe_set t.orders s order;
  t.size <- t.size + 1;
  let tail = t.tail in
  if tail >= 0 && time = t.tail_time && order > t.tail_order then
    Array.unsafe_set t.next tail s
  else begin
    if t.runs = Array.length t.times then grow_heap t;
    let i = t.runs in
    t.runs <- i + 1;
    sift_up t i time order s;
    t.tail_time <- time
  end;
  t.tail <- s;
  t.tail_order <- order

(* Remove the root run's head event and return its thunk; the caller reads
   the root's time first. The slot is cleared and freed. If the run goes
   on, its key grows to its next event's order and only it is re-sifted;
   otherwise the heap's last run takes the root. *)
let take_root t =
  let s = Array.unsafe_get t.heads 0 in
  let thunk = Array.unsafe_get t.thunks s in
  Array.unsafe_set t.thunks s ignore;
  let succ = Array.unsafe_get t.next s in
  Array.unsafe_set t.next s t.free;
  t.free <- s;
  t.size <- t.size - 1;
  if succ >= 0 then
    sift_down t (Array.unsafe_get t.times 0) (Array.unsafe_get t.orders succ) succ
  else begin
    if s = t.tail then t.tail <- -1;
    let n = t.runs - 1 in
    t.runs <- n;
    if n > 0 then
      sift_down t (Array.unsafe_get t.times n) (Array.unsafe_get t.keys n)
        (Array.unsafe_get t.heads n)
  end;
  thunk

let pop_min t =
  if t.runs = 0 then false
  else begin
    t.popped_time <- Array.unsafe_get t.times 0;
    t.popped_thunk <- take_root t;
    true
  end

let popped_time t = t.popped_time
let popped_thunk t = t.popped_thunk

let drain t f =
  while t.runs > 0 do
    let time = Array.unsafe_get t.times 0 in
    f time (take_root t)
  done;
  (* Drop the last popped closure: leaving it in [popped_thunk] would keep
     one arbitrary run's whole closure graph (captured regions, handlers,
     continuations) live for as long as the queue object is — across every
     later grid cell that reuses the machine. *)
  t.popped_thunk <- ignore

let is_empty t = t.runs = 0
let length t = t.size
let peek_time t = if t.runs = 0 then None else Some t.times.(0)