(* A persistent worker pool over OCaml 5 domains.

   One batch runs at a time. The submitter posts it (a closure that runs
   task [i] and stores its outcome in slot [i]), wakes the idle helpers and
   works on it itself; everyone claims task indices from an atomic counter,
   so the assembled output is positionally identical to a serial run no
   matter how tasks are scheduled. The last task to finish wakes the
   submitter. A helper that wakes late finds the counter exhausted and goes
   back to sleep; the submitter never waits for a helper to start, so a
   batch finishes even if no helper ever wakes for it. *)

let default_jobs () =
  match Sys.getenv_opt "ACE_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None -> invalid_arg "ACE_JOBS must be a positive integer")
  | None -> Domain.recommended_domain_count ()

type batch = {
  run : int -> unit; (* runs task i and stores its outcome; never raises *)
  n : int;
  next : int Atomic.t; (* the next unclaimed task *)
  left : int Atomic.t; (* tasks not yet finished *)
  seats : int Atomic.t; (* helpers that may still join *)
  minor_words : int; (* the submitter's minor heap size *)
}

(* [generation], [current], [busy] and [helpers] are guarded by [mutex]. *)
let mutex = Mutex.create ()
let posted = Condition.create () (* a new generation, for idle helpers *)
let finished = Condition.create () (* a batch's last task finished *)
let generation = ref 0
let current : batch option ref = ref None
let busy = ref false (* a submitter holds the pool *)
let helpers = ref 0

(* True on helpers, and on a submitter while it works on its batch: a
   [run_all] from inside a task runs inline instead of waiting for a pool
   that is busy with the task's own batch. *)
let inside : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let work b =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      if Atomic.fetch_and_add b.left (-1) = 1 then begin
        Mutex.lock mutex;
        Condition.broadcast finished;
        Mutex.unlock mutex
      end;
      go ()
    end
  in
  go ()

let helper seen () =
  Domain.DLS.get inside := true;
  let minor_words = ref (Gc.get ()).Gc.minor_heap_size in
  let rec loop seen =
    Mutex.lock mutex;
    while !generation = seen do
      Condition.wait posted mutex
    done;
    let gen = !generation and b = !current in
    Mutex.unlock mutex;
    (match b with
    | Some b when Atomic.fetch_and_add b.seats (-1) > 0 ->
        if b.minor_words <> !minor_words then begin
          Gc.set { (Gc.get ()) with Gc.minor_heap_size = b.minor_words };
          minor_words := b.minor_words
        end;
        work b
    | Some _ | None -> ());
    loop gen
  in
  loop seen

let outcome f =
  match f () with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* Array.map stops at the first error: the lowest-index one. *)
let collect outcomes =
  Array.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    outcomes

let claim () =
  Mutex.protect mutex (fun () ->
      if !busy then false
      else begin
        busy := true;
        true
      end)

let run_all ?jobs (tasks : (unit -> 'a) array) : 'a array =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length tasks in
  let seats = min jobs n - 1 in
  if seats <= 0 || !(Domain.DLS.get inside) || not (claim ()) then
    collect (Array.map outcome tasks)
  else begin
    let results = Array.make n None in
    let b =
      {
        run = (fun i -> results.(i) <- Some (outcome tasks.(i)));
        n;
        next = Atomic.make 0;
        left = Atomic.make n;
        seats = Atomic.make seats;
        minor_words = (Gc.get ()).Gc.minor_heap_size;
      }
    in
    Mutex.lock mutex;
    (* Holding the pool, this domain is the only one that moves
       [generation]: new helpers start out waiting for the next one. *)
    (try
       while !helpers < seats do
         ignore (Domain.spawn (helper !generation) : unit Domain.t);
         incr helpers
       done
     with e ->
       busy := false;
       Mutex.unlock mutex;
       raise e);
    current := Some b;
    incr generation;
    Condition.broadcast posted;
    Mutex.unlock mutex;
    let here = Domain.DLS.get inside in
    here := true;
    work b;
    here := false;
    Mutex.lock mutex;
    while Atomic.get b.left > 0 do
      Condition.wait finished mutex
    done;
    current := None;
    busy := false;
    Mutex.unlock mutex;
    collect (Array.map Option.get results)
  end
