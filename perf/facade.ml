(* A host-time facade over the DSM API, in the style of
   Ace_check.Observe.wrap: the application is compiled against the returned
   module, which notes a boundary on entry to and exit from each runtime
   call and delegates everything else untouched. It never advances a
   virtual clock, so a wrapped run is bit-identical to an unwrapped one.

   Attribution: the host interval between two consecutive boundaries
   belongs to the application after an exit, and to the op last entered
   after an enter. Fibers interleave, so that op's share is all the
   simulator work below the facade (event loop, network, coherence, other
   fibers' protocol handlers) until some fiber returns to the application.
   Time outside a simulation — machine construction, the gap before the
   first call — belongs to nobody: {!idle} parks the attribution until the
   next boundary.

   Spans (op, node, enter, exit) go into preallocated arrays; calls beyond
   their capacity are counted but not stored. *)

let op_names =
  [| "start_read"; "end_read"; "start_write"; "end_write"; "lock"; "unlock";
     "barrier"; "map"; "work"; "alloc"; "change_protocol"; "other" |]

let n_ops = Array.length op_names

let op_index name =
  let rec go i =
    if i >= n_ops then invalid_arg ("Facade.op_index: " ^ name)
    else if op_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let app = -1
let nobody = -2

type t = {
  calls : int array;
  self_ns : int array;
  mutable app_ns : int;
  mutable owner : int; (* op index, [app] or [nobody] *)
  mutable last : int;
  sp_op : int array;
  sp_node : int array;
  sp_enter : int array;
  sp_exit : int array;
  mutable spans : int;
  mutable dropped : int;
  clock : unit -> int;
}

let span_capacity = 20_000

let create ?(clock = Stat.now_ns) () =
  {
    calls = Array.make n_ops 0;
    self_ns = Array.make n_ops 0;
    app_ns = 0;
    owner = nobody;
    last = 0;
    sp_op = Array.make span_capacity 0;
    sp_node = Array.make span_capacity 0;
    sp_enter = Array.make span_capacity 0;
    sp_exit = Array.make span_capacity 0;
    spans = 0;
    dropped = 0;
    clock;
  }

let charge t now =
  if t.owner = app then t.app_ns <- t.app_ns + (now - t.last)
  else if t.owner >= 0 then
    t.self_ns.(t.owner) <- t.self_ns.(t.owner) + (now - t.last);
  t.last <- now

let idle t = t.owner <- nobody

let enter t op =
  let now = t.clock () in
  charge t now;
  t.owner <- op;
  t.calls.(op) <- t.calls.(op) + 1;
  now

let leave t op node entered =
  let now = t.clock () in
  charge t now;
  t.owner <- app;
  let i = t.spans in
  if i < Array.length t.sp_op then begin
    t.sp_op.(i) <- op;
    t.sp_node.(i) <- node;
    t.sp_enter.(i) <- entered;
    t.sp_exit.(i) <- now;
    t.spans <- i + 1
  end
  else t.dropped <- t.dropped + 1

let i_start_read = op_index "start_read"
let i_end_read = op_index "end_read"
let i_start_write = op_index "start_write"
let i_end_write = op_index "end_write"
let i_lock = op_index "lock"
let i_unlock = op_index "unlock"
let i_barrier = op_index "barrier"
let i_map = op_index "map"
let i_work = op_index "work"
let i_alloc = op_index "alloc"
let i_change = op_index "change_protocol"
let i_other = op_index "other"

let wrap (type c) (t : t)
    (module D : Ace_region.Dsm_intf.S
      with type ctx = c
       and type h = Ace_region.Store.meta) :
    (module Ace_region.Dsm_intf.S
       with type ctx = c
        and type h = Ace_region.Store.meta) =
  (module struct
    type ctx = c
    type h = Ace_region.Store.meta

    let me = D.me
    let nprocs = D.nprocs
    let rid = D.rid
    let data = D.data

    let timed op ctx f =
      let entered = enter t op in
      let r = f () in
      leave t op (D.me ctx) entered;
      r

    let alloc ctx ~space ~len = timed i_alloc ctx (fun () -> D.alloc ctx ~space ~len)
    let map ctx r = timed i_map ctx (fun () -> D.map ctx r)
    let unmap ctx h = timed i_other ctx (fun () -> D.unmap ctx h)
    let start_read ctx h = timed i_start_read ctx (fun () -> D.start_read ctx h)
    let end_read ctx h = timed i_end_read ctx (fun () -> D.end_read ctx h)
    let start_write ctx h = timed i_start_write ctx (fun () -> D.start_write ctx h)
    let end_write ctx h = timed i_end_write ctx (fun () -> D.end_write ctx h)
    let lock ctx h = timed i_lock ctx (fun () -> D.lock ctx h)
    let unlock ctx h = timed i_unlock ctx (fun () -> D.unlock ctx h)
    let barrier ctx ~space = timed i_barrier ctx (fun () -> D.barrier ctx ~space)

    let change_protocol ctx ~space name =
      timed i_change ctx (fun () -> D.change_protocol ctx ~space name)

    let adapt ctx ~space = timed i_other ctx (fun () -> D.adapt ctx ~space)
    let work ctx c = timed i_work ctx (fun () -> D.work ctx c)

    let global_id ctx ~space ~owner ~seq =
      timed i_other ctx (fun () -> D.global_id ctx ~space ~owner ~seq)

    let bcast ctx ~root f = timed i_other ctx (fun () -> D.bcast ctx ~root f)
    let allgather ctx a = timed i_other ctx (fun () -> D.allgather ctx a)
  end)

let runtime_ns t = Array.fold_left ( + ) 0 t.self_ns

(* Shares of the attributed host time; both 0 when the facade saw nothing. *)
let shares t =
  let total = t.app_ns + runtime_ns t in
  if total = 0 then (0., 0.)
  else
    ( float_of_int t.app_ns /. float_of_int total,
      float_of_int (runtime_ns t) /. float_of_int total )

(* Chrome trace-event JSON: one complete event per stored span, one thread
   row per simulated node, timestamps in microseconds from the first span. *)
let write_chrome t path =
  let oc = open_out path in
  let base = if t.spans > 0 then t.sp_enter.(0) else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.spans - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"cat\":\"facade\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
      op_names.(t.sp_op.(i)) t.sp_node.(i)
      (float_of_int (t.sp_enter.(i) - base) /. 1000.)
      (float_of_int (t.sp_exit.(i) - t.sp_enter.(i)) /. 1000.)
  done;
  Printf.fprintf oc "\n],\"otherData\":{\"dropped_spans\":%d}}\n" t.dropped;
  close_out oc
