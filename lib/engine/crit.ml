(* Causal dependency-DAG recorder for critical-path profiling.

   When a recorder is attached to a machine (Machine.set_crit), every
   simulated happening that can bound completion time becomes a node:
   processor compute intervals (Advance), message deliveries, ivar
   fill->wakeup edges, fan-in joins (ack counters, barrier arrivals), and
   barrier releases. Each node keeps a "last cause" edge [pred] (the
   predecessor whose completion enabled it, carrying this node's [cost] in
   cycles) and an optional zero-cost secondary edge [pred2] (the other
   input of a join, or a woken fiber's own prior activity). Walking [pred]
   edges backward from the latest node yields the run's critical path;
   replaying the DAG forward with per-class cost scaling yields causal
   what-if predictions (see Ace_obs.Critpath).

   Recording never advances a virtual clock — a recorded run's simulated
   output is bit-identical to an unrecorded one — and the recorder is
   allocation-lean: nodes live in struct-of-arrays with doubling growth
   (Trace-style), node kinds are interned once into dense global ids
   (Stats-style), and with no recorder attached every hook in the
   simulator reduces to one field read.

   Coalescing and freezing. Advances are the hot path (every compute
   charge in the simulator), so a processor's consecutive compute — across
   activity changes — accumulates into ONE open node per proc, with an
   exact per-(kind, space) cost breakdown kept on the side. A node stays
   open (extensible) until some edge actually references it: being made a
   [pred]/[pred2], captured by a deferred scheduling context, snapshotted
   by an ivar fill, or folded into a join FREEZES it, fixing its time and
   cost forever. This is sound for blame because an open run has no
   external edges into its interior: the critical path traverses it
   entirely or not at all, so distributing a coalesced node's path time
   over its recorded breakdown is exact, not an approximation.

   The open node's accumulating time and cost live in per-proc mirror
   arrays (open_time/open_cost/open_kind/open_space) and are written back
   to the node arrays only when the node closes: the advance fast path
   then touches nothing but nprocs-sized arrays, which stay in L1 no
   matter how large the DAG grows.

   Node field conventions by kind:
     activity kinds ("app", protocol-op names, "send_ovh", ...):
                a = proc, b = space (-1 if none), cost = cycles
     "seg":     a = proc, b = -1; a coalesced compute run of mixed
                activities, cost = total cycles; the exact per-activity
                split lives in the breakdown pool (see below)
     "msg":     a = src, b = dst, cost = transit + recv overhead
     "wake":    a = proc, b = -1, cost = 0 (pred = filler, pred2 = own past)
     "join":    a = b = -1, cost = 0 (pred/pred2 = the two inputs)
     "barrier": a = releasing proc, b = generation, cost = release latency
     "root":    a = proc, b = -1, cost = 0 (phase start)

   Replay semantics (what the costs mean): a node completes at
     max (completion(pred) + scale * cost, completion(pred2))
   so pred carries the node's own latency and pred2 is a pure
   happens-before constraint. *)

(* ---- interned node kinds (global, shared across recorders) ---- *)

let kind_table : unit Intern.t = Intern.create ()
let kind name = Intern.intern kind_table name ()
let kind_name k = Intern.name kind_table k
let kinds () = Intern.names kind_table

let k_root = kind "root"
let k_app = kind "app"
let k_msg = kind "msg"
let k_wake = kind "wake"
let k_join = kind "join"
let k_barrier = kind "barrier"
let k_send_ovh = kind "send_ovh"
let k_seg = kind "seg"

(* ---- the recorder ---- *)

type t = {
  nprocs : int;
  mutable pred : int array;
  mutable pred2 : int array;
  mutable kind : int array;
  mutable a : int array;
  mutable b : int array;
  mutable time : float array;
  mutable cost : float array;
  mutable n : int;
  mutable cur : int; (* causal context of the event being executed *)
  heads : int array; (* per-proc last node of the fiber's own chain *)
  open_node : int array; (* per-proc extensible compute node, -1 if none *)
  open_time : float array; (* accumulating end time of the open node *)
  open_cost : float array; (* accumulating cost of the open node *)
  open_kind : int array; (* activity of the open node (before any mix) *)
  open_space : int array;
  act_kind : int array; (* per-proc current activity kind (blame bucket) *)
  act_space : int array; (* per-proc current activity space, -1 none *)
  (* per-proc split accumulator for the open run, direct-indexed by kind:
     spl_cost.(p).(k) is kind k's cycles in the run, spl_space.(p).(k)
     that kind's space (-2 = kind unused), spl_kinds.(p) the kinds in use
     (spl_n.(p) of them; 0 = the run is still a single activity, the
     common case). A second space under one kind spills to the small
     overflow arrays. *)
  spl_cost : float array array;
  spl_space : int array array;
  spl_kinds : int array array;
  spl_n : int array;
  ov_kind : int array array;
  ov_space : int array array;
  ov_cost : float array array;
  ov_n : int array;
  (* flushed breakdown pool: (node, kind, space, cost) rows for every
     mixed node, appended when the node freezes *)
  mutable bd_node : int array;
  mutable bd_kind : int array;
  mutable bd_space : int array;
  mutable bd_cost : float array;
  mutable bd_n : int;
}

let create ~nprocs () =
  if nprocs <= 0 then invalid_arg "Crit.create: nprocs <= 0";
  {
    nprocs;
    pred = [||];
    pred2 = [||];
    kind = [||];
    a = [||];
    b = [||];
    time = [||];
    cost = [||];
    n = 0;
    cur = -1;
    heads = Array.make nprocs (-1);
    open_node = Array.make nprocs (-1);
    open_time = Array.make nprocs 0.;
    open_cost = Array.make nprocs 0.;
    open_kind = Array.make nprocs (-1);
    open_space = Array.make nprocs (-1);
    act_kind = Array.make nprocs k_app;
    act_space = Array.make nprocs (-1);
    spl_cost = Array.make nprocs [||];
    spl_space = Array.make nprocs [||];
    spl_kinds = Array.make nprocs [||];
    spl_n = Array.make nprocs 0;
    ov_kind = Array.make nprocs [||];
    ov_space = Array.make nprocs [||];
    ov_cost = Array.make nprocs [||];
    ov_n = Array.make nprocs 0;
    bd_node = [||];
    bd_kind = [||];
    bd_space = [||];
    bd_cost = [||];
    bd_n = 0;
  }

let nprocs c = c.nprocs
let length c = c.n

let grow_int old n =
  let a = Array.make (max 1024 (2 * n)) (-1) in
  Array.blit old 0 a 0 n;
  a

let grow_float old n =
  let a = Array.make (max 1024 (2 * n)) 0. in
  Array.blit old 0 a 0 n;
  a

(* ---- breakdown accumulator ---- *)

let bd_push c ~node ~kind ~space ~cost =
  let n = c.bd_n in
  if n = Array.length c.bd_kind then begin
    c.bd_node <- grow_int c.bd_node n;
    c.bd_kind <- grow_int c.bd_kind n;
    c.bd_space <- grow_int c.bd_space n;
    c.bd_cost <- grow_float c.bd_cost n
  end;
  c.bd_node.(n) <- node;
  c.bd_kind.(n) <- kind;
  c.bd_space.(n) <- space;
  c.bd_cost.(n) <- cost;
  c.bd_n <- n + 1

(* Same kind, second space within one run: rare, short linear scan. *)
let ov_add c p k sp cycles =
  let len = c.ov_n.(p) in
  let ok = c.ov_kind.(p) in
  let rec find j =
    if j >= len then begin
      if len = Array.length ok then begin
        let g = max 4 (2 * len) in
        let nk = Array.make g (-1)
        and nsp = Array.make g (-1)
        and nc = Array.make g 0. in
        Array.blit ok 0 nk 0 len;
        Array.blit c.ov_space.(p) 0 nsp 0 len;
        Array.blit c.ov_cost.(p) 0 nc 0 len;
        c.ov_kind.(p) <- nk;
        c.ov_space.(p) <- nsp;
        c.ov_cost.(p) <- nc
      end;
      c.ov_kind.(p).(len) <- k;
      c.ov_space.(p).(len) <- sp;
      c.ov_cost.(p).(len) <- cycles;
      c.ov_n.(p) <- len + 1
    end
    else if ok.(j) = k && c.ov_space.(p).(j) = sp then
      c.ov_cost.(p).(j) <- c.ov_cost.(p).(j) +. cycles
    else find (j + 1)
  in
  find 0

(* Add [cycles] of activity (k, sp) to proc's open-run split: one
   direct-indexed load/compare/add in the common case (the advance hot
   path inlines exactly that and only calls here on a miss). *)
let rec spl_add c p k sp cycles =
  let ss = c.spl_space.(p) in
  if k >= Array.length ss then begin
    let cap = max 32 (2 * (k + 1)) in
    let nsp = Array.make cap (-2) and nc = Array.make cap 0. in
    let len = Array.length ss in
    Array.blit ss 0 nsp 0 len;
    Array.blit c.spl_cost.(p) 0 nc 0 len;
    c.spl_space.(p) <- nsp;
    c.spl_cost.(p) <- nc;
    spl_add c p k sp cycles
  end
  else
    let cur = ss.(k) in
    if cur = sp then c.spl_cost.(p).(k) <- c.spl_cost.(p).(k) +. cycles
    else if cur = -2 then begin
      ss.(k) <- sp;
      c.spl_cost.(p).(k) <- cycles;
      let n = c.spl_n.(p) in
      let kl = c.spl_kinds.(p) in
      if n = Array.length kl then begin
        let nk = Array.make (max 8 (2 * n)) 0 in
        Array.blit kl 0 nk 0 n;
        c.spl_kinds.(p) <- nk
      end;
      c.spl_kinds.(p).(n) <- k;
      c.spl_n.(p) <- n + 1
    end
    else ov_add c p k sp cycles

(* The open node of [proc] has a mixed split: rewrite it as a "seg" node
   and move the split into the breakdown pool. *)
let flush_split c p node =
  let n = c.spl_n.(p) in
  if n > 0 || c.ov_n.(p) > 0 then begin
    c.kind.(node) <- k_seg;
    c.b.(node) <- -1;
    for j = 0 to n - 1 do
      let k = c.spl_kinds.(p).(j) in
      bd_push c ~node ~kind:k ~space:c.spl_space.(p).(k)
        ~cost:c.spl_cost.(p).(k);
      c.spl_space.(p).(k) <- -2
    done;
    c.spl_n.(p) <- 0;
    for j = 0 to c.ov_n.(p) - 1 do
      bd_push c ~node ~kind:c.ov_kind.(p).(j) ~space:c.ov_space.(p).(j)
        ~cost:c.ov_cost.(p).(j)
    done;
    c.ov_n.(p) <- 0
  end

(* Close [proc]'s open node: write the accumulated time and cost back
   into the node arrays and flush any pending mixed split. *)
let close c p =
  let i = c.open_node.(p) in
  if i >= 0 then begin
    c.time.(i) <- c.open_time.(p);
    c.cost.(i) <- c.open_cost.(p);
    flush_split c p i;
    c.open_node.(p) <- -1
  end

(* Fix node [i]'s time, cost, and meaning forever: called the moment any
   edge or deferred context records a reference to it. Only an open node
   has anything pending; everything else is already immutable. *)
let freeze c i =
  if i >= 0 then begin
    let p = c.a.(i) in
    if p >= 0 && p < c.nprocs && c.open_node.(p) = i then close c p
  end

(* Close every still-open node (end of recording, before a snapshot or
   serialization). *)
let flush_open c =
  for p = 0 to c.nprocs - 1 do
    close c p
  done

let node c ~pred ?(pred2 = -1) ~kind ~a ~b ~time ~cost () =
  freeze c pred;
  freeze c pred2;
  let n = c.n in
  if n = Array.length c.kind then begin
    c.pred <- grow_int c.pred n;
    c.pred2 <- grow_int c.pred2 n;
    c.kind <- grow_int c.kind n;
    c.a <- grow_int c.a n;
    c.b <- grow_int c.b n;
    c.time <- grow_float c.time n;
    c.cost <- grow_float c.cost n
  end;
  c.pred.(n) <- pred;
  c.pred2.(n) <- pred2;
  c.kind.(n) <- kind;
  c.a.(n) <- a;
  c.b.(n) <- b;
  c.time.(n) <- time;
  c.cost.(n) <- cost;
  c.n <- n + 1;
  n

let cur c = c.cur
let set_cur c v = c.cur <- v

(* The current causal context, frozen — for capture into a deferred
   scheduling closure or an ivar, where it outlives this instant. *)
let export_cur c =
  freeze c c.cur;
  c.cur

let with_cur c v f =
  let old = c.cur in
  c.cur <- v;
  let out = f () in
  c.cur <- old;
  out

let head c proc = c.heads.(proc)

let set_head c ~proc v =
  close c proc;
  c.heads.(proc) <- v

let time_of c i = if i < 0 then 0. else c.time.(i)
let pred_of c i = c.pred.(i)
let heads_arr c = Array.copy c.heads

let dump c =
  flush_open c;
  let n = c.n in
  ( Array.sub c.pred 0 n,
    Array.sub c.pred2 0 n,
    Array.sub c.kind 0 n,
    Array.sub c.a 0 n,
    Array.sub c.b 0 n,
    Array.sub c.time 0 n,
    Array.sub c.cost 0 n )
let bd_count c = c.bd_n
let bd_node_of c j = c.bd_node.(j)
let bd_kind_of c j = c.bd_kind.(j)
let bd_space_of c j = c.bd_space.(j)
let bd_cost_of c j = c.bd_cost.(j)

(* Merge two causes into one happens-before node whose completion is the
   later of the two; -1 is the identity, so folding a fan-in counter's
   contributions through [join] needs no special first-arrival case. Both
   inputs freeze — even on the identity paths the returned id escapes into
   deferred contexts (fan-in counters, barrier folds). *)
let join c x y =
  freeze c x;
  freeze c y;
  if x < 0 then y
  else if y < 0 then x
  else if x = y then x
  else
    let tm = if c.time.(x) >= c.time.(y) then c.time.(x) else c.time.(y) in
    node c ~pred:x ~pred2:y ~kind:k_join ~a:(-1) ~b:(-1) ~time:tm ~cost:0. ()

(* A compute interval on [proc] ending at [time]: the simulator's hottest
   hook. While the proc has an open node the interval coalesces into it —
   same activity extends in place; a different activity turns the node
   into a mixed segment via the accumulator. Otherwise a fresh node
   chains onto the proc's head. *)
let advance c ~proc ~time ~cycles =
  let h = Array.unsafe_get c.open_node proc in
  (* proc-indexed reads below are in-bounds by construction: Machine only
     passes proc ids 0..nprocs-1 *)
  if h >= 0 then begin
    let prev = Array.unsafe_get c.open_cost proc in
    Array.unsafe_set c.open_time proc time;
    Array.unsafe_set c.open_cost proc (prev +. cycles);
    let k = Array.unsafe_get c.act_kind proc
    and sp = Array.unsafe_get c.act_space proc in
    if
      Array.unsafe_get c.spl_n proc = 0
      && Array.unsafe_get c.open_kind proc = k
      && Array.unsafe_get c.open_space proc = sp
    then ()
    else begin
      if c.spl_n.(proc) = 0 then
        (* first mixed activity: seed the split with what the node holds *)
        spl_add c proc c.open_kind.(proc) c.open_space.(proc) prev;
      (* direct-indexed hit (same kind and space seen before in this run)
         stays inline; anything else takes the out-of-line slow path *)
      let ss = Array.unsafe_get c.spl_space proc in
      if k < Array.length ss && Array.unsafe_get ss k = sp then begin
        let sc = Array.unsafe_get c.spl_cost proc in
        Array.unsafe_set sc k (Array.unsafe_get sc k +. cycles)
      end
      else spl_add c proc k sp cycles
    end
  end
  else begin
    let k = c.act_kind.(proc) and sp = c.act_space.(proc) in
    let n =
      node c ~pred:c.heads.(proc) ~kind:k ~a:proc ~b:sp ~time ~cost:cycles ()
    in
    c.heads.(proc) <- n;
    c.open_node.(proc) <- n;
    c.open_time.(proc) <- time;
    c.open_cost.(proc) <- cycles;
    c.open_kind.(proc) <- k;
    c.open_space.(proc) <- sp
  end

(* A fiber wakeup: [cause] is the filler's causal context (or -1 when
   unknown), pred2 the fiber's own prior chain. Zero cost: the wakeup
   itself is free, its time is determined by its inputs. *)
let wake c ~proc ~cause ~time =
  let n =
    node c ~pred:cause ~pred2:c.heads.(proc) ~kind:k_wake ~a:proc ~b:(-1)
      ~time ~cost:0. ()
  in
  c.heads.(proc) <- n;
  n

(* Phase start: every proc's root depends on [cause] (the join of all
   previous heads — successive Machine.run phases start at the global
   max clock, which is exactly that join). *)
let root c ~proc ~cause ~time =
  let n =
    node c ~pred:cause ~kind:k_root ~a:proc ~b:(-1) ~time ~cost:0. ()
  in
  c.heads.(proc) <- n;
  n

(* ---- activity tagging (blame buckets for compute intervals) ---- *)

let swap_kind c ~proc k =
  let old = c.act_kind.(proc) in
  c.act_kind.(proc) <- k;
  old

let swap_activity c ~proc ~kind ~space =
  let old = (c.act_kind.(proc), c.act_space.(proc)) in
  c.act_kind.(proc) <- kind;
  c.act_space.(proc) <- space;
  old

let set_activity c ~proc ~kind ~space =
  c.act_kind.(proc) <- kind;
  c.act_space.(proc) <- space

let end_time c =
  let e = ref 0. in
  for i = 0 to c.n - 1 do
    if c.time.(i) > !e then e := c.time.(i)
  done;
  !e

(* ---- the active recorder (for Ivar.fill's cause capture) ----

   Ivar fills happen deep inside simulation code with no machine in scope,
   yet the causal context of a fill must survive until a *later* await
   peeks the value. Machine.run registers its recorder here (domain-local:
   each domain drains at most one machine at a time; parallel bench pools
   keep their recorders separate), and Ivar.fill snapshots the current
   cause. The atomic count keeps the common no-recorder case to a single
   uncontended load. *)

let actives = Atomic.make 0
let active_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let activate c =
  Atomic.incr actives;
  Domain.DLS.get active_key := Some c

let deactivate () =
  Domain.DLS.get active_key := None;
  Atomic.decr actives

let fill_cause () =
  if Atomic.get actives = 0 then -1
  else
    match !(Domain.DLS.get active_key) with
    | None -> -1
    | Some c -> export_cur c

(* ---- serialization: ace-critpath-v1 ----

   One JSON object; [kinds] names the interned kind ids used by [nodes];
   [heads] is each processor's final chain node; [nodes] is the flat
   struct-of-arrays as rows [pred, pred2, kind, a, b, time, cost] in
   creation (= topological) order; [bd] carries the per-activity split of
   mixed ("seg") nodes as rows [node, kind, space, cost]. *)

let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let to_buffer c buf =
  flush_open c;
  Buffer.add_string buf "{\"schema\":\"ace-critpath-v1\",";
  Buffer.add_string buf (Printf.sprintf "\"nprocs\":%d," c.nprocs);
  Buffer.add_string buf "\"end_time\":";
  add_float buf (end_time c);
  Buffer.add_string buf ",\"kinds\":[";
  let ks = kinds () in
  Array.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf k;
      Buffer.add_char buf '"')
    ks;
  Buffer.add_string buf "],\"heads\":[";
  Array.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int h))
    c.heads;
  Buffer.add_string buf "],\"nodes\":[";
  for i = 0 to c.n - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "[%d,%d,%d,%d,%d," c.pred.(i) c.pred2.(i) c.kind.(i)
         c.a.(i) c.b.(i));
    add_float buf c.time.(i);
    Buffer.add_char buf ',';
    add_float buf c.cost.(i);
    Buffer.add_char buf ']'
  done;
  Buffer.add_string buf "],\"bd\":[";
  for j = 0 to c.bd_n - 1 do
    if j > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "[%d,%d,%d," c.bd_node.(j) c.bd_kind.(j) c.bd_space.(j));
    add_float buf c.bd_cost.(j);
    Buffer.add_char buf ']'
  done;
  Buffer.add_string buf "]}\n"

let write_file c path =
  let buf = Buffer.create (256 + (c.n * 32)) in
  to_buffer c buf;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc
