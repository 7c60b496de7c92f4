module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Stats = Ace_engine.Stats
module Trace = Ace_engine.Trace
module Crit = Ace_engine.Crit

let sid_messages = Stats.intern "net.messages"
let sid_bytes = Stats.intern "net.bytes"
let sid_dropped = Stats.intern "net.fault.dropped"
let sid_duplicated = Stats.intern "net.fault.duplicated"
let fam_msgs_src = Stats.fam "net.msgs.by_src"
let fam_msgs_dst = Stats.fam "net.msgs.by_dst"
let fam_bytes_src = Stats.fam "net.bytes.by_src"
let fam_bytes_dst = Stats.fam "net.bytes.by_dst"
let fam_msgs_link = Stats.fam "net.msgs.by_link"
let fam_drop_link = Stats.fam "net.fault.dropped.by_link"
let sid_multi_sends = Stats.intern "net.multi.sends"
let sid_coalesced = Stats.intern "net.coalesced"
let fam_coalesced_link = Stats.fam "net.coalesced.by_link"

let hist_latency =
  Stats.hist "net.latency_cycles"
    ~limits:[| 50.; 100.; 200.; 400.; 800.; 1600.; 3200.; 6400. |]

(* Per-link (src, dst) families index an nprocs² space. Up to this many
   nodes the cells stay a dense pre-opened array — one store per message,
   and byte-identical layout to the historical accounting at the paper's 32
   nodes. Past it the nprocs² array would dominate the simulation's memory
   (1024 nodes → 8 MiB per family), so cells go to Stats' sparse tables,
   sized by the links actually exercised. *)
let dense_links_limit = 256

(* The accounting: logical-send counters plus live Stats cell arrays,
   opened once so the per-message accounting is plain array stores
   (Am.send is the simulator's hottest path; the dimensions are fixed at
   nprocs / nprocs^2 so the references never go stale — see
   Stats.dim_open). Built on the first send, so a machine that is set up
   but never sends does not allocate the nprocs^2 link array. *)
type acct = {
  stats : Stats.t;
  mutable messages : int; (* logical sends: one per [send] call *)
  mutable bytes_sent : int;
  msgs_src : float array;
  msgs_dst : float array;
  bytes_src : float array;
  bytes_dst : float array;
  msgs_link : float array; (* [||] above dense_links_limit: sparse cells *)
  lat_limits : float array;
  lat_counts : float array;
}

type t = {
  machine : Machine.t;
  cost : Cost_model.t;
  mutable faults : Faults.t option;
  mutable batching : bool; (* opt-in bulk-transfer mode; off = historical paths *)
  nprocs : int;
  mutable acct : acct option;
}

(* Bump a per-link family cell in whichever representation this machine
   size selected (cold paths: drops, coalescing). *)
let add_link t stats f link v =
  if t.nprocs <= dense_links_limit then Stats.add_dim stats f link v
  else Stats.add_dim_sparse stats f link v

let mk_acct nprocs stats =
  let lat_limits, lat_counts = Stats.hist_live stats hist_latency in
  {
    stats;
    messages = 0;
    bytes_sent = 0;
    msgs_src = Stats.dim_open stats fam_msgs_src ~size:nprocs;
    msgs_dst = Stats.dim_open stats fam_msgs_dst ~size:nprocs;
    bytes_src = Stats.dim_open stats fam_bytes_src ~size:nprocs;
    bytes_dst = Stats.dim_open stats fam_bytes_dst ~size:nprocs;
    msgs_link =
      (if nprocs <= dense_links_limit then
         Stats.dim_open stats fam_msgs_link ~size:(nprocs * nprocs)
       else [||]);
    lat_limits;
    lat_counts;
  }

let acct t =
  match t.acct with
  | Some a -> a
  | None ->
      let a = mk_acct t.nprocs (Machine.stats t.machine) in
      t.acct <- Some a;
      a

let create machine cost =
  {
    machine;
    cost;
    faults = None;
    batching = false;
    nprocs = Machine.nprocs machine;
    acct = None;
  }

let machine t = t.machine
let cost t = t.cost
let set_faults t f = t.faults <- f
let faults t = t.faults
let set_batching t b = t.batching <- b
let batching t = t.batching

(* Put one copy on the wire: physical accounting (the net.* counters count
   copies that actually travel and deliver), latency bucketing, the trace
   arc, and the delivery event. [extra] is fault-injected transit jitter
   (0 on the faultless path, where [arrival] reduces bit-exactly to the
   historical [now + transit + recv_overhead]). *)
let deliver t ~now ~src ~dst ~bytes ~fbytes ~extra handler =
  let a = acct t in
  let stats = a.stats in
  Stats.incr_id stats sid_messages;
  Stats.add_id stats sid_bytes fbytes;
  a.msgs_src.(src) <- a.msgs_src.(src) +. 1.;
  a.msgs_dst.(dst) <- a.msgs_dst.(dst) +. 1.;
  a.bytes_src.(src) <- a.bytes_src.(src) +. fbytes;
  a.bytes_dst.(dst) <- a.bytes_dst.(dst) +. fbytes;
  let link = (src * t.nprocs) + dst in
  if Array.length a.msgs_link > 0 then
    a.msgs_link.(link) <- a.msgs_link.(link) +. 1.
  else Stats.incr_dim_sparse stats fam_msgs_link link;
  let arrival =
    now +. Cost_model.transit t.cost ~bytes
    +. t.cost.Cost_model.am_recv_overhead +. extra
  in
  let b = Stats.bucket a.lat_limits (arrival -. now) in
  a.lat_counts.(b) <- a.lat_counts.(b) +. 1.;
  (match Machine.trace t.machine with
  | None -> ()
  | Some tr ->
      Trace.arc tr ~name:"msg" ~cat:"msg" ~tid_src:src ~tid_dst:dst ~ts:now
        ~ts_end:arrival
        ~args:[ ("src", src); ("dst", dst); ("bytes", bytes) ] ());
  match Machine.crit t.machine with
  | None ->
      Machine.schedule t.machine ~time:arrival (fun () -> handler ~time:arrival)
  | Some c ->
      (* The send→deliver arc: the handler's cause is this wire message,
         whose own cause is whatever context performed the send. *)
      let node =
        Crit.node c ~pred:(Crit.cur c) ~kind:Crit.k_msg ~a:src ~b:dst
          ~time:arrival ~cost:(arrival -. now) ()
      in
      Machine.schedule_cause t.machine ~time:arrival ~cause:node (fun () ->
          handler ~time:arrival)

(* One wire message (already tallied as a logical send): draw a fault fate
   if a model is attached, then put the surviving copies on the wire. *)
let emit t ~now ~src ~dst ~bytes handler =
  let fbytes = float_of_int bytes in
  match t.faults with
  | None -> deliver t ~now ~src ~dst ~bytes ~fbytes ~extra:0. handler
  | Some f ->
      let fate = Faults.draw f in
      let stats = Machine.stats t.machine in
      if fate.Faults.dropped then begin
        Stats.incr_id stats sid_dropped;
        add_link t stats fam_drop_link ((src * t.nprocs) + dst) 1.;
        match Machine.trace t.machine with
        | None -> ()
        | Some tr ->
            Trace.instant tr ~name:"drop" ~cat:"net" ~tid:src ~ts:now
              ~args:[ ("dst", dst); ("bytes", bytes) ] ()
      end;
      if fate.Faults.duplicated then Stats.incr_id stats sid_duplicated;
      for _ = 1 to fate.Faults.copies do
        deliver t ~now ~src ~dst ~bytes ~fbytes ~extra:(Faults.jitter_of f)
          handler
      done

let send t ~now ~src ~dst ~bytes handler =
  if bytes < 0 then invalid_arg "Am.send: negative size";
  let nprocs = t.nprocs in
  if src < 0 || src >= nprocs then invalid_arg "Am.send: bad src";
  if dst < 0 || dst >= nprocs then invalid_arg "Am.send: bad dst";
  let a = acct t in
  a.messages <- a.messages + 1;
  a.bytes_sent <- a.bytes_sent + bytes;
  emit t ~now ~src ~dst ~bytes handler

(* ---- multicast / vectored sends ---- *)

type part = { p_dst : int; p_bytes : int; p_handler : time:float -> unit }

let part ~dst ~bytes handler = { p_dst = dst; p_bytes = bytes; p_handler = handler }

(* Group a part list by destination, preserving first-appearance order of
   destinations and the relative order of parts within a destination, and
   tally the coalescing: a group of k parts travels as ONE vectored wire
   message, saving k-1 physical messages over k individual sends. *)
let coalesce t ~now ~src parts =
  let nprocs = t.nprocs in
  if src < 0 || src >= nprocs then invalid_arg "Am.send_multi: bad src";
  List.iter
    (fun q ->
      if q.p_bytes < 0 then invalid_arg "Am.send_multi: negative size";
      if q.p_dst < 0 || q.p_dst >= nprocs then
        invalid_arg "Am.send_multi: bad dst")
    parts;
  (* Group by destination with a short assoc, not an nprocs-wide bucket
     array: part lists are a few entries, machine sizes reach 1024. *)
  let by_dst = ref [] in
  List.iter
    (fun q ->
      if List.mem_assoc q.p_dst !by_dst then
        by_dst :=
          List.map
            (fun (d, qs) -> if d = q.p_dst then (d, q :: qs) else (d, qs))
            !by_dst
      else by_dst := (q.p_dst, [ q ]) :: !by_dst)
    parts;
  let stats = Machine.stats t.machine in
  if parts <> [] then Stats.incr_id stats sid_multi_sends;
  List.rev_map
    (fun (dst, rev_group) ->
      let group = List.rev rev_group in
      let bytes = List.fold_left (fun a q -> a + q.p_bytes) 0 group in
      let k = List.length group in
      if k > 1 then begin
        Stats.add_id stats sid_coalesced (float_of_int (k - 1));
        add_link t stats fam_coalesced_link
          ((src * nprocs) + dst)
          (float_of_int (k - 1));
        match Machine.trace t.machine with
        | None -> ()
        | Some tr ->
            Trace.instant tr ~name:"coalesce" ~cat:"net" ~tid:src ~ts:now
              ~args:[ ("dst", dst); ("parts", k); ("bytes", bytes) ] ()
      end;
      let handler ~time = List.iter (fun q -> q.p_handler ~time) group in
      (dst, bytes, handler))
    !by_dst

let send_multi t ~now ~src parts =
  List.iter
    (fun (dst, bytes, handler) ->
      let a = acct t in
      a.messages <- a.messages + 1;
      a.bytes_sent <- a.bytes_sent + bytes;
      emit t ~now ~src ~dst ~bytes handler)
    (coalesce t ~now ~src parts)

let send_multi_from t (p : Machine.proc) parts =
  if parts <> [] then begin
    Machine.advance_as p Crit.k_send_ovh
      t.cost.Cost_model.am_send_overhead;
    send_multi t ~now:p.Machine.clock ~src:p.Machine.id parts
  end

let send_from t (p : Machine.proc) ~dst ~bytes handler =
  Machine.advance_as p Crit.k_send_ovh
    t.cost.Cost_model.am_send_overhead;
  send t ~now:p.Machine.clock ~src:p.Machine.id ~dst ~bytes handler

let rpc t p ~dst ~bytes handler =
  let reply = Ivar.create () in
  send_from t p ~dst ~bytes (fun ~time -> handler reply ~time);
  Machine.await p reply

let messages t = match t.acct with Some a -> a.messages | None -> 0
let bytes_sent t = match t.acct with Some a -> a.bytes_sent | None -> 0
