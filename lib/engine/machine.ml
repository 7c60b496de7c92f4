(* The simulated machine: N processors as cooperative fibers over one
   discrete-event loop, drained in (time, order) order on the calling
   domain. *)

type engine = Seq_engine

type t = {
  nprocs : int;
  events : Event_queue.t;
  stats : Stats.t;
  mutable live : int; (* fibers spawned and not yet returned *)
  mutable max_clock : float;
  mutable trace : Trace.t option;
      (* event tracer; None (the default) keeps every instrumentation
         point down to a single field read *)
  mutable crit : Crit.t option;
      (* causal-DAG recorder, same contract: None = one field read *)
}

and proc = { id : int; mutable clock : float; machine : t; fiber : fiber }

(* A proc's fiber switch, built once with the proc. A fiber blocks in one
   way: it performs its [Park p] effect, whose handler only stores the
   captured continuation here. Whoever blocks has already arranged for
   [resume] to be pushed: a settle pushes it itself (directly, or through
   [replay] for a run of deferred charges), and an await leaves [waiter]
   on the ivar, which pushes it at the fill. The effect value, the
   handler's answer, the resume and replay thunks and the waiter are
   preallocated, so an advance allocates nothing of its own and a pending
   await only its place in the ivar's waiter list. *)
and fiber = {
  park : unit Effect.t; (* [Park p] *)
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
  resume : unit -> unit;
  replay : unit -> unit; (* one step of a settled run of charges *)
  waiter : waiter;
  mutable parked : (unit, unit) Effect.Deep.continuation;
      (* [unparked] until the first park *)
  mutable cause : int; (* DAG node to resume in, when a recorder is on *)
  mutable charges : Float.Array.t;
      (* deferred charges, oldest first; empty until the first [defer] *)
  mutable deferred : int; (* charges recorded and not yet settled *)
  mutable replayed : int; (* next charge [replay] takes *)
  mutable replay_end : int; (* charges in the run being replayed *)
}

(* The fiber's ivar waiter, polymorphic in the ivar's value. *)
and waiter = { w : 'a. time:float -> 'a -> unit }

type _ Effect.t += Park : proc -> unit Effect.t

(* The initial value of a park slot: a real continuation, captured once
   and never resumed, so that parking stores the captured continuation
   itself instead of allocating an option around it on every advance. *)
type _ Effect.t += Unparked : unit Effect.t

let unparked : (unit, unit) Effect.Deep.continuation =
  let slot : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Unparked
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Unparked -> Some (fun k -> slot := Some k)
          | _ -> None);
    };
  Option.get !slot

(* Queue slots by machine size: 8 per processor, clamped to 16..128. The
   fuzzer's 2-4 node machines start at 16-32 slots, which cuts their
   set-up; 16 nodes and up keep the full 128. *)
let queue_capacity nprocs = min 128 (max 16 (8 * nprocs))

let create ?policy ~nprocs () =
  if nprocs <= 0 then invalid_arg "Machine.create: nprocs <= 0";
  {
    nprocs;
    events = Event_queue.create ?policy ~capacity:(queue_capacity nprocs) ();
    stats = Stats.create ();
    live = 0;
    max_clock = 0.;
    trace = None;
    crit = None;
  }

let nprocs t = t.nprocs
let stats t = t.stats
let policy t = Event_queue.policy t.events
let set_trace t tr = t.trace <- tr
let set_crit t c = t.crit <- c

(* When a recorder is attached, every queued thunk carries the causal
   context it was created in, restored just before it runs — so the DAG
   hooks inside the thunk (message sends, ivar fills, compute intervals)
   see their true cause. With no recorder this is a plain push. *)
let schedule_cause t c ~time ~cause f =
  Event_queue.push t.events ~time (fun () ->
      Crit.set_cur c cause;
      f ())

let schedule t ~time f =
  match t.crit with
  | None -> Event_queue.push t.events ~time f
  | Some c -> schedule_cause t c ~time ~cause:(Crit.export_cur c) f

(* {2 Charges}

   A charge moves the proc's clock and costs one queue event, resumed at
   the new clock: that event is where other events at earlier times run.
   [defer] only records the charge; [settle] replays the recorded run in
   order with one park. It pushes the first charge's event and parks; each
   pop of a run's event but the last runs [replay], which takes the next
   charge and pushes its event; the last pop resumes the fiber. The pops
   run no fiber code, and between a [defer] and its [settle] the fiber runs
   only code that pushes nothing and reads no clock (see machine.mli for
   the whole contract), so every event gets the same time, the same
   insertion number and the same clock additions as charging each
   eagerly: only the fiber switches go. With a recorder attached a charge
   is eager (its DAG interval and trace spans read the clock at once). A
   full buffer settles before it takes the next charge. The buffer is
   allocated at the processor's first charge (65 words), so one that never
   charges allocates none. *)

let max_deferred = 64

(* The clock bump, the DAG's compute interval and the push of the resume
   event happen before the perform, leaving the handler only the park:
   nothing runs in between, so the order is the same as doing them in the
   handler. *)
let charge_now p cycles =
  p.clock <- p.clock +. cycles;
  (match p.machine.crit with
  | None -> ()
  | Some c ->
      Crit.advance c ~proc:p.id ~time:p.clock ~cycles;
      p.fiber.cause <- Crit.head c p.id);
  Event_queue.push p.machine.events ~time:p.clock p.fiber.resume;
  Effect.perform p.fiber.park

let settle p =
  let f = p.fiber in
  let n = f.deferred in
  if n > 0 then begin
    f.deferred <- 0;
    p.clock <- p.clock +. Float.Array.unsafe_get f.charges 0;
    let next =
      if n = 1 then f.resume
      else begin
        f.replayed <- 1;
        f.replay_end <- n;
        f.replay
      end
    in
    Event_queue.push p.machine.events ~time:p.clock next;
    Effect.perform f.park
  end

let replay p =
  let f = p.fiber in
  let i = f.replayed in
  p.clock <- p.clock +. Float.Array.unsafe_get f.charges i;
  f.replayed <- i + 1;
  Event_queue.push p.machine.events ~time:p.clock
    (if i + 1 = f.replay_end then f.resume else f.replay)

let defer p cycles =
  if cycles < 0. || not (Float.is_finite cycles) then
    invalid_arg "Machine.defer: bad cycle count";
  if cycles > 0. then begin
    let t = p.machine in
    let f = p.fiber in
    if t.crit != None || t.trace != None then begin
      (* nothing is pending unless a recorder was attached mid-run *)
      settle p;
      charge_now p cycles
    end
    else begin
      if f.deferred = max_deferred then settle p
      else if Float.Array.length f.charges = 0 then
        f.charges <- Float.Array.create max_deferred;
      Float.Array.unsafe_set f.charges f.deferred cycles;
      f.deferred <- f.deferred + 1
    end
  end

let advance p cycles =
  defer p cycles;
  settle p

let pending p = p.fiber.deferred > 0

(* The waiter runs synchronously inside [Ivar.fill], i.e. in the filler's
   causal context: exactly the fill->wakeup edge. *)
let wake p ~time =
  if time > p.clock then p.clock <- time;
  (match p.machine.crit with
  | None -> ()
  | Some c ->
      p.fiber.cause <- Crit.wake c ~proc:p.id ~cause:(Crit.cur c) ~time:p.clock);
  Event_queue.push p.machine.events ~time:p.clock p.fiber.resume

(* A filled ivar never yields: the fiber continues at once, without a
   queue event. If the fill is in this fiber's future, the resume time is
   bound by the filler: record that cross-chain edge (the fill
   snapshotted its causal context into the ivar). On a pending ivar the
   fiber leaves its preallocated [wake] waiter and parks; the value is
   read back from the ivar once it resumes. (A closure per await costs 5
   words more and is promoted whenever the await outlives a minor
   collection; with it the figures workload's peak heap reads 1.5%
   higher.) *)
let await p iv =
  settle p;
  if Ivar.is_filled iv then begin
    let time = Ivar.fill_time iv in
    if time > p.clock then begin
      (match p.machine.crit with
      | None -> ()
      | Some c ->
          Crit.set_cur c (Crit.wake c ~proc:p.id ~cause:(Ivar.cause iv) ~time));
      p.clock <- time
    end
  end
  else begin
    Ivar.on_fill iv p.fiber.waiter.w;
    Effect.perform p.fiber.park
  end;
  Ivar.value iv

(* The slot keeps the spent continuation until the next park: a resumed
   continuation holds no stack, and clearing it would cost a write barrier
   on every switch. *)
let resume p =
  (match p.machine.crit with
  | None -> ()
  | Some c -> Crit.set_cur c p.fiber.cause);
  Effect.Deep.continue p.fiber.parked ()

let make_proc t ~id ~clock =
  let rec p = { id; clock; machine = t; fiber }
  and fiber =
    {
      park = Park p;
      on_park = Some (fun k -> p.fiber.parked <- k);
      resume = (fun () -> resume p);
      replay = (fun () -> replay p);
      waiter = { w = (fun ~time _ -> wake p ~time) };
      parked = unparked;
      cause = -1;
      charges = Float.Array.create 0;
      deferred = 0;
      replayed = 0;
      replay_end = 0;
    }
  in
  p

(* ---- instrumentation probes: each feeds whichever recorders are
   attached, and is one field read per recorder when none is ---- *)

type op = { op_name : string; op_kind : int }

let op name = { op_name = name; op_kind = Crit.kind name }

(* The trace half of {!call}: a span over [f a b] when a tracer is
   attached. *)
let span_call t p op ~space ~rid f a b =
  match t.trace with
  | None -> f a b
  | Some tr ->
      let t0 = p.clock in
      f a b;
      let args = if rid >= 0 then [ ("rid", rid) ] else [] in
      let args = if space >= 0 then ("space", space) :: args else args in
      Trace.span tr ~name:op.op_name ~cat:"call" ~tid:p.id ~ts:t0
        ~dur:(p.clock -. t0) ~args ()

let call p op ~space ~rid ~charge f a b =
  let t = p.machine in
  match t.crit with
  | None ->
      defer p charge;
      span_call t p op ~space ~rid f a b
  | Some c ->
      let old_k, old_s =
        Crit.swap_activity c ~proc:p.id ~kind:op.op_kind ~space
      in
      advance p charge;
      span_call t p op ~space ~rid f a b;
      Crit.set_activity c ~proc:p.id ~kind:old_k ~space:old_s

let lock_acquired p ~rid =
  match p.machine.trace with
  | None -> ()
  | Some tr -> Trace.lock_acquired tr ~tid:p.id ~rid ~ts:p.clock

let lock_released p ~rid =
  match p.machine.trace with
  | None -> ()
  | Some tr -> Trace.lock_released tr ~tid:p.id ~rid ~ts:p.clock

let instant t ~name ~cat ~tid ~ts args =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.instant tr ~name ~cat ~tid ~ts ~args ()

let advance_send p cycles =
  match p.machine.crit with
  | None -> advance p cycles
  | Some c ->
      let old = Crit.swap_kind c ~proc:p.id Crit.k_send_ovh in
      advance p cycles;
      ignore (Crit.swap_kind c ~proc:p.id old)

let wire t ~src ~dst ~bytes ~now ~arrival f =
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.arc tr ~name:"msg" ~cat:"msg" ~tid_src:src ~tid_dst:dst ~ts:now
        ~ts_end:arrival
        ~args:[ ("src", src); ("dst", dst); ("bytes", bytes) ] ());
  match t.crit with
  | None -> Event_queue.push t.events ~time:arrival f
  | Some c ->
      (* The send→deliver arc: [f]'s cause is this wire message, whose own
         cause is whatever context performed the send. *)
      let node =
        Crit.node c ~pred:(Crit.cur c) ~kind:Crit.k_msg ~a:src ~b:dst
          ~time:arrival ~cost:(arrival -. now) ()
      in
      schedule_cause t c ~time:arrival ~cause:node f

module Fanin = struct
  type m = t

  type t = {
    machine : m;
    mutable join : int; (* -1 = none yet *)
    mutable pending : int;
    complete : float -> unit;
  }

  let create machine complete = { machine; join = -1; pending = 0; complete }
  let expect f = f.pending <- f.pending + 1
  let pending f = f.pending

  let arrive f ~time =
    (match f.machine.crit with
    | None -> ()
    | Some c -> f.join <- Crit.join c f.join (Crit.cur c));
    f.pending <- f.pending - 1;
    if f.pending = 0 then begin
      (match f.machine.crit with
      | None -> ()
      | Some c -> if f.join >= 0 then Crit.set_cur c f.join);
      f.complete time
    end
end

(* Run one fiber under a deep handler: a [Park] only stores the
   continuation, whose resumption is already arranged (see [fiber]). *)
let spawn_fiber t (body : unit -> unit) =
  t.live <- t.live + 1;
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Park p -> p.fiber.on_park | _ -> None);
    }

let run t program =
  let procs =
    Array.init t.nprocs (fun id -> make_proc t ~id ~clock:t.max_clock)
  in
  let finished = Array.make t.nprocs false in
  let spawn p () =
    spawn_fiber t (fun () ->
        program p;
        settle p;
        finished.(p.id) <- true)
  in
  (match t.crit with
  | None ->
      Array.iter
        (fun p -> Event_queue.push t.events ~time:p.clock (spawn p))
        procs
  | Some c ->
      (* Successive phases start at the global max clock: every root
         depends on the join of all previous chain heads. *)
      let gj =
        Array.fold_left (fun acc p -> Crit.join c acc (Crit.head c p.id)) (-1)
          procs
      in
      Array.iter
        (fun p ->
          let r = Crit.root c ~proc:p.id ~cause:gj ~time:p.clock in
          Event_queue.push t.events ~time:p.clock (fun () ->
              Crit.set_cur c r;
              spawn p ()))
        procs);
  (match t.crit with None -> () | Some c -> Crit.activate c);
  Fun.protect
    ~finally:(fun () ->
      match t.crit with None -> () | Some _ -> Crit.deactivate ())
    (fun () ->
      Event_queue.drain t.events (fun time thunk ->
          if time > t.max_clock then t.max_clock <- time;
          thunk ()));
  if t.live > 0 then begin
    (* Name the stuck processors and where their clocks stopped, so a
       deadlock (a lost-and-abandoned message, a mis-tuned retransmit
       timeout, a missing barrier arrival) is diagnosable from the error
       alone. *)
    let blocked =
      Array.to_list procs
      |> List.filter (fun p -> not finished.(p.id))
      |> List.map (fun p -> Printf.sprintf "P%d@%.0f" p.id p.clock)
    in
    failwith
      (Printf.sprintf
         "Machine.run: deadlock: %d fiber(s) blocked forever with no \
          pending events (last event at t=%.0f); blocked processors: %s"
         t.live t.max_clock
         (String.concat ", " blocked))
  end;
  Array.iter (fun p -> if p.clock > t.max_clock then t.max_clock <- p.clock) procs

let time t = t.max_clock
let seconds t ~cycles_per_sec = t.max_clock /. cycles_per_sec

module Barrier = struct
  let sid_arrivals = Stats.intern "barrier.arrivals"

  type b = {
    owner : t;
    cost : int -> float;
    mutable arrived : int;
    mutable latest : float;
    mutable gen : unit Ivar.t;
    mutable gen_no : int; (* generation counter, for trace labelling *)
    mutable cjoin : int;
        (* causal join of this generation's arrivals so far (-1 = none):
           the release node depends on ALL arrivals, so a what-if replay
           can re-decide which processor arrives last *)
  }

  let create owner ~cost =
    {
      owner;
      cost;
      arrived = 0;
      latest = 0.;
      gen = Ivar.create ();
      gen_no = 0;
      cjoin = -1;
    }

  (* Every arrival awaits the current generation's ivar; the last arrival
     fills it at [latest + cost P], which releases (and time-advances)
     everyone, including itself. Tracing records one span per processor per
     generation, arrival to release: the per-proc span lengths within a
     generation expose barrier skew (who arrived early and waited). *)
  let wait b p =
    settle p;
    let t = b.owner in
    let gen = b.gen in
    let gen_no = b.gen_no in
    let arrival = p.clock in
    b.arrived <- b.arrived + 1;
    if p.clock > b.latest then b.latest <- p.clock;
    (match t.crit with
    | None -> ()
    | Some c -> b.cjoin <- Crit.join c b.cjoin (Crit.head c p.id));
    if b.arrived = t.nprocs then begin
      let release = b.latest +. b.cost t.nprocs in
      b.arrived <- 0;
      b.latest <- 0.;
      b.gen <- Ivar.create ();
      b.gen_no <- gen_no + 1;
      match t.crit with
      | None -> Ivar.fill gen ~time:release ()
      | Some c ->
          let jn = b.cjoin in
          b.cjoin <- -1;
          let bn =
            Crit.node c ~pred:jn ~kind:Crit.k_barrier ~a:p.id ~b:gen_no
              ~time:release
              ~cost:(release -. Crit.time_of c jn)
              ()
          in
          Crit.set_head c ~proc:p.id bn;
          (* Waiters wake inside this fill: make the release node their
             cause. *)
          Crit.with_cur c bn (fun () -> Ivar.fill gen ~time:release ())
    end;
    await p gen;
    Stats.incr_id t.stats sid_arrivals;
    match t.trace with
    | None -> ()
    | Some tr ->
        Trace.span tr ~name:"barrier" ~cat:"barrier" ~tid:p.id ~ts:arrival
          ~dur:(p.clock -. arrival)
          ~args:[ ("gen", gen_no) ] ()
end
