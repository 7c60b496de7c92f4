(* The differential protocol fuzzer: run one Prog under every admissible
   registered protocol (plus the CRL baseline backend) across a grid of
   schedule tie-breaks, fault specs and batching modes, and demand that
   every run produces the same final heap as the sequentially consistent
   reference run — and, for race-free programs, that the coherence oracle
   finds no stale read on any run. A failing cell is shrunk to a minimal
   program and packaged as a replayable Repro. *)

module Protocol = Ace_runtime.Protocol
module Runtime = Ace_runtime.Runtime
module Event_queue = Ace_engine.Event_queue
module Machine = Ace_engine.Machine
module Stats = Ace_engine.Stats
module Faults = Ace_net.Faults

(* One cell of the conformance grid. [proto] is a registered protocol
   name, or "CRL" for the fixed-protocol baseline backend. [engine] is
   always [Seq_engine] (the simulator has one engine); the field stays
   because the benchmark's fuzz workload, [perf/workloads.ml], builds
   cells with it. *)
type cell = {
  proto : string;
  policy : Event_queue.policy;
  faults : Faults.spec option;
  batch : bool;
  engine : Machine.engine;
}

let cell_to_string c =
  Printf.sprintf "%s / %s%s%s" c.proto
    (Event_queue.policy_to_string c.policy)
    (match c.faults with
    | None -> ""
    | Some s ->
        Printf.sprintf " / faults(drop=%g,dup=%g,jitter=%g,seed=%d)" s.drop
          s.dup s.jitter s.seed)
    (if c.batch then " / batch" else "")

type failure = { cell : cell; reason : string }

let attach_faults am = function
  | Some spec when Faults.enabled spec ->
      Ace_net.Am.set_faults am (Some (Faults.make spec))
  | Some _ | None -> ()

(* Run one program in one cell; returns node 0's final heap plus the
   delivered active-message count and the final simulated time. [oracle],
   when given, observes every access section on every node. *)
let run_cell_full ?oracle (p : Prog.t) (c : cell) :
    float array array * float * float =
  let heap = ref [||] in
  let wrap facade =
    match oracle with None -> facade | Some o -> Observe.wrap o facade
  in
  if c.proto = "CRL" then begin
    let sys = Ace_crl.Crl.create ~policy:c.policy ~nprocs:p.Prog.nprocs () in
    attach_faults (Ace_crl.Crl.am sys) c.faults;
    if c.batch then Ace_net.Am.set_batching (Ace_crl.Crl.am sys) true;
    let facade =
      wrap
        (module Ace_crl.Crl.Api : Ace_region.Dsm_intf.S
          with type ctx = Ace_crl.Crl.ctx
           and type h = Ace_region.Store.meta)
    in
    Ace_crl.Crl.run sys (fun ctx ->
        match Prog.interp facade ~flush_to:"SC" p ctx with
        | Some h -> heap := h
        | None -> ());
    let m = Ace_crl.Crl.machine sys in
    ( !heap,
      Stats.get (Machine.stats m) "net.messages",
      Ace_crl.Crl.time_seconds sys )
  end
  else begin
    let rt = Runtime.create ~policy:c.policy ~nprocs:p.Prog.nprocs () in
    attach_faults (Runtime.am rt) c.faults;
    if c.batch then Ace_net.Am.set_batching (Runtime.am rt) true;
    List.iter (Runtime.register rt) Ace_combinator.Library.kit;
    List.iter
      (fun p -> if c.proto = p.Protocol.name then Runtime.register rt p)
      Ace_combinator.Library.canaries;
    ignore (Runtime.new_space rt c.proto);
    let facade =
      wrap
        (module Ace_runtime.Ops.Api : Ace_region.Dsm_intf.S
          with type ctx = Protocol.ctx
           and type h = Ace_region.Store.meta)
    in
    Runtime.run rt (fun ctx ->
        match Prog.interp facade ~flush_to:c.proto p ctx with
        | Some h -> heap := h
        | None -> ());
    let m = Runtime.machine rt in
    ( !heap,
      Stats.get (Machine.stats m) "net.messages",
      Runtime.time_seconds rt )
  end

let run_cell ?oracle p c =
  let heap, _, _ = run_cell_full ?oracle p c in
  heap

let heap_mismatch ~got ~want =
  if Array.length got <> Array.length want then
    Some
      (Printf.sprintf "heap shape differs: %d regions vs %d"
         (Array.length got) (Array.length want))
  else begin
    let msg = ref None in
    Array.iteri
      (fun r g ->
        if !msg = None then
          Array.iteri
            (fun j v ->
              if !msg = None && v <> want.(r).(j) then
                msg :=
                  Some
                    (Printf.sprintf
                       "heap mismatch: region %d slot %d: got %.17g, \
                        reference %.17g"
                       r j v want.(r).(j)))
            g)
      got;
    !msg
  end

(* The protocols the kit checks by default: everything in the registry
   (combinator-built ones included) plus the CRL baseline. *)
let default_protocols =
  "CRL"
  :: List.map
       (fun p -> p.Protocol.name)
       (Runtime.builtins @ Ace_combinator.Library.kit)

let reference_cell =
  {
    proto = "SC";
    policy = Event_queue.Fifo;
    faults = None;
    batch = false;
    engine = Machine.Seq_engine;
  }

(* Run [p] in cell [c], the oracle watching every access section when
   [with_oracle]: the final heap, or the cell's failure (a crash included,
   so this does not raise). *)
let run_checked ~with_oracle (p : Prog.t) c =
  let oracle =
    if with_oracle then Some (Oracle.create ~nprocs:p.Prog.nprocs ()) else None
  in
  match run_cell ?oracle p c with
  | exception e -> Error { cell = c; reason = "crashed: " ^ Printexc.to_string e }
  | heap -> (
      match Option.map Oracle.check oracle with
      | Some (Some v) ->
          Error { cell = c; reason = "oracle: " ^ Oracle.violation_to_string v }
      | _ -> Ok heap)

(* A cell's verdict against the reference heap. *)
let judge ~reference c = function
  | Error fl -> Some fl
  | Ok heap ->
      Option.map
        (fun m -> { cell = c; reason = m })
        (heap_mismatch ~got:heap ~want:reference)

(* Check one program over a grid. The reference heap comes from SC under
   FIFO with no faults and no batching; each schedule index is then paired
   round-robin with a protocol, a fault spec and a batching mode, so
   [schedules] runs cover every admissible protocol several times without
   a full cross product. Race-free programs carry the oracle on every run.

   The reference and the cells are independent simulations, so they run
   as one batch on the domain pool; the verdict is read off in serial
   order — the reference's failure, else the lowest-index failing cell —
   so it does not depend on the pool. *)
let check_prog ?(protocols = default_protocols) ~schedules ~fault_specs
    ~batch_modes (p : Prog.t) : failure option =
  Prog.validate p;
  let f = Prog.features p in
  let with_oracle = not f.Prog.incr in
  let protos = Array.of_list (List.filter (Prog.admits f) protocols) in
  let faults = Array.of_list (None :: List.map Option.some fault_specs) in
  let batches = Array.of_list batch_modes in
  let cells =
    if Array.length protos = 0 then [||]
    else
      Array.init schedules (fun i ->
          {
            proto = protos.(i mod Array.length protos);
            policy = Schedule.of_index i;
            faults = faults.(i mod Array.length faults);
            batch = batches.(i mod Array.length batches);
            engine = Machine.Seq_engine;
          })
  in
  (* Racy-by-design increment programs have no trustworthy protocol
     reference (invalidation protocols may legally lose concurrent RMW
     updates); their exact final heap is predictable instead. *)
  let runs =
    if f.Prog.incr then cells else Array.append [| reference_cell |] cells
  in
  let outcomes =
    Ace_engine.Pool.run_all
      (Array.map (fun c () -> run_checked ~with_oracle p c) runs)
  in
  let reference =
    if f.Prog.incr then Ok (Prog.predicted_counter_heap p) else outcomes.(0)
  in
  let first = Array.length runs - Array.length cells in
  match reference with
  | Error fl -> Some fl
  | Ok reference ->
      let rec scan i =
        if i >= Array.length cells then None
        else
          match judge ~reference cells.(i) outcomes.(first + i) with
          | Some fl -> Some fl
          | None -> scan (i + 1)
      in
      scan 0

(* Greedy shrink: keep applying the first structural cut that still fails.
   Re-checking is restricted to the protocol that failed (plus the
   reference), which keeps shrinking fast and the counterexample focused. *)
let shrink ~schedules ~fault_specs ~batch_modes p (fl : failure) =
  let check q =
    check_prog ~protocols:[ fl.cell.proto ] ~schedules ~fault_specs
      ~batch_modes q
  in
  let rec go p fl =
    let next =
      List.find_map
        (fun q ->
          match check q with Some flq -> Some (q, flq) | None -> None)
        (Prog.shrink_candidates p)
    in
    match next with Some (q, flq) -> go q flq | None -> (p, fl)
  in
  go p fl

type report = {
  programs : int;
  counterexample : (Prog.t * failure) option; (* already shrunk *)
}

(* The fuzz loop: generate [count] programs from [seed], check each over
   the grid, and shrink the first failure. Deterministic per seed. *)
let fuzz ?protocols ?shape ?nprocs ~seed ~count ~schedules ~fault_specs
    ~batch_modes ?(log = fun _ -> ()) () : report =
  let st = Random.State.make [| seed |] in
  let rec go i =
    if i >= count then { programs = i; counterexample = None }
    else begin
      let p = Prog.generate ?shape ?nprocs () st in
      match check_prog ?protocols ~schedules ~fault_specs ~batch_modes p with
      | None ->
          if (i + 1) mod 25 = 0 then
            log (Printf.sprintf "%d/%d programs clean" (i + 1) count);
          go (i + 1)
      | Some fl ->
          log
            (Printf.sprintf "program %d failed (%s); shrinking" i
               (cell_to_string fl.cell));
          let pmin, flmin = shrink ~schedules ~fault_specs ~batch_modes p fl in
          { programs = i + 1; counterexample = Some (pmin, flmin) }
    end
  in
  go 0

let to_repro (p, (fl : failure)) =
  {
    Repro.proto = fl.cell.proto;
    policy = fl.cell.policy;
    faults = fl.cell.faults;
    batch = fl.cell.batch;
    reason = fl.reason;
    prog = p;
  }

let cell_of_repro (r : Repro.t) =
  {
    proto = r.Repro.proto;
    policy = r.Repro.policy;
    faults = r.Repro.faults;
    batch = r.Repro.batch;
    engine = Machine.Seq_engine;
  }

(* Re-run a saved counterexample: the pinned cell against a fresh
   reference. *)
let replay (r : Repro.t) : failure option =
  let cell = cell_of_repro r in
  let p = r.Repro.prog in
  let f = Prog.features p in
  let with_oracle = not f.Prog.incr in
  let reference =
    if f.Prog.incr then Ok (Prog.predicted_counter_heap p)
    else run_checked ~with_oracle p reference_cell
  in
  match reference with
  | Error fl -> Some fl
  | Ok reference -> judge ~reference cell (run_checked ~with_oracle p cell)
