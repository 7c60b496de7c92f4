(* Global Ace runtime state: the protocol registry, spaces, and per-processor
   context construction. *)

module Machine = Ace_engine.Machine
module Blocks = Ace_region.Blocks
module Cost_model = Ace_net.Cost_model

let sid_spaces = Ace_engine.Stats.intern "ace.spaces"

(* SC and NULL, compiled once. *)
let builtins = [ Lang.compile Lang.sc; Lang.compile Lang.null ]

let create ?(cost = Cost_model.cm5_ace) ?policy ~nprocs () =
  let machine = Machine.create ?policy ~nprocs () in
  let am = Ace_net.Am.create machine cost in
  let store =
    Ace_region.Store.create ~stats:(Machine.stats machine) ~nprocs ()
  in
  let rt =
    {
      Protocol.machine;
      am;
      net = Ace_net.Reliable.create am;
      cost;
      store;
      spaces = [||];
      nspaces = 0;
      registry = Hashtbl.create 16;
      base_barrier =
        Machine.Barrier.create machine ~cost:(fun p -> Cost_model.barrier_cost cost p);
      coll = Ace_region.Collective.create ~nprocs;
      names = Hashtbl.create 64;
      alloc_seq = Hashtbl.create 16;
      change_req = Hashtbl.create 8;
      adapt = Protocol.Adapt_none;
    }
  in
  List.iter
    (fun p -> Hashtbl.add rt.Protocol.registry p.Protocol.name p)
    builtins;
  rt

let machine (rt : Protocol.runtime) = rt.Protocol.machine
let am (rt : Protocol.runtime) = rt.Protocol.am
let net (rt : Protocol.runtime) = rt.Protocol.net
let store (rt : Protocol.runtime) = rt.Protocol.store
let nprocs (rt : Protocol.runtime) = Machine.nprocs rt.Protocol.machine
let set_trace (rt : Protocol.runtime) tr = Machine.set_trace rt.Protocol.machine tr
let trace (rt : Protocol.runtime) = Machine.trace rt.Protocol.machine

let register (rt : Protocol.runtime) (p : Protocol.protocol) =
  if Hashtbl.mem rt.Protocol.registry p.Protocol.name then
    invalid_arg ("Runtime.register: duplicate protocol " ^ p.Protocol.name);
  Hashtbl.add rt.Protocol.registry p.Protocol.name p

let find_protocol (rt : Protocol.runtime) name =
  match Hashtbl.find_opt rt.Protocol.registry name with
  | Some p -> p
  | None -> invalid_arg ("unknown protocol " ^ name)

let protocols (rt : Protocol.runtime) =
  Hashtbl.fold (fun _ p acc -> p :: acc) rt.Protocol.registry []
  |> List.sort (fun a b -> String.compare a.Protocol.name b.Protocol.name)

(* Ace_NewSpace: create a space bound to a protocol. Usable before the
   simulation starts (experiment setup) or collectively from SPMD code via
   [Ops.new_space]. *)
let new_space (rt : Protocol.runtime) proto_name =
  let proto = find_protocol rt proto_name in
  let sp =
    {
      Protocol.sid = rt.Protocol.nspaces;
      proto;
      rids = [];
      pstate = Array.make (nprocs rt) Protocol.Pstate_none;
    }
  in
  if rt.Protocol.nspaces = Array.length rt.Protocol.spaces then begin
    let spaces = Array.make (max 8 (2 * rt.Protocol.nspaces)) sp in
    Array.blit rt.Protocol.spaces 0 spaces 0 rt.Protocol.nspaces;
    rt.Protocol.spaces <- spaces
  end;
  rt.Protocol.spaces.(rt.Protocol.nspaces) <- sp;
  rt.Protocol.nspaces <- rt.Protocol.nspaces + 1;
  Ace_engine.Stats.incr_id (Machine.stats rt.Protocol.machine) sid_spaces;
  sp

let space (rt : Protocol.runtime) sid =
  if sid < 0 || sid >= rt.Protocol.nspaces then invalid_arg "Runtime.space: bad id";
  rt.Protocol.spaces.(sid)

let make_ctx (rt : Protocol.runtime) (proc : Machine.proc) =
  {
    Protocol.rt;
    proc;
    bctx = Blocks.make_ctx rt.Protocol.net rt.Protocol.store proc;
    coll_ctr = 0;
    space_ctr = 0;
  }

(* [run rt program] drives an SPMD program, handing each fiber its Ace
   context. *)
let run (rt : Protocol.runtime) program =
  Machine.run rt.Protocol.machine (fun proc -> program (make_ctx rt proc))

let time_seconds (rt : Protocol.runtime) =
  Machine.seconds rt.Protocol.machine
    ~cycles_per_sec:rt.Protocol.cost.Cost_model.cycles_per_sec
