(* Generic drivers: run any application (functorized over the DSM facade) on
   the CRL baseline or on the Ace runtime, returning simulated seconds and
   the node-0 result value. Pass [?trace] to record the run as a Chrome
   trace-event JSON file (simulated output is unaffected; see
   Ace_engine.Trace). Pass [?faults] to run on a lossy network: each
   simulation instantiates its own RNG stream from the spec's seed, so
   results are reproducible and independent of how the pool schedules
   cells; the reliable transport keeps every protocol correct. *)

module Machine = Ace_engine.Machine
module Trace = Ace_engine.Trace
module Faults = Ace_net.Faults
module Stats = Ace_engine.Stats
module Store = Ace_region.Store

(* End-of-run directory footprint, recorded into the machine's counters so
   stats probes (and the scaling experiment) can read it alongside the
   net.* families. Both the sharer sets and the copy tables only grow over
   a region's lifetime, so these end-of-run values are the run's peak. *)
let sid_dir_words = Stats.intern "region.dir_words"
let sid_regions = Stats.intern "region.regions"

let record_dir_stats stats store =
  Stats.add_id stats sid_dir_words (float_of_int (Store.dir_words store));
  Stats.add_id stats sid_regions (float_of_int (Store.count store))

(* A disabled spec (all knobs zero) attaches nothing, keeping the
   zero-overhead faultless path and its bit-identical output. *)
let attach_faults am = function
  | Some spec when Faults.enabled spec ->
      Ace_net.Am.set_faults am (Some (Faults.make spec))
  | Some _ | None -> ()

(* Opt-in bulk-transfer batching (default off — off runs are bit-identical
   to a build without the batching layer). *)
let attach_batch am = function
  | Some true -> Ace_net.Am.set_batching am true
  | Some false | None -> ()

(* Wrap a cell so it also reports its wall-clock seconds. *)
let timed f () =
  let t0 = Unix.gettimeofday () in
  let out = f () in
  (out, Unix.gettimeofday () -. t0)

module type APP = sig
  type config

  val n_spaces : int

  module Make (D : Ace_region.Dsm_intf.S) : sig
    val run : config -> D.ctx -> float
  end
end

type outcome = { seconds : float; result : float }

(* A facade transformer: given the backend's DSM module, return the module
   the application is actually compiled against. The conformance kit's
   coherence oracle is such a transformer (it records every access); [None]
   — the default — compiles against the backend directly, so oracle-off
   runs are bit-identical to builds without the hook. *)
type 'c wrap =
  (module Ace_region.Dsm_intf.S with type ctx = 'c and type h = Ace_region.Store.meta) ->
  (module Ace_region.Dsm_intf.S with type ctx = 'c and type h = Ace_region.Store.meta)

(* Attach a tracer for the duration of [body] and write the trace out
   afterwards; with no trace path this is exactly the untraced run. *)
let traced ?trace machine ~nprocs body =
  match trace with
  | None -> body ()
  | Some path ->
      let tr = Trace.create () in
      Machine.set_trace machine (Some tr);
      let out = body () in
      Trace.write_file tr ~nprocs path;
      out

(* Attach a caller-supplied causal-DAG recorder for the duration of [body]
   (critical-path profiling; the caller keeps the recorder for analysis or
   serialization). After the run the critical path is walked once and the
   per-space cycles-on-critical-path land in the machine's stats as the
   coh.blame.by_space dimensioned family, so downstream consumers — e.g. a
   protocol-adaptation loop — can read blame like any other counter,
   without parsing the DAG. Space -1 (unattributed path time: messages,
   barriers, app compute) is folded into the scalar coh.blame.other. *)
let fam_blame_space = Stats.fam "coh.blame.by_space"
let sid_blame_other = Stats.intern "coh.blame.other"

let critted ?crit machine body =
  match crit with
  | None -> body ()
  | Some cr ->
      Machine.set_crit machine (Some cr);
      let out = body () in
      Machine.set_crit machine None;
      let dag = Ace_obs.Critpath.of_crit cr in
      let bp = Ace_obs.Critpath.blamed_path dag in
      let stats = Machine.stats machine in
      List.iter
        (fun (space, cycles) ->
          if space >= 0 then Stats.add_dim stats fam_blame_space space cycles
          else Stats.add_id stats sid_blame_other cycles)
        (Ace_obs.Critpath.blame_by_space dag bp);
      out

let run_crl (type cfg) ?faults ?batch ?trace ?crit ?stats ?policy
    ?(wrap : Ace_crl.Crl.ctx wrap option) ~nprocs
    (module App : APP with type config = cfg) (cfg : cfg) =
  let sys = Ace_crl.Crl.create ?policy ~nprocs () in
  attach_faults (Ace_crl.Crl.am sys) faults;
  attach_batch (Ace_crl.Crl.am sys) batch;
  let machine = Ace_crl.Crl.machine sys in
  let facade =
    match wrap with
    | None -> (module Ace_crl.Crl.Api : Ace_region.Dsm_intf.S
                 with type ctx = Ace_crl.Crl.ctx and type h = Ace_region.Store.meta)
    | Some w -> w (module Ace_crl.Crl.Api)
  in
  let out =
    traced ?trace machine ~nprocs (fun () ->
        critted ?crit machine (fun () ->
            let module A = App.Make ((val facade)) in
            let result = ref nan in
            Ace_crl.Crl.run sys (fun ctx ->
                let r = A.run cfg ctx in
                if Ace_crl.Crl.me ctx = 0 then result := r);
            { seconds = Ace_crl.Crl.time_seconds sys; result = !result }))
  in
  record_dir_stats (Machine.stats machine) (Ace_crl.Crl.store sys);
  Option.iter (fun f -> f (Machine.stats machine)) stats;
  out

let run_ace (type cfg) ?faults ?batch ?trace ?crit ?cost ?stats ?policy ?adapt
    ?(wrap : Ace_runtime.Protocol.ctx wrap option) ~nprocs
    (module App : APP with type config = cfg) (cfg : cfg) =
  let rt = Ace_runtime.Runtime.create ?cost ?policy ~nprocs () in
  attach_faults (Ace_runtime.Runtime.am rt) faults;
  attach_batch (Ace_runtime.Runtime.am rt) batch;
  Ace_protocols.Proto_lib.register_all rt;
  Ace_combinator.Library.register_all rt;
  (* Install the online protocol-adaptation engine (default absent: the
     Ops.adapt hook then returns None and fixed-protocol runs pay nothing,
     keeping their output bit-identical). *)
  (match adapt with
  | Some acfg -> ignore (Ace_runtime.Adapt.install rt acfg)
  | None -> ());
  for _ = 1 to App.n_spaces do
    ignore (Ace_runtime.Runtime.new_space rt "SC")
  done;
  let machine = Ace_runtime.Runtime.machine rt in
  let facade =
    match wrap with
    | None -> (module Ace_runtime.Ops.Api : Ace_region.Dsm_intf.S
                 with type ctx = Ace_runtime.Protocol.ctx
                  and type h = Ace_region.Store.meta)
    | Some w -> w (module Ace_runtime.Ops.Api)
  in
  let out =
    traced ?trace machine ~nprocs (fun () ->
        critted ?crit machine (fun () ->
            let module A = App.Make ((val facade)) in
            let result = ref nan in
            Ace_runtime.Runtime.run rt (fun ctx ->
                let r = A.run cfg ctx in
                if Ace_runtime.Ops.me ctx = 0 then result := r);
            { seconds = Ace_runtime.Runtime.time_seconds rt; result = !result }))
  in
  record_dir_stats (Machine.stats machine) (Ace_runtime.Runtime.store rt);
  Option.iter (fun f -> f (Machine.stats machine)) stats;
  out

(* File-name slug for a row name: lowercase alphanumerics, runs of anything
   else collapsed to one '-'. *)
let slug name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-'
          then Buffer.add_char b '-')
    name;
  let s = Buffer.contents b in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '-' then String.sub s 0 (n - 1) else s

(* One trace file per grid cell: DIR/FIG-ROW-SIDE.trace.json. Cells that
   run several simulations (per-iteration pairs, the TSP average) overwrite
   the file, leaving the trace of the last — largest — run. *)
let trace_path trace_dir ~fig ~row ~side =
  Option.map
    (fun dir ->
      Filename.concat dir (Printf.sprintf "%s-%s-%s.trace.json" fig (slug row) side))
    trace_dir

(* Per-iteration timing as in the paper ("average time per iteration ...
   discard the first iteration"): run once with a single step and once with
   [1 + iters] steps; the difference isolates the steady-state iterations,
   cancelling setup and cold-start costs exactly (the simulator is
   deterministic). *)
let per_iteration ~run_with_steps ~iters =
  let warm = run_with_steps 1 in
  let full = run_with_steps (1 + iters) in
  {
    seconds = (full.seconds -. warm.seconds) /. float_of_int iters;
    result = full.result;
  }
