(* The benchmark's four workloads, built only from the public entry points
   of lib/: the Experiments configs and Driver.run_ace/run_crl for the
   figures and the scale rows, Table4's kernels and hand versions for the
   compiler, and the conformance kit's generator and grid for the fuzzer.

   A workload is an array of cells. Each cell runs one or more complete
   simulations and returns what the golden gate compares: simulated
   seconds, physical messages and the program's result. It also lists the
   simulated machines it builds, so set-up time can be measured by
   building exactly those machines and nothing else.

   [--seed 0] is the paper's configuration; any other seed derives every
   app input seed (and the fuzz stream) from it. *)

module Driver = Ace_harness.Driver
module Experiments = Ace_harness.Experiments
module Table4 = Ace_harness.Table4
module Stats = Ace_engine.Stats
module Machine = Ace_engine.Machine
module Runtime = Ace_runtime.Runtime
module Crl = Ace_crl.Crl
module Faults = Ace_net.Faults
module Em3d = Ace_apps.Em3d
module Barnes_hut = Ace_apps.Barnes_hut
module Cholesky = Ace_apps.Cholesky
module Tsp = Ace_apps.Tsp
module Water = Ace_apps.Water
module Prog = Ace_check.Prog
module Runner = Ace_check.Runner

(* [nan] marks a field the run did not observe (a fuzz check that does not
   count reports only its verdict). *)
type outcome = { sim_s : float; msgs : float; value : float }

type machine = Ace of { nprocs : int; spaces : int; dsl : bool } | Crl of int

(* Exactly the public calls that build a simulated machine before it runs. *)
let build_machine = function
  | Ace { nprocs; spaces; dsl } ->
      let rt = Runtime.create ~nprocs () in
      Ace_protocols.Proto_lib.register_all rt;
      if dsl then Ace_combinator.Library.register_all rt;
      for _ = 1 to spaces do
        ignore (Runtime.new_space rt "SC")
      done
  | Crl nprocs -> ignore (Crl.create ~nprocs ())

(* What a pass attaches to its simulations: the timing facade, a sink
   handed every finished simulation's statistics, and whether the fuzz
   workload counts its messages and simulated seconds (which costs it a
   second run of its grid). An untraced pass attaches none of them. *)
type probe = {
  facade : Facade.t option;
  sink : (Stats.t -> unit) option;
  count : bool;
}

let untraced = { facade = None; sink = None; count = false }

type cell = {
  name : string;
  group : string option; (* cells of one group must compute the same result *)
  machines : machine list;
  run : probe -> outcome;
}

(* [seeded = false]: the workload takes no input seed *)
type t = { wl : string; seeded : bool; cells : cell array }

let names = [ "figures"; "compiler"; "scale"; "fuzz" ]

(* Seed 0 keeps the paper's input; any other seed derives a fresh one per
   input, distinct per [salt]. *)
let derive ~seed ~salt default =
  if seed = 0 then default
  else 1 + (((seed * 1_000_003) + (salt * 7_919)) land 0xFFFFFF)

let sid_messages = Stats.intern "net.messages"

(* ---- simulations through Ace_harness.Driver ---- *)

type backend = Ace_b | Crl_b

let run_sim (type c) probe backend ~nprocs
    (module A : Driver.APP with type config = c) (cfg : c) =
  let msgs = ref 0. in
  let stats st =
    msgs := Stats.get_id st sid_messages;
    Option.iter (fun f -> f st) probe.sink
  in
  Option.iter Facade.idle probe.facade;
  let out =
    match backend with
    | Ace_b ->
        Driver.run_ace ?wrap:(Option.map Facade.wrap probe.facade) ~stats
          ~nprocs (module A) cfg
    | Crl_b ->
        Driver.run_crl ?wrap:(Option.map Facade.wrap probe.facade) ~stats
          ~nprocs (module A) cfg
  in
  Option.iter Facade.idle probe.facade;
  (out, !msgs)

let machine_of (type c) backend ~nprocs
    (module A : Driver.APP with type config = c) =
  match backend with
  | Ace_b -> Ace { nprocs; spaces = A.n_spaces; dsl = true }
  | Crl_b -> Crl nprocs

(* One simulation. *)
let once (type c) ~name ?group backend ~nprocs
    (module A : Driver.APP with type config = c) (cfg : c) =
  {
    name;
    group;
    machines = [ machine_of backend ~nprocs (module A) ];
    run =
      (fun probe ->
        let o, msgs = run_sim probe backend ~nprocs (module A) cfg in
        { sim_s = o.Driver.seconds; msgs; value = o.Driver.result });
  }

(* The paper's per-iteration timing (Driver.per_iteration: a 1-step run
   and a (1+iters)-step run), messages summed over both runs. *)
let per_iteration (type c) ~name ?group backend ~nprocs
    (module A : Driver.APP with type config = c) (cfg_of_steps : int -> c) =
  let m = machine_of backend ~nprocs (module A) in
  {
    name;
    group;
    machines = [ m; m ];
    run =
      (fun probe ->
        let msgs = ref 0. in
        let o =
          Driver.per_iteration ~iters:4 ~run_with_steps:(fun steps ->
              let o, n =
                run_sim probe backend ~nprocs (module A) (cfg_of_steps steps)
              in
              msgs := !msgs +. n;
              o)
        in
        { sim_s = o.Driver.seconds; msgs = !msgs; value = o.Driver.result });
  }

(* TSP averaged over its instance triple, as Experiments.tsp_avg does. *)
let tsp_avg ~name ?group backend ~nprocs (cfgs : Tsp.config list) =
  let m = machine_of backend ~nprocs (module Tsp) in
  {
    name;
    group;
    machines = List.map (fun _ -> m) cfgs;
    run =
      (fun probe ->
        let outs =
          List.map (fun cfg -> run_sim probe backend ~nprocs (module Tsp) cfg) cfgs
        in
        let n = float_of_int (List.length outs) in
        {
          sim_s =
            List.fold_left (fun a (o, _) -> a +. o.Driver.seconds) 0. outs /. n;
          msgs = List.fold_left (fun a (_, m) -> a +. m) 0. outs;
          value = (fst (List.hd outs)).Driver.result;
        });
  }

(* ---- figures: Fig. 7a and Fig. 7b at 32 procs ---- *)

let figures ~seed =
  let s = Experiments.default_scale in
  let nprocs = s.Experiments.nprocs in
  let em3d steps =
    let c = Experiments.em3d_cfg s steps in
    { c with Em3d.seed = derive ~seed ~salt:1 c.Em3d.seed }
  in
  let bh steps =
    let c = Experiments.bh_cfg s steps in
    { c with Barnes_hut.seed = derive ~seed ~salt:2 c.Barnes_hut.seed }
  in
  let water steps =
    let c = Experiments.water_cfg s steps in
    let core = c.Water.core in
    {
      c with
      Water.core =
        { core with Ace_apps.Water_core.seed = derive ~seed ~salt:3 core.seed };
    }
  in
  let bsc =
    let c = Experiments.bsc_cfg s in
    let core = c.Cholesky.core in
    {
      c with
      Cholesky.core =
        { core with Ace_apps.Chol_core.seed = derive ~seed ~salt:4 core.seed };
    }
  in
  let tsps =
    List.mapi
      (fun i d ->
        let c = Experiments.tsp_cfg s in
        {
          c with
          Tsp.core =
            { c.Tsp.core with Ace_apps.Tsp_core.seed = derive ~seed ~salt:(10 + i) d };
        })
      Experiments.tsp_seeds
  in
  (* both sides of one figure row; a row's cells form one group *)
  let row fig name sides cell =
    let group = fig ^ "/" ^ name in
    List.map (fun (side, x) -> cell ~name:(group ^ "/" ^ side) ~group x) sides
  in
  let backends = [ ("crl", Crl_b); ("ace", Ace_b) ] in
  let fig7a =
    row "fig7a" "Barnes-Hut" backends (fun ~name ~group b ->
        per_iteration ~name ~group b ~nprocs (module Barnes_hut) bh)
    @ row "fig7a" "BSC" backends (fun ~name ~group b ->
          once ~name ~group b ~nprocs (module Cholesky) bsc)
    @ row "fig7a" "EM3D" backends (fun ~name ~group b ->
          per_iteration ~name ~group b ~nprocs (module Em3d) em3d)
    @ row "fig7a" "TSP" backends (fun ~name ~group b ->
          tsp_avg ~name ~group b ~nprocs tsps)
    @ row "fig7a" "Water" backends (fun ~name ~group b ->
          per_iteration ~name ~group b ~nprocs (module Water) water)
  in
  (* fig7b: the default protocol (SC) vs the row's custom protocol *)
  let protocols custom = [ ("sc", None); ("custom", Some custom) ] in
  let fig7b =
    row "fig7b" "Barnes-Hut (dyn update)" (protocols "DYN_UPDATE")
      (fun ~name ~group protocol ->
        per_iteration ~name ~group Ace_b ~nprocs (module Barnes_hut) (fun steps ->
            { (bh steps) with Barnes_hut.protocol }))
    @ row "fig7b" "BSC (write-once)" (protocols "WRITE_ONCE")
        (fun ~name ~group protocol ->
          once ~name ~group Ace_b ~nprocs (module Cholesky)
            { bsc with Cholesky.protocol })
    @ row "fig7b" "EM3D (static update)" (protocols "STATIC_UPDATE")
        (fun ~name ~group protocol ->
          per_iteration ~name ~group Ace_b ~nprocs (module Em3d) (fun steps ->
              { (em3d steps) with Em3d.protocol }))
    @ row "fig7b" "TSP (counter)" (protocols "COUNTER")
        (fun ~name ~group counter_protocol ->
          tsp_avg ~name ~group Ace_b ~nprocs
            (List.map (fun c -> { c with Tsp.counter_protocol }) tsps))
    @ row "fig7b" "Water (null+pipeline)" (protocols ("NULL", "PIPELINE"))
        (fun ~name ~group phase_protocols ->
          per_iteration ~name ~group Ace_b ~nprocs (module Water) (fun steps ->
              { (water steps) with Water.phase_protocols }))
  in
  { wl = "figures"; seeded = true; cells = Array.of_list (fig7a @ fig7b) }

(* ---- compiler: Table 4 at 32 procs ---- *)

(* The statistics of a finished Table 4 runtime, with the end-of-run
   directory footprint Driver.run_ace records for every other workload. *)
let table4_stats probe rt =
  let st = Machine.stats (Runtime.machine rt) in
  Option.iter
    (fun f ->
      Driver.record_dir_stats st (Runtime.store rt);
      f st)
    probe.sink;
  Stats.get_id st sid_messages

let compiler () =
  let nprocs = 32 in
  let levels =
    Ace_lang.Opt.[ ("o0", O0); ("o1", O1); ("o2", O2); ("o3", O3) ]
  in
  let cells =
    List.concat_map
      (fun (kernel, source) ->
        let group = "table4/" ^ kernel in
        let compiled (lname, level) =
          {
            name = group ^ "/" ^ lname;
            group = Some group;
            machines = [ Ace { nprocs; spaces = 0; dsl = false } ];
            run =
              (fun probe ->
                (* Table4.run_compiled, with the statistics kept *)
                let rt = Table4.fresh_runtime ~nprocs in
                let registry = Ace_lang.Registry.of_runtime rt in
                let ir, _diag = Ace_lang.Compile.compile ~registry ~level source in
                let value = Ace_lang.Interp.run_spmd rt ir in
                let msgs = table4_stats probe rt in
                { sim_s = Runtime.time_seconds rt; msgs; value });
          }
        in
        let hand, spaces = List.assoc kernel Table4.hands in
        let hand_cell =
          {
            name = group ^ "/hand";
            group = Some group;
            machines = [ Ace { nprocs; spaces; dsl = false } ];
            run =
              (fun probe ->
                (* Table4.run_hand, with the statistics kept *)
                let rt = Table4.fresh_runtime ~nprocs in
                for _ = 1 to spaces do
                  ignore (Runtime.new_space rt "SC")
                done;
                let value = ref nan in
                Runtime.run rt (fun ctx ->
                    let r = hand ctx in
                    if Ace_runtime.Ops.me ctx = 0 then value := r);
                let msgs = table4_stats probe rt in
                { sim_s = Runtime.time_seconds rt; msgs; value = !value });
          }
        in
        List.map compiled levels @ [ hand_cell ])
      Ace_lang.Kernels.all
  in
  { wl = "compiler"; seeded = false; cells = Array.of_list cells }

(* ---- scale: weak-scaled EM3D at 512 nodes, fixed-size BSC at 1024 ---- *)

(* The EM3D inval and BSC cells of Experiments.scaling at those sizes. *)
let scale ~seed =
  let em3d_nprocs = 512 and bsc_nprocs = 1024 in
  let em3d =
    {
      Em3d.default with
      Em3d.n_nodes = 8 * em3d_nprocs;
      steps = 2;
      seed = derive ~seed ~salt:1 Em3d.default.Em3d.seed;
    }
  in
  let bsc =
    let c = Experiments.bsc_cfg Experiments.default_scale in
    let core = c.Cholesky.core in
    {
      c with
      Cholesky.core =
        { core with Ace_apps.Chol_core.seed = derive ~seed ~salt:4 core.seed };
    }
  in
  {
    wl = "scale";
    seeded = true;
    cells =
      [|
        once ~name:"scale/EM3D@512" Ace_b ~nprocs:em3d_nprocs (module Em3d) em3d;
        once ~name:"scale/BSC@1024" Ace_b ~nprocs:bsc_nprocs (module Cholesky) bsc;
      |];
  }

(* ---- fuzz: the conformance fuzzer ---- *)

(* acecheck's default grid: 32 schedules, its lossy spec, batching off and
   on, the oracle on for race-free programs. *)
let fuzz_programs = 1000
let fuzz_schedules = 32
let fuzz_faults = [ Faults.spec ~drop:0.03 ~dup:0.02 ~jitter:25. ~seed:11 () ]
let fuzz_batches = [ false; true ]

(* The cells Runner.check_prog runs for [p] when every check passes, in
   its order: the SC reference (skipped for increment programs, whose heap
   is predicted), then schedule i paired round-robin with a protocol, a
   fault spec and a batching mode. *)
let fuzz_grid (p : Prog.t) =
  let f = Prog.features p in
  let protos =
    Array.of_list (List.filter (Prog.admits f) Runner.default_protocols)
  in
  let faults = Array.of_list (None :: List.map Option.some fuzz_faults) in
  let batches = Array.of_list fuzz_batches in
  let grid =
    if Array.length protos = 0 then []
    else
      List.init fuzz_schedules (fun i ->
          {
            Runner.proto = protos.(i mod Array.length protos);
            policy = Ace_check.Schedule.of_index i;
            faults = faults.(i mod Array.length faults);
            batch = batches.(i mod Array.length batches);
            engine = Machine.Seq_engine;
          })
  in
  ((if f.Prog.incr then None else Some Runner.reference_cell), grid)

(* Physical messages and simulated seconds summed over [fuzz_grid], each
   cell run by Runner.run_cell_full. The oracle only observes, so these
   runs leave it off. *)
let fuzz_count (p : Prog.t) =
  let reference, grid = fuzz_grid p in
  List.fold_left
    (fun (msgs, sim_s) c ->
      let _, m, s = Runner.run_cell_full p c in
      (msgs +. m, sim_s +. s))
    (0., 0.)
    (Option.to_list reference @ grid)

let fuzz ~seed =
  (* acecheck's default stream seed, 42 *)
  let st = Random.State.make [| derive ~seed ~salt:20 42 |] in
  let progs = Array.init fuzz_programs (fun _ -> Prog.generate () st) in
  let cells =
    Array.mapi
      (fun i p ->
        let reference, grid = fuzz_grid p in
        let machine c =
          if c.Runner.proto = "CRL" then Crl p.Prog.nprocs
          else Ace { nprocs = p.Prog.nprocs; spaces = 1; dsl = true }
        in
        {
          name = Printf.sprintf "fuzz/%04d" i;
          group = None;
          machines = List.map machine (Option.to_list reference @ grid);
          (* value 0 when clean, 1 on a counterexample; the facade and the
             statistics sink are not attached *)
          run =
            (fun probe ->
              let value =
                match
                  Runner.check_prog ~schedules:fuzz_schedules
                    ~fault_specs:fuzz_faults ~batch_modes:fuzz_batches p
                with
                | None -> 0.
                | Some _ -> 1.
              in
              if probe.count then
                let msgs, sim_s = fuzz_count p in
                { sim_s; msgs; value }
              else { sim_s = nan; msgs = nan; value });
        })
      progs
  in
  { wl = "fuzz"; seeded = true; cells }

let make name ~seed =
  match name with
  | "figures" -> figures ~seed
  | "compiler" -> compiler ()
  | "scale" -> scale ~seed
  | "fuzz" -> fuzz ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
