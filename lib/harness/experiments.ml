(* The paper's evaluation (Section 5) and the experiments grown around it,
   as one registry. Each entry runs its cells, prints its table, returns
   uniform report rows, and states the checks those rows must pass next to
   the code that produces them. Every simulated value is seconds on the
   modelled CM-5. *)

module Stats = Ace_engine.Stats
module Faults = Ace_net.Faults
module Crit = Ace_engine.Crit
module Critpath = Ace_obs.Critpath
module Cm = Ace_net.Cost_model
module Em3d = Ace_apps.Em3d
module Barnes_hut = Ace_apps.Barnes_hut
module Cholesky = Ace_apps.Cholesky
module Tsp = Ace_apps.Tsp
module Water = Ace_apps.Water
module R = Report

type scale = { nprocs : int; factor : int }

let default_scale = { nprocs = 32; factor = 1 }

(* Benchmark instances, scaled-down versions of Table 3's inputs (see
   DESIGN.md). [factor] multiplies the dominant size dimension. *)
let em3d_cfg s steps =
  { Em3d.default with Em3d.n_nodes = 800 * s.factor; steps }

let bh_cfg s steps =
  { Barnes_hut.default with Barnes_hut.n_bodies = 512 * s.factor; steps }

let water_cfg s steps =
  {
    Water.default with
    Water.core = { Water.default.Water.core with Ace_apps.Water_core.n_mol = 128 * s.factor; steps };
  }

let bsc_cfg s =
  {
    Cholesky.default with
    Cholesky.core =
      { Cholesky.default.Cholesky.core with Ace_apps.Chol_core.nb = 12 * s.factor };
  }

let tsp_cfg _s = Tsp.default

(* Branch-and-bound timing depends on work assignment, so TSP times are
   averaged over three instances, as the paper averages three runs. *)
let tsp_seeds = [ 3; 5; 7 ]

(* {1 Registry entries}

   The options every entry runs under, and the entry itself: a selection
   name, whether it is part of the default grid, a [run] that prints the
   entry's table and returns its report rows, and the [checks] those rows
   must pass. *)

type opts = {
  scale : scale;
  scaling_max : int; (* largest machine of the scaling experiment *)
  jobs : int option;
  trace : string option; (* trace_overhead's trace file *)
  trace_dir : string option; (* one trace per grid cell *)
  critpath : string option; (* critpath_overhead's DAG file *)
  faults : Faults.spec option; (* None: the perfect network *)
  batch : bool;
}

let default_opts =
  {
    scale = default_scale;
    scaling_max = 1024;
    jobs = None;
    trace = None;
    trace_dir = None;
    critpath = None;
    faults = None;
    batch = false;
  }

type entry = {
  name : string;
  default : bool;
  run : opts -> R.row list;
  checks : opts -> R.row list -> R.check list;
}

(* {2 The five benchmarks}

   One table that every per-benchmark experiment maps over. [custom] is the
   application-specific protocol of Fig. 7b; Water's is an intra+inter
   phase pair, and Water reads a single protocol as both phases. *)

type bench =
  | Bench : {
      name : string;
      label : string; (* the Fig. 7b row: benchmark and custom protocol *)
      iterative : bool; (* timed per iteration; otherwise one whole run *)
      custom : string;
      app : (module Driver.APP with type config = 'c);
      cfg : scale -> int -> 'c; (* at a scale and a step count *)
      protocol : string -> 'c -> 'c;
      batching_cfg : scale -> 'c; (* the batching experiment's instance *)
      seed : (int -> 'c -> 'c) option; (* averaged over [tsp_seeds] *)
    }
      -> bench

let water_phases p =
  match String.index_opt p '+' with
  | Some i -> (String.sub p 0 i, String.sub p (i + 1) (String.length p - i - 1))
  | None -> (p, p)

let benches =
  [
    Bench
      {
        name = "Barnes-Hut";
        label = "Barnes-Hut (dyn update)";
        iterative = true;
        custom = "DYN_UPDATE";
        app = (module Barnes_hut);
        cfg = bh_cfg;
        protocol = (fun p c -> { c with Barnes_hut.protocol = Some p });
        batching_cfg =
          (fun s -> { (bh_cfg s 2) with Barnes_hut.n_bodies = 192 * s.factor });
        seed = None;
      };
    Bench
      {
        name = "BSC";
        label = "BSC (write-once)";
        iterative = false;
        custom = "WRITE_ONCE";
        app = (module Cholesky);
        cfg = (fun s _ -> bsc_cfg s);
        protocol = (fun p c -> { c with Cholesky.protocol = Some p });
        batching_cfg = bsc_cfg;
        seed = None;
      };
    Bench
      {
        name = "EM3D";
        label = "EM3D (static update)";
        iterative = true;
        custom = "STATIC_UPDATE";
        app = (module Em3d);
        cfg = em3d_cfg;
        protocol = (fun p c -> { c with Em3d.protocol = Some p });
        batching_cfg = (fun s -> em3d_cfg s 6);
        seed = None;
      };
    Bench
      {
        name = "TSP";
        label = "TSP (counter)";
        iterative = false;
        custom = "COUNTER";
        app = (module Tsp);
        cfg = (fun s _ -> tsp_cfg s);
        protocol = (fun p c -> { c with Tsp.counter_protocol = Some p });
        batching_cfg = tsp_cfg;
        seed =
          Some
            (fun seed c ->
              { c with Tsp.core = { c.Tsp.core with Ace_apps.Tsp_core.seed } });
      };
    Bench
      {
        name = "Water";
        label = "Water (null+pipeline)";
        iterative = true;
        custom = "NULL+PIPELINE";
        app = (module Water);
        cfg = water_cfg;
        protocol = (fun p c -> { c with Water.phase_protocols = Some (water_phases p) });
        batching_cfg =
          (fun s ->
            let c = water_cfg s 2 in
            {
              c with
              Water.core = { c.Water.core with Ace_apps.Water_core.n_mol = 96 * s.factor };
            });
        seed = None;
      };
  ]

let bench name = List.find (fun (Bench b) -> b.name = name) benches

(* One simulation of a benchmark on the Ace runtime (or on CRL): at a step
   count, or the batching experiment's instance; optionally with a TSP
   seed and a pinned protocol. *)
let run_bench ?(crl = false) ?protocol ?(steps = 2) ?(batching = false)
    ?seed ?faults ?batch ?trace ?crit ?stats scale (Bench b) =
  let cfg = if batching then b.batching_cfg scale else b.cfg scale steps in
  let cfg =
    match (seed, b.seed) with Some s, Some with_seed -> with_seed s cfg | _ -> cfg
  in
  let cfg = match protocol with Some p -> b.protocol p cfg | None -> cfg in
  let nprocs = scale.nprocs in
  if crl then Driver.run_crl ?faults ?batch ?trace ?crit ?stats ~nprocs b.app cfg
  else Driver.run_ace ?faults ?batch ?trace ?crit ?stats ~nprocs b.app cfg

(* {2 Paired cells: Fig. 7a, Fig. 7b and the combinator identity grid}

   The paper's time for one side of a row: the steady-state time per
   iteration for iterative benchmarks, TSP's average over [tsp_seeds],
   one whole run otherwise. *)
let paper_time ?crl ?protocol ?faults ?batch ?trace ~stats scale (Bench b as bn) =
  let run ?seed steps =
    run_bench ?crl ?protocol ~steps ?seed ?faults ?batch ?trace ~stats scale bn
  in
  if b.iterative then Driver.per_iteration ~iters:4 ~run_with_steps:run
  else
    match b.seed with
    | None -> run 2
    | Some _ ->
        let outs = List.map (fun seed -> run ~seed 2) tsp_seeds in
        {
          Driver.seconds =
            List.fold_left (fun a o -> a +. o.Driver.seconds) 0. outs
            /. float_of_int (List.length outs);
          result = (List.hd outs).Driver.result;
        }

type row = {
  name : string;
  baseline : float; (* seconds *)
  ace : float;
  base_result : float;
  ace_result : float;
  base_msgs : float; (* physical messages, summed over the cell's runs *)
  ace_msgs : float;
  per_iteration : bool;
  wall : float; (* host seconds spent simulating this row *)
}

let speedup r = r.baseline /. r.ace

(* A paired experiment is assembled from independent cells, one per (row,
   side) pair, so the pool can run them on parallel domains. Results are
   gathered positionally; simulated seconds are bit-identical to a serial
   (jobs = 1) run. Each side forwards the [stats] probe to every
   simulation it runs, so the row also reports the cell's physical
   message traffic. *)
type side = stats:(Stats.t -> unit) -> Driver.outcome

let paired ?jobs (specs : (string * bool * side * side) list) =
  let specs = Array.of_list specs in
  let cells =
    Array.init
      (2 * Array.length specs)
      (fun i ->
        let _, _, base, ace = specs.(i / 2) in
        let run = if i mod 2 = 0 then base else ace in
        Pool.timed (fun () ->
            let msgs = ref 0. in
            let out =
              run ~stats:(fun st -> msgs := !msgs +. Stats.get st "net.messages")
            in
            (out, !msgs)))
  in
  let out = Pool.run_all ?jobs cells in
  Array.to_list
    (Array.mapi
       (fun i (name, per_iteration, _, _) ->
         let (b, bm), wall_b = out.(2 * i) in
         let (a, am), wall_a = out.((2 * i) + 1) in
         {
           name;
           baseline = b.Driver.seconds;
           ace = a.Driver.seconds;
           base_result = b.Driver.result;
           ace_result = a.Driver.result;
           base_msgs = bm;
           ace_msgs = am;
           per_iteration;
           wall = wall_b +. wall_a;
         })
       specs)

(* Fig. 7a: Ace runtime vs CRL, both under the SC invalidation protocol. *)
let fig7a ?(scale = default_scale) ?jobs ?trace_dir ?faults ?batch () =
  paired ?jobs
    (List.map
       (fun (Bench b as bn) ->
         let side crl s ~stats =
           paper_time ~crl ?faults ?batch
             ?trace:(Driver.trace_path trace_dir ~fig:"fig7a" ~row:b.name ~side:s)
             ~stats scale bn
         in
         (b.name, b.iterative, side true "crl", side false "ace"))
       benches)

(* Fig. 7b: single (SC) protocol vs application-specific protocols, both on
   the Ace runtime. *)
let fig7b ?(scale = default_scale) ?jobs ?trace_dir ?faults ?batch () =
  paired ?jobs
    (List.map
       (fun (Bench b as bn) ->
         let side protocol s ~stats =
           paper_time ?protocol ?faults ?batch
             ?trace:(Driver.trace_path trace_dir ~fig:"fig7b" ~row:b.label ~side:s)
             ~stats scale bn
         in
         (b.label, b.iterative, side None "sc", side (Some b.custom) "custom"))
       benches)

(* Layer-transparency grid: each row runs one benchmark under SC and under
   SC wrapped in the counting layer (DSL_SC_STATS), which must be
   bit-identical (simulated seconds, checksum, physical messages). Both
   sides pin the protocol via the app's override (a collective
   Ace_ChangeProtocol), so both pay the same switch storm and the
   comparison is symmetric. *)
let combinator ?(scale = default_scale) ?jobs ?faults ?batch () =
  paired ?jobs
    (List.map
       (fun (Bench b as bn) ->
         let side protocol ~stats =
           paper_time ~protocol ?faults ?batch ~stats scale bn
         in
         (b.name, b.iterative, side "SC", side "DSL_SC_STATS"))
       benches)

let print_rows ~left ~right rows =
  Printf.printf "%-26s %12s %12s %9s  %s\n" "benchmark" left right "speedup"
    "unit";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun r ->
      Printf.printf "%-26s %12.6f %12.6f %8.2fx  %s\n" r.name r.baseline r.ace
        (speedup r)
        (if r.per_iteration then "s/iter" else "s total"))
    rows

(* None keeps batching off and the grid bit-identical to older builds. *)
let batch o = if o.batch then Some true else None

let header fmt =
  Printf.ksprintf
    (fun title ->
      print_endline (String.make 72 '=');
      print_string title;
      print_endline (String.make 72 '='))
    fmt

(* Run timed cells, each returning its report row (wall still 0) and
   something to print; walls are filled in from the pool's timing. *)
let run_cells ?jobs cells =
  Pool.run_all ?jobs (Array.of_list (List.map Pool.timed cells))
  |> Array.to_list
  |> List.map (fun ((r, x), wall) -> ({ r with R.wall }, x))

let report_pairs experiment rows =
  List.map
    (fun r ->
      R.row ~experiment ~name:r.name ~wall:r.wall
        ~messages:[ ("baseline", r.base_msgs); ("ace", r.ace_msgs) ]
        ~results:[ r.base_result; r.ace_result ]
        [ ("baseline", r.baseline); ("ace", r.ace) ])
    rows

let run_fig7a o =
  header "Figure 7a: Ace runtime system versus CRL (SC protocol, %d procs)\n"
    o.scale.nprocs;
  let rows =
    fig7a ~scale:o.scale ?jobs:o.jobs ?trace_dir:o.trace_dir ?faults:o.faults
      ?batch:(batch o) ()
  in
  print_rows ~left:"CRL" ~right:"Ace" rows;
  print_newline ();
  report_pairs "fig7a" rows

let run_fig7b o =
  header
    "Figure 7b: single (SC) protocol vs application-specific protocols (%d procs)\n"
    o.scale.nprocs;
  let rows =
    fig7b ~scale:o.scale ?jobs:o.jobs ?trace_dir:o.trace_dir ?faults:o.faults
      ?batch:(batch o) ()
  in
  print_rows ~left:"SC" ~right:"custom" rows;
  Printf.printf "average speedup: %.2fx (paper: range 1.02-5, average ~2)\n\n"
    (List.fold_left (fun a r -> a +. speedup r) 0. rows
    /. float_of_int (List.length rows));
  report_pairs "fig7b" rows

(* {2 Table 4} *)

let run_table4 o =
  header "Table 4: effects of compiler optimizations (simulated seconds, %d procs)\n"
    o.scale.nprocs;
  let rows =
    Table4.table4 ~nprocs:o.scale.nprocs ?jobs:o.jobs ?trace_dir:o.trace_dir ()
  in
  Table4.print_rows rows;
  print_newline ();
  List.map
    (fun (r : Table4.row) ->
      R.row ~experiment:"table4" ~name:r.name ~wall:r.wall ~results:r.results
        [
          ("base", r.base); ("li", r.li); ("li_mc", r.li_mc);
          ("li_mc_dc", r.li_mc_dc); ("hand", r.hand);
        ])
    rows

let results_detail r =
  String.concat " " (List.map (Printf.sprintf "%.9g") r.R.results)

(* Every optimization level and the hand version compute the same answer. *)
let table4_checks _ rows =
  List.map
    (fun r ->
      R.check ("table4/" ^ r.R.name) (Table4.agree r.R.results)
        "results at O0-O3 and by hand: %s" (results_detail r))
    rows

(* {2 Ablations (DESIGN.md section 5)}

   Each ablation compares two independent simulations, so all six cells go
   through the same domain pool as the figures; printing order is fixed. *)

let run_ablation o =
  header "Ablations (DESIGN.md section 5)\n";
  let nprocs = o.scale.nprocs in
  (* mapping: the "more efficient mapping technique" — rerun EM3D with
     Ace's map and miss costs degraded to CRL's *)
  let em3d_sc ?cost cfg =
    let rt = Ace_runtime.Runtime.create ?cost ~nprocs () in
    Ace_protocols.Proto_lib.register_all rt;
    for _ = 1 to Em3d.n_spaces do
      ignore (Ace_runtime.Runtime.new_space rt "SC")
    done;
    let module A = Em3d.Make (Ace_runtime.Ops.Api) in
    Ace_runtime.Runtime.run rt (fun ctx -> ignore (A.run cfg ctx));
    Ace_runtime.Runtime.time_seconds rt
  in
  let run_mapping cost = em3d_sc ~cost { Em3d.default with Em3d.steps = 5 } in
  let crl_costs =
    { Cm.cm5_ace with Cm.map_hit = Cm.cm5_crl.Cm.map_hit; miss_overhead = Cm.cm5_crl.Cm.miss_overhead }
  in
  (* granularity: user-specified granularity (§2.3): each processor
     repeatedly writes one logical datum. With one datum per region the
     writes are processor-local; with eight data packed into one fixed
     "cache line" region, eight writers false-share the coherence unit and
     it ping-pongs exclusively between them. *)
  let run_granularity ~packed =
    let rt = Table4.fresh_runtime ~nprocs in
    ignore (Ace_runtime.Runtime.new_space rt "SC");
    Ace_runtime.Runtime.run rt (fun ctx ->
        let open Ace_runtime.Ops in
        let my = me ctx in
        let h, slot =
          if packed then begin
            (* processor p writes slot (p mod 8) of region (p / 8), all
               regions homed at node 0 *)
            if my = 0 then
              for _ = 1 to (nprocs ctx + 7) / 8 do
                ignore (alloc ctx ~space:0 ~len:8)
              done;
            barrier ctx ~space:0;
            (map ctx (global_id ctx ~space:0 ~owner:0 ~seq:(my / 8)), my mod 8)
          end
          else begin
            let h = alloc ctx ~space:0 ~len:1 in
            barrier ctx ~space:0;
            (h, 0)
          end
        in
        for _ = 1 to 40 do
          start_write ctx h;
          (data ctx h).(slot) <- (data ctx h).(slot) +. 1.;
          end_write ctx h
        done;
        barrier ctx ~space:0);
    Ace_runtime.Runtime.time_seconds rt
  in
  (* learning window: static update amortization — the learning iterations
     dominate short runs and vanish in long ones *)
  let run_learning steps =
    em3d_sc { Em3d.default with Em3d.steps; protocol = Some "STATIC_UPDATE" }
  in
  let out =
    Pool.run_all ?jobs:o.jobs
      (Array.map Pool.timed
         [|
           (fun () -> run_mapping Cm.cm5_ace);
           (fun () -> run_mapping crl_costs);
           (fun () -> run_granularity ~packed:false);
           (fun () -> run_granularity ~packed:true);
           (fun () -> run_learning 3);
           (fun () -> run_learning 12);
         |])
  in
  let v i = fst out.(i) and w i = snd out.(i) in
  Printf.printf
    "mapping + lean protocol (EM3D): ace=%.6fs, ace-with-CRL-costs=%.6fs (%.2fx)\n"
    (v 0) (v 1) (v 1 /. v 0);
  Printf.printf
    "granularity (40 writes/proc): per-datum regions=%.6fs, 8 writers per packed region=%.6fs (%.1fx false-sharing penalty)\n"
    (v 2) (v 3) (v 3 /. v 2);
  Printf.printf
    "static-update amortization (EM3D): %.6fs/step at 3 steps vs %.6fs/step at 12\n\n"
    (v 4 /. 3.) (v 5 /. 12.);
  let row name i sim = R.row ~experiment:"ablation" ~name ~wall:(w i +. w (i + 1)) sim in
  [
    row "mapping" 0 [ ("ace", v 0); ("ace_with_crl_costs", v 1) ];
    row "granularity" 2 [ ("per_datum", v 2); ("packed", v 3) ];
    row "learning_window" 4 [ ("per_step_3", v 4 /. 3.); ("per_step_12", v 5 /. 12.) ];
  ]

(* {2 Bulk-transfer batching}

   Each benchmark under its application-specific protocol, batching off vs
   on, on the faultless network, in short steady-state runs: the
   experiment measures traffic shape, not application speed. Simulated
   results must agree exactly (batching changes when data travels, not
   what the program computes at its synchronization points); the
   interesting columns are the physical message counts and where the
   savings came from (same-destination coalescing, write-combined updates,
   batched invalidations, bulk prefetches). *)

let results_agree = function
  | [ a; b ] -> a = b || (Float.is_nan a && Float.is_nan b)
  | _ -> false

let run_batching o =
  header "Bulk-transfer batching: physical messages, batching off vs on (%d procs)\n"
    o.scale.nprocs;
  let cells =
    List.concat_map
      (fun (Bench b as bn) ->
        List.map
          (fun batch () ->
            let counts = ref (0., 0., 0.) in
            let out =
              run_bench ~protocol:b.custom ~batching:true ~batch o.scale bn
                ~stats:(fun st ->
                  let get = Stats.get st in
                  counts :=
                    ( get "net.messages",
                      get "net.coalesced",
                      get "coh.write_combined" +. get "coh.inval_batch"
                      +. get "coh.bulk_fetch" ))
            in
            (out, !counts))
          [ false; true ])
      benches
  in
  let out = Pool.run_all ?jobs:o.jobs (Array.of_list (List.map Pool.timed cells)) in
  Printf.printf "%-26s %10s %10s %8s %9s %9s %6s\n" "benchmark" "msgs off"
    "msgs on" "saved" "coalesced" "combined" "ok";
  Printf.printf "%s\n" (String.make 84 '-');
  let rows =
    List.mapi
      (fun i (Bench b) ->
        let (off, (off_msgs, _, _)), wall_off = out.(2 * i) in
        let (on, (on_msgs, coal, comb)), wall_on = out.((2 * i) + 1) in
        let reduction = if off_msgs > 0. then 1. -. (on_msgs /. off_msgs) else 0. in
        let results = [ off.Driver.result; on.Driver.result ] in
        Printf.printf "%-26s %10.0f %10.0f %7.1f%% %9.0f %9.0f %6s\n" b.label
          off_msgs on_msgs (100. *. reduction) coal comb
          (if results_agree results then "yes" else "NO");
        R.row ~experiment:"batching" ~name:b.label ~wall:(wall_off +. wall_on)
          ~messages:[ ("off", off_msgs); ("on", on_msgs) ]
          ~results
          [
            ("off", off.Driver.seconds); ("on", on.Driver.seconds);
            ("coalesced", coal); ("combined", comb); ("reduction", reduction);
          ])
      benches
  in
  print_newline ();
  rows

let batching_checks _ rows =
  List.map
    (fun r ->
      R.check ("batching/" ^ r.R.name) (results_agree r.R.results)
        "results off and on: %s" (results_detail r))
    rows

(* {2 Fault sweep}

   Every benchmark on the Ace runtime across a list of drop rates (two
   steps per iterative benchmark: the sweep measures transport behaviour,
   not steady-state application speed). The protocols themselves are
   unchanged, so any completion at all is the reliable transport doing its
   job, and the counters quantify what it cost. Each cell instantiates its
   own RNG stream from the shared spec's seed, so rows are independent of
   pool scheduling. With --drop P the sweep is just 0 and P. *)

let run_faultsweep o =
  let spec = Option.value o.faults ~default:(Faults.spec ()) in
  header "Fault sweep: Ace benchmarks on a lossy network (%d procs, seed %d)\n"
    o.scale.nprocs spec.Faults.seed;
  let drops =
    if spec.Faults.drop > 0. then [ 0.0; spec.Faults.drop ]
    else [ 0.0; 0.01; 0.02; 0.05 ]
  in
  let cells =
    List.concat_map
      (fun drop ->
        List.map
          (fun (Bench b as bn) () ->
            let faults =
              Faults.spec ~drop ~dup:spec.Faults.dup ~jitter:spec.Faults.jitter
                ~seed:spec.Faults.seed ()
            in
            let counts = ref ([], []) in
            let out =
              run_bench ~faults o.scale bn ~stats:(fun st ->
                  let get = Stats.get st in
                  counts :=
                    ( [
                        ("total", get "net.messages"); ("acks", get "net.acks");
                        ("acks_piggybacked", get "net.acks.piggybacked");
                        ("acks_cumulative", get "net.acks.cumulative");
                      ],
                      [
                        ("retransmits", get "net.retransmits");
                        ("timeouts", get "net.timeouts");
                        ("dup_suppressed", get "net.dup_suppressed");
                        ("dropped", get "net.fault.dropped");
                        ("giveups", get "net.giveups");
                      ] ))
            in
            let messages, sim = !counts in
            let r =
              R.row ~experiment:"faultsweep"
                ~name:(Printf.sprintf "%s@%g" b.name drop)
                ~wall:0. ~messages
                (("seconds", out.Driver.seconds) :: sim)
            in
            let v = R.sim r and m = R.msgs r in
            ( r,
              Printf.sprintf
                "%-12s %6.3f %12.6f %8.0f %8.0f %8.0f %8.0f %8.0f %9.0f %8.0f\n"
                b.name drop (v "seconds") (v "retransmits") (v "timeouts")
                (v "dup_suppressed") (v "dropped") (v "giveups")
                (m "acks_piggybacked") (m "acks_cumulative") ))
          benches)
      drops
  in
  let rows = run_cells ?jobs:o.jobs cells in
  Printf.printf "%-12s %6s %12s %8s %8s %8s %8s %8s %9s %8s\n" "benchmark"
    "drop" "sim s" "rexmit" "timeout" "dupsup" "dropped" "giveup" "piggyack"
    "cumack";
  Printf.printf "%s\n" (String.make 96 '-');
  List.iter (fun (_, line) -> print_string line) rows;
  print_newline ();
  List.map fst rows

(* {2 Weak scaling past the CM-5}

   The paper stops at the CM-5's 32 processors; this experiment rides the
   compact directory representation up to 1024. EM3D and Barnes-Hut are
   weak-scaled (problem size proportional to nprocs) and run under both the
   invalidation protocol (SC) and their update protocols — the
   invalidation-vs-update crossover as the consumer set grows is the
   headline curve. BSC runs at a fixed size as a strong-scaling control.
   Every cell also reports the end-of-run (= peak: the structures only
   grow) words of directory state, which is how the sublinear-memory claim
   is measured.

   Sizes are deliberately lean — EM3D keeps 8 graph nodes per side per
   processor and Barnes-Hut 2 bodies per processor — because a 1024-node
   Barnes-Hut step genuinely replicates every body everywhere: the
   simulation's live state is O(bodies × nprocs) no matter how compact the
   directory is. *)

let scaling_nprocs = [ 32; 64; 128; 256; 512; 1024 ]

let run_scaling o =
  header "Weak scaling to %d nodes: invalidation vs update, directory memory\n"
    o.scaling_max;
  let cells =
    List.concat_map
      (fun nprocs ->
        let cell bench proto app cfg () =
          let counts = ref (0., 0., 0.) in
          let out =
            Driver.run_ace ~nprocs app cfg ~stats:(fun st ->
                let get = Stats.get st in
                counts :=
                  (get "net.messages", get "region.dir_words", get "region.regions"))
          in
          let msgs, words, regions = !counts in
          ( R.row ~experiment:"scaling"
              ~name:(Printf.sprintf "%s-%s@%d" bench proto nprocs)
              ~wall:0.
              ~messages:[ ("total", msgs) ]
              [
                ("seconds", out.Driver.seconds); ("dir_words", words);
                ("regions", regions);
                ("words_per_region", if regions > 0. then words /. regions else 0.);
                ("nprocs", float_of_int nprocs);
              ],
            (bench, proto, nprocs) )
        in
        let em3d protocol =
          { Em3d.default with Em3d.n_nodes = 8 * nprocs; steps = 2; protocol }
        in
        let bh protocol =
          { Barnes_hut.default with Barnes_hut.n_bodies = 2 * nprocs; steps = 1; protocol }
        in
        [
          cell "EM3D" "inval" (module Em3d) (em3d None);
          cell "EM3D" "update" (module Em3d) (em3d (Some "STATIC_UPDATE"));
          cell "Barnes-Hut" "inval" (module Barnes_hut) (bh None);
          cell "Barnes-Hut" "update" (module Barnes_hut) (bh (Some "DYN_UPDATE"));
          cell "BSC" "inval" (module Cholesky) (bsc_cfg default_scale);
        ])
      (List.filter (fun n -> n <= o.scaling_max) scaling_nprocs)
  in
  let rows = run_cells ?jobs:o.jobs cells in
  Printf.printf "%-12s %-7s %7s %12s %12s %12s %9s %10s\n" "benchmark"
    "proto" "nprocs" "sim s" "messages" "dir words" "regions" "words/rgn";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iter
    (fun (r, (bench, proto, nprocs)) ->
      let v = R.sim r in
      Printf.printf "%-12s %-7s %7d %12.6f %12.0f %12.0f %9.0f %10.2f\n" bench
        proto nprocs (v "seconds") (R.msgs r "total") (v "dir_words")
        (v "regions") (v "words_per_region"))
    rows;
  (* The headline: simulated-time ratio of update over invalidation per
     machine size — below 1.0 the update protocol wins. *)
  Printf.printf "\n%-12s %7s %14s %14s %8s\n" "crossover" "nprocs" "inval s"
    "update s" "ratio";
  Printf.printf "%s\n" (String.make 60 '-');
  let by_key = List.map (fun (r, k) -> (k, r)) rows in
  List.iter
    (fun bench ->
      List.iter
        (fun (r, (b, proto, nprocs)) ->
          match List.assoc_opt (bench, "update", nprocs) by_key with
          | Some u when b = bench && proto = "inval" ->
              let inval = R.sim r "seconds" and update = R.sim u "seconds" in
              Printf.printf "%-12s %7d %14.6f %14.6f %8.3f\n" bench nprocs inval
                update
                (if inval > 0. then update /. inval else nan)
          | _ -> ())
        rows)
    [ "EM3D"; "Barnes-Hut" ];
  print_newline ();
  List.map fst rows

(* For the sparsely-shared benchmarks, directory words per region must not
   grow with the machine: the compact two-mode directory's residual slope
   is its two mapped/sharer bitsets at 2/62 words per processor, where the
   old per-processor records cost at least 2. Barnes-Hut is exempt: every
   node genuinely caches every body, so its per-region state is
   population-proportional by construction. *)
let scaling_slope_limit = 0.25
let scaling_sparse = [ "EM3D"; "BSC" ]

let scaling_checks _ rows =
  (* "EM3D-inval@64" -> series "EM3D-inval", benchmark "EM3D" *)
  let series r = String.sub r.R.name 0 (String.rindex r.R.name '@') in
  let bench s = String.sub s 0 (String.index s '-') in
  List.filter_map
    (fun s ->
      if not (List.mem (bench s) scaling_sparse) then None
      else
        let points =
          List.sort compare
            (List.filter_map
               (fun r ->
                 if series r = s then Some (R.sim r "nprocs", R.sim r "words_per_region")
                 else None)
               rows)
        in
        let name = "scaling/" ^ s in
        Some
          (match (points, List.rev points) with
          | (n0, w0) :: _ :: _, (n1, w1) :: _ ->
              let slope = (w1 -. w0) /. (n1 -. n0) in
              R.check name (slope < scaling_slope_limit)
                "%.2f -> %.2f words/region over %.0f -> %.0f procs (slope %.4f, limit %g)"
                w0 w1 n0 n1 slope scaling_slope_limit
          | _ -> R.check name false "needs at least 2 machine sizes"))
    (List.sort_uniq compare (List.map series rows))

(* {2 Critical-path profiling}

   Every benchmark under the invalidation (SC) protocol and under its
   application-specific protocol, each run with a causal-DAG recorder
   attached. The recorded DAG yields the critical path, a per-op-class
   blame breakdown (whose cycles sum to the run's whole simulated
   duration), and two causal-profiling what-if predictions: all wire
   latency halved and the AM send overhead halved. Two steps per iterative
   benchmark: the profile's shape, not application speed, is the
   measurement. With --trace-dir D each cell's DAG is also written to
   D/critpath-BENCH-PROTO.json for acetrace. *)

let whatif_net_half = { Critpath.target = Critpath.Link (None, None); factor = 0.5 }
let whatif_send_half = { Critpath.target = Critpath.Op "send_ovh"; factor = 0.5 }

let run_critpath o =
  header "Critical-path profiles: invalidation vs custom protocols (%d procs)\n"
    o.scale.nprocs;
  let cells =
    List.concat_map
      (fun (Bench b as bn) ->
        List.map
          (fun (proto, protocol) () ->
            let cr = Crit.create ~nprocs:o.scale.nprocs () in
            let out = run_bench ?protocol ~crit:cr o.scale bn in
            Option.iter
              (fun dir ->
                Crit.write_file cr
                  (Filename.concat dir
                     (Printf.sprintf "critpath-%s-%s.json" (Driver.slug b.name)
                        (Driver.slug proto))))
              o.trace_dir;
            let dag = Critpath.of_crit cr in
            let bp = Critpath.blamed_path dag in
            let _, _, net = Critpath.predict dag [ whatif_net_half ] in
            let _, _, send = Critpath.predict dag [ whatif_send_half ] in
            let cycles = Critpath.total_blame bp in
            let blame = Critpath.blame_by_kind dag bp in
            let top, share =
              match blame with
              | [] -> ("-", 0.)
              | (k, c) :: _ -> (k, if cycles > 0. then c /. cycles else 0.)
            in
            ( R.row ~experiment:"critpath"
                ~name:(Printf.sprintf "%s-%s" b.name proto)
                ~wall:0.
                ([
                   ("seconds", out.Driver.seconds); ("cycles", cycles);
                   ("dag_nodes", float_of_int (Critpath.n_nodes dag));
                   ("path_steps", float_of_int (List.length bp));
                   ("whatif_net_half", net); ("whatif_send_half", send);
                 ]
                @ List.map (fun (k, c) -> ("blame_" ^ k, c)) blame),
              Printf.sprintf
                "%-12s %-14s %12.6f %9d %8d %-15s %5.1f%%  %7.3fx %7.3fx\n"
                b.name proto out.Driver.seconds (Critpath.n_nodes dag)
                (List.length bp) top (100. *. share) net send ))
          [ ("inval", None); (b.custom, Some b.custom) ])
      benches
  in
  let rows = run_cells ?jobs:o.jobs cells in
  Printf.printf "%-12s %-14s %12s %9s %8s %-22s %8s %8s\n" "benchmark" "proto"
    "sim s" "dag" "path" "top op-class" "net x0.5" "snd x0.5";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter (fun (_, line) -> print_string line) rows;
  print_newline ();
  List.map fst rows

(* {2 Adaptive serving}

   The kvserve workload (Zipfian key-value serving with per-space access
   profiles, hot-key churn and rolling quiesce phases) under each fixed
   candidate protocol and under online adaptation. The fixed rows are the
   menu a static deployment would have to choose from; the adaptive row
   lets every space pick — and re-pick, as churn and quiesce shift the
   profiles — its own protocol at epoch boundaries through
   Ace_ChangeProtocol. The headline comparison is total physical
   messages: adaptation should match or beat the best fixed protocol,
   which no single row can do per-space. All rows compute the same exact
   (integral) total, checked against the sequential reference. With
   --trace-dir the adaptive cell's trace records the protocol-switch
   instants for acetrace. *)

module Kv_core = Ace_apps.Kv_core
module Adapt = Ace_runtime.Adapt

let serving_fixed = [ "SC"; "DYN_UPDATE"; "MIGRATORY" ]

(* The best fixed row, the adaptive row, and the ratio of their physical
   messages (<= 1.0 means adaptation won). *)
let serving_headline rows =
  match List.filter (fun r -> List.mem r.R.name serving_fixed) rows with
  | [] -> None
  | f :: fs ->
      let total r = R.msgs r "total" in
      let best = List.fold_left (fun b r -> if total r < total b then r else b) f fs in
      let a = R.find rows "adaptive" in
      Some (best, a, total a /. total best)

let run_serving o =
  header "Adaptive serving: fixed protocols vs online adaptation (%d procs)\n"
    o.scale.nprocs;
  let nprocs = o.scale.nprocs in
  let cfg =
    {
      Kv_core.default with
      Kv_core.n_keys = 96 * o.scale.factor;
      ops_per_epoch = 24;
      epochs = 12;
    }
  in
  let reference = Kv_core.reference cfg ~nprocs in
  let fam_res = Stats.fam "ace.adapt.residency.by_proto" in
  let cell (mode, fixed) () =
    let msgs = ref 0. and switches = ref 0. and res = ref [] in
    let stats st =
      msgs := Stats.get st "net.messages";
      switches := Stats.get st "ace.adapt.switches";
      res :=
        Array.to_list
          (Array.mapi (fun i name -> (name, Stats.get_dim st fam_res i)) Adapt.candidates)
    in
    let adapt = match fixed with None -> Some Adapt.default | Some _ -> None in
    let out =
      Driver.run_ace ?batch:(batch o) ?adapt ~stats ~nprocs
        ?trace:(Driver.trace_path o.trace_dir ~fig:"serving" ~row:mode ~side:"ace")
        (module Ace_apps.Kvserve)
        { cfg with Kv_core.protocol = fixed }
    in
    let ok = out.Driver.result = reference in
    ( R.row ~experiment:"serving" ~name:mode ~wall:0.
        ~messages:[ ("total", !msgs) ]
        ([
           ("seconds", out.Driver.seconds); ("result", out.Driver.result);
           ("ok", if ok then 1. else 0.); ("switches", !switches);
         ]
        @ List.map (fun (name, n) -> ("residency_" ^ name, n)) !res),
      Printf.sprintf "%-12s %12.6f %12.0f %9.0f %6s  %s\n" mode
        out.Driver.seconds !msgs !switches
        (if ok then "yes" else "NO")
        (String.concat " "
           (List.filter_map
              (fun (name, n) ->
                if n > 0. then Some (Printf.sprintf "%s:%.0f" name n) else None)
              !res)) )
  in
  let rows =
    run_cells ?jobs:o.jobs
      (List.map cell
         (List.map (fun p -> (p, Some p)) serving_fixed @ [ ("adaptive", None) ]))
  in
  Printf.printf "%-12s %12s %12s %9s %6s  %s\n" "mode" "sim s" "messages"
    "switches" "ok" "residency (space-epochs)";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iter (fun (_, line) -> print_string line) rows;
  let rows = List.map fst rows in
  Option.iter
    (fun (best, a, ratio) ->
      Printf.printf "\nadaptive vs best fixed (%s): %.0f vs %.0f messages (%.3fx)\n"
        best.R.name (R.msgs a "total") (R.msgs best "total") ratio)
    (serving_headline rows);
  print_newline ();
  rows

(* The adaptive row may not send more messages than the best fixed
   protocol. The claim is scale-sensitive (update-protocol push fan-out
   grows with the sharer population): it is enforced up to 8 procs and
   only reported above. *)
let serving_enforced_max = 8

let serving_checks o rows =
  let a = R.find rows "adaptive" in
  List.map
    (fun r ->
      R.check ("serving/" ^ r.R.name ^ "-correct") (R.sim r "ok" = 1.)
        "computed %.17g" (R.sim r "result"))
    rows
  @ [
      R.check "serving/adaptive-switched" (R.sim a "switches" > 0.)
        "%.0f protocol switches" (R.sim a "switches");
      (match serving_headline rows with
      | None -> R.check "serving/adaptive-vs-best-fixed" false "no fixed rows"
      | Some (best, a, ratio) ->
          let enforced = o.scale.nprocs <= serving_enforced_max in
          R.check "serving/adaptive-vs-best-fixed" (ratio <= 1. || not enforced)
            "%.0f vs %.0f messages of %s (%.3fx, limit 1.0%s)" (R.msgs a "total")
            (R.msgs best "total") best.R.name ratio
            (if enforced then ""
             else Printf.sprintf "; reported only, enforced up to %d procs"
                 serving_enforced_max));
    ]

(* {2 Off/on overhead rows}

   EM3D on the Ace runtime, 3 steps, run without and with an observer
   (tracer, coherence oracle, causal-DAG recorder) or under two
   protocols. Observers charge no simulated cycles, so simulated output
   must be bit-identical either way. Wall-clock noise on a sub-second run
   swamps a 5% budget, so each variant runs three times and keeps its
   fastest wall; the output is deterministic, so the runs are
   interchangeable and the last stands for all. *)

let em3d ?trace ?crit ?cost ?wrap ?protocol o =
  Driver.run_ace ?trace ?crit ?cost ?wrap ~nprocs:o.scale.nprocs (module Em3d)
    { (em3d_cfg o.scale 3) with Em3d.protocol }

let best_of_3 f =
  let out = ref None and best = ref infinity in
  for _ = 1 to 3 do
    let o, wall = Pool.timed f () in
    best := Float.min !best wall;
    out := Some o
  done;
  (Option.get !out, !best)

let pct ~off ~on = 100. *. ((on /. off) -. 1.)

let rel_err x ~exact =
  if exact > 0. then abs_float (x -. exact) /. exact else abs_float x

(* An observer's or compiled dispatch's wall may exceed the plain run's
   by 5% plus an absolute floor: the runs are sub-second, where host noise
   is itself several percent, so the bound is on the absolute cost. *)
let overhead_tolerance = 0.05
let overhead_floor_s = 0.15

let wall_bound series ~off ~on =
  let limit = (off.R.wall *. (1. +. overhead_tolerance)) +. overhead_floor_s in
  R.check series (on.R.wall <= limit)
    "%.3fs vs %.3fs (limit %.3fs = %.3fs x %.2f + %.2fs)" on.R.wall off.R.wall
    limit off.R.wall (1. +. overhead_tolerance) overhead_floor_s

let same_seconds series a b =
  R.check series (R.sim a "seconds" = R.sim b "seconds") "%.17g vs %.17g s"
    (R.sim a "seconds") (R.sim b "seconds")

let off_on experiment ?(host = []) ~off:(off, wall_off) ~on:(on_, wall_on) sim =
  [
    R.row ~experiment ~name:"em3d-off" ~wall:wall_off ~results:[ off.Driver.result ]
      [ ("seconds", off.Driver.seconds) ];
    R.row ~experiment ~name:"em3d-on" ~wall:wall_on ~host ~results:[ on_.Driver.result ]
      (("seconds", on_.Driver.seconds) :: sim);
  ]

(* Tracing (--trace FILE): the trace is written, and its wall cost
   reported. *)
let run_trace_overhead o =
  let path = Option.get o.trace in
  header "Tracing overhead (EM3D on Ace, %d procs)\n" o.scale.nprocs;
  let ((off, wall_off) as off_) = best_of_3 (fun () -> em3d o) in
  let ((on_, wall_on) as on) = best_of_3 (fun () -> em3d ~trace:path o) in
  Printf.printf
    "untraced: %.3fs wall, traced: %.3fs wall (%+.1f%%); simulated seconds \
     identical: %b\n"
    wall_off wall_on (pct ~off:wall_off ~on:wall_on)
    (off.Driver.seconds = on_.Driver.seconds);
  Printf.printf "wrote %s\n\n" path;
  off_on "trace_overhead" ~off:off_ ~on []

let trace_checks _ rows =
  [ same_seconds "trace_overhead/identity" (R.find rows "em3d-off") (R.find rows "em3d-on") ]

(* The conformance oracle observing every access section (budget <5%). *)
let run_check_overhead o =
  header "Conformance-oracle overhead (EM3D on Ace, %d procs)\n" o.scale.nprocs;
  let nprocs = o.scale.nprocs in
  let ((off, wall_off) as off_) = best_of_3 (fun () -> em3d o) in
  let (oracle, on_), wall_on =
    best_of_3 (fun () ->
        let oracle = Ace_check.Oracle.create ~nprocs () in
        (oracle, em3d ~wrap:(Ace_check.Observe.wrap oracle) o))
  in
  let observations = Ace_check.Oracle.observations oracle in
  let overhead = pct ~off:wall_off ~on:wall_on in
  Printf.printf
    "oracle off: %.3fs wall, on: %.3fs wall (%+.1f%%); %d observations; \
     simulated output identical: %b\n\n"
    wall_off wall_on overhead observations
    (off.Driver.seconds = on_.Driver.seconds && off.Driver.result = on_.Driver.result);
  off_on "check_overhead" ~off:off_ ~on:(on_, wall_on)
    ~host:[ ("overhead_pct", overhead) ]
    [ ("observations", float_of_int observations) ]

let check_checks _ rows =
  let off = R.find rows "em3d-off" and on = R.find rows "em3d-on" in
  [
    same_seconds "check_overhead/identity" off on;
    R.check "check_overhead/results" (off.R.results = on.R.results)
      "%s vs %s" (results_detail off) (results_detail on);
    R.check "check_overhead/observed" (R.sim on "observations" > 0.)
      "%.0f observations" (R.sim on "observations");
  ]

(* The causal-DAG recorder (budget <5%, bounded by [wall_bound]). The
   recorded DAG is validated in place: the critical path's blame must
   total the run's simulated time, and the what-if prediction for halving
   the AM send overhead must land within 10% of an actual re-run under the
   halved cost model. With --critpath FILE the DAG is also written out for
   acetrace critpath. *)
let run_critpath_overhead o =
  header "Critical-path recording overhead (EM3D on Ace, %d procs)\n"
    o.scale.nprocs;
  let ((off, wall_off) as off_) = best_of_3 (fun () -> em3d o) in
  let (cr, on_), wall_on =
    best_of_3 (fun () ->
        let cr = Crit.create ~nprocs:o.scale.nprocs () in
        (cr, em3d ~crit:cr o))
  in
  Option.iter
    (fun path ->
      Crit.write_file cr path;
      Printf.printf "wrote %s\n" path)
    o.critpath;
  let dag = Critpath.of_crit cr in
  let cycles_per_sec = Cm.cm5_ace.Cm.cycles_per_sec in
  let blame_s = Critpath.total_blame (Critpath.blamed_path dag) /. cycles_per_sec in
  let half =
    { Cm.cm5_ace with Cm.am_send_overhead = Cm.cm5_ace.Cm.am_send_overhead /. 2. }
  in
  let actual_half, wall_half = best_of_3 (fun () -> em3d ~cost:half o) in
  let _, pred_end, _ = Critpath.predict dag [ whatif_send_half ] in
  let pred_s = pred_end /. cycles_per_sec in
  Printf.printf
    "recorder off: %.3fs wall, on: %.3fs wall (%+.1f%%); %d dag nodes; \
     simulated seconds identical: %b\n"
    wall_off wall_on (pct ~off:wall_off ~on:wall_on) (Critpath.n_nodes dag)
    (off.Driver.seconds = on_.Driver.seconds);
  Printf.printf
    "path blame %.6fs vs simulated %.6fs; halving am_send_overhead: \
     predicted %.6fs vs actual %.6fs (error %.2f%%)\n\n"
    blame_s on_.Driver.seconds pred_s actual_half.Driver.seconds
    (100. *. rel_err pred_s ~exact:actual_half.Driver.seconds);
  off_on "critpath_overhead" ~off:off_ ~on:(on_, wall_on)
    [
      ("dag_nodes", float_of_int (Critpath.n_nodes dag));
      ("blame_total_s", blame_s); ("predicted_half_send_s", pred_s);
    ]
  @ [
      R.row ~experiment:"critpath_overhead" ~name:"em3d-half-send" ~wall:wall_half
        [ ("seconds", actual_half.Driver.seconds) ];
    ]

let critpath_overhead_checks _ rows =
  let off = R.find rows "em3d-off" and on = R.find rows "em3d-on" in
  let half = R.find rows "em3d-half-send" in
  let blame_err = rel_err (R.sim on "blame_total_s") ~exact:(R.sim on "seconds") in
  let whatif_err =
    rel_err (R.sim on "predicted_half_send_s") ~exact:(R.sim half "seconds")
  in
  [
    same_seconds "critpath_overhead/identity" off on;
    R.check "critpath_overhead/blame-total" (blame_err <= 1e-6)
      "path blame %.17g s vs simulated %.17g s" (R.sim on "blame_total_s")
      (R.sim on "seconds");
    R.check "critpath_overhead/what-if" (whatif_err <= 0.10)
      "halved send overhead: predicted %.6f s vs actual %.6f s (error %.2f%%, limit 10%%)"
      (R.sim on "predicted_half_send_s") (R.sim half "seconds")
      (100. *. whatif_err);
    wall_bound "critpath_overhead/wall" ~off ~on;
  ]

(* {2 Combinator layers are transparent}

   The identity grid above, then EM3D's wall under SC vs DSL_SC_STATS: the
   simulated output is identical, so any wall gap is the cost of the
   layer's extra compiled steps. *)
let run_combinator o =
  header "Combinator layers: SC vs SC under the counting layer (%d procs)\n"
    o.scale.nprocs;
  let rows =
    combinator ~scale:o.scale ?jobs:o.jobs ?faults:o.faults ?batch:(batch o) ()
  in
  print_rows ~left:"SC" ~right:"counting" rows;
  let plain, wall_plain = best_of_3 (fun () -> em3d ~protocol:"SC" o) in
  let layered, wall_layered =
    best_of_3 (fun () -> em3d ~protocol:"DSL_SC_STATS" o)
  in
  Printf.printf
    "dispatch overhead (EM3D): SC %.3fs wall, DSL_SC_STATS %.3fs wall \
     (%+.1f%%); simulated seconds identical: %b\n\n"
    wall_plain wall_layered
    (pct ~off:wall_plain ~on:wall_layered)
    (plain.Driver.seconds = layered.Driver.seconds);
  let row = R.row ~experiment:"combinator" in
  List.map
    (fun r ->
      let identical =
        r.baseline = r.ace && r.base_result = r.ace_result && r.base_msgs = r.ace_msgs
      in
      row ~name:r.name ~wall:r.wall
        ~messages:[ ("plain", r.base_msgs); ("layered", r.ace_msgs) ]
        [ ("plain", r.baseline); ("layered", r.ace); ("identical", if identical then 1. else 0.) ])
    rows
  @ [
      row ~name:"dispatch-em3d-plain" ~wall:wall_plain [ ("seconds", plain.Driver.seconds) ];
      row ~name:"dispatch-em3d-layered" ~wall:wall_layered
        [ ("seconds", layered.Driver.seconds) ];
    ]

let combinator_checks _ rows =
  let plain = R.find rows "dispatch-em3d-plain"
  and layered = R.find rows "dispatch-em3d-layered" in
  List.filter_map
    (fun r ->
      if List.mem_assoc "identical" r.R.sim then
        Some
          (R.check ("combinator/" ^ r.R.name) (R.sim r "identical" = 1.)
             "SC %.17g s, layered %.17g s; %.0f vs %.0f messages" (R.sim r "plain")
             (R.sim r "layered") (R.msgs r "plain") (R.msgs r "layered"))
      else None)
    rows
  @ [
      same_seconds "combinator/dispatch-identity" plain layered;
      wall_bound "combinator/dispatch-wall" ~off:plain ~on:layered;
    ]

(* {2 The registry}

   In the order a run executes them. [default] entries form the grid a run
   with no selection runs; the others run only when selected
   (trace_overhead also whenever a trace file is given). *)

let no_checks _ _ = []

let registry : entry list =
  [
    { name = "fig7a"; default = true; run = run_fig7a; checks = no_checks };
    { name = "fig7b"; default = true; run = run_fig7b; checks = no_checks };
    { name = "table4"; default = true; run = run_table4; checks = table4_checks };
    { name = "ablation"; default = true; run = run_ablation; checks = no_checks };
    { name = "batching"; default = true; run = run_batching; checks = batching_checks };
    {
      name = "critpath_overhead";
      default = true;
      run = run_critpath_overhead;
      checks = critpath_overhead_checks;
    };
    { name = "trace_overhead"; default = false; run = run_trace_overhead; checks = trace_checks };
    { name = "critpath"; default = false; run = run_critpath; checks = no_checks };
    { name = "faultsweep"; default = false; run = run_faultsweep; checks = no_checks };
    { name = "check_overhead"; default = false; run = run_check_overhead; checks = check_checks };
    { name = "scaling"; default = false; run = run_scaling; checks = scaling_checks };
    { name = "combinator"; default = false; run = run_combinator; checks = combinator_checks };
    { name = "serving"; default = false; run = run_serving; checks = serving_checks };
  ]

let entry name = List.find (fun (e : entry) -> e.name = name) registry
