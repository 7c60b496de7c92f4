(* The paper's evaluation (Section 5), regenerated. Every row reports
   simulated seconds on the modelled 32-node CM-5. *)

module Stats = Ace_engine.Stats
module Faults = Ace_net.Faults
module Em3d = Ace_apps.Em3d
module Barnes_hut = Ace_apps.Barnes_hut
module Cholesky = Ace_apps.Cholesky
module Tsp = Ace_apps.Tsp
module Water = Ace_apps.Water

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

let tsp_avg run =
  let outcomes =
    List.map
      (fun seed ->
        run
          {
            Tsp.default with
            Tsp.core = { Tsp.default.Tsp.core with Ace_apps.Tsp_core.seed = seed };
          })
      tsp_seeds
  in
  let n = float_of_int (List.length outcomes) in
  ( List.fold_left (fun a o -> a +. o.Driver.seconds) 0. outcomes /. n,
    (List.hd outcomes).Driver.result )

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

(* A figure is assembled from independent cells — one per (row, system)
   pair, each a closed thunk running its own simulations — so the pool can
   execute them on parallel domains. Results are gathered positionally;
   simulated seconds are bit-identical to a serial (jobs = 1) run. Each
   thunk forwards the supplied [stats] probe to every simulation it runs,
   so the row can also report the cell's physical message traffic. *)
type spec = {
  sname : string;
  sper_iteration : bool;
  sbase : stats:(Stats.t -> unit) -> Driver.outcome;
  sace : stats:(Stats.t -> unit) -> Driver.outcome;
}

let collect ?jobs (specs : spec array) =
  let cells =
    Array.init
      (2 * Array.length specs)
      (fun i ->
        let s = specs.(i / 2) in
        let run = if i mod 2 = 0 then s.sbase else s.sace in
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
       (fun i s ->
         let (b, bm), wall_b = out.(2 * i) in
         let (a, am), wall_a = out.((2 * i) + 1) in
         {
           name = s.sname;
           baseline = b.Driver.seconds;
           ace = a.Driver.seconds;
           base_result = b.Driver.result;
           ace_result = a.Driver.result;
           base_msgs = bm;
           ace_msgs = am;
           per_iteration = s.sper_iteration;
           wall = wall_b +. wall_a;
         })
       specs)

(* Fig. 7a: Ace runtime vs CRL, both under the SC invalidation protocol. *)
let fig7a ?(scale = default_scale) ?jobs ?trace_dir ?faults ?batch () =
  let iters = 4 in
  let nprocs = scale.nprocs in
  let pi run = Driver.per_iteration ~run_with_steps:run ~iters in
  let avg run = let t, r = tsp_avg run in { Driver.seconds = t; result = r } in
  let tp row side = trace_path trace_dir ~fig:"fig7a" ~row ~side in
  collect ?jobs
    [|
      {
        sname = "Barnes-Hut";
        sper_iteration = true;
        sbase =
          (fun ~stats ->
            pi (fun steps ->
                Driver.run_crl ?faults ?batch ~stats
                  ?trace:(tp "Barnes-Hut" "crl")
                  ~nprocs (module Barnes_hut) (bh_cfg scale steps)));
        sace =
          (fun ~stats ->
            pi (fun steps ->
                Driver.run_ace ?faults ?batch ~stats
                  ?trace:(tp "Barnes-Hut" "ace")
                  ~nprocs (module Barnes_hut) (bh_cfg scale steps)));
      };
      {
        sname = "BSC";
        sper_iteration = false;
        sbase =
          (fun ~stats ->
            Driver.run_crl ?faults ?batch ~stats
              ?trace:(tp "BSC" "crl") ~nprocs
              (module Cholesky) (bsc_cfg scale));
        sace =
          (fun ~stats ->
            Driver.run_ace ?faults ?batch ~stats
              ?trace:(tp "BSC" "ace") ~nprocs
              (module Cholesky) (bsc_cfg scale));
      };
      {
        sname = "EM3D";
        sper_iteration = true;
        sbase =
          (fun ~stats ->
            pi (fun steps ->
                Driver.run_crl ?faults ?batch ~stats
                  ?trace:(tp "EM3D" "crl")
                  ~nprocs (module Em3d) (em3d_cfg scale steps)));
        sace =
          (fun ~stats ->
            pi (fun steps ->
                Driver.run_ace ?faults ?batch ~stats
                  ?trace:(tp "EM3D" "ace")
                  ~nprocs (module Em3d) (em3d_cfg scale steps)));
      };
      {
        sname = "TSP";
        sper_iteration = false;
        sbase =
          (fun ~stats ->
            avg
              (Driver.run_crl ?faults ?batch ~stats
                 ?trace:(tp "TSP" "crl")
                 ~nprocs (module Tsp)));
        sace =
          (fun ~stats ->
            avg
              (Driver.run_ace ?faults ?batch ~stats
                 ?trace:(tp "TSP" "ace")
                 ~nprocs (module Tsp)));
      };
      {
        sname = "Water";
        sper_iteration = true;
        sbase =
          (fun ~stats ->
            pi (fun steps ->
                Driver.run_crl ?faults ?batch ~stats
                  ?trace:(tp "Water" "crl")
                  ~nprocs (module Water) (water_cfg scale steps)));
        sace =
          (fun ~stats ->
            pi (fun steps ->
                Driver.run_ace ?faults ?batch ~stats
                  ?trace:(tp "Water" "ace")
                  ~nprocs (module Water) (water_cfg scale steps)));
      };
    |]

(* Fig. 7b: single (SC) protocol vs application-specific protocols, both on
   the Ace runtime. *)
let fig7b ?(scale = default_scale) ?jobs ?trace_dir ?faults ?batch () =
  let iters = 4 in
  let nprocs = scale.nprocs in
  let pi run = Driver.per_iteration ~run_with_steps:run ~iters in
  let avg run = let t, r = tsp_avg run in { Driver.seconds = t; result = r } in
  let tp row side = trace_path trace_dir ~fig:"fig7b" ~row ~side in
  (* sides: "sc" = default protocol, "custom" = application-specific *)
  let em3d ~stats side proto steps =
    Driver.run_ace ?faults ?batch ~stats
      ?trace:(tp "EM3D (static update)" side) ~nprocs (module Em3d)
      { (em3d_cfg scale steps) with Em3d.protocol = proto }
  in
  let bh ~stats side proto steps =
    Driver.run_ace ?faults ?batch ~stats
      ?trace:(tp "Barnes-Hut (dyn update)" side) ~nprocs
      (module Barnes_hut)
      { (bh_cfg scale steps) with Barnes_hut.protocol = proto }
  in
  let water ~stats side protos steps =
    Driver.run_ace ?faults ?batch ~stats
      ?trace:(tp "Water (null+pipeline)" side) ~nprocs
      (module Water)
      { (water_cfg scale steps) with Water.phase_protocols = protos }
  in
  let bsc ~stats side proto =
    Driver.run_ace ?faults ?batch ~stats
      ?trace:(tp "BSC (write-once)" side)
      ~nprocs (module Cholesky)
      { (bsc_cfg scale) with Cholesky.protocol = proto }
  in
  let tsp ~stats side proto cfg =
    Driver.run_ace ?faults ?batch ~stats
      ?trace:(tp "TSP (counter)" side)
      ~nprocs (module Tsp)
      { cfg with Tsp.counter_protocol = proto }
  in
  collect ?jobs
    [|
      {
        sname = "Barnes-Hut (dyn update)";
        sper_iteration = true;
        sbase = (fun ~stats -> pi (bh ~stats "sc" None));
        sace = (fun ~stats -> pi (bh ~stats "custom" (Some "DYN_UPDATE")));
      };
      {
        sname = "BSC (write-once)";
        sper_iteration = false;
        sbase = (fun ~stats -> bsc ~stats "sc" None);
        sace = (fun ~stats -> bsc ~stats "custom" (Some "WRITE_ONCE"));
      };
      {
        sname = "EM3D (static update)";
        sper_iteration = true;
        sbase = (fun ~stats -> pi (em3d ~stats "sc" None));
        sace = (fun ~stats -> pi (em3d ~stats "custom" (Some "STATIC_UPDATE")));
      };
      {
        sname = "TSP (counter)";
        sper_iteration = false;
        sbase = (fun ~stats -> avg (tsp ~stats "sc" None));
        sace = (fun ~stats -> avg (tsp ~stats "custom" (Some "COUNTER")));
      };
      {
        sname = "Water (null+pipeline)";
        sper_iteration = true;
        sbase = (fun ~stats -> pi (water ~stats "sc" None));
        sace =
          (fun ~stats -> pi (water ~stats "custom" (Some ("NULL", "PIPELINE"))));
      };
    |]

(* Combinator-compiler identity grid: each row runs one benchmark twice on
   the Ace runtime — once under a hand-written protocol, once under its
   combinator-built re-expression — and must be bit-identical (simulated
   seconds, checksum, physical messages). Both sides pin the protocol via
   the app's override (a collective Ace_ChangeProtocol), so the SC rows
   pay the same switch storm on both sides and the comparison is
   symmetric. *)
let combinator ?(scale = default_scale) ?jobs ?faults ?batch () =
  let iters = 4 in
  let nprocs = scale.nprocs in
  let pi run = Driver.per_iteration ~run_with_steps:run ~iters in
  let avg run = let t, r = tsp_avg run in { Driver.seconds = t; result = r } in
  let em3d ~stats proto steps =
    Driver.run_ace ?faults ?batch ~stats ~nprocs (module Em3d)
      { (em3d_cfg scale steps) with Em3d.protocol = Some proto }
  in
  let bh ~stats proto steps =
    Driver.run_ace ?faults ?batch ~stats ~nprocs (module Barnes_hut)
      { (bh_cfg scale steps) with Barnes_hut.protocol = Some proto }
  in
  let water ~stats proto steps =
    Driver.run_ace ?faults ?batch ~stats ~nprocs (module Water)
      { (water_cfg scale steps) with Water.phase_protocols = Some (proto, proto) }
  in
  let bsc ~stats proto =
    Driver.run_ace ?faults ?batch ~stats ~nprocs (module Cholesky)
      { (bsc_cfg scale) with Cholesky.protocol = Some proto }
  in
  let tsp ~stats proto cfg =
    Driver.run_ace ?faults ?batch ~stats ~nprocs (module Tsp)
      { cfg with Tsp.counter_protocol = Some proto }
  in
  let pair name hand dsl run =
    {
      sname = name;
      sper_iteration = true;
      sbase = (fun ~stats -> pi (run ~stats hand));
      sace = (fun ~stats -> pi (run ~stats dsl));
    }
  in
  collect ?jobs
    [|
      pair "EM3D / SC" "SC" "DSL_SC" em3d;
      pair "Barnes-Hut / SC" "SC" "DSL_SC" bh;
      pair "Water / SC" "SC" "DSL_SC" water;
      {
        sname = "BSC / SC";
        sper_iteration = false;
        sbase = (fun ~stats -> bsc ~stats "SC");
        sace = (fun ~stats -> bsc ~stats "DSL_SC");
      };
      {
        sname = "TSP / SC";
        sper_iteration = false;
        sbase = (fun ~stats -> avg (tsp ~stats "SC"));
        sace = (fun ~stats -> avg (tsp ~stats "DSL_SC"));
      };
      pair "EM3D / MIGRATORY" "MIGRATORY" "DSL_MIGRATORY" em3d;
      pair "Barnes-Hut / MIGRATORY" "MIGRATORY" "DSL_MIGRATORY" bh;
      pair "Water / MIGRATORY" "MIGRATORY" "DSL_MIGRATORY" water;
      {
        sname = "BSC / WRITE_ONCE";
        sper_iteration = false;
        sbase = (fun ~stats -> bsc ~stats "WRITE_ONCE");
        sace = (fun ~stats -> bsc ~stats "DSL_WRITE_ONCE");
      };
    |]

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

(* {2 Fault sweep}

   Every benchmark on the Ace runtime across a list of drop rates: the
   protocols themselves are unchanged, so any completion at all is the
   reliable transport doing its job, and the counters quantify what it
   cost. One cell per (benchmark, drop rate) pair, parallelised like the
   figures; each cell instantiates its own RNG stream from the shared
   spec's seed, so rows are independent of pool scheduling. *)

type fault_row = {
  fr_bench : string;
  fr_drop : float;
  fr_seconds : float; (* simulated, total *)
  fr_retransmits : float;
  fr_timeouts : float;
  fr_dup_suppressed : float;
  fr_dropped : float; (* transmissions eaten by the network *)
  fr_giveups : float;
  fr_messages : float; (* physical messages *)
  fr_acks : float; (* ACK obligations (one per received copy) *)
  fr_acks_piggybacked : float; (* obligations that rode reverse-link data *)
  fr_acks_cumulative : float; (* extra obligations folded into dedicated ACKs *)
  fr_wall : float;
}

let fault_sweep ?(scale = default_scale) ?jobs
    ?(drops = [ 0.0; 0.01; 0.02; 0.05 ]) ?(base = Faults.spec ()) () =
  let nprocs = scale.nprocs in
  (* Short runs: the sweep measures transport behaviour, not steady-state
     application speed, so two steps per iterative benchmark suffice. *)
  let benches :
      (string
      * (?faults:Faults.spec ->
         ?stats:(Stats.t -> unit) ->
         unit ->
         Driver.outcome))
      array =
    [|
      ( "Barnes-Hut",
        fun ?faults ?stats () ->
          Driver.run_ace ?faults ?stats ~nprocs (module Barnes_hut)
            (bh_cfg scale 2) );
      ( "BSC",
        fun ?faults ?stats () ->
          Driver.run_ace ?faults ?stats ~nprocs (module Cholesky)
            (bsc_cfg scale) );
      ( "EM3D",
        fun ?faults ?stats () ->
          Driver.run_ace ?faults ?stats ~nprocs (module Em3d)
            (em3d_cfg scale 2) );
      ( "TSP",
        fun ?faults ?stats () ->
          Driver.run_ace ?faults ?stats ~nprocs (module Tsp) (tsp_cfg scale) );
      ( "Water",
        fun ?faults ?stats () ->
          Driver.run_ace ?faults ?stats ~nprocs (module Water)
            (water_cfg scale 2) );
    |]
  in
  let drops = Array.of_list drops in
  let cells =
    Array.init
      (Array.length drops * Array.length benches)
      (fun i ->
        let drop = drops.(i / Array.length benches) in
        let name, run = benches.(i mod Array.length benches) in
        Pool.timed (fun () ->
            let faults =
              Faults.spec ~drop ~dup:base.Faults.dup ~jitter:base.Faults.jitter
                ~seed:base.Faults.seed ()
            in
            let row = ref None in
            let out =
              run ~faults
                ~stats:(fun st ->
                  row :=
                    Some
                      {
                        fr_bench = name;
                        fr_drop = drop;
                        fr_seconds = 0.;
                        fr_retransmits = Stats.get st "net.retransmits";
                        fr_timeouts = Stats.get st "net.timeouts";
                        fr_dup_suppressed = Stats.get st "net.dup_suppressed";
                        fr_dropped = Stats.get st "net.fault.dropped";
                        fr_giveups = Stats.get st "net.giveups";
                        fr_messages = Stats.get st "net.messages";
                        fr_acks = Stats.get st "net.acks";
                        fr_acks_piggybacked =
                          Stats.get st "net.acks.piggybacked";
                        fr_acks_cumulative = Stats.get st "net.acks.cumulative";
                        fr_wall = 0.;
                      })
                ()
            in
            { (Option.get !row) with fr_seconds = out.Driver.seconds }))
  in
  let out = Pool.run_all ?jobs cells in
  Array.to_list (Array.map (fun (r, wall) -> { r with fr_wall = wall }) out)

(* {2 Bulk-transfer batching}

   Each benchmark under its application-specific protocol, batching off vs
   on, on the faultless network. Simulated results must agree exactly
   (batching changes when data travels, not what the program computes at
   its synchronization points); the interesting columns are the physical
   message counts and where the savings came from (same-destination
   coalescing, write-combined updates, batched invalidations, bulk
   prefetches). *)

type batch_row = {
  br_bench : string;
  br_off : float; (* simulated seconds, batching off *)
  br_on : float; (* simulated seconds, batching on *)
  br_off_msgs : float; (* physical messages, batching off *)
  br_on_msgs : float;
  br_coalesced : float; (* messages removed by same-destination coalescing *)
  br_combined : float; (* write-combined updates parked in queues *)
  br_results_agree : bool; (* batching left the computed result unchanged *)
  br_wall : float;
}

(* Fraction of the baseline's physical messages that batching removed. *)
let batch_reduction r =
  if r.br_off_msgs > 0. then 1. -. (r.br_on_msgs /. r.br_off_msgs) else 0.

let batching ?(scale = default_scale) ?jobs () =
  let nprocs = scale.nprocs in
  (* Short steady-state runs: the experiment measures traffic shape, not
     application speed. Each benchmark uses the protocol with the richest
     batching behaviour (fig. 7b's custom protocols). *)
  let benches :
      (string
      * (?batch:bool -> ?stats:(Stats.t -> unit) -> unit -> Driver.outcome))
      array =
    [|
      ( "Barnes-Hut (dyn update)",
        fun ?batch ?stats () ->
          Driver.run_ace ?batch ?stats ~nprocs (module Barnes_hut)
            {
              (bh_cfg scale 2) with
              Barnes_hut.n_bodies = 192 * scale.factor;
              protocol = Some "DYN_UPDATE";
            } );
      ( "BSC (write-once)",
        fun ?batch ?stats () ->
          Driver.run_ace ?batch ?stats ~nprocs (module Cholesky)
            { (bsc_cfg scale) with Cholesky.protocol = Some "WRITE_ONCE" } );
      ( "EM3D (static update)",
        fun ?batch ?stats () ->
          Driver.run_ace ?batch ?stats ~nprocs (module Em3d)
            { (em3d_cfg scale 6) with Em3d.protocol = Some "STATIC_UPDATE" } );
      ( "TSP (counter)",
        fun ?batch ?stats () ->
          Driver.run_ace ?batch ?stats ~nprocs (module Tsp)
            { (tsp_cfg scale) with Tsp.counter_protocol = Some "COUNTER" } );
      ( "Water (null+pipeline)",
        fun ?batch ?stats () ->
          let cfg = water_cfg scale 2 in
          Driver.run_ace ?batch ?stats ~nprocs (module Water)
            {
              Water.core =
                { cfg.Water.core with Ace_apps.Water_core.n_mol = 96 * scale.factor };
              phase_protocols = Some ("NULL", "PIPELINE");
            } );
    |]
  in
  let cells =
    Array.init
      (2 * Array.length benches)
      (fun i ->
        let name, run = benches.(i / 2) in
        let batch = i mod 2 = 1 in
        ignore name;
        Pool.timed (fun () ->
            let msgs = ref 0. and coal = ref 0. and comb = ref 0. in
            let out =
              run ~batch
                ~stats:(fun st ->
                  msgs := Stats.get st "net.messages";
                  coal := Stats.get st "net.coalesced";
                  comb :=
                    Stats.get st "coh.write_combined"
                    +. Stats.get st "coh.inval_batch"
                    +. Stats.get st "coh.bulk_fetch")
                ()
            in
            (out, !msgs, !coal, !comb)))
  in
  let out = Pool.run_all ?jobs cells in
  Array.to_list
    (Array.init (Array.length benches) (fun i ->
         let (off, off_msgs, _, _), wall_off = out.(2 * i) in
         let (on, on_msgs, coal, comb), wall_on = out.((2 * i) + 1) in
         let name, _ = benches.(i) in
         {
           br_bench = name;
           br_off = off.Driver.seconds;
           br_on = on.Driver.seconds;
           br_off_msgs = off_msgs;
           br_on_msgs = on_msgs;
           br_coalesced = coal;
           br_combined = comb;
           br_results_agree =
             (off.Driver.result = on.Driver.result
             || (Float.is_nan off.Driver.result && Float.is_nan on.Driver.result));
           br_wall = wall_off +. wall_on;
         }))

let print_batch_rows rows =
  Printf.printf "%-26s %10s %10s %8s %9s %9s %6s\n" "benchmark" "msgs off"
    "msgs on" "saved" "coalesced" "combined" "ok";
  Printf.printf "%s\n" (String.make 84 '-');
  List.iter
    (fun r ->
      Printf.printf "%-26s %10.0f %10.0f %7.1f%% %9.0f %9.0f %6s\n" r.br_bench
        r.br_off_msgs r.br_on_msgs
        (100. *. batch_reduction r)
        r.br_coalesced r.br_combined
        (if r.br_results_agree then "yes" else "NO"))
    rows

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

type scaling_row = {
  sc_bench : string; (* "EM3D" | "Barnes-Hut" | "BSC" *)
  sc_proto : string; (* "inval" | "update" *)
  sc_nprocs : int;
  sc_seconds : float; (* simulated, total for the cell's run *)
  sc_messages : float; (* physical messages *)
  sc_dir_words : float; (* peak live words of directory state *)
  sc_regions : float; (* regions allocated *)
  sc_wall : float; (* host seconds for the cell *)
}

(* Directory words per region, the sublinearity metric. *)
let scaling_words_per_region r =
  if r.sc_regions > 0. then r.sc_dir_words /. r.sc_regions else 0.

let default_scaling_nprocs = [ 32; 64; 128; 256; 512; 1024 ]

let scaling ?jobs ?(nprocs_list = default_scaling_nprocs) () =
  List.iter
    (fun n -> if n < 2 then invalid_arg "Experiments.scaling: nprocs < 2")
    nprocs_list;
  let em3d_cfg nprocs proto =
    {
      Em3d.default with
      Em3d.n_nodes = 8 * nprocs;
      steps = 2;
      protocol = proto;
    }
  in
  let bh_cfg nprocs proto =
    {
      Barnes_hut.default with
      Barnes_hut.n_bodies = 2 * nprocs;
      steps = 1;
      protocol = proto;
    }
  in
  let cells =
    List.concat_map
      (fun nprocs ->
        let cell bench proto run =
          Pool.timed (fun () ->
              let msgs = ref 0. and words = ref 0. and regions = ref 0. in
              let out =
                run ~stats:(fun st ->
                    msgs := Stats.get st "net.messages";
                    words := Stats.get st "region.dir_words";
                    regions := Stats.get st "region.regions")
              in
              {
                sc_bench = bench;
                sc_proto = proto;
                sc_nprocs = nprocs;
                sc_seconds = out.Driver.seconds;
                sc_messages = !msgs;
                sc_dir_words = !words;
                sc_regions = !regions;
                sc_wall = 0.;
              })
        in
        [
          cell "EM3D" "inval" (fun ~stats ->
              Driver.run_ace ~stats ~nprocs (module Em3d)
                (em3d_cfg nprocs None));
          cell "EM3D" "update" (fun ~stats ->
              Driver.run_ace ~stats ~nprocs (module Em3d)
                (em3d_cfg nprocs (Some "STATIC_UPDATE")));
          cell "Barnes-Hut" "inval" (fun ~stats ->
              Driver.run_ace ~stats ~nprocs (module Barnes_hut)
                (bh_cfg nprocs None));
          cell "Barnes-Hut" "update" (fun ~stats ->
              Driver.run_ace ~stats ~nprocs (module Barnes_hut)
                (bh_cfg nprocs (Some "DYN_UPDATE")));
          cell "BSC" "inval" (fun ~stats ->
              Driver.run_ace ~stats ~nprocs (module Cholesky)
                (bsc_cfg default_scale));
        ])
      nprocs_list
  in
  let out = Pool.run_all ?jobs (Array.of_list cells) in
  Array.to_list (Array.map (fun (r, wall) -> { r with sc_wall = wall }) out)

let print_scaling_rows rows =
  Printf.printf "%-12s %-7s %7s %12s %12s %12s %9s %10s\n" "benchmark"
    "proto" "nprocs" "sim s" "messages" "dir words" "regions" "words/rgn";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iter
    (fun r ->
      Printf.printf "%-12s %-7s %7d %12.6f %12.0f %12.0f %9.0f %10.2f\n"
        r.sc_bench r.sc_proto r.sc_nprocs r.sc_seconds r.sc_messages
        r.sc_dir_words r.sc_regions
        (scaling_words_per_region r))
    rows;
  (* The headline: simulated-time ratio of update over invalidation per
     machine size — below 1.0 the update protocol wins. *)
  Printf.printf "\n%-12s %7s %14s %14s %8s\n" "crossover" "nprocs" "inval s"
    "update s" "ratio";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter
    (fun bench ->
      List.iter
        (fun r ->
          if r.sc_bench = bench && r.sc_proto = "inval" then
            match
              List.find_opt
                (fun u ->
                  u.sc_bench = bench && u.sc_proto = "update"
                  && u.sc_nprocs = r.sc_nprocs)
                rows
            with
            | Some u ->
                Printf.printf "%-12s %7d %14.6f %14.6f %8.3f\n" bench
                  r.sc_nprocs r.sc_seconds u.sc_seconds
                  (if r.sc_seconds > 0. then u.sc_seconds /. r.sc_seconds
                   else nan)
            | None -> ())
        rows)
    [ "EM3D"; "Barnes-Hut" ]

(* {2 Critical-path profiling}

   Every benchmark under the invalidation (SC) protocol and under its
   application-specific protocol (fig. 7b's custom protocols), each run
   with a causal-DAG recorder attached. The recorded DAG yields the
   critical path, a per-op-class blame breakdown (whose cycles sum to the
   run's whole simulated duration — checked in the tests), and two
   causal-profiling what-if predictions: all wire latency halved and the
   AM send overhead halved. Short steady-state runs, same sizes as the
   batching experiment: the profile's shape, not application speed, is
   the measurement. *)

module Crit = Ace_engine.Crit
module Critpath = Ace_obs.Critpath

type critpath_row = {
  cp_bench : string;
  cp_proto : string; (* "inval" | the custom protocol's name *)
  cp_seconds : float; (* simulated, total *)
  cp_cycles : float; (* recorded end time = total path blame *)
  cp_nodes : int; (* DAG size *)
  cp_path : int; (* steps on the critical path *)
  cp_blame : (string * float) list; (* cycles by op class, descending *)
  cp_whatif_net : float; (* predicted speedup, every link at half latency *)
  cp_whatif_send : float; (* predicted speedup, send overhead halved *)
  cp_wall : float;
}

(* The op class carrying the most critical-path cycles, with its share. *)
let critpath_top r =
  match r.cp_blame with
  | [] -> ("-", 0.)
  | (k, c) :: _ -> (k, if r.cp_cycles > 0. then c /. r.cp_cycles else 0.)

let whatif_net_half = { Critpath.target = Critpath.Link (None, None); factor = 0.5 }
let whatif_send_half = { Critpath.target = Critpath.Op "send_ovh"; factor = 0.5 }

(* One DAG file per cell when [dir] is given: DIR/critpath-BENCH-PROTO.json. *)
let critpath_path dir ~bench ~proto =
  Option.map
    (fun d ->
      Filename.concat d (Printf.sprintf "critpath-%s-%s.json" (slug bench) (slug proto)))
    dir

let critpath ?(scale = default_scale) ?jobs ?dir () =
  let nprocs = scale.nprocs in
  let benches :
      (string
      * string
      * (crit:Crit.t -> Driver.outcome)
      * (crit:Crit.t -> Driver.outcome))
      array =
    [|
      ( "Barnes-Hut",
        "DYN_UPDATE",
        (fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Barnes_hut) (bh_cfg scale 2)),
        fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Barnes_hut)
            { (bh_cfg scale 2) with Barnes_hut.protocol = Some "DYN_UPDATE" } );
      ( "BSC",
        "WRITE_ONCE",
        (fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Cholesky) (bsc_cfg scale)),
        fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Cholesky)
            { (bsc_cfg scale) with Cholesky.protocol = Some "WRITE_ONCE" } );
      ( "EM3D",
        "STATIC_UPDATE",
        (fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Em3d) (em3d_cfg scale 2)),
        fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Em3d)
            { (em3d_cfg scale 2) with Em3d.protocol = Some "STATIC_UPDATE" } );
      ( "TSP",
        "COUNTER",
        (fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Tsp) (tsp_cfg scale)),
        fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Tsp)
            { (tsp_cfg scale) with Tsp.counter_protocol = Some "COUNTER" } );
      ( "Water",
        "NULL+PIPELINE",
        (fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Water) (water_cfg scale 2)),
        fun ~crit ->
          Driver.run_ace ~crit ~nprocs (module Water)
            {
              (water_cfg scale 2) with
              Water.phase_protocols = Some ("NULL", "PIPELINE");
            } );
    |]
  in
  let cells =
    Array.init
      (2 * Array.length benches)
      (fun i ->
        let bench, custom_name, sc, custom = benches.(i / 2) in
        let proto, run =
          if i mod 2 = 0 then ("inval", sc) else (custom_name, custom)
        in
        Pool.timed (fun () ->
            let cr = Crit.create ~nprocs () in
            let out = run ~crit:cr in
            (match critpath_path dir ~bench ~proto with
            | None -> ()
            | Some path -> Crit.write_file cr path);
            let dag = Critpath.of_crit cr in
            let bp = Critpath.blamed_path dag in
            let _, _, sp_net = Critpath.predict dag [ whatif_net_half ] in
            let _, _, sp_send = Critpath.predict dag [ whatif_send_half ] in
            {
              cp_bench = bench;
              cp_proto = proto;
              cp_seconds = out.Driver.seconds;
              cp_cycles = Critpath.total_blame bp;
              cp_nodes = Critpath.n_nodes dag;
              cp_path = List.length bp;
              cp_blame = Critpath.blame_by_kind dag bp;
              cp_whatif_net = sp_net;
              cp_whatif_send = sp_send;
              cp_wall = 0.;
            }))
  in
  let out = Pool.run_all ?jobs cells in
  Array.to_list (Array.map (fun (r, wall) -> { r with cp_wall = wall }) out)

let print_critpath_rows rows =
  Printf.printf "%-12s %-14s %12s %9s %8s %-22s %8s %8s\n" "benchmark" "proto"
    "sim s" "dag" "path" "top op-class" "net x0.5" "snd x0.5";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun r ->
      let top, share = critpath_top r in
      Printf.printf "%-12s %-14s %12.6f %9d %8d %-15s %5.1f%%  %7.3fx %7.3fx\n"
        r.cp_bench r.cp_proto r.cp_seconds r.cp_nodes r.cp_path top
        (100. *. share) r.cp_whatif_net r.cp_whatif_send)
    rows

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
   (integral) total, checked against the sequential reference. *)

module Kvserve = Ace_apps.Kvserve
module Kv_core = Ace_apps.Kv_core
module Adapt = Ace_runtime.Adapt

type serving_row = {
  sv_mode : string; (* "SC" | "DYN_UPDATE" | "MIGRATORY" | "adaptive" *)
  sv_seconds : float; (* simulated, total *)
  sv_messages : float; (* physical messages *)
  sv_result : float; (* grand total served (exact integer) *)
  sv_ok : bool; (* result equals the sequential reference *)
  sv_switches : float; (* collective protocol switches performed *)
  sv_residency : (string * float) list; (* space-epochs per candidate *)
  sv_wall : float;
}

let serving_fixed = [ "SC"; "DYN_UPDATE"; "MIGRATORY" ]

(* Physical messages of the best fixed row vs the adaptive row — the
   experiment's acceptance ratio (<= 1.0 means adaptation won). *)
let serving_headline rows =
  let fixed =
    List.filter (fun r -> List.mem r.sv_mode serving_fixed) rows
  in
  let adaptive = List.find_opt (fun r -> r.sv_mode = "adaptive") rows in
  match (fixed, adaptive) with
  | [], _ | _, None -> None
  | f :: fs, Some a ->
      let best = List.fold_left (fun b r -> if r.sv_messages < b.sv_messages then r else b) f fs in
      Some (best, a, if best.sv_messages > 0. then a.sv_messages /. best.sv_messages else nan)

let serving ?(scale = default_scale) ?jobs ?batch ?trace_dir () =
  let nprocs = scale.nprocs in
  let cfg =
    {
      Kv_core.default with
      Kv_core.n_keys = 96 * scale.factor;
      ops_per_epoch = 24;
      epochs = 12;
    }
  in
  let reference = Kv_core.reference cfg ~nprocs in
  let fam_res = Stats.fam "ace.adapt.residency.by_proto" in
  let tp mode = trace_path trace_dir ~fig:"serving" ~row:mode ~side:"ace" in
  let modes =
    List.map (fun p -> (p, Some p)) serving_fixed @ [ ("adaptive", None) ]
  in
  let cells =
    Array.of_list
      (List.map
         (fun (mode, fixed) ->
           Pool.timed (fun () ->
               let msgs = ref 0.
               and switches = ref 0.
               and res = ref [] in
               let stats st =
                 msgs := Stats.get st "net.messages";
                 switches := Stats.get st "ace.adapt.switches";
                 res :=
                   Array.to_list
                     (Array.mapi
                        (fun i name -> (name, Stats.get_dim st fam_res i))
                        Adapt.candidates)
               in
               let adapt =
                 match fixed with None -> Some Adapt.default | Some _ -> None
               in
               let out =
                 Driver.run_ace ?batch ?adapt ?trace:(tp mode) ~stats ~nprocs
                   (module Kvserve)
                   { cfg with Kv_core.protocol = fixed }
               in
               {
                 sv_mode = mode;
                 sv_seconds = out.Driver.seconds;
                 sv_messages = !msgs;
                 sv_result = out.Driver.result;
                 sv_ok = out.Driver.result = reference;
                 sv_switches = !switches;
                 sv_residency = !res;
                 sv_wall = 0.;
               }))
         modes)
  in
  let out = Pool.run_all ?jobs cells in
  Array.to_list (Array.map (fun (r, wall) -> { r with sv_wall = wall }) out)

let print_serving_rows rows =
  Printf.printf "%-12s %12s %12s %9s %6s  %s\n" "mode" "sim s" "messages"
    "switches" "ok" "residency (space-epochs)";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iter
    (fun r ->
      let res =
        String.concat " "
          (List.filter_map
             (fun (name, n) ->
               if n > 0. then Some (Printf.sprintf "%s:%.0f" name n) else None)
             r.sv_residency)
      in
      Printf.printf "%-12s %12.6f %12.0f %9.0f %6s  %s\n" r.sv_mode
        r.sv_seconds r.sv_messages r.sv_switches
        (if r.sv_ok then "yes" else "NO")
        res)
    rows;
  match serving_headline rows with
  | None -> ()
  | Some (best, a, ratio) ->
      Printf.printf
        "\nadaptive vs best fixed (%s): %.0f vs %.0f messages (%.3fx)\n"
        best.sv_mode a.sv_messages best.sv_messages ratio

let print_fault_rows rows =
  Printf.printf "%-12s %6s %12s %8s %8s %8s %8s %8s %9s %8s\n" "benchmark"
    "drop" "sim s" "rexmit" "timeout" "dupsup" "dropped" "giveup" "piggyack"
    "cumack";
  Printf.printf "%s\n" (String.make 96 '-');
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %6.3f %12.6f %8.0f %8.0f %8.0f %8.0f %8.0f %9.0f %8.0f\n"
        r.fr_bench r.fr_drop r.fr_seconds r.fr_retransmits r.fr_timeouts
        r.fr_dup_suppressed r.fr_dropped r.fr_giveups r.fr_acks_piggybacked
        r.fr_acks_cumulative)
    rows
