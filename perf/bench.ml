(* One benchmark run of one workload: an untimed warm-up pass, then timed
   passes of identical work for the given number of seconds, the golden
   gate on every pass, set-up timing, and the metrics.

   The untraced run reports the end-to-end metrics. The traced run
   (separate, never mixed with the timed run) reports the per-layer ones:
   the layer micro-benchmarks, then untraced and traced passes in
   alternation — the traced ones through the timing facade with every
   simulation's statistics merged per pass. *)

module W = Workloads
module Stats = Ace_engine.Stats

type metric = { name : string; value : float; unit_ : string }

type report = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list; (* the first few, for the log *)
  metrics : metric list; (* the contract's metrics, in order *)
  extra : metric list; (* sample counts, medians, context *)
}

(* ---- passes ---- *)

type pass = {
  wall : float;
  cell_s : float array;
  outs : (W.outcome, string) result array;
}

let run_pass (w : W.t) probe =
  let n = Array.length w.cells in
  let cell_s = Array.make n 0. in
  let t0 = Stat.now_ns () in
  let outs =
    Array.mapi
      (fun i (c : W.cell) ->
        let t = Stat.now_ns () in
        let o =
          try Ok (c.run probe) with e -> Error ("crashed: " ^ Printexc.to_string e)
        in
        cell_s.(i) <- Stat.seconds_since t;
        o)
      w.cells
  in
  { wall = Stat.seconds_since t0; cell_s; outs }

(* Warm-up and the references to check passes against. *)
type gate = {
  reference : W.outcome option array; (* None: nothing to compare with *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let fail gate name why =
  gate.failed <- gate.failed + 1;
  if List.length gate.failures < 10 then
    gate.failures <- (name ^ ": " ^ why) :: gate.failures

let check gate (w : W.t) pass =
  Array.iteri
    (fun i o ->
      gate.attempted <- gate.attempted + 1;
      let name = w.cells.(i).W.name in
      match (o, gate.reference.(i)) with
      | Error e, _ -> fail gate name e
      | Ok _, None -> ()
      | Ok got, Some want -> (
          match Golden.mismatch ~want got with
          | Some why -> fail gate name why
          | None -> ()))
    pass.outs

(* Every workload counts its messages on the warm-up (the fuzz workload
   then runs its grid a second time). *)
let counting = { W.untraced with W.count = true }

let warm_up (w : W.t) ~golden =
  let warm = run_pass w counting in
  let from_golden = Option.map (fun g -> Hashtbl.find_opt g) golden in
  let reference =
    Array.mapi
      (fun i (c : W.cell) ->
        match from_golden with
        | Some find -> find c.name
        | None -> Result.to_option warm.outs.(i))
      w.cells
  in
  let gate = { reference; attempted = 0; failed = 0; failures = [] } in
  Array.iteri
    (fun i (c : W.cell) ->
      if Option.is_some from_golden && reference.(i) = None then
        fail gate c.name "no golden value")
    w.cells;
  check gate w warm;
  List.iter
    (fun name -> fail gate name "result differs from its group")
    (Golden.disagreements w.cells (Array.map Result.to_option warm.outs));
  (warm, gate)

let pass_msgs pass =
  Array.fold_left
    (fun a -> function Ok o -> a +. o.W.msgs | Error _ -> a)
    0. pass.outs

(* Passes keep starting while the next one, as long as the fastest so far,
   still fits in the budget; at least [min_passes] run. *)
let timed_passes ~seconds ~min_passes f =
  let t0 = Stat.now_ns () in
  let rec go acc n =
    let fastest = List.fold_left (fun a p -> min a p.wall) infinity acc in
    if n >= min_passes && Stat.seconds_since t0 +. fastest > seconds then
      List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* ---- set-up ---- *)

(* Host seconds to build every simulated machine one pass uses: the median
   of [samples] samples, each the mean over enough repetitions to build
   1 000 000 simulated nodes (about 0.1 s on the 32-proc workloads, 0.9 s on
   fuzz). One discarded sample first takes the fresh process's page faults
   on its 64 MB minor heap. The repetition count depends only on the
   workload, so the allocation before the warm-up (and the heap the run
   reports) does not depend on host speed. *)
let setup_seconds (w : W.t) ~samples =
  let machines = Array.to_list w.cells |> List.concat_map (fun c -> c.W.machines) in
  let nodes =
    List.fold_left
      (fun a -> function W.Ace { nprocs; _ } | W.Crl nprocs -> a + nprocs)
      0 machines
  in
  let reps = max 1 (1_000_000 / max 1 nodes) in
  let time () =
    let t0 = Stat.now_ns () in
    for _ = 1 to reps do
      List.iter W.build_machine machines
    done;
    Stat.seconds_since t0 /. float_of_int reps
  in
  ignore (time ());
  Stat.median (List.init samples (fun _ -> time ()))

let n_machines (w : W.t) =
  Array.fold_left (fun a c -> a + List.length c.W.machines) 0 w.cells

(* ---- the untraced run: end-to-end metrics ---- *)

let m name value unit_ = { name; value; unit_ }

let top_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

let untraced (w : W.t) ~seed ~seconds ~golden =
  (* set-up first, on the fresh process's small heap *)
  let setup_samples = 7 in
  let setup_s = setup_seconds w ~samples:setup_samples in
  let warm, gate = warm_up w ~golden in
  let msgs = pass_msgs warm in
  (* the peak after a fixed amount of work: warm-up and one timed pass *)
  let heap_mb = ref nan in
  let passes =
    timed_passes ~seconds ~min_passes:2 (fun () ->
        let p = run_pass w W.untraced in
        check gate w p;
        if Float.is_nan !heap_mb then heap_mb := top_heap_mb ();
        p)
  in
  let walls = List.map (fun p -> p.wall) passes in
  let wall_s = Stat.fastest walls in
  let cell_ms =
    List.init (Array.length w.cells) (fun i ->
        1000. *. Stat.fastest (List.map (fun p -> p.cell_s.(i)) passes))
  in
  {
    workload = w.wl;
    seed;
    traced = false;
    attempted = gate.attempted;
    failed = gate.failed;
    failures = List.rev gate.failures;
    metrics =
      [
        m "wall_s" wall_s "s";
        m "sim_msgs_per_s" (msgs /. wall_s) "msg/s";
        m "setup_s" setup_s "s";
        m "peak_heap_mb" !heap_mb "MB";
        m "cell_p50_ms" (Stat.median cell_ms) "ms";
        m "cell_p99_ms" (Stat.percentile cell_ms 99.) "ms";
      ];
    extra =
      [
        m "passes" (float_of_int (List.length passes)) "count";
        m "pass_p50_s" (Stat.median walls) "s";
        m "setup_samples" (float_of_int setup_samples) "count";
        m "cells" (float_of_int (Array.length w.cells)) "count";
        m "msgs_per_pass" msgs "count";
        m "end_heap_mb" (top_heap_mb ()) "MB";
      ];
  }

(* ---- the traced run: per-layer metrics ---- *)

let counters =
  [
    ("net.messages", "count");
    ("net.bytes", "bytes");
    ("coh.read_miss", "count");
    ("coh.write_miss", "count");
    ("barrier.arrivals", "count");
    ("region.dir_words", "words");
  ]

let fam_dispatch = Stats.fam "ace.dispatch.by_space"

(* the facade ops reported per workload *)
let reported_ops =
  [ "start_read"; "end_read"; "start_write"; "end_write"; "lock"; "barrier";
    "map"; "work" ]

let traced ?(micros = Micro.all ()) (w : W.t) ~seed ~seconds ~golden ~trace_file =
  let t0 = Stat.now_ns () in
  let setup_s = setup_seconds w ~samples:3 in
  let micros = List.map (fun (name, u, f) -> m name (f ()) u) micros in
  let warm, gate = warm_up w ~golden in
  let msgs = pass_msgs warm in
  let facade = Facade.create () in
  let acc = ref (Stats.create ()) in
  let gc_minor = ref 0. and gc_major = ref 0 in
  let plain = ref [] and probed = ref [] in
  (* one untraced and one traced pass per step *)
  let (_ : pass list) =
    timed_passes ~seconds:(seconds -. Stat.seconds_since t0) ~min_passes:1 (fun () ->
        let g0 = Gc.quick_stat () in
        let p = run_pass w W.untraced in
        let g1 = Gc.quick_stat () in
        gc_minor := g1.Gc.minor_words -. g0.Gc.minor_words;
        gc_major := g1.Gc.major_collections - g0.Gc.major_collections;
        check gate w p;
        plain := p.wall :: !plain;
        let st = Stats.create () in
        let t =
          run_pass w
            { W.facade = Some facade; sink = Some (Stats.merge_into st); count = false }
        in
        check gate w t;
        acc := st;
        probed := t.wall :: !probed;
        { p with wall = p.wall +. t.wall })
  in
  let wall = Stat.fastest !plain and twall = Stat.fastest !probed in
  Facade.write_chrome facade trace_file;
  let npasses = float_of_int (List.length !probed) in
  let app_share, runtime_share = Facade.shares facade in
  let st = !acc in
  let ops =
    List.concat_map
      (fun op ->
        let i = Facade.op_index op in
        let calls = facade.Facade.calls.(i) in
        [
          m ("ops." ^ op ^ ".calls") (float_of_int calls /. npasses) "count";
          m ("ops." ^ op ^ ".self_ns")
            (if calls = 0 then 0.
             else float_of_int facade.Facade.self_ns.(i) /. float_of_int calls)
            "ns/call";
        ])
      reported_ops
  in
  {
    workload = w.wl;
    seed;
    traced = true;
    attempted = gate.attempted;
    failed = gate.failed;
    failures = List.rev gate.failures;
    metrics =
      [
        m "trace_overhead" (twall /. wall) "ratio";
        m "sims" (float_of_int (n_machines w)) "count";
        m "setup_share" (setup_s /. wall) "ratio";
        m "host_ns_per_msg" (wall *. 1e9 /. msgs) "ns";
        m "gc.minor_words_per_msg" (!gc_minor /. msgs) "words";
        m "gc.major_collections" (float_of_int !gc_major) "count";
      ]
      @ List.map (fun (c, u) -> m c (Stats.get st c) u) counters
      @ [
          m "ace.dispatch"
            (List.fold_left (fun a (_, v) -> a +. v) 0. (Stats.dim_cells st fam_dispatch))
            "count";
          m "app_share" app_share "ratio";
          m "runtime_share" runtime_share "ratio";
        ]
      @ ops @ micros;
    extra =
      [
        m "passes" npasses "count";
        m "untraced_wall_s" wall "s";
        m "traced_wall_s" twall "s";
        m "msgs_per_pass" msgs "count";
        m "spans_dropped" (float_of_int facade.Facade.dropped) "count";
      ];
  }
