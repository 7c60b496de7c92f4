(* Regenerates the paper's evaluation (§5): Figure 7a (Ace runtime vs CRL),
   Figure 7b (SC vs application-specific protocols), Table 4 (compiler
   optimization levels vs hand-written code), and the experiments grown
   around them. This is a thin command line over
   Ace_harness.Experiments.registry, which defines each experiment, its
   table, its report rows and the checks they must pass; --help lists the
   selections and options.

   Times are simulated seconds on the modelled 32-node CM-5 (deterministic;
   absolute values depend on the cost model, shapes are the reproduction
   target — see EXPERIMENTS.md). Check verdicts go to stderr, so stdout
   holds only the tables.

   Exit status: 0 when every check of every selected experiment passes
   (and, with --baseline, the baseline gate), 1 when one fails, 2 on bad
   usage. *)

module E = Ace_harness.Experiments
module R = Ace_harness.Report
module Faults = Ace_net.Faults

let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let () =
  (* A larger minor heap suits the simulator's allocation profile (closure
     chains and event records): fewer minor collections, identical
     simulated output. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let o = ref E.default_opts in
  let selected = ref [] and json = ref None and baseline = ref None in
  let drop = ref 0. and dup = ref 0. and jitter = ref 0. in
  let seed = ref Faults.default_seed and fault_given = ref false in
  let int_from lo flag f =
    Arg.Int
      (fun n ->
        if n < lo then
          raise (Arg.Bad (Printf.sprintf "%s expects an integer >= %d, got %d" flag lo n));
        f n)
  in
  let fault flag r =
    Arg.Float
      (fun v ->
        if v < 0. then
          raise (Arg.Bad (Printf.sprintf "%s expects a non-negative number, got %g" flag v));
        r := v;
        fault_given := true)
  in
  let specs =
    Arg.align
      [
        ( "--small",
          Arg.Unit (fun () -> o := { !o with E.scale = { E.nprocs = 8; factor = 1 } }),
          " 8 procs instead of 32 (quick smoke run)" );
        ( "--nprocs",
          int_from 2 "--nprocs" (fun nprocs ->
              o := { !o with E.scale = { !o.E.scale with E.nprocs } }),
          "N simulated processors (default 32)" );
        ( "--scaling-max",
          Arg.Int
            (fun scaling_max ->
              (* the experiment's checks compare at least two machine sizes *)
              let least = List.nth E.scaling_nprocs 1 in
              if scaling_max < least then
                usage_error "--scaling-max expects at least %d (two machine sizes), got %d"
                  least scaling_max;
              o := { !o with E.scaling_max }),
          "N largest machine of the scaling experiment (default 1024)" );
        ( "--jobs",
          int_from 1 "--jobs" (fun j -> o := { !o with E.jobs = Some j }),
          "N worker domains (default: ACE_JOBS or the domain count; results are \
           identical for any N)" );
        ("--json", Arg.String (fun p -> json := Some p), "FILE also write every row and check as JSON");
        ( "--baseline",
          Arg.String (fun p -> baseline := Some p),
          "FILE fail unless every row this earlier --json report holds for a \
           selected experiment comes out again with its simulated output" );
        ( "--trace",
          Arg.String (fun p -> o := { !o with E.trace = Some p }),
          "FILE run trace_overhead: record EM3D on Ace as Chrome trace-event JSON \
           and report tracing's wall cost" );
        ( "--trace-dir",
          Arg.String (fun d -> o := { !o with E.trace_dir = Some d }),
          "DIR record one trace per grid cell of the selected experiments" );
        ( "--critpath",
          Arg.String (fun p -> o := { !o with E.critpath = Some p }),
          "FILE write critpath_overhead's causal DAG (for acetrace critpath)" );
        ( "--batch",
          Arg.Unit (fun () -> o := { !o with E.batch = true }),
          " enable bulk-transfer batching in the selected experiments" );
        ("--drop", fault "--drop" drop, "P per-transmission drop probability in [0,1)");
        ("--dup", fault "--dup" dup, "P per-transmission duplication probability in [0,1)");
        ("--jitter", fault "--jitter" jitter, "C max extra transit cycles per message copy");
        ( "--fault-seed",
          Arg.Int
            (fun s ->
              seed := s;
              fault_given := true),
          "N RNG seed of the fault model" );
      ]
  in
  let names = List.map (fun (e : E.entry) -> e.name) E.registry in
  let usage =
    Printf.sprintf
      "usage: main [OPTION]... [EXPERIMENT]...\n\
       EXPERIMENT is one of %s; with none, the default grid runs (%s).\n\
       A fault flag attaches a deterministic fault model to every simulation \
       of the selected experiments; without one the network is perfect.\n\
       Exit status: 0 if every check passes, 1 if one fails, 2 on bad usage.\n\
       Options:"
      (String.concat " " names)
      (String.concat " "
         (List.filter_map
            (fun (e : E.entry) -> if e.default then Some e.name else None)
            E.registry))
  in
  Arg.parse specs
    (fun s ->
      if List.mem s names then selected := s :: !selected
      else raise (Arg.Bad ("unknown experiment " ^ s)))
    usage;
  let faults =
    if not !fault_given then None
    else
      try Some (Faults.spec ~drop:!drop ~dup:!dup ~jitter:!jitter ~seed:!seed ())
      with Invalid_argument m -> usage_error "%s" m
  in
  let jobs =
    match !o.E.jobs with
    | Some j -> j
    | None -> (
        try Ace_engine.Pool.default_jobs () with Invalid_argument m -> usage_error "%s" m)
  in
  let o = { !o with E.faults; jobs = Some jobs } in
  let selected = List.rev !selected in
  if List.mem "trace_overhead" selected && o.trace = None then
    usage_error "trace_overhead requires --trace FILE";
  (* Fail fast on a clashing or unwritable output path rather than after
     the run. *)
  let outputs =
    List.filter_map
      (fun (flag, p) -> Option.map (fun p -> (flag, p)) p)
      [ ("--json", !json); ("--trace", o.trace); ("--critpath", o.critpath) ]
  in
  let rec clash = function
    | [] -> ()
    | (flag, p) :: rest ->
        Option.iter
          (fun (flag', _) -> usage_error "%s and %s name the same file %s" flag flag' p)
          (List.find_opt (fun (_, p') -> p' = p) rest);
        clash rest
  in
  clash outputs;
  List.iter
    (fun (flag, p) ->
      try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 p)
      with Sys_error m -> usage_error "cannot write %s file: %s" flag m)
    outputs;
  (match o.trace_dir with
  | Some dir when not (Sys.file_exists dir) -> (
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (e, _, _) ->
        usage_error "cannot create --trace-dir: %s" (Unix.error_message e))
  | Some dir when not (Sys.is_directory dir) ->
      usage_error "--trace-dir %s is not a directory" dir
  | _ -> ());
  let baseline =
    Option.map
      (fun p ->
        match In_channel.with_open_bin p In_channel.input_all with
        | exception Sys_error m -> usage_error "cannot read --baseline: %s" m
        | text -> (
            match R.parse_baseline text with
            | Ok b -> b
            | Error m -> usage_error "--baseline %s: %s" p m))
      !baseline
  in
  let t0 = Unix.gettimeofday () in
  let ran =
    List.filter_map
      (fun (e : E.entry) ->
        if
          List.mem e.name selected
          || (selected = [] && e.default)
          || (e.name = "trace_overhead" && o.trace <> None)
        then
          let rows = e.run o in
          Some (e.name, rows, e.checks o rows)
        else None)
      E.registry
  in
  let total_wall = Unix.gettimeofday () -. t0 in
  let rows = List.concat_map (fun (_, rows, _) -> rows) ran in
  let checks =
    List.concat_map (fun (_, _, checks) -> checks) ran
    @ Option.fold ~none:[]
        ~some:(fun b ->
          R.baseline_checks b ~experiments:(List.map (fun (n, _, _) -> n) ran) rows)
        baseline
  in
  List.iter
    (fun (c : R.check) ->
      Printf.eprintf "check %s: %s (%s)\n" c.series (if c.ok then "ok" else "FAIL")
        c.detail)
    checks;
  Option.iter
    (fun p ->
      R.write p ~nprocs:o.scale.nprocs ~jobs ~batch:o.batch ~faults:o.faults
        ~total_wall rows checks)
    !json;
  if List.exists (fun (c : R.check) -> not c.ok) checks then exit 1
