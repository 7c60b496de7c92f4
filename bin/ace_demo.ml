(* Command-line driver: run any benchmark application on any backend with
   any protocol configuration on the simulated machine.

     ace_demo em3d --backend ace --protocol STATIC_UPDATE --procs 16
     ace_demo water --backend ace --phase-protocols NULL,PIPELINE
     ace_demo tsp --backend crl

   Exit status: 0 on success, 1 when the simulation itself fails, 2 on bad
   usage (an unknown option or protocol, an option value out of range, an
   unwritable output file).
*)

open Cmdliner

let run_app app backend nprocs protocol steps scale verbose trace dump_stats
    faults batch critpath =
  let module D = Ace_harness.Driver in
  let crit =
    Option.map (fun _ -> Ace_engine.Crit.create ~nprocs ()) critpath
  in
  let factor = scale in
  let batch = if batch then Some true else None in
  (* Under a fault model, capture the reliable transport's counters so the
     run can report what the lossy network cost. *)
  let fault_counts = ref None in
  let batch_counts = ref None in
  let capture s =
    let get = Ace_engine.Stats.get s in
    if faults <> None then
      fault_counts :=
        Some
          ( get "net.fault.dropped",
            get "net.retransmits",
            get "net.timeouts",
            get "net.dup_suppressed",
            get "net.giveups" );
    if batch <> None then
      batch_counts :=
        Some
          ( get "net.messages",
            get "net.coalesced",
            get "coh.write_combined",
            get "coh.inval_batch" +. get "coh.bulk_fetch" )
  in
  let stats =
    if dump_stats then
      Some
        (fun s ->
          Format.printf "%a@?" Ace_engine.Stats.pp s;
          capture s)
    else Some capture
  in
  let pick crl ace = match backend with `Crl -> crl () | `Ace -> ace () in
  let outcome, reference =
    match app with
    | `Em3d ->
        let cfg =
          {
            Ace_apps.Em3d.default with
            Ace_apps.Em3d.n_nodes = 200 * factor;
            steps;
            protocol = (match backend with `Ace -> protocol | `Crl -> None);
          }
        in
        ( pick
            (fun () -> D.run_crl ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Em3d) cfg)
            (fun () -> D.run_ace ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Em3d) cfg),
          Some
            (Ace_apps.Em3d.checksum (Ace_apps.Em3d.reference cfg ~nprocs)) )
    | `Barnes_hut ->
        let cfg =
          {
            Ace_apps.Barnes_hut.default with
            Ace_apps.Barnes_hut.n_bodies = 128 * factor;
            steps;
            protocol = (match backend with `Ace -> protocol | `Crl -> None);
          }
        in
        ( pick
            (fun () -> D.run_crl ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Barnes_hut) cfg)
            (fun () -> D.run_ace ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Barnes_hut) cfg),
          Some (Ace_apps.Barnes_hut.checksum (Ace_apps.Barnes_hut.reference cfg))
        )
    | `Bsc ->
        let cfg =
          {
            Ace_apps.Cholesky.default with
            Ace_apps.Cholesky.core =
              {
                Ace_apps.Cholesky.default.Ace_apps.Cholesky.core with
                Ace_apps.Chol_core.nb = 6 * factor;
              };
            protocol = (match backend with `Ace -> protocol | `Crl -> None);
          }
        in
        ( pick
            (fun () -> D.run_crl ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Cholesky) cfg)
            (fun () -> D.run_ace ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Cholesky) cfg),
          Some
            (Ace_apps.Chol_core.checksum
               (Ace_apps.Chol_core.reference cfg.Ace_apps.Cholesky.core)) )
    | `Tsp ->
        let cfg =
          {
            Ace_apps.Tsp.default with
            Ace_apps.Tsp.counter_protocol =
              (match backend with `Ace -> protocol | `Crl -> None);
          }
        in
        ( pick
            (fun () -> D.run_crl ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Tsp) cfg)
            (fun () -> D.run_ace ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Tsp) cfg),
          Some (Ace_apps.Tsp_core.reference cfg.Ace_apps.Tsp.core) )
    | `Water phase_protocols ->
        let cfg : Ace_apps.Water.config =
          {
            Ace_apps.Water.core =
              {
                Ace_apps.Water.default.Ace_apps.Water.core with
                Ace_apps.Water_core.n_mol = 32 * factor;
                steps;
              };
            phase_protocols =
              (match backend with `Ace -> phase_protocols | `Crl -> None);
          }
        in
        ( pick
            (fun () -> D.run_crl ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Water) cfg)
            (fun () -> D.run_ace ?faults ?batch ?trace ?crit ?stats ~nprocs (module Ace_apps.Water) cfg),
          Some
            (Ace_apps.Water_core.checksum
               (Ace_apps.Water_core.reference cfg.Ace_apps.Water.core)) )
  in
  Printf.printf "simulated time: %.6f s (on the modelled 33 MHz, %d-node machine)\n"
    outcome.D.seconds nprocs;
  Printf.printf "result (node 0): %.9g\n" outcome.D.result;
  (match reference with
  | Some r when verbose ->
      Printf.printf "sequential reference: %.9g (delta %.3g)\n" r
        (abs_float (r -. outcome.D.result))
  | _ -> ());
  (match !fault_counts with
  | Some (dropped, rexmit, timeouts, dupsup, giveups) ->
      Printf.printf
        "reliability: %.0f dropped, %.0f retransmits, %.0f timeouts, %.0f \
         duplicates suppressed, %.0f giveups\n"
        dropped rexmit timeouts dupsup giveups
  | None -> ());
  (match !batch_counts with
  | Some (msgs, coalesced, combined, bulk) ->
      Printf.printf
        "batching: %.0f physical messages (%.0f saved by coalescing), %.0f \
         write-combined updates, %.0f batched inval/fetch legs\n"
        msgs coalesced combined bulk
  | None -> ());
  (match trace with
  | Some path -> Printf.printf "wrote trace: %s\n" path
  | None -> ());
  (match (critpath, crit) with
  | Some path, Some cr ->
      Ace_engine.Crit.write_file cr path;
      let module Critpath = Ace_obs.Critpath in
      let dag = Critpath.of_crit cr in
      let bp = Critpath.blamed_path dag in
      (match Critpath.blame_by_kind dag bp with
      | (k, cyc) :: _ ->
          Printf.printf
            "wrote critical-path DAG: %s (%d nodes; top blame: %s %.1f%%)\n"
            path (Critpath.n_nodes dag) k
            (100. *. cyc /. Critpath.total_blame bp)
      | [] -> Printf.printf "wrote critical-path DAG: %s\n" path)
  | _ -> ());
  0

let app_arg =
  let apps =
    [
      ("em3d", `Em3d);
      ("barnes-hut", `Barnes_hut);
      ("bsc", `Bsc);
      ("tsp", `Tsp);
      ("water", `Water_marker);
    ]
  in
  Arg.(
    required
    & pos 0 (some (enum apps)) None
    & info [] ~docv:"APP" ~doc:"Benchmark: em3d, barnes-hut, bsc, tsp or water.")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("ace", `Ace); ("crl", `Crl) ]) `Ace
    & info [ "backend" ] ~docv:"SYS" ~doc:"Runtime system: ace or crl.")

let procs_arg =
  Arg.(
    value & opt int 16
    & info [ "nprocs"; "procs"; "p" ]
        ~doc:"Simulated processors (at least 2).")

let protocol_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ]
        ~doc:
          "Custom protocol name (e.g. STATIC_UPDATE, DYN_UPDATE, COUNTER); \
           ignored on crl.")

let phases_arg =
  Arg.(
    value
    & opt (some (pair ~sep:',' string string)) None
    & info [ "phase-protocols" ]
        ~doc:"Water only: INTRA,INTER protocol pair (e.g. NULL,PIPELINE).")

let steps_arg =
  Arg.(
    value & opt int 5
    & info [ "steps" ] ~doc:"Iterations, where applicable (at least 1).")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~doc:"Problem size multiplier (at least 1).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the reference value.")

let stats_arg =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:
          "Dump all nonzero counters, dimensioned counter families and \
           histograms after the run.")

let drop_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "drop" ] ~docv:"P"
        ~doc:
          "Per-transmission drop probability in [0,1). The reliable \
           transport retransmits, so the run still completes correctly.")

let dup_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "dup" ] ~docv:"P"
        ~doc:"Per-transmission duplication probability in [0,1).")

let jitter_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "jitter" ] ~docv:"CYCLES"
        ~doc:"Maximum extra transit delay per message copy, in cycles.")

let fault_seed_arg =
  Arg.(
    value
    & opt int Ace_net.Faults.default_seed
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Fault-model RNG seed. The same seed reproduces the same \
           loss/duplication/jitter pattern bit for bit.")

let batch_arg =
  Arg.(
    value
    & flag
    & info [ "batch" ]
        ~doc:
          "Enable bulk-transfer batching: coalesced same-destination \
           messages, write-combined updates, batched invalidations and bulk \
           fetches. Off by default; off runs are bit-identical to a build \
           without the batching layer.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the simulation as Chrome trace-event JSON (load in \
           Perfetto or chrome://tracing; analyze with acetrace). Simulated \
           times are unaffected.")

let critpath_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "critpath" ] ~docv:"FILE"
        ~doc:
          "Record the run's causal dependency DAG as ace-critpath-v1 JSON \
           (analyze with acetrace critpath). Simulated times are \
           unaffected.")

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "ace_demo: %s\n" m;
      2)
    fmt

(* The protocols a run can name: those Driver.run_ace registers. *)
let protocol_names () =
  let rt = Ace_runtime.Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  Ace_combinator.Library.register_all rt;
  List.map (fun p -> p.Ace_runtime.Protocol.name) (Ace_runtime.Runtime.protocols rt)

(* The first out-of-range option value, as a usage message. *)
let bad_input ~nprocs ~steps ~scale ~drop ~dup ~jitter ~protocols ~outputs =
  let known = lazy (protocol_names ()) in
  let unknown = List.find_opt (fun p -> not (List.mem p (Lazy.force known))) protocols in
  let unwritable =
    List.find_map
      (fun path ->
        try
          close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path);
          None
        with Sys_error m -> Some m)
      outputs
  in
  if nprocs < 2 then Some (Printf.sprintf "--procs must be at least 2 (got %d)" nprocs)
  else if steps < 1 then Some (Printf.sprintf "--steps must be at least 1 (got %d)" steps)
  else if scale < 1 then Some (Printf.sprintf "--scale must be at least 1 (got %d)" scale)
  else if drop < 0. || drop >= 1. then
    Some (Printf.sprintf "--drop must be in [0, 1) (got %g)" drop)
  else if dup < 0. || dup >= 1. then
    Some (Printf.sprintf "--dup must be in [0, 1) (got %g)" dup)
  else if jitter < 0. then
    Some (Printf.sprintf "--jitter must be non-negative (got %g)" jitter)
  else
    match (unknown, unwritable) with
    | Some p, _ ->
        Some
          (Printf.sprintf "unknown protocol %s (known: %s)" p
             (String.concat " " (Lazy.force known)))
    | None, Some m -> Some ("cannot write " ^ m)
    | None, None -> None

let cmd =
  let doc = "run an Ace/CRL benchmark on the simulated CM-5" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"when the simulation itself fails.";
      Cmd.Exit.info 2
        ~doc:
          "on bad usage: an unknown option or protocol, an option value out \
           of range, or an unwritable output file.";
    ]
  in
  Cmd.v
    (Cmd.info "ace_demo" ~doc ~exits)
    Term.(
      const (fun app backend nprocs protocol phases steps scale verbose trace
                 stats drop dup jitter fault_seed batch critpath ->
          let app =
            match app with
            | `Water_marker -> `Water phases
            | `Em3d -> `Em3d
            | `Barnes_hut -> `Barnes_hut
            | `Bsc -> `Bsc
            | `Tsp -> `Tsp
          in
          let protocols =
            match (backend, app) with
            | `Crl, _ -> []
            | `Ace, `Water (Some (intra, inter)) -> [ intra; inter ]
            | `Ace, _ -> Option.to_list protocol
          in
          let outputs = Option.to_list trace @ Option.to_list critpath in
          match
            bad_input ~nprocs ~steps ~scale ~drop ~dup ~jitter ~protocols ~outputs
          with
          | Some m -> usage_error "%s" m
          | None -> (
              let faults =
                if drop > 0. || dup > 0. || jitter > 0. then
                  Some
                    (Ace_net.Faults.spec ~drop ~dup ~jitter ~seed:fault_seed ())
                else None
              in
              try
                run_app app backend nprocs protocol steps scale verbose trace
                  stats faults batch critpath
              with Failure m | Invalid_argument m ->
                Printf.eprintf "ace_demo: simulation failed: %s\n" m;
                1))
      $ app_arg $ backend_arg $ procs_arg $ protocol_arg $ phases_arg
      $ steps_arg $ scale_arg $ verbose_arg $ trace_arg $ stats_arg
      $ drop_arg $ dup_arg $ jitter_arg $ fault_seed_arg $ batch_arg
      $ critpath_arg)

(* Cmdliner's own parse errors (an unknown option, a non-integer value,
   a negative number read as an option) are bad usage too: report their
   first line and exit 2 rather than cmdliner's 124. *)
let () =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  exit
    (match Cmd.eval_value ~err cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) ->
        Format.pp_print_flush err ();
        prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
        2
    | Error `Exn ->
        Format.pp_print_flush err ();
        prerr_string (Buffer.contents buf);
        Cmd.Exit.internal_error)
