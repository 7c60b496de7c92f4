(* acec: the MiniAce compiler driver.

     acec prog.ace                      # compile at -O3 and run on 8 procs
     acec prog.ace -O0 --dump-ir       # show the Fig. 5 annotation inserts
     acec prog.ace -O2 --procs 32      # run the optimized program
     acec --dump-config                # print the Fig. 1 registry text

   Exit status: 0 on success, 1 on a compile or runtime error in the
   program, 2 on bad usage (an option value out of range, a missing or
   unreadable input file).
*)

open Cmdliner

let level_of_int = function
  | 0 -> Some Ace_lang.Opt.O0
  | 1 -> Some Ace_lang.Opt.O1
  | 2 -> Some Ace_lang.Opt.O2
  | 3 -> Some Ace_lang.Opt.O3
  | _ -> None

let usage_error msg =
  Printf.eprintf "acec: %s\n" msg;
  2

let fresh_runtime nprocs =
  let rt = Ace_runtime.Runtime.create ~nprocs () in
  Ace_protocols.Proto_lib.register_all rt;
  rt

let compile_and_run file level nprocs dump_ir no_run =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg ->
      usage_error (Printf.sprintf "cannot read %s: %s" file msg)
  | source -> (
      try
        let rt = fresh_runtime nprocs in
        let registry = Ace_lang.Registry.of_runtime rt in
        let ir, diag = Ace_lang.Compile.compile ~registry ~level source in
        Printf.printf
          "compiled %s at %s: %d maps, %d starts, %d ends (%d direct, %d removed)\n"
          file
          (Ace_lang.Opt.level_name diag.Ace_lang.Compile.level)
          diag.Ace_lang.Compile.after.Ace_lang.Ir.maps
          diag.Ace_lang.Compile.after.Ace_lang.Ir.starts
          diag.Ace_lang.Compile.after.Ace_lang.Ir.ends
          diag.Ace_lang.Compile.after.Ace_lang.Ir.direct_calls
          diag.Ace_lang.Compile.after.Ace_lang.Ir.removed_calls;
        if dump_ir then print_string (Ace_lang.Ir.to_string ir);
        if not no_run then begin
          let result = Ace_lang.Interp.run_spmd rt ir in
          Printf.printf "ran on %d simulated processors: %.6f s, main() = %.9g\n"
            nprocs
            (Ace_runtime.Runtime.time_seconds rt)
            result
        end;
        0
      with
      | Failure msg ->
          Printf.eprintf "acec: %s\n" msg;
          1
      (* the runtime rejects a bad operation (say, globalid of a region
         never allocated) with Invalid_argument *)
      | Ace_lang.Interp.Runtime_error msg | Invalid_argument msg ->
          Printf.eprintf "acec: runtime error: %s\n" msg;
          1)

let run file level nprocs dump_ir dump_config no_run =
  match level_of_int level with
  | None -> usage_error (Printf.sprintf "-O must be 0, 1, 2 or 3 (got %d)" level)
  | Some _ when nprocs < 1 ->
      usage_error (Printf.sprintf "--procs must be at least 1 (got %d)" nprocs)
  | Some level -> (
      if dump_config then begin
        let rt = fresh_runtime nprocs in
        print_string (Ace_lang.Registry.to_text (Ace_lang.Registry.of_runtime rt));
        0
      end
      else
        match file with
        | None -> usage_error "no input file (see --help)"
        | Some file -> compile_and_run file level nprocs dump_ir no_run)

let cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.ace")
  in
  let level =
    Arg.(
      value & opt int 3
      & info [ "O" ] ~docv:"N" ~doc:"Optimization level 0-3 (base, +LI, +MC, +DC).")
  in
  let procs =
    Arg.(
      value & opt int 8
      & info [ "procs"; "p" ] ~docv:"N" ~doc:"Simulated processors (at least 1).")
  in
  let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the annotated IR.") in
  let dump_config =
    Arg.(value & flag & info [ "dump-config" ] ~doc:"Print the protocol registry (Fig. 1).")
  in
  let no_run = Arg.(value & flag & info [ "no-run" ] ~doc:"Compile only.") in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on a compile or runtime error in the program.";
      Cmd.Exit.info 2
        ~doc:
          "on bad usage: an unknown option, an option value out of range, or \
           a missing or unreadable input file.";
    ]
  in
  Cmd.v
    (Cmd.info "acec" ~exits
       ~doc:"compile and run MiniAce programs on the simulated machine")
    Term.(const run $ file $ level $ procs $ dump_ir $ dump_config $ no_run)

(* Cmdliner's own parse errors (an unknown option, a non-integer value)
   are bad usage too: map them to 2 rather than cmdliner's 124. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
