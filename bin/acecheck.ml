(* acecheck: the protocol conformance kit's CLI. Fuzzes small random SPMD
   programs through every registered protocol (plus the CRL baseline)
   across schedule-tie-break x fault x batching grids, differentially
   against the SC reference, with the coherence oracle watching every
   race-free run. A failure is shrunk and written as a replayable .repro
   file; `acecheck --replay FILE` re-runs one.

   `--inject-broken` registers a deliberately broken protocol (dynamic
   update that forgets to propagate writes) and *expects* the kit to catch
   it — a self-test that the oracle and the differential check have
   teeth. *)

module Runner = Ace_check.Runner
module Prog = Ace_check.Prog
module Repro = Ace_check.Repro
module Faults = Ace_net.Faults

let usage () =
  prerr_endline
    {|usage: acecheck [options]
  --fuzz N         programs to generate (default 200)
  --schedules K    schedule tie-breaks per program (default 32)
  --seed S         fuzz seed (default 42)
  --nprocs N       pin the simulated machine size (default: random 2..4);
                   larger sizes exercise the directory's bitset mode
  --protocols CSV  protocols to test (default: all registered + CRL)
  --no-faults      drop the lossy-network cells from the grid
  --no-batch       drop the bulk-transfer batching cells from the grid
  --out DIR        where to write .repro counterexamples (default .)
  --replay FILE    re-run one .repro counterexample: exit 1 if it still
                   fails, 0 if it no longer does, 2 if FILE cannot be read
                   or is malformed
  --switch-heavy   pin the transition-torture shape: generic DRF programs
                   where most epochs end in a mid-run Ace_ChangeProtocol
  --combinators    certify the combinator-built protocol library: one fuzz
                   round per DSL protocol (each differential against SC);
                   with --inject-broken, also demand the broken canary
                   combinator is caught
  --inject-broken  also test a deliberately broken protocol; exit 0 only
                   if the kit catches it
A fuzz run exits 0 when clean, 1 on a counterexample; bad options exit 2.|};
  exit 2

type opts = {
  mutable fuzz : int;
  mutable schedules : int;
  mutable seed : int;
  mutable nprocs : int option;
  mutable protocols : string list option;
  mutable faults : bool;
  mutable batch : bool;
  mutable out : string;
  mutable replay : string option;
  mutable switch_heavy : bool;
  mutable combinators : bool;
  mutable inject_broken : bool;
}

let parse_args () =
  let o =
    {
      fuzz = 200;
      schedules = 32;
      seed = 42;
      nprocs = None;
      protocols = None;
      faults = true;
      batch = true;
      out = ".";
      replay = None;
      switch_heavy = false;
      combinators = false;
      inject_broken = false;
    }
  in
  let int_arg v =
    match int_of_string_opt v with Some n when n > 0 -> n | _ -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--fuzz" :: v :: rest ->
        o.fuzz <- int_arg v;
        go rest
    | "--schedules" :: v :: rest ->
        o.schedules <- int_arg v;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_arg v;
        go rest
    | "--nprocs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 2 -> o.nprocs <- Some n
        | _ -> usage ());
        go rest
    | "--protocols" :: v :: rest ->
        o.protocols <- Some (String.split_on_char ',' v);
        go rest
    | "--no-faults" :: rest ->
        o.faults <- false;
        go rest
    | "--no-batch" :: rest ->
        o.batch <- false;
        go rest
    | "--out" :: v :: rest ->
        o.out <- v;
        go rest
    | "--replay" :: v :: rest ->
        o.replay <- Some v;
        go rest
    | "--switch-heavy" :: rest ->
        o.switch_heavy <- true;
        go rest
    | "--combinators" :: rest ->
        o.combinators <- true;
        go rest
    | "--inject-broken" :: rest ->
        o.inject_broken <- true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* A mild lossy-network cell: enough loss/reordering to shake the
   retransmit paths without making tiny runs crawl. *)
let default_fault_specs =
  [ Faults.spec ~drop:0.03 ~dup:0.02 ~jitter:25. ~seed:11 () ]

let write_repro o cex =
  let r = Runner.to_repro cex in
  let path =
    Filename.concat o.out
      (Printf.sprintf "acecheck-%s-seed%d.repro"
         (String.lowercase_ascii r.Repro.proto)
         o.seed)
  in
  Repro.write path r;
  path

let describe (p, (fl : Runner.failure)) =
  Printf.printf "counterexample (%s):\n  %s\n%s"
    (Runner.cell_to_string fl.Runner.cell)
    fl.Runner.reason (Prog.to_string p)

let run_fuzz o ~protocols ~label ~expect_failure =
  let fault_specs = if o.faults then default_fault_specs else [] in
  let batch_modes = if o.batch then [ false; true ] else [ false ] in
  let shape = if o.switch_heavy then Some Prog.Switch_heavy else None in
  let report =
    Runner.fuzz ?protocols ?shape ?nprocs:o.nprocs ~seed:o.seed ~count:o.fuzz
      ~schedules:o.schedules ~fault_specs ~batch_modes
      ~log:(fun m -> Printf.printf "[%s] %s\n%!" label m)
      ()
  in
  match report.Runner.counterexample with
  | None ->
      Printf.printf "[%s] %d programs x %d schedules: clean\n%!" label
        report.Runner.programs o.schedules;
      not expect_failure
  | Some cex ->
      let path = write_repro o cex in
      Printf.printf "[%s] FAILED after %d programs\n" label
        report.Runner.programs;
      describe cex;
      Printf.printf "  repro written to %s\n%!" path;
      expect_failure

(* Certification of the combinator-built library: every DSL protocol gets
   its own fuzz round, differential against SC, so a regression in one
   compiled protocol is blamed by name. With --inject-broken the canary
   combinator (SC that never acquires exclusive write access) must be
   caught too. *)
let run_combinators o =
  let ok =
    List.for_all
      (fun n ->
        run_fuzz o
          ~protocols:(Some [ "SC"; n ])
          ~label:("combinator " ^ n) ~expect_failure:false)
      Ace_combinator.Library.names
  in
  if not o.inject_broken then ok
  else begin
    let n = Ace_combinator.Library.broken_sc.Ace_runtime.Protocol.name in
    Printf.printf
      "[broken] injecting %s (SC whose writes never reach the master)\n%!" n;
    let caught =
      run_fuzz o
        ~protocols:(Some [ "SC"; n ])
        ~label:"combinator broken" ~expect_failure:true
    in
    if not caught then
      print_endline
        "[broken] ERROR: the kit failed to catch the broken combinator";
    ok && caught
  end

let () =
  let o = parse_args () in
  (* ACE_JOBS sets how many domains check a program's grid at once *)
  (match Ace_engine.Pool.default_jobs () with
  | (_ : int) -> ()
  | exception Invalid_argument m ->
      Printf.eprintf "acecheck: %s\n" m;
      exit 2);
  match o.replay with
  | Some file -> (
      let r =
        try Repro.read file with
        | Invalid_argument m ->
            Printf.eprintf "acecheck: %s: %s\n" file m;
            exit 2
        | Sys_error m ->
            Printf.eprintf "acecheck: %s\n" m;
            exit 2
      in
      Printf.printf "replaying %s: %s\n%!" file
        (Runner.cell_to_string (Runner.cell_of_repro r));
      match Runner.replay r with
      | Some fl ->
          Printf.printf "still failing: %s\n" fl.Runner.reason;
          exit 1
      | None ->
          print_endline "no longer failing";
          exit 0)
  | None when o.combinators -> exit (if run_combinators o then 0 else 1)
  | None ->
      let ok =
        run_fuzz o ~protocols:o.protocols ~label:"conformance"
          ~expect_failure:false
      in
      let ok =
        if not o.inject_broken then ok
        else begin
          (* The broken protocol keeps DYN_UPDATE's contract, one plain
             writer per epoch, so the kit fuzzes it on the programs that
             contract admits. *)
          let n =
            Ace_combinator.Library.broken_dyn_update.Ace_runtime.Protocol.name
          in
          Printf.printf
            "[broken] injecting %s (an update protocol that drops its \
             propagation)\n%!"
            n;
          let protocols = Some [ "SC"; n ] in
          let caught = run_fuzz o ~protocols ~label:"broken" ~expect_failure:true in
          if not caught then
            print_endline
              "[broken] ERROR: the kit failed to catch the broken protocol";
          ok && caught
        end
      in
      exit (if ok then 0 else 1)
