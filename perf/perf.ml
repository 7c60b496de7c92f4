(* The performance benchmark's command line.

     perf.exe [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
              [--json OUT]
     perf.exe --write-golden FILE

   Prints every metric as "name value unit", then, as the last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}. --json OUT
   appends the full report (with sample counts and context) to OUT as one
   JSON line, so a set of runs collects into one file. Without --workload
   every workload runs in a fresh child process, one at a time, so that
   peak heap is per workload. --write-golden regenerates the golden values
   from the seed-0 inputs.

   Exit status: 0 correct, 1 some simulation differed from its golden
   value or crashed, 2 bad usage or no golden file. *)

open Perf_core
module W = Workloads

let usage () =
  prerr_endline
    "usage: perf.exe [--workload figures|compiler|scale|fuzz] [--seed S] \
     [--seconds N] [--trace [0|1]] [--json OUT]\n\
    \       perf.exe --write-golden FILE";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable write_golden : string option;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 0;
      seconds = 20.;
      trace = false;
      json = None;
      write_golden = None;
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest when List.mem v W.names ->
        o.workload <- Some v;
        go rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s when s >= 0 ->
            o.seed <- s;
            go rest
        | _ -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. && Float.is_finite s ->
            o.seconds <- s;
            go rest
        | _ -> usage ())
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--json" :: v :: rest ->
        o.json <- Some v;
        go rest
    | "--write-golden" :: v :: rest ->
        o.write_golden <- Some v;
        go rest
    | _ -> usage ()
  in
  go args;
  o

(* ---- output ---- *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (x : Bench.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value)
             x.unit_)
         ms)
  ^ "}"

let result_line ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (failed = 0) attempted failed (metrics_json ms)

let report_json (r : Bench.report) =
  Printf.sprintf
    "{\"schema\": \"ace-perf-v1\", \"workload\": %S, \"seed\": %d, \"trace\": \
     %b, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"failures\": [%s], \
     \"metrics\": %s, \"extra\": %s}"
    r.workload r.seed r.traced (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map (Printf.sprintf "%S") r.failures))
    (metrics_json r.metrics) (metrics_json r.extra)

let append_line path line =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* ---- one workload, in this process ---- *)

let run_one o wl =
  let w = W.make wl ~seed:o.seed in
  (* the paper's inputs: seed 0, or a workload that takes no seed *)
  let golden =
    if o.seed = 0 || not w.W.seeded then (
      try Some (Golden.load Golden.default_path)
      with Sys_error m | Failure m ->
        Printf.eprintf "perf: cannot read golden values: %s\n" m;
        exit 2)
    else None
  in
  let r =
    if o.trace then
      let dir = match o.json with Some p -> Filename.dirname p | None -> "." in
      let trace_file = Filename.concat dir ("perf-trace-" ^ wl ^ ".json") in
      Bench.traced w ~seed:o.seed ~seconds:o.seconds ~golden ~trace_file
    else Bench.untraced w ~seed:o.seed ~seconds:o.seconds ~golden
  in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) r.failures;
  List.iter
    (fun (prefix, ms) ->
      List.iter
        (fun (x : Bench.metric) ->
          Printf.printf "%s%s %s %s\n" prefix x.name (num x.value) x.unit_)
        ms)
    [ ("", r.metrics); ("# ", r.extra) ];
  Option.iter (fun p -> append_line p (report_json r)) o.json;
  print_endline (result_line ~attempted:r.attempted ~failed:r.failed r.metrics);
  exit (if r.failed = 0 then 0 else 1)

(* ---- every workload, each in a child process ---- *)

(* Runs the workloads one after another, echoing each child's output and
   combining their last lines; metrics are renamed WORKLOAD.NAME. *)
let run_all args =
  let module J = Ace_obs.Json in
  let attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun wl ->
      let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; wl ]) in
      let ic = Unix.open_process_args_in Sys.executable_name argv in
      let rec echo last =
        match input_line ic with
        | l ->
            print_endline l;
            echo l
        | exception End_of_file -> last
      in
      let last = echo "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED (0 | 1) -> ()
      | _ ->
          Printf.eprintf "perf: workload %s did not report\n" wl;
          exit 2);
      let r = J.parse last in
      let int k = Option.get (Option.bind (J.member k r) J.to_int) in
      attempted := !attempted + int "attempted";
      failed := !failed + int "failed";
      match J.member "metrics" r with
      | Some (J.Obj ms) ->
          List.iter
            (fun (name, v) ->
              let get k conv = Option.bind (J.member k v) conv in
              metrics :=
                {
                  Bench.name = wl ^ "." ^ name;
                  value = Option.value (get "value" J.to_float) ~default:nan;
                  unit_ = Option.value (get "unit" J.to_string) ~default:"";
                }
                :: !metrics)
            ms
      | _ -> ())
    W.names;
  print_endline (result_line ~attempted:!attempted ~failed:!failed (List.rev !metrics));
  exit (if !failed = 0 then 0 else 1)

(* ---- regenerate the golden values ---- *)

let write_golden path =
  let cells =
    List.concat_map
      (fun wl ->
        let w = W.make wl ~seed:0 in
        let warm = Bench.run_pass w Bench.counting in
        let outs = Array.map Result.to_option warm.Bench.outs in
        (match Golden.disagreements w.W.cells outs with
        | [] -> ()
        | bad -> failwith ("results differ within a group: " ^ String.concat ", " bad));
        Array.to_list
          (Array.mapi
             (fun i (c : W.cell) ->
               match outs.(i) with
               | Some o -> (c.W.name, o)
               | None -> failwith (c.W.name ^ " crashed"))
             w.W.cells))
      W.names
  in
  let oc = open_out path in
  output_string oc (Golden.to_string cells);
  close_out oc;
  Printf.printf "wrote %d golden cells to %s\n" (List.length cells) path

let () =
  (* the simulator's allocation profile, as bench/main.ml sets it *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  let o = parse args in
  match (o.write_golden, o.workload) with
  | Some path, None -> write_golden path
  | Some _, Some _ -> usage ()
  | None, Some wl -> run_one o wl
  | None, None -> run_all args
