(* acetrace: offline analysis of simulator recordings.

   `acetrace summary TRACE.json` prints where simulated time went — per
   protocol call, per region, per space — plus barrier skew and message
   statistics, from the Chrome trace-event JSON that `--trace` options
   write. `acetrace critpath DAG.json` prints critical-path blame and
   what-if latency predictions from the ace-critpath-v1 DAG that
   `--critpath` options write. Times are simulated cycles.

   Exit status: 0 on success, 2 on bad usage or an input file that is
   missing, unreadable, empty or malformed (the contract acec, ace_demo
   and acecheck --replay follow; acetrace has no other failure). *)

module Trace_read = Ace_obs.Trace_read
module Analyze = Ace_obs.Analyze
module Critpath = Ace_obs.Critpath

let subcommands =
  "subcommands:\n\
  \  summary TRACE.json [--top N]\n\
  \      time breakdown of a Chrome trace-event recording (--trace)\n\
  \  critpath DAG.json [--top N] [--what-if SPEC]...\n\
  \      critical-path blame of an ace-critpath-v1 DAG (--critpath);\n\
  \      SPEC scales a cost class in a replay, e.g. link=0->1:0.5,\n\
  \      link=*:0.5, op=send_ovh:0.5, space=2:0.25\n\
  \  help | --help\n\
  \      this message"

let exit_status =
  "EXIT STATUS\n\
  \  0   on success\n\
  \  2   on bad usage, or an input file that is missing, unreadable,\n\
  \      empty or malformed"

let usage () =
  prerr_endline "usage: acetrace SUBCOMMAND [ARGS] (acetrace --help lists subcommands)";
  exit 2

let help () =
  print_endline "usage: acetrace SUBCOMMAND [ARGS]";
  print_endline "";
  print_endline subcommands;
  print_endline "";
  print_endline exit_status;
  exit 0

(* ---- summary (trace-event files) ---- *)

let summary_usage () =
  prerr_endline "usage: acetrace summary TRACE.json [--top N]";
  exit 2

let parse_summary_args args =
  let file = ref None and top = ref 10 in
  let rec go = function
    | [] -> ()
    | "--top" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> top := n
        | _ -> summary_usage ());
        go rest
    | ("-h" | "--help") :: _ -> summary_usage ()
    | a :: rest ->
        if String.length a > 0 && a.[0] = '-' then summary_usage ();
        (match !file with None -> file := Some a | Some _ -> summary_usage ());
        go rest
  in
  go args;
  match !file with None -> summary_usage () | Some f -> (f, !top)

let rows title (rows : Analyze.row list) ~top =
  Printf.printf "\n%s\n" title;
  if rows = [] then print_endline "  (none)"
  else begin
    Printf.printf "  %-24s %10s %14s %12s %12s\n" "" "count" "total_cyc"
      "mean_cyc" "max_cyc";
    List.iter
      (fun (r : Analyze.row) ->
        Printf.printf "  %-24s %10d %14.0f %12.1f %12.0f\n" r.Analyze.label
          r.Analyze.count r.Analyze.total r.Analyze.mean r.Analyze.max)
      (Analyze.take top rows);
    let n = List.length rows in
    if n > top then Printf.printf "  ... (%d more)\n" (n - top)
  end

let summary_cmd args =
  let file, top = parse_summary_args args in
  let evs =
    try Trace_read.load file
    with
    | Sys_error msg ->
        Printf.eprintf "acetrace: %s\n" msg;
        exit 2
    | Ace_obs.Json.Parse_error msg | Failure msg ->
        Printf.eprintf "acetrace: %s: malformed trace (%s)\n" file msg;
        exit 2
  in
  let real = List.filter (fun e -> not (Trace_read.is_meta e)) evs in
  Printf.printf "%s: %d events, %d simulated procs\n" file (List.length real)
    (Trace_read.nprocs evs);

  rows "Protocol-call breakdown (simulated time under each call):"
    (Analyze.call_breakdown real) ~top;
  rows "Hottest regions (protocol-call + lock-hold time):"
    (Analyze.hottest_regions real) ~top;
  rows "Hottest spaces (protocol-call time):" (Analyze.hottest_spaces real)
    ~top;

  let barriers = Analyze.barrier_skew real in
  Printf.printf "\nBarrier generations (%d):\n" (List.length barriers);
  if barriers = [] then print_endline "  (none)"
  else begin
    Printf.printf "  %6s %9s %14s %12s %12s\n" "gen" "arrivals" "first_ts"
      "skew_cyc" "span_cyc";
    let shown = Analyze.take top barriers in
    List.iter
      (fun (b : Analyze.barrier_row) ->
        Printf.printf "  %6d %9d %14.0f %12.0f %12.0f\n" b.Analyze.gen
          b.Analyze.arrivals b.Analyze.first_ts b.Analyze.skew b.Analyze.span)
      shown;
    let n = List.length barriers in
    if n > top then Printf.printf "  ... (%d more)\n" (n - top)
  end;

  let m = Analyze.messages real in
  Printf.printf
    "\nMessages: %d (%d bytes), latency mean %.1f cyc, max %.0f cyc\n"
    m.Analyze.messages m.Analyze.bytes m.Analyze.mean_latency
    m.Analyze.max_latency;
  if m.Analyze.retransmits + m.Analyze.piggybacked + m.Analyze.coalesced > 0
  then
    Printf.printf
      "  %d retransmits, %d ACKs piggybacked, %d messages saved by \
       coalescing\n"
      m.Analyze.retransmits m.Analyze.piggybacked m.Analyze.coalesced;
  if m.Analyze.links <> [] then begin
    Printf.printf "  %-12s %10s %12s %12s %8s %9s %9s\n" "link" "msgs"
      "mean_lat" "max_lat" "rexmit" "piggyack" "coalesced";
    List.iter
      (fun (r : Analyze.link_row) ->
        Printf.printf "  %-12s %10d %12.1f %12.0f %8d %9d %9d\n"
          r.Analyze.link r.Analyze.lmsgs r.Analyze.lmean r.Analyze.lmax
          r.Analyze.lretrans r.Analyze.lpiggy r.Analyze.lcoalesced)
      (Analyze.take top m.Analyze.links);
    let n = List.length m.Analyze.links in
    if n > top then Printf.printf "  ... (%d more)\n" (n - top)
  end

(* ---- critpath (causal-DAG files) ---- *)

let critpath_usage () =
  prerr_endline
    "usage: acetrace critpath DAG.json [--top N] [--what-if SPEC]...\n\
     SPEC: link=SRC->DST:FACTOR | link=*:FACTOR | op=NAME:FACTOR | \
     space=N:FACTOR";
  exit 2

let parse_critpath_args args =
  let file = ref None and top = ref 10 and whatifs = ref [] in
  let rec go = function
    | [] -> ()
    | "--top" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> top := n
        | _ -> critpath_usage ());
        go rest
    | "--what-if" :: spec :: rest ->
        (match Critpath.parse_whatif spec with
        | Ok w -> whatifs := w :: !whatifs
        | Error msg ->
            Printf.eprintf "acetrace: bad --what-if %s: %s\n" spec msg;
            exit 2);
        go rest
    | ("-h" | "--help") :: _ -> critpath_usage ()
    | a :: rest ->
        if String.length a > 0 && a.[0] = '-' then critpath_usage ();
        (match !file with None -> file := Some a | Some _ -> critpath_usage ());
        go rest
  in
  go args;
  match !file with
  | None -> critpath_usage ()
  | Some f -> (f, !top, List.rev !whatifs)

let pct total c = if total > 0. then 100. *. c /. total else 0.

let blame_table title fmt_label entries ~total ~top =
  Printf.printf "\n%s\n" title;
  if entries = [] then print_endline "  (none)"
  else begin
    Printf.printf "  %-24s %16s %7s\n" "" "cycles" "share";
    List.iteri
      (fun i (label, c) ->
        if i < top then
          Printf.printf "  %-24s %16.0f %6.1f%%\n" (fmt_label label) c
            (pct total c))
      entries;
    let n = List.length entries in
    if n > top then Printf.printf "  ... (%d more)\n" (n - top)
  end

let critpath_cmd args =
  let file, top, whatifs = parse_critpath_args args in
  let dag =
    try Critpath.load file
    with
    | Sys_error msg ->
        Printf.eprintf "acetrace: %s\n" msg;
        exit 2
    | Ace_obs.Json.Parse_error msg | Failure msg ->
        Printf.eprintf "acetrace: %s: malformed critpath file (%s)\n" file msg;
        exit 2
  in
  let bp = Critpath.blamed_path dag in
  let total = Critpath.total_blame bp in
  Printf.printf
    "%s: %d dag nodes, %d simulated procs, end time %.0f cycles\n" file
    (Critpath.n_nodes dag) dag.Critpath.nprocs dag.Critpath.end_time;
  Printf.printf
    "critical path: %d steps, %.0f cycles blamed (= simulated duration)\n"
    (List.length bp) total;

  blame_table "Blame by protocol-op class:" Fun.id
    (Critpath.blame_by_kind dag bp) ~total ~top;
  blame_table "Blame by space:"
    (fun sp -> if sp < 0 then "(unattributed)" else Printf.sprintf "space %d" sp)
    (Critpath.blame_by_space dag bp) ~total ~top;
  blame_table "Blame by link:"
    (fun (src, dst) -> Printf.sprintf "P%d->P%d" src dst)
    (Critpath.blame_by_link dag bp) ~total ~top;
  blame_table "Blame by processor:"
    (fun p -> if p < 0 then "(none)" else Printf.sprintf "P%d" p)
    (Critpath.blame_by_node dag bp) ~total ~top;

  let segs = Critpath.top_segments dag bp ~k:top in
  Printf.printf "\nTop path segments:\n";
  if segs = [] then print_endline "  (none)"
  else begin
    Printf.printf "  %-12s %6s %6s %16s %14s %14s\n" "kind" "a" "b" "cycles"
      "t0" "t1";
    List.iter
      (fun (s : Critpath.seg) ->
        Printf.printf "  %-12s %6d %6d %16.0f %14.0f %14.0f\n" s.Critpath.seg_kind
          s.Critpath.seg_a s.Critpath.seg_b s.Critpath.seg_cycles
          s.Critpath.seg_t0 s.Critpath.seg_t1)
      segs
  end;

  if whatifs <> [] then begin
    Printf.printf "\nWhat-if predictions (causal replay with scaled costs):\n";
    List.iter
      (fun w ->
        let recorded, predicted, speedup = Critpath.predict dag [ w ] in
        Printf.printf "  %-28s end %16.0f -> %16.0f  speedup %5.2fx\n"
          (Critpath.describe_whatif w) recorded predicted speedup)
      whatifs;
    if List.length whatifs > 1 then begin
      let recorded, predicted, speedup = Critpath.predict dag whatifs in
      Printf.printf "  %-28s end %16.0f -> %16.0f  speedup %5.2fx\n"
        "(all combined)" recorded predicted speedup
    end
  end

(* ---- dispatch ---- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: ("-h" | "--help" | "help") :: _ -> help ()
  | _ :: "summary" :: rest -> summary_cmd rest
  | _ :: "critpath" :: rest -> critpath_cmd rest
  | _ :: (a :: _ as rest) when Sys.file_exists a || String.contains a '.' ->
      (* legacy spelling: acetrace TRACE.json [--top N] *)
      summary_cmd rest
  | _ :: a :: _ ->
      Printf.eprintf
        "acetrace: unknown subcommand '%s'\n\n%s\n" a subcommands;
      exit 2
  | _ -> usage ()
