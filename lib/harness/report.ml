(* Uniform report rows, the checks an experiment states over them, the
   JSON report, and the baseline gate that compares a run against a
   committed report. *)

module Json = Ace_obs.Json

type row = {
  experiment : string;
  name : string;
  wall : float; (* host seconds spent on the row *)
  sim : (string * float) list; (* simulated output: deterministic *)
  messages : (string * float) list; (* physical message counts *)
  host : (string * float) list; (* values derived from host walls *)
  results : float list; (* computed answers, for checks; not written *)
}

let row ?(messages = []) ?(host = []) ?(results = []) ~experiment ~name ~wall
    sim =
  { experiment; name; wall; sim; messages; host; results }

(* A missing key reads as nan, so a check over an incomplete row set
   fails rather than raising. *)
let sim r k = Option.value (List.assoc_opt k r.sim) ~default:nan
let msgs r k = Option.value (List.assoc_opt k r.messages) ~default:nan

let find rows name =
  match List.find_opt (fun r -> r.name = name) rows with
  | Some r -> r
  | None -> row ~experiment:"" ~name ~wall:nan []

type check = { series : string; ok : bool; detail : string }

let check series ok fmt =
  Printf.ksprintf (fun detail -> { series; ok; detail }) fmt

(* ---- the JSON report (hand-rolled; no JSON writer in the image) ---- *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.17g round-trips doubles exactly, so the report carries the same
   simulated values the baseline gate compares. *)
let obj fmt kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (escape k) (fmt v)) kvs)
  ^ "}"

let row_json r =
  let field key fmt = function
    | [] -> ""
    | kvs -> Printf.sprintf ", \"%s\": %s" key (obj fmt kvs)
  in
  Printf.sprintf
    "    {\"experiment\": \"%s\", \"name\": \"%s\", \"wall_s\": %.6f, \"sim_s\": %s%s%s}"
    (escape r.experiment) (escape r.name) r.wall
    (obj (Printf.sprintf "%.17g") r.sim)
    (field "net_messages" (Printf.sprintf "%.0f") r.messages)
    (field "host" (Printf.sprintf "%.17g") r.host)

let check_json c =
  Printf.sprintf "    {\"series\": \"%s\", \"ok\": %b, \"detail\": \"%s\"}"
    (escape c.series) c.ok (escape c.detail)

(* The commit the binary ran from; "unknown" outside a git checkout. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, c when c <> "" -> c
    | _ -> "unknown"
  with _ -> "unknown"

let write path ~nprocs ~jobs ~batch ~faults ~total_wall rows checks =
  let faults =
    match faults with
    | None -> "null"
    | Some s ->
        Printf.sprintf
          "{\"drop\": %.17g, \"dup\": %.17g, \"jitter\": %.17g, \"seed\": %d}"
          s.Ace_net.Faults.drop s.dup s.jitter s.seed
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"ace-bench-v4\",\n\
        \  \"git_commit\": \"%s\",\n\
        \  \"nprocs\": %d,\n\
        \  \"jobs\": %d,\n\
        \  \"batch\": %b,\n\
        \  \"faults\": %s,\n\
        \  \"total_wall_s\": %.6f,\n\
        \  \"rows\": [\n%s\n  ],\n\
        \  \"checks\": [\n%s\n  ]\n}\n"
        (escape (git_commit ()))
        nprocs jobs batch faults total_wall
        (String.concat ",\n" (List.map row_json rows))
        (String.concat ",\n" (List.map check_json checks)));
  Printf.printf "wrote %s\n" path

(* ---- the baseline gate ---- *)

type baseline = {
  total_wall : float;
  rows : (string * string * (string * float) list * (string * float) list) list;
      (* experiment, name, sim_s, net_messages *)
}

(* The run's total wall may exceed the baseline's by this fraction. *)
let wall_tolerance = 0.15

let parse_baseline text =
  let nums j key =
    match Json.member key j with
    | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs
    | _ -> []
  in
  let str j key = Option.bind (Json.member key j) Json.to_string in
  match Json.parse text with
  | exception Json.Parse_error m -> Error m
  | j -> (
      match
        ( Option.bind (Json.member "total_wall_s" j) Json.to_float,
          Option.bind (Json.member "rows" j) Json.to_list )
      with
      | Some total_wall, Some rows ->
          Ok
            {
              total_wall;
              rows =
                List.filter_map
                  (fun r ->
                    match (str r "experiment", str r "name") with
                    | Some e, Some n -> Some (e, n, nums r "sim_s", nums r "net_messages")
                    | _ -> None)
                  rows;
            }
      | _ -> Error "not a bench report (no total_wall_s or rows)")

(* Simulated output is deterministic, so every row shared with the
   baseline must carry the baseline's sim_s values and message counts
   exactly; and the run's total wall is bounded by the baseline's. *)
let baseline_checks b ~total_wall rows =
  let diverged =
    List.filter_map
      (fun r ->
        match
          List.find_opt (fun (e, n, _, _) -> e = r.experiment && n = r.name) b.rows
        with
        | None -> None
        | Some (_, _, bsim, bmsgs) ->
            let diff kind cur (k, bv) =
              match List.assoc_opt k cur with
              | Some cv when cv = bv -> None
              | cv ->
                  Some
                    (Printf.sprintf "%s[%s] %.17g -> %s" kind k bv
                       (match cv with
                       | Some v -> Printf.sprintf "%.17g" v
                       | None -> "missing"))
            in
            Some
              ( r,
                List.filter_map (diff "sim_s" r.sim) bsim
                @ List.filter_map (diff "net_messages" r.messages) bmsgs ))
      rows
  in
  let bad = List.filter (fun (_, d) -> d <> []) diverged in
  let limit = b.total_wall *. (1. +. wall_tolerance) in
  [
    check "baseline/identity" (bad = []) "%d shared rows, %d diverged%s"
      (List.length diverged) (List.length bad)
      (String.concat ""
         (List.map
            (fun (r, d) ->
              Printf.sprintf "; %s/%s: %s" r.experiment r.name (String.concat ", " d))
            bad));
    check "baseline/total-wall" (total_wall <= limit)
      "%.3fs vs baseline %.3fs (limit %.3fs = baseline x %.2f)" total_wall
      b.total_wall limit (1. +. wall_tolerance);
  ]
