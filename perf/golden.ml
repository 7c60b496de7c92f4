(* The golden-output gate. For the paper's inputs (seed 0, and the
   compiler workload, which takes no seed) every cell's simulated seconds,
   physical messages and result must equal the committed golden values bit
   for bit. For other seeds there is no golden file: every pass must equal
   the warm-up pass, and the cells of one group (the two sides of a figure
   row, the five versions of a Table 4 kernel) must compute the same
   result. *)

module W = Workloads

type t = (string, W.outcome) Hashtbl.t

let default_path = "perf/golden.json"

(* [nan] in [got] is a field the run did not observe; it is skipped. *)
let mismatch ~(want : W.outcome) (got : W.outcome) =
  let same g w = Float.is_nan g || Float.equal g w in
  if same got.sim_s want.sim_s && same got.msgs want.msgs && same got.value want.value
  then None
  else
    Some
      (Printf.sprintf
         "sim_s %.17g (golden %.17g), msgs %.17g (golden %.17g), result %.17g \
          (golden %.17g)"
         got.sim_s want.sim_s got.msgs want.msgs got.value want.value)

(* Table 4's tolerance for results computed by differently optimised code. *)
let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a)

(* Names of the cells whose result differs from their group's first cell. *)
let disagreements (cells : W.cell array) (outs : W.outcome option array) =
  let first = Hashtbl.create 16 in
  let bad = ref [] in
  Array.iteri
    (fun i (c : W.cell) ->
      match (c.group, outs.(i)) with
      | Some g, Some o -> (
          match Hashtbl.find_opt first g with
          | None -> Hashtbl.add first g o.W.value
          | Some v -> if not (close v o.W.value) then bad := c.name :: !bad)
      | _ -> ())
    cells;
  List.rev !bad

(* ---- golden.json: {"cells": {"NAME": [sim_s, msgs, result], ...}} ---- *)

let num f = if Float.is_nan f then "null" else Printf.sprintf "%.17g" f

let to_string (cells : (string * W.outcome) list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\": \"ace-perf-golden-v1\", \"seed\": 0, \"cells\": {";
  List.iteri
    (fun i (name, (o : W.outcome)) ->
      Printf.bprintf b "%s\n  %S: [%s, %s, %s]"
        (if i = 0 then "" else ",")
        name (num o.sim_s) (num o.msgs) (num o.value))
    cells;
  Buffer.add_string b "\n}}\n";
  Buffer.contents b

let of_string text : t =
  let module J = Ace_obs.Json in
  let fail m = failwith ("golden file: " ^ m) in
  let t = Hashtbl.create 1024 in
  (match J.member "cells" (J.parse text) with
  | Some (J.Obj cells) ->
      List.iter
        (fun (name, v) ->
          let f = function J.Num x -> x | J.Null -> nan | _ -> fail name in
          match v with
          | J.List [ s; m; r ] ->
              Hashtbl.replace t name { W.sim_s = f s; msgs = f m; value = f r }
          | _ -> fail name)
        cells
  | _ -> fail "no \"cells\" object");
  t

let load path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string text
