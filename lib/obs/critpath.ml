(* Critical-path analysis over a recorded causal DAG (Ace_engine.Crit).

   The DAG's nodes are in creation order, which is topological: a node's
   predecessors always have smaller ids. Each node completes at

     finish(i) = max (finish(pred i) + cost i, finish(pred2 i))

   so walking backward from the latest node, always into the predecessor
   that determined the node's time, yields the run's critical path; the
   per-step gaps (node time minus chosen-predecessor time) partition the
   whole simulated duration into blame buckets — protocol-op classes,
   spaces, links, nodes. What-if analysis replays the recurrence forward
   with per-class cost scaling (causal-profiling style): the recorded
   dependence structure is held fixed while a chosen latency class
   shrinks or grows, and joins (barrier arrivals, ack fan-ins) re-decide
   which input is last.

   Coalesced compute nodes ("seg" kind) carry an exact per-(kind, space)
   cost split in [bd]. Distributing a seg node's path gap over its split
   is exact, not an approximation: a coalesced run has no external edges
   into its interior, so the critical path traverses it entirely or not
   at all. *)

type dag = {
  nprocs : int;
  kinds : string array; (* kind id -> name *)
  pred : int array;
  pred2 : int array;
  kind : int array;
  a : int array; (* proc / msg src *)
  b : int array; (* space / msg dst *)
  time : float array;
  cost : float array;
  heads : int array; (* per-proc final chain node *)
  bd : (int * int * float) array array;
      (* per-node (kind, space, cost) split; empty for plain nodes *)
  end_time : float;
}

let n_nodes d = Array.length d.kind
let kind_name d k = if k >= 0 && k < Array.length d.kinds then d.kinds.(k) else "?"

let kind_id d name =
  let r = ref (-1) in
  Array.iteri (fun i k -> if String.equal k name then r := i) d.kinds;
  !r

(* ---- construction ---- *)

module Crit = Ace_engine.Crit

(* Gather (node, kind, space, cost) rows into a per-node array. *)
let bd_of_rows n rows =
  let counts = Array.make n 0 in
  List.iter
    (fun (node, _, _, _) ->
      if node < 0 || node >= n then
        failwith "critpath: breakdown row for unknown node";
      counts.(node) <- counts.(node) + 1)
    rows;
  let bd = Array.map (fun c -> Array.make c (0, 0, 0.)) counts in
  let fill = Array.make n 0 in
  List.iter
    (fun (node, k, sp, cost) ->
      bd.(node).(fill.(node)) <- (k, sp, cost);
      fill.(node) <- fill.(node) + 1)
    rows;
  bd

let of_crit c =
  let pred, pred2, kind, a, b, time, cost = Crit.dump c in
  let n = Array.length kind in
  (* breakdown rows straight from the recorder's pool: count, then fill *)
  let m = Crit.bd_count c in
  let counts = Array.make n 0 in
  for j = 0 to m - 1 do
    let nd = Crit.bd_node_of c j in
    counts.(nd) <- counts.(nd) + 1
  done;
  let bd = Array.map (fun cnt -> Array.make cnt (0, 0, 0.)) counts in
  let fill = Array.make n 0 in
  for j = 0 to m - 1 do
    let nd = Crit.bd_node_of c j in
    bd.(nd).(fill.(nd)) <-
      (Crit.bd_kind_of c j, Crit.bd_space_of c j, Crit.bd_cost_of c j);
    fill.(nd) <- fill.(nd) + 1
  done;
  {
    nprocs = Crit.nprocs c;
    kinds = Crit.kinds ();
    pred;
    pred2;
    kind;
    a;
    b;
    time;
    cost;
    heads = Crit.heads_arr c;
    bd;
    end_time = Crit.end_time c;
  }

let jfail what = failwith ("critpath: bad or missing " ^ what)
let jmem what j = match Json.member what j with Some v -> v | None -> jfail what
let jint what v = match Json.to_int v with Some i -> i | None -> jfail what

let jfloat what v =
  match Json.to_float v with Some f -> f | None -> jfail what

let jstr what v = match Json.to_string v with Some s -> s | None -> jfail what
let jlist what v = match Json.to_list v with Some l -> l | None -> jfail what

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.Str "ace-critpath-v1") -> ()
  | Some _ | None ->
      failwith "critpath: not an ace-critpath-v1 file (bad or missing schema)");
  let nprocs = jint "nprocs" (jmem "nprocs" j) in
  let kinds =
    Array.of_list (List.map (jstr "kinds") (jlist "kinds" (jmem "kinds" j)))
  in
  let heads =
    Array.of_list (List.map (jint "heads") (jlist "heads" (jmem "heads" j)))
  in
  let rows = Array.of_list (jlist "nodes" (jmem "nodes" j)) in
  let n = Array.length rows in
  let row i =
    match rows.(i) with
    | Json.List l when List.length l = 7 -> Array.of_list l
    | _ -> failwith (Printf.sprintf "critpath: node %d is not a 7-element row" i)
  in
  let rowsa = Array.init n row in
  let geti i k = jint "node field" rowsa.(i).(k)
  and getf i k = jfloat "node field" rowsa.(i).(k) in
  let bd_rows =
    match Json.member "bd" j with
    | None -> []
    | Some v ->
        List.map
          (fun r ->
            match r with
            | Json.List [ nd; k; sp; cost ] ->
                ( jint "bd node" nd,
                  jint "bd kind" k,
                  jint "bd space" sp,
                  jfloat "bd cost" cost )
            | _ -> failwith "critpath: bd row is not a 4-element row")
          (jlist "bd" v)
  in
  let d =
    {
      nprocs;
      kinds;
      pred = Array.init n (fun i -> geti i 0);
      pred2 = Array.init n (fun i -> geti i 1);
      kind = Array.init n (fun i -> geti i 2);
      a = Array.init n (fun i -> geti i 3);
      b = Array.init n (fun i -> geti i 4);
      time = Array.init n (fun i -> getf i 5);
      cost = Array.init n (fun i -> getf i 6);
      heads;
      bd = bd_of_rows n bd_rows;
      end_time =
        (match Json.member "end_time" j with
        | Some v -> jfloat "end_time" v
        | None -> 0.);
    }
  in
  (* Topological sanity: refusing malformed input here keeps every later
     walk a plain array recursion with no cycle checks. *)
  if nprocs <= 0 then failwith "critpath: nprocs <= 0";
  if Array.length heads <> nprocs then
    failwith "critpath: heads length does not match nprocs";
  Array.iter
    (fun h -> if h < -1 || h >= n then failwith "critpath: head out of range")
    heads;
  let km = kind_id d "msg" in
  Array.iteri
    (fun i p ->
      (* -1 is "no predecessor"; anything else must be an earlier node *)
      let edge e = e < -1 || e >= i in
      if edge p || edge d.pred2.(i) then
        failwith (Printf.sprintf "critpath: node %d has a non-causal edge" i);
      if d.kind.(i) < 0 || d.kind.(i) >= Array.length kinds then
        failwith (Printf.sprintf "critpath: node %d has unknown kind" i);
      let proc x = x >= 0 && x < nprocs in
      if d.kind.(i) = km && not (proc d.a.(i) && proc d.b.(i)) then
        failwith
          (Printf.sprintf "critpath: message node %d has an endpoint outside 0..%d"
             i (nprocs - 1)))
    d.pred;
  d

let of_string s = of_json (Json.parse s)

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  if String.length (String.trim s) = 0 then
    failwith (Printf.sprintf "critpath: %s is empty" path);
  of_string s

(* ---- critical path ---- *)

(* The terminal is the latest node overall (trailing deliveries can outlive
   every fiber chain head). *)
let terminal d =
  let n = n_nodes d in
  if n = 0 then -1
  else begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if d.time.(i) > d.time.(!best) then best := i
    done;
    !best
  end

(* From [i], step into the predecessor that determined time(i): pred
   carries cost(i), pred2 is a zero-cost constraint. *)
let step d i =
  let p = d.pred.(i) and p2 = d.pred2.(i) in
  if p < 0 then p2
  else if p2 < 0 then p
  else if d.time.(p) +. d.cost.(i) >= d.time.(p2) then p
  else p2

(* Node ids on the critical path, terminal first. *)
let critical_path d =
  let rec walk acc i = if i < 0 then acc else walk (i :: acc) (step d i) in
  match terminal d with -1 -> [] | t -> List.rev (walk [] t)

(* The path with per-step blame: [(node, gap)] where gap is the simulated
   cycles this step contributed (time(node) - time(chosen pred)). The gaps
   sum to end-of-path time minus start-of-path time = the whole run. *)
let blamed_path d =
  let path = critical_path d in
  List.map
    (fun i ->
      let p = step d i in
      let gap = if p < 0 then 0. else d.time.(i) -. d.time.(p) in
      (i, gap))
    path

let total_blame bp = List.fold_left (fun acc (_, g) -> acc +. g) 0. bp

(* ---- blame buckets ---- *)

let acc_assoc tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tbl key (ref v)

let sorted_of_tbl tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (_, x) (_, y) -> compare y x)

(* Distribute node [i]'s path gap [g] over its cost split: [f kind space
   share] per entry. Plain nodes have one implicit entry (their own kind
   and [b]); seg nodes distribute proportionally to recorded cost — exact,
   since a coalesced run is on the path all-or-nothing. *)
let distribute d i g f =
  let bdl = d.bd.(i) in
  if Array.length bdl = 0 then f d.kind.(i) d.b.(i) g
  else begin
    let total = Array.fold_left (fun acc (_, _, c) -> acc +. c) 0. bdl in
    if total <= 0. then f d.kind.(i) d.b.(i) g
    else
      Array.iter (fun (k, sp, c) -> f k sp (g *. (c /. total))) bdl
  end

(* Cycles on the critical path per op class (kind name). *)
let blame_by_kind d bp =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, g) -> distribute d i g (fun k _ v -> acc_assoc tbl (kind_name d k) v))
    bp;
  sorted_of_tbl tbl

(* Cycles per space: compute intervals tagged with a space (protocol-op
   activities). Untagged path time (messages, barriers, app compute) is
   reported under space -1. *)
let msg_kind d = kind_id d "msg"
let wake_kind d = kind_id d "wake"
let barrier_kind d = kind_id d "barrier"

let blame_by_space d bp =
  let km = msg_kind d and kb = barrier_kind d and kw = wake_kind d in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, g) ->
      distribute d i g (fun k sp v ->
          let space = if k = km || k = kb || k = kw then -1 else sp in
          acc_assoc tbl space v))
    bp;
  sorted_of_tbl tbl

(* Cycles per link (src, dst): message nodes only. *)
let blame_by_link d bp =
  let km = msg_kind d in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, g) -> if d.kind.(i) = km then acc_assoc tbl (d.a.(i), d.b.(i)) g)
    bp;
  sorted_of_tbl tbl

(* Cycles per simulated node: compute/wake intervals belong to their proc,
   a message to its destination. *)
let blame_by_node d bp =
  let km = msg_kind d in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, g) ->
      let node = if d.kind.(i) = km then d.b.(i) else d.a.(i) in
      if node >= 0 then acc_assoc tbl node g)
    bp;
  sorted_of_tbl tbl

(* ---- top-k contiguous path segments ----

   Chronological runs of path steps sharing one blame bucket (kind plus,
   for messages, the link): "42k cycles of msg 3->17 starting at t=1.2M"
   is the triage-ready form of the path. *)

type seg = {
  seg_kind : string;
  seg_a : int; (* msg src, else proc; -1 n/a *)
  seg_b : int; (* msg dst / space; -1 n/a *)
  seg_cycles : float;
  seg_t0 : float;
  seg_t1 : float;
}

let segments d bp =
  let km = msg_kind d in
  let key i =
    let k = d.kind.(i) in
    if k = km then (k, d.a.(i), d.b.(i)) else (k, -1, d.b.(i))
  in
  let chron = List.rev bp in
  let flush acc = function
    | None -> acc
    | Some ((k, a, b), cyc, t0, t1) ->
        { seg_kind = kind_name d k; seg_a = a; seg_b = b; seg_cycles = cyc;
          seg_t0 = t0; seg_t1 = t1 }
        :: acc
  in
  let acc, open_seg =
    List.fold_left
      (fun (acc, open_seg) (i, g) ->
        let ki = key i in
        match open_seg with
        | Some (k, cyc, t0, _) when k = ki ->
            (acc, Some (k, cyc +. g, t0, d.time.(i)))
        | _ ->
            (flush acc open_seg, Some (ki, g, d.time.(i) -. g, d.time.(i))))
      ([], None) chron
  in
  List.rev (flush acc open_seg)

let top_segments d bp ~k =
  segments d bp
  |> List.sort (fun s1 s2 -> compare s2.seg_cycles s1.seg_cycles)
  |> List.filteri (fun i _ -> i < k)

(* ---- what-if replay ---- *)

type target =
  | Link of int option * int option (* src, dst; None = wildcard *)
  | Op of string (* kind name: "send_ovh", "msg", "start_read", ... *)
  | Space of int

type whatif = { target : target; factor : float }

(* Accepted specs: "link=SRC->DST:F", "link=*:F", "op=NAME:F",
   "space=N:F" — F a nonnegative float cost multiplier. *)
let parse_whatif s =
  let fail msg = Error (Printf.sprintf "bad what-if %S: %s" s msg) in
  match String.index_opt s '=' with
  | None -> fail "expected CLASS=TARGET:FACTOR"
  | Some eq -> (
      let cls = String.sub s 0 eq in
      let rest = String.sub s (eq + 1) (String.length s - eq - 1) in
      match String.rindex_opt rest ':' with
      | None -> fail "missing :FACTOR"
      | Some col -> (
          let tgt = String.sub rest 0 col in
          let fstr = String.sub rest (col + 1) (String.length rest - col - 1) in
          match float_of_string_opt fstr with
          | None -> fail "FACTOR is not a number"
          | Some f when f < 0. || not (Float.is_finite f) ->
              fail "FACTOR must be a finite nonnegative number"
          | Some factor -> (
              match cls with
              | "op" ->
                  if tgt = "" then fail "empty op name"
                  else Ok { target = Op tgt; factor }
              | "space" -> (
                  match int_of_string_opt tgt with
                  | Some sp -> Ok { target = Space sp; factor }
                  | None -> fail "space must be an integer")
              | "link" -> (
                  if tgt = "*" then Ok { target = Link (None, None); factor }
                  else
                    (* SRC->DST with * wildcards on either side *)
                    match String.index_opt tgt '-' with
                    | Some i
                      when i + 1 < String.length tgt && tgt.[i + 1] = '>' ->
                        let sside = String.sub tgt 0 i in
                        let dside =
                          String.sub tgt (i + 2) (String.length tgt - i - 2)
                        in
                        let parse_side = function
                          | "*" -> Ok None
                          | x -> (
                              match int_of_string_opt x with
                              | Some v -> Ok (Some v)
                              | None -> Error ())
                        in
                        (match (parse_side sside, parse_side dside) with
                        | Ok s, Ok t -> Ok { target = Link (s, t); factor }
                        | _ -> fail "link endpoints must be ints or *")
                    | _ -> fail "link target must be SRC->DST or *")
              | _ -> fail "class must be link, op or space")))

let describe_whatif w =
  let t =
    match w.target with
    | Link (None, None) -> "link=*"
    | Link (s, t) ->
        let side = function None -> "*" | Some v -> string_of_int v in
        Printf.sprintf "link=%s->%s" (side s) (side t)
    | Op name -> "op=" ^ name
    | Space sp -> Printf.sprintf "space=%d" sp
  in
  Printf.sprintf "%s:%g" t w.factor

(* The cost multiplier for one (kind, a, b) cost entry under [specs]
   (factors compose): a node's own fields, or one split entry of a
   coalesced node (where a link target can never hit — splits only hold
   compute, and messages never coalesce). *)
let entry_factor d specs ~k ~ea ~eb =
  let km = msg_kind d in
  List.fold_left
    (fun acc w ->
      let hit =
        match w.target with
        | Link (s, t) ->
            k = km
            && (match s with None -> true | Some v -> ea = v)
            && (match t with None -> true | Some v -> eb = v)
        | Op name -> String.equal (kind_name d k) name
        | Space sp -> k <> km && eb = sp
      in
      if hit then acc *. w.factor else acc)
    1. specs

(* Node [i]'s replacement cost under [specs]: scale each split entry (or
   the whole node when unsplit). *)
let scaled_cost d specs i =
  let bdl = d.bd.(i) in
  if Array.length bdl = 0 then
    entry_factor d specs ~k:d.kind.(i) ~ea:d.a.(i) ~eb:d.b.(i) *. d.cost.(i)
  else
    Array.fold_left
      (fun acc (k, sp, c) -> acc +. (entry_factor d specs ~k ~ea:d.a.(i) ~eb:sp *. c))
      0. bdl

(* Replay the recurrence forward with scaled costs; returns the predicted
   end time (max over per-proc chain heads and stray terminals — i.e. over
   every node, since a node's finish dominates its successors' inputs). *)
let replay d specs =
  let n = n_nodes d in
  let nt = Array.make n 0. in
  let worst = ref 0. in
  for i = 0 to n - 1 do
    let base =
      if d.pred.(i) >= 0 then nt.(d.pred.(i)) else d.time.(i) -. d.cost.(i)
    in
    let t = base +. scaled_cost d specs i in
    let t = if d.pred2.(i) >= 0 && nt.(d.pred2.(i)) > t then nt.(d.pred2.(i)) else t in
    nt.(i) <- t;
    if t > !worst then worst := t
  done;
  !worst

(* Predicted speedup of the run under [specs] (old time / new time). *)
let predict d specs =
  let old_end = match terminal d with -1 -> 0. | t -> d.time.(t) in
  let new_end = replay d specs in
  if new_end <= 0. then (old_end, new_end, Float.nan)
  else (old_end, new_end, old_end /. new_end)
