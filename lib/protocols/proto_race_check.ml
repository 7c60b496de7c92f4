(* Data-race checking protocol (paper §2.1 cites Larus et al.'s LCM race
   checker as a protocol that "can be executed either before or after
   accesses"). It piggybacks coherence from the default SC protocol and
   additionally logs every access; at each barrier it reports regions that
   were written by one node and independently accessed by another within
   the epoch without both holding the region lock.

   The per-epoch log lives at the region's home conceptually; in the
   simulator it is a table shared by all per-node pstate slots. *)

module Protocol = Ace_runtime.Protocol
module Lang = Ace_runtime.Lang
module Store = Ace_region.Store
module Machine = Ace_engine.Machine

type access = {
  node : int;
  writer : bool;
  locked : bool;
  seq : int; (* arrival order within the epoch (global across regions) *)
}

(* [first]/[second] are the epoch's first racy pair on the region: [second]
   is the earliest access that completes a conflict with an earlier one,
   [first] the earliest access it conflicts with. Both are fixed by access
   arrival order, which the simulator makes deterministic — not by log
   iteration order. *)
type report = {
  rid : int;
  epoch : int;
  nodes : int list;
  first : access;
  second : access;
}

type shared_log = {
  mutable epoch : int;
  accesses : (int, access list) Hashtbl.t; (* rid -> epoch accesses *)
  mutable reports : report list;
  mutable holding : (int * int, unit) Hashtbl.t; (* (node, rid) -> lock held *)
  mutable arrived : int; (* barrier arrivals this epoch *)
  mutable ctr : int; (* next access seq *)
}

type Protocol.pstate += Race of shared_log

let shared (sp : Protocol.space) =
  match sp.Protocol.pstate.(0) with
  | Race s -> s
  | _ ->
      let s =
        {
          epoch = 0;
          accesses = Hashtbl.create 64;
          reports = [];
          holding = Hashtbl.create 16;
          arrived = 0;
          ctr = 0;
        }
      in
      sp.Protocol.pstate.(0) <- Race s;
      s

let record (ctx : Protocol.ctx) meta ~writer =
  let s = shared (Lang.space_of ctx meta) in
  let node = ctx.Protocol.proc.Machine.id in
  let locked = Hashtbl.mem s.holding (node, meta.Store.rid) in
  let prev =
    match Hashtbl.find_opt s.accesses meta.Store.rid with Some l -> l | None -> []
  in
  let seq = s.ctr in
  s.ctr <- s.ctr + 1;
  Hashtbl.replace s.accesses meta.Store.rid
    ({ node; writer; locked; seq } :: prev)

(* The access hooks log after the SC fetch; lock and unlock track which
   region locks each node holds. *)
let read (ctx : Protocol.ctx) meta = record ctx meta ~writer:false
let write (ctx : Protocol.ctx) meta = record ctx meta ~writer:true

let hold (ctx : Protocol.ctx) meta =
  let s = shared (Lang.space_of ctx meta) in
  Hashtbl.replace s.holding (ctx.Protocol.proc.Machine.id, meta.Store.rid) ()

let release (ctx : Protocol.ctx) meta =
  let s = shared (Lang.space_of ctx meta) in
  Hashtbl.remove s.holding (ctx.Protocol.proc.Machine.id, meta.Store.rid)

(* An epoch has a race on a region iff some unlocked access conflicts with
   an access from a different node (write/any or any/write). The reported
   pair is the first one in access arrival order: scanning forward, the
   earliest access that completes a conflict, paired with the earliest
   earlier access it conflicts with. *)
let conflict a b =
  a.node <> b.node && (a.writer || b.writer) && not (a.locked && b.locked)

let first_racy_pair accesses =
  (* the log is consed newest-first; rescan in arrival order *)
  let ordered = List.rev accesses in
  let rec scan seen = function
    | [] -> None
    | b :: rest -> (
        match List.find_opt (fun a -> conflict a b) (List.rev seen) with
        | Some a -> Some (a, b)
        | None -> scan (b :: seen) rest)
  in
  scan [] ordered

(* The epoch log is swept by the last processor to reach the barrier, so
   every access of the epoch has been recorded. Reports are ordered by the
   moment each race materialized (the completing access's seq), never by
   hash-table iteration order. *)
let barrier (ctx : Protocol.ctx) (sp : Protocol.space) =
  let s = shared sp in
  s.arrived <- s.arrived + 1;
  if s.arrived = Machine.nprocs ctx.Protocol.rt.Protocol.machine then begin
    s.arrived <- 0;
    let epoch_reports =
      Hashtbl.fold
        (fun rid accesses acc ->
          match first_racy_pair accesses with
          | None -> acc
          | Some (first, second) ->
              {
                rid;
                epoch = s.epoch;
                nodes =
                  List.sort_uniq compare (List.map (fun a -> a.node) accesses);
                first;
                second;
              }
              :: acc)
        s.accesses []
      |> List.sort (fun a b -> compare (a.second.seq, a.rid) (b.second.seq, b.rid))
    in
    s.reports <- List.rev_append epoch_reports s.reports;
    Hashtbl.reset s.accesses;
    s.ctr <- 0;
    s.epoch <- s.epoch + 1
  end

(* All reports so far, in chronological order (epoch, then the moment the
   race materialized). *)
let reports (sp : Protocol.space) = List.rev (shared sp).reports

(* The log is host-side bookkeeping: every hook that touches it is an
   [Observe], which compilation checks never moves the clock, and which
   keeps the protocol's calls where the program put them. *)
let spec =
  Lang.(
    define "RACE_CHECK" ~contract:Drf
      ~start_read:[ Fetch_shared; Observe read ]
      ~start_write:[ Fetch_exclusive; Observe write ]
      ~barrier:[ Observe barrier ]
      ~lock:(sc_lock @ [ Observe hold ])
      ~unlock:(Observe release :: sc_unlock)
      ~detach:[ Flush_space ])
