(* Small random SPMD programs over the region-DSM facade — the input
   language of the differential fuzzer.

   A program is a grid of epochs (separated by full-machine barriers) times
   processors, each cell a short list of region operations. The generator
   only emits data-race-free access patterns — per epoch a region is either
   read-only, owned by a single writer, or accessed under its lock — plus a
   deliberately racy Incr shape whose unlocked increments commute exactly
   (values are small integers, so float addition is exact and the final
   heap is schedule-independent even though the interleaving is not).

   Programs round-trip through a textual form (the body of a [.repro]
   file), and every value the fuzzer writes is a small integer so heap
   comparisons across protocols, schedules, fault patterns and batching
   modes are exact float equality, never tolerance. *)

module Gen = QCheck.Gen

type op =
  | Read of int
  | Write of int * float (* fill the region with value, value+1, ... *)
  | Locked_add of int * float (* lock; read slot 0; write back +delta *)
  | Incr of int (* unlocked slot-0 increment by exactly 1.0 *)

type epoch = {
  ops : op list array; (* per proc, program order *)
  flush : bool; (* collective re-[change_protocol] after this epoch *)
  switch : string option;
      (* collective mid-run [change_protocol] to a *different* protocol
         after this epoch's barrier; later epochs run under it until a
         [flush] returns the space to the run's base protocol. Generated
         targets are universal protocols (SC, MIGRATORY) so the program
         stays correct whatever the base protocol admits. *)
}

type t = {
  nprocs : int;
  nregions : int;
  rlen : int;
  homes : int array; (* region index -> home node *)
  epochs : epoch list;
}

let rid_of_op = function
  | Read r | Write (r, _) | Locked_add (r, _) | Incr r -> r

let validate p =
  if p.nprocs < 1 then invalid_arg "Prog: nprocs < 1";
  if p.nregions < 1 then invalid_arg "Prog: nregions < 1";
  if p.rlen < 1 then invalid_arg "Prog: rlen < 1";
  if Array.length p.homes <> p.nregions then invalid_arg "Prog: bad homes";
  Array.iter
    (fun h -> if h < 0 || h >= p.nprocs then invalid_arg "Prog: bad home")
    p.homes;
  List.iter
    (fun e ->
      if Array.length e.ops <> p.nprocs then invalid_arg "Prog: bad epoch";
      (match e.switch with
      | Some "" -> invalid_arg "Prog: empty switch target"
      | Some _ | None -> ());
      Array.iter
        (List.iter (fun op ->
             let r = rid_of_op op in
             if r < 0 || r >= p.nregions then invalid_arg "Prog: bad region"))
        e.ops)
    p.epochs

(* ---------- textual form (the body of a .repro file) ---------- *)

let op_to_string = function
  | Read r -> Printf.sprintf "r%d" r
  | Write (r, v) -> Printf.sprintf "w%d=%.17g" r v
  | Locked_add (r, v) -> Printf.sprintf "l%d+%.17g" r v
  | Incr r -> Printf.sprintf "i%d" r

let op_of_string s =
  let fail () = invalid_arg ("Prog.op_of_string: " ^ s) in
  if s = "" then fail ();
  let body = String.sub s 1 (String.length s - 1) in
  let split c =
    match String.index_opt body c with
    | Some i ->
        ( int_of_string (String.sub body 0 i),
          float_of_string (String.sub body (i + 1) (String.length body - i - 1))
        )
    | None -> fail ()
  in
  match s.[0] with
  | 'r' -> Read (int_of_string body)
  | 'i' -> Incr (int_of_string body)
  | 'w' ->
      let r, v = split '=' in
      Write (r, v)
  | 'l' ->
      let r, v = split '+' in
      Locked_add (r, v)
  | _ -> fail ()

let to_string p =
  let b = Buffer.create 256 in
  Printf.bprintf b "nprocs %d\n" p.nprocs;
  Printf.bprintf b "nregions %d\n" p.nregions;
  Printf.bprintf b "rlen %d\n" p.rlen;
  Printf.bprintf b "homes %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int p.homes)));
  List.iter
    (fun e ->
      Printf.bprintf b "epoch %d %s%s\n"
        (if e.flush then 1 else 0)
        (match e.switch with Some q -> "@" ^ q ^ " " | None -> "")
        (String.concat "|"
           (Array.to_list
              (Array.map
                 (fun ops -> String.concat "," (List.map op_to_string ops))
                 e.ops))))
    p.epochs;
  Buffer.contents b

let of_string s =
  let fail line = invalid_arg ("Prog.of_string: bad line: " ^ line) in
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let nprocs = ref 0
  and nregions = ref 0
  and rlen = ref 0
  and homes = ref [||]
  and epochs = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "nprocs"; n ] -> nprocs := int_of_string n
      | [ "nregions"; n ] -> nregions := int_of_string n
      | [ "rlen"; n ] -> rlen := int_of_string n
      | "homes" :: hs ->
          homes := Array.of_list (List.map int_of_string hs)
      | "epoch" :: fl :: rest ->
          let switch, rest =
            match rest with
            | tok :: more when String.length tok > 1 && tok.[0] = '@' ->
                (Some (String.sub tok 1 (String.length tok - 1)), more)
            | _ -> (None, rest)
          in
          let cells = String.concat " " rest in
          let ops =
            String.split_on_char '|' cells
            |> List.map (fun cell ->
                   if cell = "" then []
                   else
                     String.split_on_char ',' cell |> List.map op_of_string)
            |> Array.of_list
          in
          epochs := { ops; flush = int_of_string fl <> 0; switch } :: !epochs
      | _ -> fail line)
    lines;
  let p =
    {
      nprocs = !nprocs;
      nregions = !nregions;
      rlen = !rlen;
      homes = !homes;
      epochs = List.rev !epochs;
    }
  in
  validate p;
  p

(* ---------- access-pattern analysis (protocol applicability) ---------- *)

type features = {
  writes : bool; (* any write at all (plain, locked or incr) *)
  incr : bool;
  locked : bool;
  dyn_ok : bool; (* every written (region, epoch) has a single plain
                    writer and no other node touching it *)
  static_ok : bool; (* per region: one fixed writer, write epochs and
                       (stable-reader) read epochs disjoint *)
  write_once_ok : bool; (* home-only plain writes, all before any remote
                           read *)
  counter_ok : bool; (* the only writes are unlocked +1 increments *)
}

let features p =
  let writes = ref false and incr = ref false and locked = ref false in
  let plain = ref false in
  let dyn_ok = ref true
  and static_ok = ref true
  and write_once_ok = ref true in
  (* per region accumulators for the whole-program shapes *)
  let writer = Array.make p.nregions (-1) in
  let readers_sig = Array.make p.nregions None in
  (* (region, epoch) access sets for this epoch *)
  List.iter
    (fun e ->
      let wr = Array.make p.nregions [] (* plain writers *)
      and rd = Array.make p.nregions [] (* unlocked readers *)
      and lk = Array.make p.nregions [] (* locked accessors *)
      and ic = Array.make p.nregions [] in
      Array.iteri
        (fun proc ops ->
          List.iter
            (fun op ->
              let push a r = if not (List.mem proc a.(r)) then a.(r) <- proc :: a.(r) in
              match op with
              | Read r -> push rd r
              | Write (r, _) ->
                  writes := true;
                  plain := true;
                  push wr r
              | Locked_add (r, _) ->
                  writes := true;
                  locked := true;
                  push lk r
              | Incr r ->
                  writes := true;
                  incr := true;
                  push ic r)
            ops)
        e.ops;
      for r = 0 to p.nregions - 1 do
        let wn = List.length wr.(r)
        and rn = List.length rd.(r)
        and ln = List.length lk.(r)
        and inn = List.length ic.(r) in
        (* DYN_UPDATE: single plain writer per epoch, nobody else in the
           epoch (its single-writer producer/consumer assumption), no
           locked or incr traffic anywhere *)
        if ln > 0 || inn > 0 then dyn_ok := false;
        if wn > 1 then dyn_ok := false;
        if wn = 1 && (rn > 1 || (rn = 1 && rd.(r) <> wr.(r))) then
          dyn_ok := false;
        (* STATIC_UPDATE: one fixed writer over the whole program; write
           epochs carry no readers; read epochs always have the same
           reader set (stable consumers, learned in the first window) *)
        if ln > 0 || inn > 0 then static_ok := false;
        if wn > 0 then begin
          if wn > 1 then static_ok := false
          else begin
            let w = List.hd wr.(r) in
            if writer.(r) >= 0 && writer.(r) <> w then static_ok := false;
            writer.(r) <- w
          end;
          if rn > 0 then static_ok := false
        end
        else if rn > 0 then begin
          let sg = List.sort compare rd.(r) in
          match readers_sig.(r) with
          | None -> readers_sig.(r) <- Some sg
          | Some prev -> if prev <> sg then static_ok := false
        end;
        (* WRITE_ONCE: only the home writes, and every remote read comes
           after the last write epoch — tracked below via epoch indices *)
        if ln > 0 || inn > 0 then write_once_ok := false;
        List.iter
          (fun w -> if w <> p.homes.(r) then write_once_ok := false)
          wr.(r)
      done)
    p.epochs;
  (* write-once phase ordering: last write epoch < first remote-read epoch *)
  let last_write = Array.make p.nregions (-1)
  and first_remote_read = Array.make p.nregions max_int in
  List.iteri
    (fun ei e ->
      Array.iteri
        (fun proc ops ->
          List.iter
            (fun op ->
              match op with
              | Write (r, _) | Locked_add (r, _) | Incr r ->
                  last_write.(r) <- max last_write.(r) ei
              | Read r ->
                  if proc <> p.homes.(r) then
                    first_remote_read.(r) <- min first_remote_read.(r) ei)
            ops)
        e.ops)
    p.epochs;
  for r = 0 to p.nregions - 1 do
    if last_write.(r) >= first_remote_read.(r) then write_once_ok := false
  done;
  {
    writes = !writes;
    incr = !incr;
    locked = !locked;
    dyn_ok = (!dyn_ok && not !incr && not !locked);
    static_ok = (!static_ok && not !incr && not !locked);
    write_once_ok = (!write_once_ok && not !incr && not !locked);
    counter_ok = (not !plain && not !locked);
  }

(* Which registered protocols promise to run this access pattern correctly
   (their documented applicability contracts). Unlocked increments are a
   data race under every invalidation protocol — concurrent RMW sections
   can lose updates — so Incr programs are admitted only by COUNTER, the
   protocol whose home-serialized fetch-and-add makes them atomic (and
   whose final value the fuzzer predicts exactly). *)
(* User-authored protocols (combinator-built ones in particular) enroll by
   naming the built-in whose admissibility contract they inherit; unknown
   names stay inadmissible. *)
let admits_alias : (string, string) Hashtbl.t = Hashtbl.create 16

let register_admits_like ~name ~like =
  if Hashtbl.mem admits_alias name then
    invalid_arg ("Prog.register_admits_like: duplicate " ^ name);
  Hashtbl.replace admits_alias name like

let rec admits f = function
  | "SC" | "MIGRATORY" | "RACE_CHECK" | "CRL" -> not f.incr
  | "NULL" -> not f.writes
  | "DYN_UPDATE" | "BROKEN_DYN_UPDATE" -> f.dyn_ok
  | "STATIC_UPDATE" -> f.static_ok
  | "WRITE_ONCE" -> f.write_once_ok
  | "COUNTER" -> f.counter_ok
  | "PIPELINE" -> not f.incr
  | name -> (
      match Hashtbl.find_opt admits_alias name with
      | Some like -> admits f like
      | None -> false)

(* Auto-enroll every combinator-library protocol (and its broken canary)
   under the contract of the protocol named by its [admits_like]. *)
let () =
  List.iter
    (fun (e : Ace_combinator.Library.entry) ->
      register_admits_like
        ~name:e.Ace_combinator.Library.proto.Ace_runtime.Protocol.name
        ~like:e.Ace_combinator.Library.admits_like)
    (Ace_combinator.Library.broken :: Ace_combinator.Library.all)

(* The exact final heap of a pure-increment program (counter_ok): +1.0 is
   exact in floats and commutes, so slot 0 of each region ends at its
   increment count whatever the interleaving. *)
let predicted_counter_heap p =
  let heap = Array.init p.nregions (fun _ -> Array.make p.rlen 0.) in
  List.iter
    (fun e ->
      Array.iter
        (List.iter (function
          | Incr r -> heap.(r).(0) <- heap.(r).(0) +. 1.
          | Read _ | Write _ | Locked_add _ -> ()))
        e.ops)
    p.epochs;
  heap

(* ---------- generator ---------- *)

type shape = Generic | Static | Write_once | Counter | Locked_chain | Switch_heavy

let shapes =
  [| Generic; Generic; Static; Write_once; Counter; Locked_chain; Switch_heavy |]

(* Mid-run protocol transitions. Targets are the universal protocols — SC
   and MIGRATORY admit every DRF pattern — so a switch never invalidates
   the base protocol's admissibility; epochs after a switch simply run
   under the target until a flush returns to the base. Counter programs
   are excluded: their unlocked increments are only atomic under COUNTER,
   and a mid-run switch would hand them to a protocol that legally loses
   concurrent RMWs. *)
let gen_switch_target st = if Gen.bool st then "SC" else "MIGRATORY"

let add_switches ~prob10 epochs st =
  List.map
    (fun e ->
      if Gen.int_bound 9 st < prob10 then
        { e with switch = Some (gen_switch_target st) }
      else e)
    epochs

let gen_value st = float_of_int (1 + Gen.int_bound 7 st)

(* One generic DRF epoch: each region is read-only, single-writer or
   locked this epoch; each proc draws a few ops compatible with that. *)
let gen_generic_epoch ~nprocs ~nregions st =
  let mode =
    Array.init nregions (fun _ ->
        match Gen.int_bound 4 st with
        | 0 | 1 -> `Read_only
        | 2 | 3 -> `Writer (Gen.int_bound (nprocs - 1) st)
        | _ -> `Locked)
  in
  let ops =
    Array.init nprocs (fun proc ->
        let n = Gen.int_bound 3 st in
        List.init n (fun _ ->
            let r = Gen.int_bound (nregions - 1) st in
            match mode.(r) with
            | `Read_only -> Some (Read r)
            | `Locked -> Some (Locked_add (r, gen_value st))
            | `Writer w ->
                if proc = w then
                  if Gen.bool st then Some (Write (r, gen_value st))
                  else Some (Read r)
                else None)
        |> List.filter_map Fun.id)
  in
  { ops; flush = Gen.int_bound 4 st = 0; switch = None }

let generate ?shape ?nprocs () st =
  let shape =
    match shape with
    | Some s -> s
    | None -> shapes.(Gen.int_bound (Array.length shapes - 1) st)
  in
  (* Default: tiny machines, where schedule interleavings are densest.
     [?nprocs] pins the machine size instead — the scaling axis, which
     exercises the directory's bitset mode and the lazy per-link tables. *)
  let nprocs =
    match nprocs with
    | Some n -> if n < 2 then invalid_arg "Prog.generate: nprocs < 2" else n
    | None -> 2 + Gen.int_bound 2 st
  in
  let nregions = 1 + Gen.int_bound 2 st in
  let rlen = 1 + Gen.int_bound 2 st in
  let homes = Array.init nregions (fun _ -> Gen.int_bound (nprocs - 1) st) in
  let epochs =
    match shape with
    | Generic ->
        add_switches ~prob10:2
          (List.init
             (1 + Gen.int_bound 3 st)
             (fun _ -> gen_generic_epoch ~nprocs ~nregions st))
          st
    | Switch_heavy ->
        (* the transition-torture shape: generic DRF epochs where most
           epoch boundaries carry a mid-run change_protocol (and the usual
           flush draws still return to the base protocol in between) *)
        add_switches ~prob10:6
          (List.init
             (2 + Gen.int_bound 3 st)
             (fun _ -> gen_generic_epoch ~nprocs ~nregions st))
          st
    | Static ->
        (* fixed writer and stable reader set per region; alternating
           write / read phases, at least two cycles so the learning window
           closes while the pattern is still running *)
        let writer =
          Array.init nregions (fun _ -> Gen.int_bound (nprocs - 1) st)
        in
        let readers =
          Array.init nregions (fun r ->
              let rs =
                List.init nprocs Fun.id
                |> List.filter (fun p -> p <> writer.(r) && Gen.bool st)
              in
              if rs <> [] then rs
              else [ (writer.(r) + 1) mod nprocs ])
        in
        let cycles = 2 + Gen.int_bound 2 st in
        List.concat
          (List.init cycles (fun _ ->
               let wops =
                 Array.init nprocs (fun proc ->
                     List.init nregions Fun.id
                     |> List.filter_map (fun r ->
                            if writer.(r) = proc then
                              Some (Write (r, gen_value st))
                            else None))
               in
               let rops =
                 Array.init nprocs (fun proc ->
                     List.init nregions Fun.id
                     |> List.filter_map (fun r ->
                            if List.mem proc readers.(r) then Some (Read r)
                            else None))
               in
               [
                 { ops = wops; flush = false; switch = None };
                 { ops = rops; flush = Gen.int_bound 6 st = 0; switch = None };
               ]))
    | Write_once ->
        let init =
          {
            ops =
              Array.init nprocs (fun proc ->
                  List.init nregions Fun.id
                  |> List.filter_map (fun r ->
                         if homes.(r) = proc then
                           Some (Write (r, gen_value st))
                         else None));
            flush = false;

            switch = None;
          }
        in
        let read_epochs =
          List.init
            (1 + Gen.int_bound 2 st)
            (fun _ ->
              {
                ops =
                  Array.init nprocs (fun _ ->
                      let n = Gen.int_bound 2 st in
                      List.init n (fun _ ->
                          Read (Gen.int_bound (nregions - 1) st)));
                flush = false;

                switch = None;
              })
        in
        init :: read_epochs
    | Counter ->
        List.init
          (1 + Gen.int_bound 2 st)
          (fun _ ->
            {
              ops =
                Array.init nprocs (fun _ ->
                    let n = Gen.int_bound 2 st in
                    List.init n (fun _ ->
                        Incr (Gen.int_bound (nregions - 1) st)));
              flush = false;

              switch = None;
            })
    | Locked_chain ->
        List.init
          (1 + Gen.int_bound 2 st)
          (fun _ ->
            if Gen.int_bound 3 st = 0 then
              {
                ops =
                  Array.init nprocs (fun _ ->
                      let n = Gen.int_bound 2 st in
                      List.init n (fun _ ->
                          Read (Gen.int_bound (nregions - 1) st)));
                flush = false;

                switch = None;
              }
            else
              {
                ops =
                  Array.init nprocs (fun _ ->
                      let n = Gen.int_bound 2 st in
                      List.init n (fun _ ->
                          Locked_add
                            (Gen.int_bound (nregions - 1) st, gen_value st)));
                flush = Gen.int_bound 5 st = 0;
                switch = None;
              })
  in
  let p = { nprocs; nregions; rlen; homes; epochs } in
  validate p;
  p

(* ---------- shrinking ---------- *)

(* Greedy structural shrink candidates, biggest cuts first: drop a whole
   epoch, then drop a single op, then clear flush flags and shrink the
   payload length. The fuzzer keeps a candidate iff it still fails. *)
let shrink_candidates p =
  let nep = List.length p.epochs in
  let drop_epoch =
    if nep <= 1 then []
    else
      List.init nep (fun i ->
          { p with epochs = List.filteri (fun j _ -> j <> i) p.epochs })
  in
  let drop_op =
    List.concat
      (List.mapi
         (fun ei e ->
           List.concat
             (List.init p.nprocs (fun proc ->
                  List.init
                    (List.length e.ops.(proc))
                    (fun oi ->
                      let ops = Array.copy e.ops in
                      ops.(proc) <- List.filteri (fun j _ -> j <> oi) ops.(proc);
                      {
                        p with
                        epochs =
                          List.mapi
                            (fun j e' -> if j = ei then { e' with ops } else e')
                            p.epochs;
                      }))))
         p.epochs)
  in
  let unflush =
    if List.exists (fun e -> e.flush) p.epochs then
      [ { p with epochs = List.map (fun e -> { e with flush = false }) p.epochs } ]
    else []
  in
  let unswitch =
    if List.exists (fun e -> e.switch <> None) p.epochs then
      [
        {
          p with
          epochs = List.map (fun e -> { e with switch = None }) p.epochs;
        };
      ]
    else []
  in
  let shorter = if p.rlen > 1 then [ { p with rlen = 1 } ] else [] in
  drop_epoch @ drop_op @ unflush @ unswitch @ shorter

(* ---------- interpreter ---------- *)

(* Run the program on one simulated processor against any DSM facade.
   [flush_to] is the protocol name a flush epoch re-changes the space to
   (the space's own protocol — a detach/reattach round). Returns the final
   heap (one float array per region, in region-index order) on node 0.

   Region ids are exchanged by index over [allgather] so the heap layout is
   identical whatever order allocations interleave in. *)
let interp (type c)
    (module D : Ace_region.Dsm_intf.S
      with type ctx = c
       and type h = Ace_region.Store.meta) ~flush_to (p : t) (ctx : c) :
    float array array option =
  let me = D.me ctx in
  let mine = ref [] in
  for i = p.nregions - 1 downto 0 do
    if p.homes.(i) = me then begin
      let h = D.alloc ctx ~space:0 ~len:p.rlen in
      mine := (i, D.rid h) :: !mine
    end
  done;
  let packed =
    Array.of_list (List.concat_map (fun (i, r) -> [ i; r ]) !mine)
  in
  let parts = D.allgather ctx packed in
  let rid_of = Array.make p.nregions (-1) in
  Array.iter
    (fun part ->
      let k = ref 0 in
      while !k + 1 < Array.length part do
        rid_of.(part.(!k)) <- part.(!k + 1);
        k := !k + 2
      done)
    parts;
  let handles = Array.init p.nregions (fun i -> D.map ctx rid_of.(i)) in
  D.barrier ctx ~space:0;
  let sink = ref 0. in
  List.iter
    (fun e ->
      List.iter
        (fun op ->
          match op with
          | Read r ->
              let h = handles.(r) in
              D.start_read ctx h;
              sink := !sink +. (D.data ctx h).(0);
              D.end_read ctx h
          | Write (r, v) ->
              let h = handles.(r) in
              D.start_write ctx h;
              let d = D.data ctx h in
              for j = 0 to Array.length d - 1 do
                d.(j) <- v +. float_of_int j
              done;
              D.end_write ctx h
          | Locked_add (r, v) ->
              let h = handles.(r) in
              D.lock ctx h;
              D.start_read ctx h;
              let x = (D.data ctx h).(0) in
              D.end_read ctx h;
              D.start_write ctx h;
              (D.data ctx h).(0) <- x +. v;
              D.end_write ctx h;
              D.unlock ctx h
          | Incr r ->
              let h = handles.(r) in
              D.start_write ctx h;
              let d = D.data ctx h in
              d.(0) <- d.(0) +. 1.;
              D.end_write ctx h)
        e.ops.(me);
      D.barrier ctx ~space:0;
      (* A switch hands the space to a different protocol mid-run; a flush
         returns it to the run's base protocol (both collective). When an
         epoch carries both, the flush wins — the switch round still
         exercises a full transition. *)
      (match e.switch with
      | Some q -> D.change_protocol ctx ~space:0 q
      | None -> ());
      if e.flush then D.change_protocol ctx ~space:0 flush_to)
    p.epochs;
  ignore !sink;
  if me = 0 then
    Some
      (Array.map
         (fun h ->
           D.start_read ctx h;
           let c = Array.copy (D.data ctx h) in
           D.end_read ctx h;
           c)
         handles)
  else None
