(* Reliable, exactly-once, in-order delivery over the (possibly faulty)
   Active Messages layer.

   Each directed (src, dst) pair is a channel. The sender stamps every
   message with a per-channel sequence number and keeps it in an in-flight
   table; a timer retransmits with exponential backoff until the receiver's
   ACK lands (ACKs travel the same faulty network and are themselves
   repaired by retransmission). The receiver owes one ACK per copy it sees,
   suppresses duplicates, and releases handlers strictly in sequence order,
   parking early arrivals in a reorder buffer — so upper layers (the
   coherence building blocks, the collectives) keep their exactly-once,
   FIFO-per-link delivery model on a network that drops, duplicates and
   reorders.

   ACK delivery is piggybacked and cumulative rather than one dedicated
   message per copy: an owed ACK rides the next data message travelling the
   reverse link (net.acks.piggybacked), and a delayed-ACK timer covers
   quiet links by sending one dedicated message that settles every owed ACK
   at once (the fold beyond the first counted in net.acks.cumulative). An
   ACK lost with its carrier is regenerated when the un-ACKed data is
   retransmitted, so the repair loop is unchanged.

   When no fault model is attached to the underlying [Am.t], every entry
   point forwards straight to [Am] — no sequence numbers, no ACKs, no
   timers — so faultless runs are bit-identical to the historical
   transport. *)

module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Stats = Ace_engine.Stats

let sid_retransmits = Stats.intern "net.retransmits"
let sid_timeouts = Stats.intern "net.timeouts"
let sid_acks = Stats.intern "net.acks"
let sid_dup_suppressed = Stats.intern "net.dup_suppressed"
let sid_giveups = Stats.intern "net.giveups"
let sid_acks_piggybacked = Stats.intern "net.acks.piggybacked"
let sid_acks_cumulative = Stats.intern "net.acks.cumulative"
let fam_retrans_link = Stats.fam "net.retransmits.by_link"

(* Size of an ACK on the wire (sequence number + channel tag). *)
let ack_bytes = 8

type inflight = {
  i_seq : int;
  i_bytes : int;
  i_handler : time:float -> unit;
  mutable acked : bool;
  mutable attempts : int; (* transmissions so far, initial send included *)
  mutable rto : float; (* timeout armed after the latest transmission *)
}

type chan = {
  c_src : int;
  c_dst : int;
  mutable snext : int; (* sender: next sequence number *)
  inflight : (int, inflight) Hashtbl.t;
  mutable rnext : int; (* receiver: next sequence to release *)
  rbuf : (int, time:float -> unit) Hashtbl.t; (* early arrivals, by seq *)
  mutable ack_owed : inflight list; (* receiver: ACKs not yet delivered *)
  mutable ack_timer : bool; (* delayed-ACK timer armed *)
}

type t = {
  am : Am.t;
  nprocs : int;
  rto : float;
  backoff : float;
  max_retries : int;
  ack_delay : float; (* quiet-link delayed-ACK timer *)
  chans : (int, chan) Hashtbl.t; (* src * nprocs + dst, created on first
                                    use — faultless runs, which bypass the
                                    channel machinery entirely, never
                                    materialize any; faulty runs pay for
                                    the links actually exercised instead of
                                    an eager nprocs² table *)
}

let default_rto = 4000.
let default_backoff = 2.
let default_max_retries = 20
let default_ack_delay = 400.

let create ?(rto = default_rto) ?(backoff = default_backoff)
    ?(max_retries = default_max_retries) ?(ack_delay = default_ack_delay) am =
  if not (Float.is_finite rto) || rto <= 0. then
    invalid_arg "Reliable.create: rto must be positive";
  if not (Float.is_finite backoff) || backoff < 1. then
    invalid_arg "Reliable.create: backoff must be >= 1";
  if max_retries < 0 then invalid_arg "Reliable.create: negative max_retries";
  if not (Float.is_finite ack_delay) || ack_delay <= 0. then
    invalid_arg "Reliable.create: ack_delay must be positive";
  let n = Machine.nprocs (Am.machine am) in
  {
    am;
    nprocs = n;
    rto;
    backoff;
    max_retries;
    ack_delay;
    chans = Hashtbl.create 64;
  }

let am t = t.am
let machine t = Am.machine t.am
let cost t = Am.cost t.am

let channel t ~src ~dst =
  let ix = (src * t.nprocs) + dst in
  match Hashtbl.find_opt t.chans ix with
  | Some ch -> ch
  | None ->
      let ch =
        {
          c_src = src;
          c_dst = dst;
          snext = 0;
          inflight = Hashtbl.create 8;
          rnext = 0;
          rbuf = Hashtbl.create 8;
          ack_owed = [];
          ack_timer = false;
        }
      in
      Hashtbl.add t.chans ix ch;
      ch

(* The already-materialized reverse channel, if any: data we send dst-ward
   can carry the ACKs we owe for data that arrived from dst. *)
let rev_channel t ch =
  Hashtbl.find_opt t.chans ((ch.c_dst * t.nprocs) + ch.c_src)

(* Unacked messages across all channels (a diagnosis aid: nonzero after a
   run means senders gave up — see the deadlock report in Machine.run). *)
let pending t =
  Hashtbl.fold (fun _ ch acc -> acc + Hashtbl.length ch.inflight) t.chans 0

(* Settle delivered ACK records at the original sender: mark each in-flight
   entry acked and drop it from the channel's table (idempotent — a record
   may travel more than once when its carrier is duplicated or when a
   retransmitted copy regenerates it). *)
let settle ch ms =
  List.iter
    (fun m ->
      if not m.acked then begin
        m.acked <- true;
        Hashtbl.remove ch.inflight m.i_seq
      end)
    ms

(* Delayed-ACK timer body: one dedicated cumulative ACK message settles
   every ACK still owed on the channel (quiet reverse link — nothing came
   by to piggyback on). *)
let flush_acks t ch ~now =
  ch.ack_timer <- false;
  match ch.ack_owed with
  | [] -> () (* everything piggybacked in the meantime *)
  | ms ->
      ch.ack_owed <- [];
      (match ms with
      | _ :: _ :: _ ->
          Stats.add_id
            (Machine.stats (Am.machine t.am))
            sid_acks_cumulative
            (float_of_int (List.length ms - 1))
      | _ -> ());
      Am.send t.am ~now ~src:ch.c_dst ~dst:ch.c_src ~bytes:ack_bytes
        (fun ~time:_ -> settle ch ms)

(* Receiver side: record the ACK owed for this copy (the delayed timer or a
   reverse-link carrier will deliver it), then release handlers in sequence
   order. *)
let on_data t ch (m : inflight) ~time =
  let stats = Machine.stats (Am.machine t.am) in
  Stats.incr_id stats sid_acks;
  ch.ack_owed <- m :: ch.ack_owed;
  if not ch.ack_timer then begin
    ch.ack_timer <- true;
    let at = time +. t.ack_delay in
    Machine.schedule (Am.machine t.am) ~time:at (fun () ->
        flush_acks t ch ~now:at)
  end;
  if m.i_seq < ch.rnext || Hashtbl.mem ch.rbuf m.i_seq then
    Stats.incr_id stats sid_dup_suppressed
  else begin
    Hashtbl.add ch.rbuf m.i_seq m.i_handler;
    let rec release () =
      match Hashtbl.find_opt ch.rbuf ch.rnext with
      | None -> ()
      | Some h ->
          Hashtbl.remove ch.rbuf ch.rnext;
          ch.rnext <- ch.rnext + 1;
          h ~time;
          release ()
    in
    release ()
  end

let transmit t ch m ~now =
  (* Piggyback every ACK owed on the reverse link onto this data message:
     ack_bytes of header, no extra message. Drawn fresh per transmission,
     so a retransmitted carrier picks up whatever is owed now. *)
  match rev_channel t ch with
  | Some r when r.ack_owed <> [] ->
      let ms = r.ack_owed in
      let acks = List.length ms in
      r.ack_owed <- [];
      Stats.add_id
        (Machine.stats (Am.machine t.am))
        sid_acks_piggybacked (float_of_int acks);
      Machine.instant (Am.machine t.am) ~name:"ack_piggyback" ~cat:"net"
        ~tid:ch.c_src ~ts:now
        [ ("dst", ch.c_dst); ("acks", acks) ];
      Am.send t.am ~now ~src:ch.c_src ~dst:ch.c_dst
        ~bytes:(m.i_bytes + ack_bytes) (fun ~time ->
          settle r ms;
          on_data t ch m ~time)
  | _ ->
      Am.send t.am ~now ~src:ch.c_src ~dst:ch.c_dst ~bytes:m.i_bytes
        (fun ~time -> on_data t ch m ~time)

(* Arm the retransmit timer for the latest transmission. The event cannot
   be cancelled, so an already-ACKed message just lets it fire as a no-op;
   otherwise the timer retransmits, doubles the timeout and re-arms, until
   [max_retries] retransmissions have failed — then it abandons the message
   (counted in net.giveups) and the blocked requester shows up, with its
   clock, in Machine.run's deadlock report. *)
let rec arm t ch m ~at =
  Machine.schedule (Am.machine t.am) ~time:at (fun () ->
      if not m.acked then begin
        let stats = Machine.stats (Am.machine t.am) in
        Stats.incr_id stats sid_timeouts;
        if m.attempts - 1 >= t.max_retries then
          Stats.incr_id stats sid_giveups
        else begin
          m.attempts <- m.attempts + 1;
          Stats.incr_id stats sid_retransmits;
          Stats.incr_dim stats fam_retrans_link
            ((ch.c_src * t.nprocs) + ch.c_dst);
          Machine.instant (Am.machine t.am) ~name:"retransmit" ~cat:"net"
            ~tid:ch.c_src ~ts:at
            [ ("dst", ch.c_dst); ("seq", m.i_seq); ("attempt", m.attempts) ];
          transmit t ch m ~now:at;
          m.rto <- m.rto *. t.backoff;
          arm t ch m ~at:(at +. m.rto)
        end
      end)

let send t ~now ~src ~dst ~bytes handler =
  match Am.faults t.am with
  | None -> Am.send t.am ~now ~src ~dst ~bytes handler
  | Some _ ->
      if bytes < 0 then invalid_arg "Reliable.send: negative size";
      if src < 0 || src >= t.nprocs then invalid_arg "Reliable.send: bad src";
      if dst < 0 || dst >= t.nprocs then invalid_arg "Reliable.send: bad dst";
      let ch = channel t ~src ~dst in
      let m =
        {
          i_seq = ch.snext;
          i_bytes = bytes;
          i_handler = handler;
          acked = false;
          attempts = 1;
          rto = t.rto;
        }
      in
      ch.snext <- ch.snext + 1;
      Hashtbl.add ch.inflight m.i_seq m;
      transmit t ch m ~now;
      arm t ch m ~at:(now +. m.rto)

let send_from t (p : Machine.proc) ~dst ~bytes handler =
  Machine.advance_send p (Am.cost t.am).Cost_model.am_send_overhead;
  send t ~now:p.Machine.clock ~src:p.Machine.id ~dst ~bytes handler

let part = Am.part
let batching t = Am.batching t.am

(* Vectored send: coalescing (and its accounting) happens in [Am.coalesce];
   on a faulty network each destination group then travels as one reliably
   sequenced message, so a dropped vector is retransmitted whole. *)
let send_multi t ~now ~src parts =
  match Am.faults t.am with
  | None -> Am.send_multi t.am ~now ~src parts
  | Some _ ->
      List.iter
        (fun (dst, bytes, handler) -> send t ~now ~src ~dst ~bytes handler)
        (Am.coalesce t.am ~now ~src parts)

let send_multi_from t (p : Machine.proc) parts =
  if parts <> [] then begin
    Machine.advance_send p (Am.cost t.am).Cost_model.am_send_overhead;
    send_multi t ~now:p.Machine.clock ~src:p.Machine.id parts
  end

let rpc t p ~dst ~bytes handler =
  let reply = Ivar.create () in
  send_from t p ~dst ~bytes (fun ~time -> handler reply ~time);
  Machine.await p reply
