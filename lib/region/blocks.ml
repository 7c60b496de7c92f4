module Machine = Ace_engine.Machine
module Ivar = Ace_engine.Ivar
module Net = Ace_net.Reliable

(* A dirty-region update queued for write-combining: flushed to its home as
   part of one vectored message (see [queue_write_home]/[flush_writes]). *)
type wpend = {
  wp_meta : Store.meta;
  wp_payload : float array;
  wp_iv : unit Ivar.t; (* fills when the update lands in the master *)
}

type ctx = {
  net : Net.t;
      (* the reliable transport; all coherence and collective traffic goes
         through it so every protocol survives a lossy link unchanged *)
  store : Store.t;
  proc : Machine.proc;
  node : int; (* proc.id, cached *)
  mutable lcache : (Store.meta * Store.copy) option;
      (* one-slot memo of the last local-copy lookup: applications touch the
         same handle several times per access section (start, data, end), so
         this turns the repeated [copies.(node)] option-match into a pointer
         compare. A cache entry lives until a batched-invalidation or
         free/remap leg drops it ([Store.drop_copy]) — every such leg must
         call [reset_lcache] or the memo serves a stale, orphaned copy. *)
  mutable wpending : wpend list;
      (* write-combining queue, newest first; empty whenever batching is
         off. Every blocking entry point drains it before waiting so a
         queued update (and the lock release ordered behind it via
         [unlock_after]) can never be stranded behind this fiber's block. *)
}

let make_ctx net store proc =
  { net; store; proc; node = proc.Machine.id; lcache = None; wpending = [] }

let node ctx = ctx.node
let reset_lcache ctx = ctx.lcache <- None

(* The calling node's cache entry for [meta], creating it if absent. *)
let local_copy ctx meta =
  match ctx.lcache with
  | Some (m, c) when m == meta -> c
  | _ ->
      let c = Store.ensure_copy_c meta ~node:ctx.node in
      ctx.lcache <- Some (meta, c);
      c

module Stats = Ace_engine.Stats

let sid_read_miss = Stats.intern "coh.read_miss"
let sid_write_miss = Stats.intern "coh.write_miss"
let sid_update_push = Stats.intern "coh.update_push"
let sid_static_push = Stats.intern "coh.static_push"
let sid_inval_batch = Stats.intern "coh.inval_batch"
let sid_late_forward = Stats.intern "coh.late_forward"
let sid_write_combined = Stats.intern "coh.write_combined"
let sid_bulk_fetch = Stats.intern "coh.bulk_fetch"
let fam_read_miss_space = Stats.fam "coh.read_miss.by_space"
let fam_write_miss_space = Stats.fam "coh.write_miss.by_space"
let fam_miss_region = Stats.fam "coh.miss.by_region"
let fam_inval_space = Stats.fam "coh.inval.by_space"

let hist_inval_fanout =
  Stats.hist "coh.inval_fanout" ~limits:[| 0.; 1.; 2.; 4.; 8.; 16.; 32. |]

(* Miss accounting: total, per space (CRL regions live in space -1 and skip
   the space dimension), and per region. *)
let count_miss stats sid fam_space (meta : Store.meta) =
  Stats.incr_id stats sid;
  if meta.Store.space >= 0 then Stats.incr_dim stats fam_space meta.Store.space;
  Stats.incr_dim stats fam_miss_region meta.Store.rid

let ctl_bytes = 16
let data_bytes meta = Store.bytes meta + ctl_bytes

(* Home-side transaction serialization. A transaction runs as a chain of
   message handlers; [dir_enter] starts it when the directory is free and
   [dir_exit] starts the next queued one. *)
let dir_enter (meta : Store.meta) ~time k =
  let d = meta.Store.dir in
  if d.Store.busy then Queue.push k d.Store.pending
  else begin
    d.Store.busy <- true;
    k time
  end

let dir_exit (meta : Store.meta) ~time =
  let d = meta.Store.dir in
  match Queue.take_opt d.Store.pending with
  | Some k -> k time
  | None -> d.Store.busy <- false

(* Every fiber-side entry point below runs at the caller's true clock and
   may push events, so it rejects a processor whose charges are still
   deferred ([Machine.defer]): its caller must settle first. One field
   read. *)
let[@inline never] reject_pending name =
  invalid_arg (name ^ ": called with deferred charges pending")

let settled ctx name = if Machine.pending ctx.proc then reject_pending name

(* CRL-style access atomicity: between start_* and the matching end_*, a
   copy's data must stay stable and valid, so coherence actions that arrive
   mid-access are parked on the copy and run when the access ends (at no
   earlier virtual time than they arrived). *)

let begin_access ctx meta ~write =
  settled ctx "Blocks.begin_access";
  let c = local_copy ctx meta in
  if write then c.Store.writers <- c.Store.writers + 1
  else c.Store.readers <- c.Store.readers + 1

let release_deferred (c : Store.copy) ~time =
  if c.Store.readers = 0 && c.Store.writers = 0 then
    match c.Store.deferred with
    | [] -> ()
    | ds ->
        c.Store.deferred <- [];
        List.iter (fun f -> f time) (List.rev ds)

let end_access ctx meta ~write =
  settled ctx "Blocks.end_access";
  let c = local_copy ctx meta in
  if write then c.Store.writers <- c.Store.writers - 1
  else c.Store.readers <- c.Store.readers - 1;
  release_deferred c ~time:ctx.proc.Machine.clock

let run_or_defer (c : Store.copy) ~time f =
  if c.Store.readers > 0 || c.Store.writers > 0 then
    c.Store.deferred <- (fun tend -> f (Float.max tend time)) :: c.Store.deferred
  else f time

(* Grant-to-resume pinning. A fetch's grant applies at message-delivery
   time, but the fetching fiber's resumption is a *queued* event — and the
   transaction-closing [dir_exit] starts the next queued directory
   transaction synchronously in between. Without a pin, that transaction's
   recall (or invalidation) would find readers = writers = 0 on the
   just-granted copy and steal it before the requester has even observed
   it; the requester then runs its access section against a dead copy and
   its write never reaches the master (a lost update). So the grant pins
   the copy like a one-access hold, and the requester releases the pin
   after resuming. Deferred actions released by an unpin are *rescheduled*
   rather than run inline: the [begin_access] that normally follows a
   fetch runs later in the same event, so an inline recall would reopen
   the very window the pin closes. Uncontended runs never defer, so the
   pin is a pure counter twiddle there. *)
let pin (c : Store.copy) ~write =
  if write then c.Store.writers <- c.Store.writers + 1
  else c.Store.readers <- c.Store.readers + 1

let unpin ctx (c : Store.copy) ~write =
  if write then c.Store.writers <- c.Store.writers - 1
  else c.Store.readers <- c.Store.readers - 1;
  if c.Store.readers = 0 && c.Store.writers = 0 && c.Store.deferred <> [] then begin
    let time = ctx.proc.Machine.clock in
    Machine.schedule
      (Net.machine ctx.net)
      ~time
      (fun () -> release_deferred c ~time)
  end

(* Run [body] as a home-side directory transaction on behalf of the calling
   fiber. At the home the request leg is free (a local table operation);
   remotely it is a real request message. [body ~time finish] must call
   [finish ~time] exactly once; the fiber resumes at that time. The finish
   at the requester doubles as the transaction-closing ack (equivalent to an
   instantaneous ack message; it prevents a later invalidation from
   overtaking the data grant without paying a fourth network hop). *)
let transact ctx meta body =
  let n = node ctx in
  let home = meta.Store.home in
  if n = home then begin
    let iv = Ivar.create () in
    dir_enter meta ~time:ctx.proc.Machine.clock (fun time ->
        body ~time (fun ~time ->
            Ivar.fill iv ~time ();
            dir_exit meta ~time));
    Machine.await ctx.proc iv
  end
  else
    Net.rpc ctx.net ctx.proc ~dst:home ~bytes:ctl_bytes (fun reply ~time ->
        dir_enter meta ~time (fun time ->
            body ~time (fun ~time ->
                Ivar.fill reply ~time ();
                dir_exit meta ~time)))

(* An update [buf] lands in the master: the home's copy (an alias of the
   master) is valid again and the home a sharer. *)
let land_home meta buf =
  let home = meta.Store.home in
  Store.blit_in meta ~buf ~at:0 meta.Store.master;
  (match Store.copy_of meta ~node:home with
  | Some c -> if c.Store.cstate = Store.Invalid then c.Store.cstate <- Store.Shared
  | None -> ());
  Dir.add meta.Store.dir.Store.sharers home

(* The master takes a remote exclusive owner's data [buf] and ownership
   returns to the home. (The home's copy cannot be Exclusive while another
   node owns the region, so it ends up Shared.) *)
let take_owner_data meta buf =
  meta.Store.dir.Store.owner <- -1;
  land_home meta buf

(* A consumer's copy takes a pushed update [buf] once any access section
   open on it ends; an Invalid copy becomes Shared. *)
let refresh meta (c : Store.copy) ~time buf =
  run_or_defer c ~time (fun _ ->
      Store.blit_in meta ~buf ~at:0 c.Store.cdata;
      if c.Store.cstate = Store.Invalid then c.Store.cstate <- Store.Shared)

(* A home write (pipelined or write-combined) lands in the master under the
   directory and fills [iv]. *)
let land_write meta buf iv ~time =
  dir_enter meta ~time (fun time ->
      Store.blit_in meta ~buf ~at:0 meta.Store.master;
      Ivar.fill iv ~time ();
      dir_exit meta ~time)

(* A fan-in whose completion fills [iv]. *)
let fan_filling ctx iv =
  Machine.Fanin.create ctx.proc.Machine.machine (fun time -> Ivar.fill iv ~time ())

(* Recall the exclusive owner's data into the master. [downgrade] is the
   state the owner's copy is left in. Calls [k] at the home once the master
   is fresh. Must run inside a directory transaction. *)
let recall_owner ctx meta ~time ~downgrade k =
  let d = meta.Store.dir in
  let o = d.Store.owner in
  if o < 0 then k time
  else begin
    let home = meta.Store.home in
    if o = home then begin
      (* The master already aliases the owner's data. *)
      let c =
        match Store.copy_of meta ~node:o with Some c -> c | None -> assert false
      in
      run_or_defer c ~time (fun time ->
          c.Store.cstate <- downgrade;
          if downgrade = Store.Invalid then Dir.remove d.Store.sharers o;
          d.Store.owner <- -1;
          k time)
    end
    else
      Net.send ctx.net ~now:time ~src:home ~dst:o ~bytes:ctl_bytes (fun ~time ->
          let oc =
            match Store.copy_of meta ~node:o with
            | Some c -> c
            | None -> assert false
          in
          run_or_defer oc ~time (fun time ->
              assert (oc.Store.cstate = Store.Exclusive);
              oc.Store.cstate <- downgrade;
              if downgrade = Store.Invalid then Dir.remove d.Store.sharers o;
              let snapshot = Store.snapshot meta ~src:oc.Store.cdata in
              Net.send ctx.net ~now:time ~src:o ~dst:home ~bytes:(data_bytes meta)
                (fun ~time ->
                  take_owner_data meta snapshot;
                  k time)))
  end

let stats ctx = Machine.stats (Net.machine ctx.net)

(* ---- write-combining (batching): queued dirty-region updates ---- *)

(* One vectored-message part per queued update: at the home, land the
   payload in the master under the directory lock and signal the writer's
   ivar (which also releases any lock ordered behind it via
   [unlock_after]). *)
let wpart w =
  let meta = w.wp_meta in
  Net.part ~dst:meta.Store.home ~bytes:(data_bytes meta) (fun ~time ->
      land_write meta w.wp_payload w.wp_iv ~time)

(* Flush the queue as one vectored send: same-home updates coalesce into a
   single bulk message, and the whole flush charges one sender overhead. *)
let flush_writes ctx =
  settled ctx "Blocks.flush_writes";
  match ctx.wpending with
  | [] -> ()
  | ws ->
      ctx.wpending <- [];
      Net.send_multi_from ctx.net ctx.proc (List.rev_map wpart ws)

(* Drain before blocking: a parked update's ivar may gate another node's
   progress (combined update+release), so no fiber may block with a
   non-empty queue. Free when the queue is empty — always, with batching
   off. *)
let drain ctx = if ctx.wpending <> [] then flush_writes ctx

(* Queue a dirty-region update for the next flush — batching mode's
   write-combining replacement for [write_home_async]; home writes land via
   aliasing immediately. The returned ivar fills when the master holds the
   update. *)
let queue_write_home ctx meta =
  settled ctx "Blocks.queue_write_home";
  let n = node ctx in
  let copy = local_copy ctx meta in
  let done_iv = Ivar.create () in
  if n = meta.Store.home then Ivar.fill done_iv ~time:ctx.proc.Machine.clock ()
  else begin
    Stats.incr_id (stats ctx) sid_write_combined;
    let payload = Store.snapshot meta ~src:copy.Store.cdata in
    ctx.wpending <-
      { wp_meta = meta; wp_payload = payload; wp_iv = done_iv } :: ctx.wpending
  end;
  done_iv

let fetch_shared ctx meta =
  settled ctx "Blocks.fetch_shared";
  let n = node ctx in
  let copy = local_copy ctx meta in
  if copy.Store.cstate <> Store.Invalid then ()
  else begin
    drain ctx;
    let home = meta.Store.home in
    count_miss (stats ctx) sid_read_miss fam_read_miss_space meta;
    Machine.advance ctx.proc (Net.cost ctx.net).Ace_net.Cost_model.miss_overhead;
    transact ctx meta (fun ~time finish ->
        recall_owner ctx meta ~time ~downgrade:Store.Shared (fun time ->
            Dir.add meta.Store.dir.Store.sharers n;
            if n = home then begin
              (* master aliased: fresh after the recall *)
              copy.Store.cstate <- Store.Shared;
              pin copy ~write:false;
              finish ~time
            end
            else begin
              let snapshot = Store.snapshot meta ~src:meta.Store.master in
              Net.send ctx.net ~now:time ~src:home ~dst:n ~bytes:(data_bytes meta)
                (fun ~time ->
                  Store.blit_in meta ~buf:snapshot ~at:0 copy.Store.cdata;
                  copy.Store.cstate <- Store.Shared;
                  pin copy ~write:false;
                  finish ~time)
            end));
    unpin ctx copy ~write:false
  end

(* Batched read misses (bulk prefetch): one vectored request per home node
   covering every Invalid region in [metas], answered by one bulk data
   grant per home carrying all the requested payloads — the
   protocol-driven bulk transfer the paper's customizable protocols make
   fall out of user-specified granularity. Misses are still counted per
   region, but the requester-side miss overhead is charged once for the
   whole batch. *)
let fetch_shared_batch ctx metas =
  settled ctx "Blocks.fetch_shared_batch";
  drain ctx;
  let n = node ctx in
  let missing =
    List.filter
      (fun (meta : Store.meta) ->
        n <> meta.Store.home
        && (local_copy ctx meta).Store.cstate = Store.Invalid)
      metas
  in
  if missing <> [] then begin
    let st = stats ctx in
    List.iter
      (fun meta -> count_miss st sid_read_miss fam_read_miss_space meta)
      missing;
    Stats.incr_id st sid_bulk_fetch;
    Machine.advance ctx.proc (Net.cost ctx.net).Ace_net.Cost_model.miss_overhead;
    (* Group by home in first-appearance order without touching nprocs:
       batches are short, so a linear assoc scan beats a per-node array. *)
    let by_home = ref [] in
    List.iter
      (fun (meta : Store.meta) ->
        let h = meta.Store.home in
        if List.mem_assoc h !by_home then
          by_home :=
            List.map
              (fun (h', ms) -> if h' = h then (h', meta :: ms) else (h', ms))
              !by_home
        else by_home := (h, [ meta ]) :: !by_home)
      missing;
    let homes = List.rev_map (fun (h, ms) -> (h, List.rev ms)) !by_home in
    let done_iv = Ivar.create () in
    let fan = fan_filling ctx done_iv in
    let parts =
      List.map
        (fun (h, group) ->
          Machine.Fanin.expect fan;
          let total =
            List.fold_left (fun a (m : Store.meta) -> a + m.Store.len) 0 group
          in
          Net.part ~dst:h ~bytes:ctl_bytes (fun ~time ->
              (* At the home: walk the group's directories in order,
                 recalling any exclusive owners and collecting fresh master
                 data into one payload, then answer with a single bulk
                 grant. *)
              let payload = Array.make total 0. in
              let rec collect ~time at = function
                | [] ->
                    Net.send ctx.net ~now:time ~src:h ~dst:n
                      ~bytes:((8 * total) + ctl_bytes) (fun ~time ->
                        let at = ref 0 in
                        List.iter
                          (fun (meta : Store.meta) ->
                            let c = Store.ensure_copy_c meta ~node:n in
                            Store.blit_in meta ~buf:payload ~at:!at
                              c.Store.cdata;
                            c.Store.cstate <- Store.Shared;
                            at := !at + meta.Store.len)
                          group;
                        Machine.Fanin.arrive fan ~time)
                | (meta : Store.meta) :: rest ->
                    dir_enter meta ~time (fun time ->
                        recall_owner ctx meta ~time ~downgrade:Store.Shared
                          (fun time ->
                            Dir.add meta.Store.dir.Store.sharers n;
                            Store.blit_out meta ~src:meta.Store.master ~at
                              payload;
                            dir_exit meta ~time;
                            collect ~time (at + meta.Store.len) rest))
              in
              collect ~time 0 group))
        homes
    in
    Net.send_multi_from ctx.net ctx.proc parts;
    Machine.await ctx.proc done_iv
  end

let fetch_exclusive ctx meta =
  settled ctx "Blocks.fetch_exclusive";
  let n = node ctx in
  let copy = local_copy ctx meta in
  let d = meta.Store.dir in
  if copy.Store.cstate = Store.Exclusive && d.Store.owner = n then ()
  else begin
    drain ctx;
    let home = meta.Store.home in
    count_miss (stats ctx) sid_write_miss fam_write_miss_space meta;
    Machine.advance ctx.proc (Net.cost ctx.net).Ace_net.Cost_model.miss_overhead;
    transact ctx meta (fun ~time finish ->
        recall_owner ctx meta ~time ~downgrade:Store.Invalid (fun time ->
            let had_valid_copy = copy.Store.cstate = Store.Shared in
            let grant time =
              d.Store.owner <- n;
              Dir.add d.Store.sharers n;
              if n = home then begin
                copy.Store.cstate <- Store.Exclusive;
                pin copy ~write:true;
                finish ~time
              end
              else begin
                let bytes = if had_valid_copy then ctl_bytes else data_bytes meta in
                let snapshot =
                  if had_valid_copy then [||] else Store.snapshot meta ~src:meta.Store.master
                in
                Net.send ctx.net ~now:time ~src:home ~dst:n ~bytes (fun ~time ->
                    if not had_valid_copy then
                      Store.blit_in meta ~buf:snapshot ~at:0 copy.Store.cdata;
                    copy.Store.cstate <- Store.Exclusive;
                    pin copy ~write:true;
                    finish ~time)
              end
            in
            (* Invalidate every sharer except the requester, gathering acks;
               a sharer mid-access defers its invalidation (and thus its
               ack) until the access ends. Victims are counted up front, as
               the home's own invalidation may ack at once; the send loop
               below revisits the same nodes (invalidations only clear bits
               the loop filters out anyway). *)
            let fan = Machine.Fanin.create ctx.proc.Machine.machine grant in
            Store.iter_sharers meta ~except:n (fun s ->
                if s <> home then Machine.Fanin.expect fan);
            let invalidate_home = Dir.mem d.Store.sharers home && home <> n in
            if invalidate_home then Machine.Fanin.expect fan;
            let victims = Machine.Fanin.pending fan in
            let st = stats ctx in
            Stats.observe st hist_inval_fanout (float_of_int victims);
            if meta.Store.space >= 0 && victims > 0 then
              Stats.add_dim st fam_inval_space meta.Store.space
                (float_of_int victims);
            if victims = 0 then grant time
            else begin
              if invalidate_home then begin
                match Store.copy_of meta ~node:home with
                | Some c ->
                    run_or_defer c ~time (fun time ->
                        c.Store.cstate <- Store.Invalid;
                        Dir.remove d.Store.sharers home;
                        Machine.Fanin.arrive fan ~time)
                | None ->
                    Dir.remove d.Store.sharers home;
                    Machine.Fanin.arrive fan ~time
              end;
              Store.iter_sharers meta ~except:n (fun s ->
                  if s <> home then
                    Net.send ctx.net ~now:time ~src:home ~dst:s ~bytes:ctl_bytes
                      (fun ~time ->
                        let act time =
                          (match Store.copy_of meta ~node:s with
                          | Some c -> c.Store.cstate <- Store.Invalid
                          | None -> ());
                          (* The sharer bit clears when the ack lands: the
                             sharer set is the home's state, and between
                             invalidation and ack the busy directory keeps
                             every reader of it out anyway. *)
                          Net.send ctx.net ~now:time ~src:s ~dst:home
                            ~bytes:ctl_bytes (fun ~time ->
                              Dir.remove d.Store.sharers s;
                              Machine.Fanin.arrive fan ~time)
                        in
                        match Store.copy_of meta ~node:s with
                        | Some c -> run_or_defer c ~time act
                        | None -> act time))
            end));
    unpin ctx copy ~write:true
  end

let writeback ctx meta =
  settled ctx "Blocks.writeback";
  let n = node ctx in
  let d = meta.Store.dir in
  if d.Store.owner <> n then ()
  else begin
    drain ctx;
    let copy =
      match Store.copy_of meta ~node:n with Some c -> c | None -> assert false
    in
    let home = meta.Store.home in
    if n = home then
      transact ctx meta (fun ~time finish ->
          d.Store.owner <- -1;
          copy.Store.cstate <- Store.Shared;
          finish ~time)
    else begin
      let snapshot = Store.snapshot meta ~src:copy.Store.cdata in
      Net.rpc ctx.net ctx.proc ~dst:home ~bytes:(data_bytes meta)
        (fun reply ~time ->
          dir_enter meta ~time (fun time ->
              take_owner_data meta snapshot;
              copy.Store.cstate <- Store.Shared;
              Ivar.fill reply ~time ();
              dir_exit meta ~time))
    end
  end

let flush ctx meta =
  settled ctx "Blocks.flush";
  let n = node ctx in
  writeback ctx meta;
  if n <> meta.Store.home then begin
    match Store.copy_of meta ~node:n with
    | None -> ()
    | Some copy ->
        if copy.Store.cstate <> Store.Invalid then begin
          copy.Store.cstate <- Store.Invalid;
          transact ctx meta (fun ~time finish ->
              Dir.remove meta.Store.dir.Store.sharers n;
              finish ~time)
        end
  end

(* Batched flush of this node's involvement in [metas] (region free/remap
   and the [change_protocol] detach storm): writebacks and sharer-drops for
   regions with the same home coalesce into one vectored message under one
   sender overhead, quiescent cache entries are dropped outright (memory
   back to the GC — the zero-copy reclaim path), and the local-copy memo
   is reset so it cannot serve a dropped entry. Must be called from a
   quiescent point: no active access sections on these regions and no
   concurrent transaction recalling this node (the change-protocol barrier
   preceding the detach provides exactly this). *)
let invalidate_batch ctx metas =
  settled ctx "Blocks.invalidate_batch";
  drain ctx;
  reset_lcache ctx;
  let n = node ctx in
  let done_iv = Ivar.create () in
  let fan = fan_filling ctx done_iv in
  let parts = ref [] in
  let home_owned = ref [] in
  List.iter
    (fun (meta : Store.meta) ->
      let home = meta.Store.home in
      if n = home then begin
        (* Home involvement never travels: writeback is a local transact. *)
        if meta.Store.dir.Store.owner = n then
          home_owned := meta :: !home_owned
      end
      else
        match Store.copy_of meta ~node:n with
        | None -> ()
        | Some copy ->
            let owned = meta.Store.dir.Store.owner = n in
            let valid = copy.Store.cstate <> Store.Invalid in
            if owned || valid then begin
              let bytes = if owned then data_bytes meta else ctl_bytes in
              let payload =
                if owned then Store.snapshot meta ~src:copy.Store.cdata
                else [||]
              in
              copy.Store.cstate <- Store.Invalid;
              Machine.Fanin.expect fan;
              parts :=
                Net.part ~dst:home ~bytes (fun ~time ->
                    dir_enter meta ~time (fun time ->
                        if owned then take_owner_data meta payload;
                        Dir.remove meta.Store.dir.Store.sharers n;
                        dir_exit meta ~time;
                        Machine.Fanin.arrive fan ~time))
                :: !parts
            end;
            if
              copy.Store.readers = 0 && copy.Store.writers = 0
              && copy.Store.deferred = []
            then Store.drop_copy meta ~node:n)
    metas;
  List.iter (fun meta -> writeback ctx meta) (List.rev !home_owned);
  if Machine.Fanin.pending fan > 0 then begin
    Stats.incr_id (stats ctx) sid_inval_batch;
    Net.send_multi_from ctx.net ctx.proc (List.rev !parts);
    Machine.await ctx.proc done_iv
  end

(* At the home, inside a transaction: forward [snapshot] to every current
   sharer except the writer [n], the home and the nodes in [skip], each
   forward one more arrival of [fan]. A push names its targets in [skip]
   (never empty: the home is one), so what it forwards here reached
   sharers the writer's list missed: late forwards. *)
let forward_to_sharers ctx meta ~time ~snapshot ~n ~skip fan =
  let home = meta.Store.home in
  Store.iter_sharers meta ~except:n (fun s ->
      if s <> home && not (List.mem s skip) then begin
        if skip <> [] then Stats.incr_id (stats ctx) sid_late_forward;
        Machine.Fanin.expect fan;
        Net.send ctx.net ~now:time ~src:home ~dst:s ~bytes:(data_bytes meta)
          (fun ~time ->
            (match Store.copy_of meta ~node:s with
            | Some c -> refresh meta c ~time snapshot
            | None -> ());
            Machine.Fanin.arrive fan ~time)
      end)

(* The ivar fills once every consumer copy has been refreshed, so a writer
   awaiting it cannot race its own update past a barrier. *)
let push_update ctx meta =
  settled ctx "Blocks.push_update";
  let n = node ctx in
  let copy = local_copy ctx meta in
  let home = meta.Store.home in
  let snapshot = Store.snapshot meta ~src:copy.Store.cdata in
  let done_iv = Ivar.create () in
  let fan = fan_filling ctx done_iv in
  Stats.incr_id (stats ctx) sid_update_push;
  (* Home writes land in the master via aliasing: only forward. *)
  let at_home time =
    if n <> home then land_home meta snapshot;
    forward_to_sharers ctx meta ~time ~snapshot ~n ~skip:[] fan;
    if Machine.Fanin.pending fan = 0 then Ivar.fill done_iv ~time ();
    dir_exit meta ~time
  in
  if n = home then dir_enter meta ~time:ctx.proc.Machine.clock at_home
  else
    Net.send_from ctx.net ctx.proc ~dst:home ~bytes:(data_bytes meta)
      (fun ~time -> dir_enter meta ~time at_home);
  done_iv

(* [ts] plus each of [ds] that is neither the writer [n] nor in [ts]. *)
let rec add_targets n ts = function
  | [] -> ts
  | d :: ds -> add_targets n (if d = n || List.mem d ts then ts else d :: ts) ds

(* How many of [ts] are in the sharer set [sharers]. *)
let rec count_sharers sharers = function
  | [] -> 0
  | d :: ds -> Bool.to_int (Dir.mem sharers d) + count_sharers sharers ds

(* Who node [n]'s push of [meta] goes to, in ascending order: the home and
   [dsts], without [n]. A home writer also pushes to every current sharer
   of its directory (a local table read), so a reader that joined after
   [dsts] was learned is refreshed as well; the sharers are only walked
   when the counts show one missing. *)
let push_targets meta ~n dsts =
  let home = meta.Store.home in
  let sharers = meta.Store.dir.Store.sharers in
  let ts = add_targets n (if n = home then [] else [ home ]) dsts in
  let unlisted =
    n = home
    && count_sharers sharers ts < Dir.count sharers - Bool.to_int (Dir.mem sharers n)
  in
  List.sort compare
    (if unlisted then
       List.fold_left
         (fun ts s -> if List.mem s ts then ts else s :: ts)
         ts
         (Dir.to_list sharers ~except:n)
     else ts)

(* One pushed update from [ctx]'s node arriving at [dst], one arrival of
   [fan]. [targets] is the writer's view of who to refresh, taken before
   the send; a reader whose fetch reaches the home in flight, or one that
   started reading after the consumers were learned, is a sharer missing
   from it. So at the home the update lands in the master under the
   directory and is forwarded to every sharer [targets] missed; at a
   consumer it refreshes the copy. *)
let deliver_push ctx meta ~targets ~snapshot fan dst ~time =
  if dst = meta.Store.home then
    dir_enter meta ~time (fun time ->
        land_home meta snapshot;
        forward_to_sharers ctx meta ~time ~snapshot ~n:ctx.node ~skip:targets fan;
        dir_exit meta ~time;
        Machine.Fanin.arrive fan ~time)
  else begin
    refresh meta (Store.ensure_copy_c meta ~node:dst) ~time snapshot;
    Dir.add meta.Store.dir.Store.sharers dst;
    Machine.Fanin.arrive fan ~time
  end

let push_to ctx meta ~dsts =
  settled ctx "Blocks.push_to";
  let snapshot = Store.snapshot meta ~src:(local_copy ctx meta).Store.cdata in
  let targets = push_targets meta ~n:ctx.node dsts in
  let done_iv = Ivar.create () in
  let fan = fan_filling ctx done_iv in
  Stats.incr_id (stats ctx) sid_static_push;
  (* Every send parks the writer for its overhead, so a delivery can land
     before the next send: count all targets first. *)
  for _ = 1 to List.length targets do
    Machine.Fanin.expect fan
  done;
  if targets = [] then Ivar.fill done_iv ~time:ctx.proc.Machine.clock ()
  else
    List.iter
      (fun dst ->
        Net.send_from ctx.net ctx.proc ~dst ~bytes:(data_bytes meta)
          (fun ~time -> deliver_push ctx meta ~targets ~snapshot fan dst ~time))
      targets;
  done_iv

(* Write-combined static update: push every (region, consumers) item of the
   batch at once, with messages bound for the same destination coalesced
   into one vectored bulk message and the whole batch charged a single
   sender overhead — the producer's end-of-phase burst becomes one message
   per consumer instead of one per (region, consumer) pair. The returned
   ivar fills once every consumer copy (and every remote master) has been
   refreshed. *)
let push_to_batch ctx items =
  settled ctx "Blocks.push_to_batch";
  (* The caller blocks on the returned ivar, and no fiber may block with a
     non-empty write-combining queue (see [drain]) — flush parked updates
     first so they cannot be stranded behind the push (e.g. a protocol
     detach publishing its last batch before a change_protocol swap). *)
  drain ctx;
  let done_iv = Ivar.create () in
  let fan = fan_filling ctx done_iv in
  let parts = ref [] in
  let st = stats ctx in
  List.iter
    (fun ((meta : Store.meta), dsts) ->
      let copy = local_copy ctx meta in
      Stats.incr_id st sid_static_push;
      let snapshot = Store.snapshot meta ~src:copy.Store.cdata in
      let targets = push_targets meta ~n:ctx.node dsts in
      List.iter
        (fun dst ->
          Machine.Fanin.expect fan;
          parts :=
            Net.part ~dst ~bytes:(data_bytes meta) (fun ~time ->
                deliver_push ctx meta ~targets ~snapshot fan dst ~time)
            :: !parts)
        targets)
    items;
  if Machine.Fanin.pending fan = 0 then
    Ivar.fill done_iv ~time:ctx.proc.Machine.clock ()
  else Net.send_multi_from ctx.net ctx.proc (List.rev !parts);
  done_iv

let read_home ctx meta =
  settled ctx "Blocks.read_home";
  let n = node ctx in
  let copy = local_copy ctx meta in
  if n = meta.Store.home then ()
  else begin
    drain ctx;
    let home = meta.Store.home in
    transact ctx meta (fun ~time finish ->
        recall_owner ctx meta ~time ~downgrade:Store.Shared (fun time ->
            let snapshot = Store.snapshot meta ~src:meta.Store.master in
            Net.send ctx.net ~now:time ~src:home ~dst:n ~bytes:(data_bytes meta)
              (fun ~time ->
                Store.blit_in meta ~buf:snapshot ~at:0 copy.Store.cdata;
                finish ~time)))
  end

let write_home_async ctx meta =
  settled ctx "Blocks.write_home_async";
  let n = node ctx in
  let copy = local_copy ctx meta in
  let done_iv = Ivar.create () in
  if n = meta.Store.home then Ivar.fill done_iv ~time:ctx.proc.Machine.clock ()
  else begin
    let snapshot = Store.snapshot meta ~src:copy.Store.cdata in
    Net.send_from ctx.net ctx.proc ~dst:meta.Store.home ~bytes:(data_bytes meta)
      (fun ~time -> land_write meta snapshot done_iv ~time)
  end;
  done_iv

(* Acquire the region's lock, queued at its home. At the home the caller
   takes it or queues a waiter and awaits. Remotely an rpc asks the home,
   whose grant is a control message or, with [~fetch], the master data:
   the local copy becomes a Shared snapshot of the master as of grant
   time (one round trip for lock + fresh value). A fetching request
   carries any write-combined updates along: those for this home coalesce
   with it into one vectored message (the request part runs after they
   land, preserving queue order), and those for other homes flush in the
   same injection under one sender overhead. *)
let acquire ctx meta ~fetch =
  settled ctx "Blocks.acquire";
  let n = node ctx in
  let copy = if fetch then Some (local_copy ctx meta) else None in
  let l = meta.Store.lock in
  let home = meta.Store.home in
  let ride = fetch && n <> home && ctx.wpending <> [] in
  if not ride then drain ctx;
  if n = home then begin
    if l.Store.held_by < 0 then l.Store.held_by <- n
    else begin
      let iv = Ivar.create () in
      Queue.push (n, fun time -> Ivar.fill iv ~time ()) l.Store.waiting;
      Machine.await ctx.proc iv
    end
  end
  else begin
    let request reply ~time =
      let grant time =
        match copy with
        | None ->
            Net.send ctx.net ~now:time ~src:home ~dst:n ~bytes:ctl_bytes
              (fun ~time -> Ivar.fill reply ~time ())
        | Some copy ->
            let snapshot = Store.snapshot meta ~src:meta.Store.master in
            Net.send ctx.net ~now:time ~src:home ~dst:n ~bytes:(data_bytes meta)
              (fun ~time ->
                Store.blit_in meta ~buf:snapshot ~at:0 copy.Store.cdata;
                copy.Store.cstate <- Store.Shared;
                Ivar.fill reply ~time ())
      in
      if l.Store.held_by < 0 then begin
        l.Store.held_by <- n;
        grant time
      end
      else Queue.push (n, grant) l.Store.waiting
    in
    if not ride then Net.rpc ctx.net ctx.proc ~dst:home ~bytes:ctl_bytes request
    else begin
      let ws = ctx.wpending in
      ctx.wpending <- [];
      let reply = Ivar.create () in
      Net.send_multi_from ctx.net ctx.proc
        (List.rev_map wpart ws
        @ [ Net.part ~dst:home ~bytes:ctl_bytes (fun ~time -> request reply ~time) ]);
      Machine.await ctx.proc reply
    end
  end

let home_lock ctx meta = acquire ctx meta ~fetch:false
let lock_fetch ctx meta = acquire ctx meta ~fetch:true

let release_lock (l : Store.hlock) ~time =
  match Queue.take_opt l.Store.waiting with
  | Some (m, grant) ->
      l.Store.held_by <- m;
      grant time
  | None -> l.Store.held_by <- -1

let home_unlock ctx meta =
  settled ctx "Blocks.home_unlock";
  let n = node ctx in
  let l = meta.Store.lock in
  if n = meta.Store.home then begin
    assert (l.Store.held_by = n);
    release_lock l ~time:ctx.proc.Machine.clock
  end
  else
    Net.send_from ctx.net ctx.proc ~dst:meta.Store.home ~bytes:ctl_bytes
      (fun ~time ->
        assert (l.Store.held_by = n);
        release_lock l ~time)

(* Ship-the-operation fetch-and-add: the home's message handler applies the
   increment and replies with the old value — one round trip, no lock held
   across the requester's round trip; home occupancy is one handler
   execution. The old value is deposited in slot 0 of the caller's local
   copy. The operation serializes with the region's home lock, so a
   home-resident caller can instead take the lock and modify the (aliased)
   master in place — see the COUNTER protocol. Must not be called from the
   home node (the local copy aliases the master there). *)
let fetch_add ctx meta ~delta =
  settled ctx "Blocks.fetch_add";
  drain ctx;
  let n = node ctx in
  let copy = local_copy ctx meta in
  assert (n <> meta.Store.home);
  Net.rpc ctx.net ctx.proc ~dst:meta.Store.home ~bytes:ctl_bytes
    (fun reply ~time ->
      dir_enter meta ~time (fun time ->
          let old = meta.Store.master.(0) in
          meta.Store.master.(0) <- old +. delta;
          Net.send ctx.net ~now:time ~src:meta.Store.home ~dst:n ~bytes:ctl_bytes
            (fun ~time ->
              copy.Store.cdata.(0) <- old;
              Ivar.fill reply ~time ());
          dir_exit meta ~time))

(* Bracket a home-resident in-place read-modify-write of the (aliased)
   master so it serializes with remote fetch_adds and other directory
   transactions — deliberately NOT the user-visible region lock, which the
   application may already hold around the access. Home node only. *)
let home_rmw_begin ctx meta =
  settled ctx "Blocks.home_rmw_begin";
  drain ctx;
  assert (node ctx = meta.Store.home);
  let iv = Ivar.create () in
  dir_enter meta ~time:ctx.proc.Machine.clock (fun time -> Ivar.fill iv ~time ());
  Machine.await ctx.proc iv

let home_rmw_end ctx meta =
  settled ctx "Blocks.home_rmw_end";
  assert (node ctx = meta.Store.home);
  dir_exit meta ~time:ctx.proc.Machine.clock

(* Release the region lock as soon as [after] fills (e.g. when an in-flight
   update lands at the home), modelling a combined update+release message.
   The caller does not block. *)
let unlock_after ctx meta (after : unit Ivar.t) =
  settled ctx "Blocks.unlock_after";
  let n = node ctx in
  let l = meta.Store.lock in
  Ivar.on_fill after (fun ~time () ->
      assert (l.Store.held_by = n);
      release_lock l ~time)
