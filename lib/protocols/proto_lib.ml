(* The protocol library shipped with this reproduction, one spec per
   protocol. [register_all] plays the role of the paper's registration
   scripts plus link step: after it runs, every library protocol is
   available to Ace_NewSpace / Ace_ChangeProtocol by name (SC and NULL are
   built into the runtime). *)

open Ace_runtime.Lang

(* Dynamic update (paper §2.1, §3.3): a write is propagated to all sharers
   *after* the store — the case access-fault control cannot express and
   full access control can. A writer does not acquire exclusive access
   (paper §6); the protocol assumes a single writer per region at a time.
   In bulk-transfer mode the propagation is write-combined: end_write only
   queues the region, and the next synchronization point (barrier, unlock,
   detach) publishes everything written since the last one as one batched
   push. Consumers synchronize before reading, so they observe the same
   values at the same synchronization points as the immediate push. *)
let dyn_update =
  define "DYN_UPDATE" ~optimizable:true
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~start_write:[ Charge Start_hit; Fetch_shared ]
    ~end_write:[ If_batching ([ Queue_update ], [ Push_update ]) ]
    ~barrier:[ If_batching ([ Publish ], [ Charge Null_hook ]) ]
    ~lock:sc_lock
    ~unlock:(If_batching ([ Publish ], []) :: sc_unlock)
    ~detach:[ If_batching ([ Publish ], []); Flush_space ]

(* Migratory: data accessed in exclusive bursts by one processor at a time.
   Reads migrate ownership too, so later accesses of a burst are free and
   no separate invalidation is ever needed. *)
let migratory =
  define "MIGRATORY" ~optimizable:false
    ~start_read:[ Charge Start_hit; Fetch_exclusive ]
    ~start_write:[ Charge Start_hit; Fetch_exclusive ]
    ~lock:sc_lock ~unlock:sc_unlock ~detach:[ Flush_space ]

(* Owner-writes (the BSC protocol of paper §5.2: data are written only by
   the processors that created them). Stores land directly in the home's
   master, so the write side is registered null and direct dispatch
   deletes it (§4.2); the home-only assertion stays as a debug check.
   Reads fetch on a miss and then stay valid. *)
let write_once =
  define "WRITE_ONCE" ~optimizable:true
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~start_write:[ Assert_home ] ~unregistered:[ Start_write ] ~lock:sc_lock
    ~unlock:sc_unlock ~detach:[ Flush_space ]

(* Counter (the TSP protocol of paper §5.2). The region never migrates and
   nobody caches it: a read is one uncached fetch, and a write is shipped
   to the home, which adds 1 atomically in its message handler — the
   protocol asserts the application's read-modify-write is exactly "+1".
   At the home, whose copy aliases the master, the protocol brackets the
   in-place RMW with the local region lock instead. Not optimizable: RMW
   atomicity must not be reordered. *)
let counter =
  define "COUNTER" ~optimizable:false
    ~start_read:[ Charge Start_hit; Read_home ]
    ~start_write:
      [
        Charge Start_hit;
        If_home
          ( [ Count "proto.counter.home_rmw"; Home_rmw_begin ],
            [ Count "proto.counter.fetch_add"; Fetch_add ] );
      ]
    ~end_write:[ Charge End_op; If_home ([ Home_rmw_end ], []) ]
    ~lock:sc_lock ~unlock:sc_unlock ~detach:[ Flush_space ]

let specs =
  [
    dyn_update;
    Proto_static_update.spec;
    migratory;
    write_once;
    counter;
    Proto_pipeline.spec;
    Proto_race_check.spec;
  ]

let all = List.map compile specs
let register_all rt = List.iter (Ace_runtime.Runtime.register rt) all
let names = List.map (fun p -> p.Ace_runtime.Protocol.name) all
