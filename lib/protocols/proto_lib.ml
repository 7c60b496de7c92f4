(* The protocol library shipped with this reproduction, one spec per
   protocol (RACE_CHECK's, with its log and reports, is in
   Proto_race_check). [register_all] plays the role of the paper's
   registration scripts plus link step: after it runs, every library
   protocol is available to Ace_NewSpace / Ace_ChangeProtocol by name (SC
   and NULL are built into the runtime). The script's data — which points
   are non-null, whether the compiler may optimize — is derived from each
   spec by [compile]. *)

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
  define "DYN_UPDATE" ~contract:Writer_per_epoch
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~start_write:[ Charge Start_hit; Fetch_shared ]
    ~end_write:[ If_batching ([ Queue_update ], [ Push_update ]) ]
    ~barrier:[ If_batching ([ Publish ], [ Charge Null_hook ]) ]
    ~lock:sc_lock
    ~unlock:(If_batching ([ Publish ], []) :: sc_unlock)
    ~detach:[ If_batching ([ Publish ], []); Flush_space ]

(* Migratory: data accessed in exclusive bursts by one processor at a time.
   Reads migrate ownership too, so later accesses of a burst are free and
   no separate invalidation is ever needed. Exclusive fetches make it not
   optimizable. *)
let migratory =
  define "MIGRATORY" ~contract:Drf
    ~start_read:[ Charge Start_hit; Fetch_exclusive ]
    ~start_write:[ Charge Start_hit; Fetch_exclusive ]
    ~lock:sc_lock ~unlock:sc_unlock ~detach:[ Flush_space ]

(* Owner-writes (the BSC protocol of paper §5.2: data are written only by
   the processors that created them). Stores land directly in the home's
   master, so the write side is registered null and direct dispatch
   deletes it (§4.2); the home-only assertion stays as a debug check.
   Reads fetch on a miss and then stay valid. *)
let write_once =
  define "WRITE_ONCE" ~contract:Write_once
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~start_write:[ Assert_home ] ~unregistered:[ Start_write ] ~lock:sc_lock
    ~unlock:sc_unlock ~detach:[ Flush_space ]

(* Counter (the TSP protocol of paper §5.2). The region never migrates and
   nobody caches it: a read is one uncached fetch, and a write is shipped
   to the home, which adds 1 atomically in its message handler — the
   protocol asserts the application's read-modify-write is exactly "+1".
   At the home, whose copy aliases the master, the protocol brackets the
   in-place RMW with the local region lock instead. The home RMW makes it
   not optimizable: RMW atomicity must not be reordered. *)
let counter =
  define "COUNTER" ~contract:Incr_only
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

(* Static update (paper §3.3; essentially Falsafi et al.'s EM3D protocol):
   sharer lists are learned during the first iteration — the ordinary read
   misses register consumers at the directory — and from the first barrier
   onward each writer pushes the regions it wrote directly to their learned
   consumers at every barrier, before the global synchronization. This is
   the protocol whose barrier handler Ace_Barrier(space) invokes
   automatically ("Since the barriers specify the space they operate on,
   the underlying system invokes the static update barrier handler routine
   automatically"). Detach pushes anything still queued, then flushes to
   base state. *)
let static_update =
  define "STATIC_UPDATE" ~contract:Fixed_writer
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~start_write:[ Charge Start_hit; Fetch_shared; Queue_update ]
    ~barrier:[ Push_learned ] ~lock:sc_lock ~unlock:sc_unlock
    ~detach:[ Push_learned; Flush_space ]

(* Pipelined writes (the Water inter-molecular protocol of paper §5.2: "we
   improve performance by pipelining writes to a molecule during the
   inter-molecular calculation phase"). Accumulations happen under the
   region lock; the protocol specializes every step of that pattern:

   - lock: the grant carries the freshly accumulated master, so the
     critical section's read and write hit locally (one round trip);
   - end_write: ships the new value home asynchronously — the processor
     moves on while the update is in flight;
   - unlock: rides the in-flight update (a combined update+release
     message), so the caller never blocks and the next holder sees the
     accumulated value;
   - barrier: drains outstanding updates and drops cached copies, so the
     next phase reads fresh data;
   - attach, in bulk-transfer mode: prefetches the whole space in one
     batched fetch, so the first sweep starts from warm caches (a value
     accumulated later still arrives with the lock grant).

   Under SC the same source pays a blocking exclusive fetch (with an
   invalidation storm of every position reader) per accumulation. *)
let pipeline =
  define "PIPELINE" ~contract:Drf
    ~start_read:[ Charge Start_hit; Fetch_shared ]
    ~start_write:[ Charge Start_hit; Fetch_shared ]
    ~end_write:[ Charge End_op; Write_home_async; Count "proto.pipeline.writes" ]
    ~lock:[ Charge Lock_base; Lock_fetch ]
    ~unlock:
      [
        Charge Lock_base;
        If_write_pending
          ([ Count "proto.pipeline.combined_release"; Unlock_after_write ], [ Home_unlock ]);
      ]
    ~barrier:[ Drain_writes; Drop_remote_copies ]
    ~attach:[ Charge Null_hook; If_batching ([ Prefetch_space ], []) ]
    ~detach:[ Drain_writes; Drop_remote_copies; Flush_space ]

let specs =
  [
    dyn_update;
    static_update;
    migratory;
    write_once;
    counter;
    pipeline;
    Proto_race_check.spec;
  ]

let all = List.map compile specs
let register_all rt = List.iter (Ace_runtime.Runtime.register rt) all
let names = List.map (fun p -> p.Ace_runtime.Protocol.name) all
