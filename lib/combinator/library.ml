(* The combinator library: names under which the conformance kit fuzzes
   protocol specs, the layered protocols, and the kit's two canaries.
   DSL_SC, DSL_WRITE_ONCE and DSL_MIGRATORY are the very specs of SC,
   WRITE_ONCE and MIGRATORY under a second name; DSL_WC_UPDATE and
   DSL_SC_STATS exercise the layers. Each protocol carries its spec's
   contract, which a layer keeps, so `acecheck` fuzzes these protocols
   exactly like built-in ones. *)

module Protocol = Ace_runtime.Protocol
module Runtime = Ace_runtime.Runtime
module Lang = Ace_runtime.Lang
module Proto_lib = Ace_protocols.Proto_lib

(* [spec] under the name DSL_<name>. *)
let alias spec = Lang.compile (Lang.with_name ("DSL_" ^ spec.Lang.name) spec)

let sc = alias Lang.sc
let write_once = alias Proto_lib.write_once
let migratory = alias Proto_lib.migratory

(* An update-style base (single writer pushes values to sharers), wrapped
   in the write-combining layer: pushes defer to barrier/unlock/detach. *)
let wc_update =
  Lang.(
    compile
      (write_combining
         (define "DSL_WC_UPDATE" ~contract:Writer_per_epoch
            ~start_read:[ Charge Start_hit; Fetch_shared ]
            ~start_write:[ Charge Start_hit; Fetch_shared ]
            ~end_write:[ Push_update ] ~lock:sc_lock ~unlock:sc_unlock
            ~detach:[ Flush_space ])))

(* SC under the counting layer: bit-identical simulated output to SC, plus
   comb.dsl_sc_stats.* observation counters. *)
let sc_stats =
  Lang.(compile (with_name "DSL_SC_STATS" (counting ~prefix:"comb.dsl_sc_stats" sc)))

(* The canaries break their own contract, and the conformance kit must
   catch them; not part of [all], they are registered only by the
   `--inject-broken` style self-tests. BROKEN_DYN_UPDATE is dynamic update
   with the propagation dropped: a non-home writer updates only its local
   copy, so the master and every consumer copy go stale. DSL_BROKEN_SC is
   SC whose start_write only fetches a shared copy, so writes land in a
   local copy that is never written back nor invalidates other readers. *)
let broken_dyn_update =
  let s = Lang.with_name "BROKEN_DYN_UPDATE" Proto_lib.dyn_update in
  Lang.(compile { s with end_write = [ Charge End_op ] })

let broken_sc =
  let s = Lang.with_name "DSL_BROKEN_SC" Lang.sc in
  Lang.(compile { s with start_write = [ Charge Start_hit; Fetch_shared ] })

let canaries = [ broken_dyn_update; broken_sc ]
let all = [ sc; write_once; migratory; wc_update; sc_stats ]
let names = List.map (fun p -> p.Protocol.name) all
let register_all rt = List.iter (Runtime.register rt) all

(* The protocols the conformance kit registers beside a runtime's
   built-ins and checks by default, in registration order: the protocol
   library's, then this library's. *)
let kit = Proto_lib.all @ all
