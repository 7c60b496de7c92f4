(* The combinator library: names under which the conformance kit fuzzes
   protocol specs, and the layered protocols. DSL_SC, DSL_WRITE_ONCE and
   DSL_MIGRATORY are the very specs of SC, WRITE_ONCE and MIGRATORY under a
   second name; DSL_WC_UPDATE and DSL_SC_STATS exercise the layers. Every
   entry is auto-enrolled in the conformance kit: [admits_like] names the
   protocol whose program-admissibility rule it inherits, and lib/check
   registers that alias with [Prog.register_admits_like], so `acecheck`
   fuzzes these protocols exactly like built-in ones. *)

module Protocol = Ace_runtime.Protocol
module Runtime = Ace_runtime.Runtime
module Lang = Ace_runtime.Lang
module Proto_lib = Ace_protocols.Proto_lib

type entry = {
  proto : Protocol.protocol;
  admits_like : string;
      (* protocol whose admissibility rule this one inherits *)
}

let entry ~admits_like spec = { proto = Lang.compile spec; admits_like }

(* [spec] under the name DSL_<name>. *)
let alias spec =
  entry ~admits_like:spec.Lang.name
    (Lang.with_name ("DSL_" ^ spec.Lang.name) spec)

let sc = alias Lang.sc
let write_once = alias Proto_lib.write_once
let migratory = alias Proto_lib.migratory

(* An update-style base (single writer pushes values to sharers), wrapped
   in the write-combining layer: pushes defer to barrier/unlock/detach. *)
let wc_update =
  entry ~admits_like:"DYN_UPDATE"
    Lang.(
      write_combining
        (define "DSL_WC_UPDATE" ~optimizable:true
           ~start_read:[ Charge Start_hit; Fetch_shared ]
           ~start_write:[ Charge Start_hit; Fetch_shared ]
           ~end_write:[ Push_update ] ~lock:sc_lock ~unlock:sc_unlock
           ~detach:[ Flush_space ]))

(* SC under the counting layer: bit-identical simulated output to SC, plus
   comb.dsl_sc_stats.* observation counters. *)
let sc_stats =
  entry ~admits_like:"SC"
    Lang.(with_name "DSL_SC_STATS" (counting ~prefix:"comb.dsl_sc_stats" sc))

(* The canary: SC whose start_write only fetches a *shared* copy, so
   writes land in a local copy that is never invalidated out of other
   readers nor written back — the conformance kit must catch the stale
   reads. Not part of [all]; registered only by the `--inject-broken`
   style self-tests. *)
let broken =
  entry ~admits_like:"SC"
    Lang.
      {
        (with_name "DSL_BROKEN_SC" sc) with
        start_write = [ Charge Start_hit; Fetch_shared ];
      }

let all = [ sc; write_once; migratory; wc_update; sc_stats ]
let names = List.map (fun e -> e.proto.Protocol.name) all
let register_all rt = List.iter (fun e -> Runtime.register rt e.proto) all
