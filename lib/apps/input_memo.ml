(* A domain-local one-slot memo for an app's input. Every simulated
   processor runs the same SPMD program, so an input that is a pure
   function of its key and read-only once built would otherwise be built
   P times per simulation. The fibers of one simulation all run on one
   domain; the pool's parallel cells live on separate domains and never
   share the slot. Simulated output is unaffected.

   Only read-only inputs belong here. Barnes-Hut's [init] stays per
   processor: the SPMD program writes its body arrays in place. *)

type ('k, 'v) t = ('k * 'v) option ref Domain.DLS.key

let create () : ('k, 'v) t = Domain.DLS.new_key (fun () -> ref None)

(* [get t key build] is [build key], built at most once per run of equal
   keys on this domain. *)
let get t key build =
  let slot = Domain.DLS.get t in
  match !slot with
  | Some (k, v) when k = key -> v
  | _ ->
      let v = build key in
      slot := Some (key, v);
      v
