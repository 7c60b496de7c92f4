type state = Invalid | Shared | Exclusive

type copy = {
  cdata : float array;
  mutable cstate : state;
  mutable readers : int;
  mutable writers : int;
  mutable deferred : (float -> unit) list; (* coherence actions parked
                                              until the access ends *)
}

(* Per-region cache-entry table, same two-mode idea as {!Dir}: regions with
   a handful of cached copies (the common case) keep a short assoc list;
   widely-replicated regions — which genuinely hold ~nprocs live copies, so
   dense is proportional to population — overflow to a per-node array. *)
type cmap = {
  mutable csmall : (int * copy) list; (* authoritative while [cdense] empty *)
  mutable cdense : copy option array;
}

let cmap_cap = 6

type dir = {
  mutable owner : int;
  sharers : Dir.t;
  mutable busy : bool;
  pending : (float -> unit) Queue.t;
}

type hlock = { mutable held_by : int; waiting : (int * (float -> unit)) Queue.t }

type meta = {
  rid : int;
  home : int;
  len : int;
  mutable space : int;
  master : float array;
  copies : cmap;
  mapped : Dir.t;
  dir : dir;
  lock : hlock;
}

module Stats = Ace_engine.Stats

let sid_allocs = Stats.intern "region.allocs"
let sid_bytes = Stats.intern "region.bytes"
let fam_allocs_home = Stats.fam "region.allocs.by_home"

let hist_bytes =
  Stats.hist "region.alloc_bytes"
    ~limits:[| 16.; 64.; 256.; 1024.; 4096.; 16384. |]

type t = {
  nprocs : int;
  mutable regions : meta array;
  mutable n : int;
  stats : Stats.t option; (* the owning machine's counters, when attached *)
}

let create ?stats ~nprocs () =
  if nprocs <= 0 then invalid_arg "Store.create";
  { nprocs; regions = [||]; n = 0; stats }

let nprocs t = t.nprocs

let cmap_find m node =
  if Array.length m.cdense > 0 then m.cdense.(node)
  else List.assoc_opt node m.csmall

let cmap_set ~nprocs m node c =
  if Array.length m.cdense > 0 then m.cdense.(node) <- Some c
  else if List.mem_assoc node m.csmall then
    m.csmall <- (node, c) :: List.remove_assoc node m.csmall
  else if List.length m.csmall < cmap_cap then m.csmall <- (node, c) :: m.csmall
  else begin
    let dense = Array.make nprocs None in
    List.iter (fun (n, c) -> dense.(n) <- Some c) m.csmall;
    dense.(node) <- Some c;
    m.cdense <- dense;
    m.csmall <- []
  end

let cmap_remove m node =
  if Array.length m.cdense > 0 then m.cdense.(node) <- None
  else m.csmall <- List.remove_assoc node m.csmall

let iter_copies meta f =
  let m = meta.copies in
  if Array.length m.cdense > 0 then
    Array.iteri
      (fun node c -> match c with Some c -> f node c | None -> ())
      m.cdense
  else List.iter (fun (node, c) -> f node c) m.csmall

(* Heap words of per-region bookkeeping whose size used to scale with
   nprocs: the sharer set plus the copy-table index (3 words per assoc cell
   in small mode, one option slot per node once dense). Payload data is
   deliberately excluded — it is the application's, not the directory's. *)
let meta_dir_words meta =
  let m = meta.copies in
  let cwords =
    if Array.length m.cdense > 0 then Array.length m.cdense
    else 3 * List.length m.csmall
  in
  Dir.words meta.dir.sharers + Dir.words meta.mapped + cwords

let alloc t ~home ~len ~space =
  if home < 0 || home >= t.nprocs then invalid_arg "Store.alloc: bad home";
  if len <= 0 then invalid_arg "Store.alloc: bad length";
  let master = Array.make len 0. in
  let meta =
    {
      rid = t.n;
      home;
      len;
      space;
      master;
      copies = { csmall = []; cdense = [||] };
      mapped = Dir.create ~nprocs:t.nprocs;
      dir =
        {
          owner = -1;
          sharers = Dir.create ~nprocs:t.nprocs;
          busy = false;
          pending = Queue.create ();
        };
      lock = { held_by = -1; waiting = Queue.create () };
    }
  in
  cmap_set ~nprocs:t.nprocs meta.copies home
    { cdata = master; cstate = Shared; readers = 0; writers = 0; deferred = [] };
  Dir.add meta.dir.sharers home;
  if t.n = Array.length t.regions then begin
    let regions = Array.make (max 64 (2 * t.n)) meta in
    Array.blit t.regions 0 regions 0 t.n;
    t.regions <- regions
  end;
  t.regions.(t.n) <- meta;
  t.n <- t.n + 1;
  (match t.stats with
  | None -> ()
  | Some stats ->
      let b = float_of_int (8 * len) in
      Stats.incr_id stats sid_allocs;
      Stats.add_id stats sid_bytes b;
      Stats.incr_dim stats fam_allocs_home home;
      Stats.observe stats hist_bytes b);
  meta

let get t rid =
  if rid < 0 || rid >= t.n then invalid_arg "Store.get: bad rid";
  t.regions.(rid)

let count t = t.n
let bytes meta = 8 * meta.len

let dir_words t =
  let sum = ref 0 in
  for i = 0 to t.n - 1 do
    sum := !sum + meta_dir_words t.regions.(i)
  done;
  !sum

let ensure_copy_c meta ~node =
  match cmap_find meta.copies node with
  | Some c -> c
  | None ->
      let c =
        {
          cdata = Array.make meta.len 0.;
          cstate = Invalid;
          readers = 0;
          writers = 0;
          deferred = [];
        }
      in
      cmap_set ~nprocs:(Dir.nprocs meta.dir.sharers) meta.copies node c;
      c

let ensure_copy meta ~node =
  match cmap_find meta.copies node with
  | Some c -> (c, true)
  | None -> (ensure_copy_c meta ~node, false)

(* The region-mapping bookkeeping behind ACE_MAP/rgn_map. Mapping used to
   materialize a zeroed Invalid copy record per (region, node) — O(nprocs)
   heap per region for programs that map everything everywhere (EM3D,
   Barnes-Hut). Now a map call only marks the node in a compact set; the
   copy record appears on first actual access (Blocks' local-copy path).
   [map_note] returns whether the node already had the region mapped or
   cached — exactly the condition the old record-existence test computed —
   so the map_hit/map_miss cost split is unchanged. *)
let map_note meta ~node =
  let existed = Dir.mem meta.mapped node || cmap_find meta.copies node <> None in
  Dir.add meta.mapped node;
  existed

let is_mapped meta ~node =
  Dir.mem meta.mapped node || cmap_find meta.copies node <> None

let copy_of meta ~node = cmap_find meta.copies node

let data meta ~node =
  match copy_of meta ~node with
  | Some c -> c.cdata
  | None ->
      (* Mapped but never accessed: materialize the (zeroed, Invalid) cache
         entry mapping used to create eagerly. Host-side only — no cost. *)
      if is_mapped meta ~node then (ensure_copy_c meta ~node).cdata
      else invalid_arg "data: region not mapped on this node"

let check_range meta ~what pos len =
  if pos < 0 || len < 0 || pos + len > meta.len then
    invalid_arg
      (Printf.sprintf "Store.%s: [%d, %d) outside region %d of length %d" what
         pos (pos + len) meta.rid meta.len)

let blit_out meta ?(pos = 0) ?len ~src ~at buf =
  let len = match len with Some l -> l | None -> meta.len - pos in
  check_range meta ~what:"blit_out" pos len;
  Array.blit src pos buf at len

let blit_in meta ?(pos = 0) ?len ~buf ~at dst =
  let len = match len with Some l -> l | None -> meta.len - pos in
  check_range meta ~what:"blit_in" pos len;
  Array.blit buf at dst pos len

let snapshot meta ~src =
  if Array.length src <> meta.len then
    invalid_arg "Store.snapshot: image length does not match region";
  Array.copy src

let drop_copy meta ~node =
  if node = meta.home then invalid_arg "Store.drop_copy: home aliases master";
  (* Also forget the mapping, so a later re-map pays map_miss again — the
     cost behaviour the eager copy records gave. *)
  match cmap_find meta.copies node with
  | None -> Dir.remove meta.mapped node
  | Some c ->
      if c.readers > 0 || c.writers > 0 || c.deferred <> [] then
        invalid_arg "Store.drop_copy: copy has active accesses";
      cmap_remove meta.copies node;
      Dir.remove meta.mapped node

let iter_sharers meta ~except f = Dir.iter meta.dir.sharers ~except f

let sharers meta ~except = Dir.to_list meta.dir.sharers ~except

let check_invariants meta =
  let d = meta.dir in
  if d.owner >= 0 then begin
    (* The owner must be a marked sharer and be the only Exclusive copy. *)
    assert (Dir.mem d.sharers d.owner);
    iter_copies meta (fun node c ->
        match c.cstate with
        | Exclusive -> assert (node = d.owner)
        | Shared | Invalid -> ())
  end
  else
    iter_copies meta (fun _ c ->
        match c.cstate with
        | Exclusive -> assert false
        | Shared | Invalid -> ())
