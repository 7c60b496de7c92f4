(* Counter names are static program text (a handful of sites name them at
   module initialization), while counter values are bumped once per
   simulated message. So names are interned once into dense global ids and
   a stats instance is just a float array indexed by id: the per-message
   hot path is an array load/store, not a string hash plus bucket walk.

   The same scheme extends to two dimensioned forms:

   - counter *families*: a named counter with an integer dimension (space
     id, node id, link id, region id). A family interns once; a bump is two
     array loads and a store. Cell vectors grow on demand, so families
     indexed by region id stay proportional to the regions actually
     touched.

   - fixed-bucket *histograms*: bucket limits are declared at intern time
     (Prometheus-style "le" semantics: value v lands in the first bucket
     with v <= limit, or the overflow bucket past the last limit).

   The intern tables are global and mutex-protected so simulations running
   on parallel domains can share them; each [t] (the values) belongs to a
   single simulation and is never shared across domains. [create] snapshots
   the registry sizes under the same mutex — unsynchronized reads of the
   growing tables would race with [intern] on another domain. *)

type id = int
type fam = int
type hist = int

let mutex = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref ([||] : string array)
let n_ids = ref 0
let fam_table : (string, int) Hashtbl.t = Hashtbl.create 16
let fam_names = ref ([||] : string array)
let n_fams = ref 0
let hist_table : (string, int) Hashtbl.t = Hashtbl.create 16
let hist_names = ref ([||] : string array)
let hist_limits = ref ([||] : float array array)
let n_hists = ref 0

(* Append [x] to the packed prefix of [!arr] at index [n], growing. *)
let append arr n x dummy =
  if n = Array.length !arr then begin
    let a = Array.make (max 16 (2 * n)) dummy in
    Array.blit !arr 0 a 0 n;
    arr := a
  end;
  !arr.(n) <- x

let intern name =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt table name with
      | Some sid -> sid
      | None ->
          let sid = !n_ids in
          append names sid name "";
          incr n_ids;
          Hashtbl.add table name sid;
          sid)

let fam name =
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt fam_table name with
      | Some fid -> fid
      | None ->
          let fid = !n_fams in
          append fam_names fid name "";
          incr n_fams;
          Hashtbl.add fam_table name fid;
          fid)

let hist name ~limits =
  if Array.length limits = 0 then invalid_arg "Stats.hist: no bucket limits";
  Array.iteri
    (fun i v ->
      if i > 0 && not (v > limits.(i - 1)) then
        invalid_arg "Stats.hist: limits must be strictly increasing")
    limits;
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt hist_table name with
      | Some hid ->
          if !hist_limits.(hid) <> limits then
            invalid_arg ("Stats.hist: conflicting limits for " ^ name);
          hid
      | None ->
          let hid = !n_hists in
          append hist_names hid name "";
          append hist_limits hid (Array.copy limits) [||];
          incr n_hists;
          Hashtbl.add hist_table name hid;
          hid)

type t = {
  mutable slots : float array;
  mutable fams : float array array; (* family id -> cells, grown on demand *)
  mutable fsparse : (int, float) Hashtbl.t option array;
      (* family id -> sparse cells, for families whose index space is huge
         (nprocs² link ids) but whose populated set is small: memory is
         proportional to the cells actually touched. A family may hold both
         dense and sparse cells; readers sum them. *)
  mutable hists : float array array; (* hist id -> bucket counts (limits+1) *)
  mutable hlimits : float array array;
      (* per-instance cache of each histogram's (immutable) limits: filled
         from the global registry under the mutex on first observation, so
         the per-observation path never touches shared state *)
}

let create () =
  let ids, fams, hists =
    Mutex.protect mutex (fun () -> (!n_ids, !n_fams, !n_hists))
  in
  {
    slots = Array.make (max 16 ids) 0.;
    fams = Array.make fams [||];
    fsparse = Array.make fams None;
    hists = Array.make hists [||];
    hlimits = Array.make hists [||];
  }

let ensure t sid =
  if sid >= Array.length t.slots then begin
    let a = Array.make (max (sid + 1) (2 * Array.length t.slots)) 0. in
    Array.blit t.slots 0 a 0 (Array.length t.slots);
    t.slots <- a
  end

let add_id t sid v =
  if sid >= Array.length t.slots then ensure t sid;
  t.slots.(sid) <- t.slots.(sid) +. v

let incr_id t sid = add_id t sid 1.
let get_id t sid = if sid < Array.length t.slots then t.slots.(sid) else 0.
let add t name v = add_id t (intern name) v
let incr t name = add t name 1.
let get t name = get_id t (intern name)

(* ---- dimensioned counters ---- *)

let fam_cells t f =
  if f >= Array.length t.fams then begin
    let a = Array.make (f + 1) [||] in
    Array.blit t.fams 0 a 0 (Array.length t.fams);
    t.fams <- a
  end;
  t.fams.(f)

let add_dim t f ix v =
  if ix < 0 then invalid_arg "Stats.add_dim: negative index";
  let cells = fam_cells t f in
  let cells =
    if ix < Array.length cells then cells
    else begin
      let a = Array.make (max (ix + 1) (max 8 (2 * Array.length cells))) 0. in
      Array.blit cells 0 a 0 (Array.length cells);
      t.fams.(f) <- a;
      a
    end
  in
  cells.(ix) <- cells.(ix) +. v

let incr_dim t f ix = add_dim t f ix 1.

(* ---- sparse family cells ---- *)

let sparse_table t f =
  if f >= Array.length t.fsparse then begin
    let a = Array.make (f + 1) None in
    Array.blit t.fsparse 0 a 0 (Array.length t.fsparse);
    t.fsparse <- a
  end;
  match t.fsparse.(f) with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 16 in
      t.fsparse.(f) <- Some h;
      h

let add_dim_sparse t f ix v =
  if ix < 0 then invalid_arg "Stats.add_dim_sparse: negative index";
  let h = sparse_table t f in
  let cur = match Hashtbl.find_opt h ix with Some c -> c | None -> 0. in
  Hashtbl.replace h ix (cur +. v)

let incr_dim_sparse t f ix = add_dim_sparse t f ix 1.

let get_dim_sparse t f ix =
  if f >= Array.length t.fsparse then 0.
  else
    match t.fsparse.(f) with
    | None -> 0.
    | Some h -> ( match Hashtbl.find_opt h ix with Some v -> v | None -> 0.)

(* Hot-path escape hatch: grow family [f] to at least [size] cells and hand
   the caller the live array for direct indexing. The reference stays valid
   while the family never grows past [size] — callers fix the dimension up
   front (e.g. nprocs or nprocs^2) and keep the array for the simulation's
   lifetime, turning a per-event [add_dim] call into one array store. *)
let dim_open t f ~size =
  if size <= 0 then invalid_arg "Stats.dim_open: size must be positive";
  add_dim t f (size - 1) 0.;
  t.fams.(f)

let get_dim t f ix =
  let dense =
    if f >= Array.length t.fams then 0.
    else
      let cells = t.fams.(f) in
      if ix < 0 || ix >= Array.length cells then 0. else cells.(ix)
  in
  dense +. get_dim_sparse t f ix

let dim_cells t f =
  let dense =
    if f >= Array.length t.fams then []
    else begin
      let cells = t.fams.(f) in
      let acc = ref [] in
      for ix = Array.length cells - 1 downto 0 do
        if cells.(ix) <> 0. then acc := (ix, cells.(ix)) :: !acc
      done;
      !acc
    end
  in
  let sparse =
    if f >= Array.length t.fsparse then []
    else
      match t.fsparse.(f) with
      | None -> []
      | Some h ->
          Hashtbl.fold
            (fun ix v acc -> if v <> 0. then (ix, v) :: acc else acc)
            h []
  in
  match sparse with
  | [] -> dense
  | _ ->
      (* merge the two populations, summing cells present in both *)
      let all =
        List.sort (fun (a, _) (b, _) -> compare a b) (dense @ sparse)
      in
      let rec merge = function
        | (i1, v1) :: (i2, v2) :: rest when i1 = i2 ->
            merge ((i1, v1 +. v2) :: rest)
        | cell :: rest -> cell :: merge rest
        | [] -> []
      in
      merge all

(* ---- histograms ---- *)

let bucket limits v =
  let n = Array.length limits in
  let i = ref 0 in
  while !i < n && v > limits.(!i) do
    i := !i + 1
  done;
  !i

(* Cache [h]'s limits in [t] (registry access, cold) and size its counts. *)
let hist_open t h =
  if h >= Array.length t.hists then begin
    let a = Array.make (h + 1) [||] and l = Array.make (h + 1) [||] in
    Array.blit t.hists 0 a 0 (Array.length t.hists);
    Array.blit t.hlimits 0 l 0 (Array.length t.hlimits);
    t.hists <- a;
    t.hlimits <- l
  end;
  if Array.length t.hlimits.(h) = 0 then begin
    let limits = Mutex.protect mutex (fun () -> !hist_limits.(h)) in
    t.hlimits.(h) <- limits;
    t.hists.(h) <- Array.make (Array.length limits + 1) 0.
  end

let observe t h v =
  if h >= Array.length t.hlimits || Array.length t.hlimits.(h) = 0 then
    hist_open t h;
  let limits = t.hlimits.(h) in
  let counts = t.hists.(h) in
  let b = bucket limits v in
  counts.(b) <- counts.(b) +. 1.

let hist_counts t h =
  hist_open t h;
  (Array.copy t.hlimits.(h), Array.copy t.hists.(h))

(* Hot-path escape hatch, like [dim_open]: the live (limits, counts) pair
   for callers that bucket inline instead of paying an [observe] call per
   event. *)
let hist_live t h =
  hist_open t h;
  (t.hlimits.(h), t.hists.(h))

let reset t =
  Array.fill t.slots 0 (Array.length t.slots) 0.;
  Array.iter (fun cells -> Array.fill cells 0 (Array.length cells) 0.) t.fams;
  Array.iter
    (function Some h -> Hashtbl.reset h | None -> ())
    t.fsparse;
  Array.iter (fun counts -> Array.fill counts 0 (Array.length counts) 0.) t.hists

(* Sum every counter, family cell, and histogram bucket of [src] into
   [dst]. Addition is the only combining operation any accumulator needs,
   so folding several runs' instances into one gives their exact totals. *)
let merge_into dst src =
  for sid = 0 to Array.length src.slots - 1 do
    let v = src.slots.(sid) in
    if v <> 0. then add_id dst sid v
  done;
  Array.iteri
    (fun f cells ->
      Array.iteri (fun ix v -> if v <> 0. then add_dim dst f ix v) cells)
    src.fams;
  Array.iteri
    (fun f tbl ->
      match tbl with
      | None -> ()
      | Some h ->
          Hashtbl.iter
            (fun ix v -> if v <> 0. then add_dim_sparse dst f ix v)
            h)
    src.fsparse;
  Array.iteri
    (fun h counts ->
      if Array.exists (fun c -> c <> 0.) counts then begin
        hist_open dst h;
        let dc = dst.hists.(h) in
        Array.iteri (fun b c -> dc.(b) <- dc.(b) +. c) counts
      end)
    src.hists

let to_list t =
  let snapshot = Mutex.protect mutex (fun () -> Array.sub !names 0 !n_ids) in
  let acc = ref [] in
  for sid = Array.length snapshot - 1 downto 0 do
    let v = get_id t sid in
    if v <> 0. then acc := (snapshot.(sid), v) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let dims_to_list t =
  let snapshot = Mutex.protect mutex (fun () -> Array.sub !fam_names 0 !n_fams) in
  let acc = ref [] in
  for f = Array.length snapshot - 1 downto 0 do
    match dim_cells t f with
    | [] -> ()
    | cells -> acc := (snapshot.(f), cells) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let hists_to_list t =
  let snapshot =
    Mutex.protect mutex (fun () -> Array.sub !hist_names 0 !n_hists)
  in
  let acc = ref [] in
  for h = Array.length snapshot - 1 downto 0 do
    if h < Array.length t.hists && Array.exists (fun c -> c <> 0.) t.hists.(h)
    then acc := (snapshot.(h), hist_counts t h) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %.0f@." k v) (to_list t);
  List.iter
    (fun (name, cells) ->
      List.iter
        (fun (ix, v) -> Format.fprintf ppf "%-32s %.0f@." (Printf.sprintf "%s[%d]" name ix) v)
        cells)
    (dims_to_list t);
  List.iter
    (fun (name, (limits, counts)) ->
      Array.iteri
        (fun b c ->
          if c <> 0. then
            let le =
              if b < Array.length limits then Printf.sprintf "%g" limits.(b)
              else "inf"
            in
            Format.fprintf ppf "%-32s %.0f@." (Printf.sprintf "%s{le=%s}" name le) c)
        counts)
    (hists_to_list t)
