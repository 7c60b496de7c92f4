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

   The intern tables ({!Intern}) are global and mutex-protected so
   simulations running on parallel domains can share them; each [t] (the
   values) belongs to a single simulation and is never shared across
   domains. [create] reads the registry sizes through the tables' mutexes —
   unsynchronized reads of the growing tables would race with [intern] on
   another domain. *)

type id = int
type fam = int
type hist = int

let ids : unit Intern.t = Intern.create ()
let fams : unit Intern.t = Intern.create ()
let hists : float array Intern.t = Intern.create [||] (* value: bucket limits *)
let intern name = Intern.intern ids name ()
let fam name = Intern.intern fams name ()

let hist name ~limits =
  if Array.length limits = 0 then invalid_arg "Stats.hist: no bucket limits";
  Array.iteri
    (fun i v ->
      if i > 0 && not (v > limits.(i - 1)) then
        invalid_arg "Stats.hist: limits must be strictly increasing")
    limits;
  let hid = Intern.intern hists name (Array.copy limits) in
  if Intern.value hists hid <> limits then
    invalid_arg ("Stats.hist: conflicting limits for " ^ name);
  hid

type t = {
  mutable slots : float array;
  mutable fams : float array array; (* family id -> cells, grown on demand *)
  mutable hists : float array array; (* hist id -> bucket counts (limits+1) *)
  mutable hlimits : float array array;
      (* per-instance cache of each histogram's (immutable) limits: filled
         from the global registry under the mutex on first observation, so
         the per-observation path never touches shared state *)
}

let create () =
  let n_hists = Intern.size hists in
  {
    slots = Array.make (max 16 (Intern.size ids)) 0.;
    fams = Array.make (Intern.size fams) [||];
    hists = Array.make n_hists [||];
    hlimits = Array.make n_hists [||];
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
  if f >= Array.length t.fams then 0.
  else
    let cells = t.fams.(f) in
    if ix < 0 || ix >= Array.length cells then 0. else cells.(ix)

let dim_cells t f =
  if f >= Array.length t.fams then []
  else begin
    let cells = t.fams.(f) in
    let acc = ref [] in
    for ix = Array.length cells - 1 downto 0 do
      if cells.(ix) <> 0. then acc := (ix, cells.(ix)) :: !acc
    done;
    !acc
  end

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
    let limits = Intern.value hists h in
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
    (fun h counts ->
      if Array.exists (fun c -> c <> 0.) counts then begin
        hist_open dst h;
        let dc = dst.hists.(h) in
        Array.iteri (fun b c -> dc.(b) <- dc.(b) +. c) counts
      end)
    src.hists

let to_list t =
  let snapshot = Intern.names ids in
  let acc = ref [] in
  for sid = Array.length snapshot - 1 downto 0 do
    let v = get_id t sid in
    if v <> 0. then acc := (snapshot.(sid), v) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let dims_to_list t =
  let snapshot = Intern.names fams in
  let acc = ref [] in
  for f = Array.length snapshot - 1 downto 0 do
    match dim_cells t f with
    | [] -> ()
    | cells -> acc := (snapshot.(f), cells) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let hists_to_list t =
  let snapshot = Intern.names hists in
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
