(* Compact sharer sets for region directories.

   Two-mode representation in the style of limited-pointer directories
   (Agarwal et al.'s Dir_i B): a region shared by a handful of nodes — the
   overwhelmingly common case, CRL §5 — keeps the sharer ids inline in a
   short sorted array; a widely-shared region overflows once to a packed
   int bitset and stays there until [clear].  Memory is proportional to the
   actual sharer population, not the machine size, so a million
   sparsely-shared regions on 1024 nodes cost the same as on 32.

   Iteration visits nodes in ascending id order in both modes — exactly the
   order the old [bool array] walk produced — so replacing the array keeps
   simulated schedules bit-identical.  Iteration allocates nothing and
   tolerates the callback removing nodes it has already visited (the
   invalidation walk does exactly that via deferred actions that can run
   synchronously). *)

(* 62 usable bits per word: OCaml ints are 63-bit and keeping the sign bit
   clear lets the lowest-set-bit trick [x land (-x)] stay in positive
   territory. *)
let bits_per_word = 62

(* Inline capacity before overflowing to the bitset.  Six ids cover the
   sharing degree of every region in the paper's applications except the
   deliberately widely-shared ones (Barnes-Hut bodies, broadcast columns),
   which overflow once and never look back. *)
let small_cap = 6

type t = {
  nprocs : int;
  (* >= 0: small mode, number of live ids in [small] (sorted ascending).
     -1: bitset mode; [bits]/[bcount] are authoritative. *)
  mutable small_n : int;
  mutable small : int array;
  mutable bits : int array;
  mutable bcount : int;
}

let empty_ints : int array = [||]

let create ~nprocs =
  if nprocs <= 0 then invalid_arg "Dir.create";
  { nprocs; small_n = 0; small = empty_ints; bits = empty_ints; bcount = 0 }

let nprocs t = t.nprocs
let count t = if t.small_n >= 0 then t.small_n else t.bcount
let is_small t = t.small_n >= 0

let check_node t node =
  if node < 0 || node >= t.nprocs then invalid_arg "Dir: bad node"

let mem t node =
  check_node t node;
  if t.small_n >= 0 then begin
    let found = ref false in
    for i = 0 to t.small_n - 1 do
      if t.small.(i) = node then found := true
    done;
    !found
  end
  else t.bits.(node / bits_per_word) land (1 lsl (node mod bits_per_word)) <> 0

(* Switch to bitset mode, migrating the inline ids. *)
let overflow t =
  let words = (t.nprocs + bits_per_word - 1) / bits_per_word in
  if Array.length t.bits <> words then t.bits <- Array.make words 0
  else Array.fill t.bits 0 words 0;
  t.bcount <- 0;
  for i = 0 to t.small_n - 1 do
    let node = t.small.(i) in
    t.bits.(node / bits_per_word) <-
      t.bits.(node / bits_per_word) lor (1 lsl (node mod bits_per_word));
    t.bcount <- t.bcount + 1
  done;
  t.small_n <- -1;
  t.small <- empty_ints

let rec add t node =
  check_node t node;
  if t.small_n >= 0 then begin
    (* sorted insert; no-op if present *)
    let n = t.small_n in
    let pos = ref 0 in
    while !pos < n && t.small.(!pos) < node do incr pos done;
    if !pos < n && t.small.(!pos) = node then ()
    else if n < small_cap then begin
      if Array.length t.small = 0 then t.small <- Array.make small_cap 0;
      for i = n downto !pos + 1 do
        t.small.(i) <- t.small.(i - 1)
      done;
      t.small.(!pos) <- node;
      t.small_n <- n + 1
    end
    else begin
      overflow t;
      add t node
    end
  end
  else begin
    let w = node / bits_per_word and b = 1 lsl (node mod bits_per_word) in
    if t.bits.(w) land b = 0 then begin
      t.bits.(w) <- t.bits.(w) lor b;
      t.bcount <- t.bcount + 1
    end
  end

let remove t node =
  check_node t node;
  if t.small_n >= 0 then begin
    let n = t.small_n in
    let pos = ref (-1) in
    for i = 0 to n - 1 do
      if t.small.(i) = node then pos := i
    done;
    if !pos >= 0 then begin
      for i = !pos to n - 2 do
        t.small.(i) <- t.small.(i + 1)
      done;
      t.small_n <- n - 1
    end
  end
  else begin
    let w = node / bits_per_word and b = 1 lsl (node mod bits_per_word) in
    if t.bits.(w) land b <> 0 then begin
      t.bits.(w) <- t.bits.(w) land lnot b;
      t.bcount <- t.bcount - 1
    end
  end

let clear t =
  if t.small_n < 0 then Array.fill t.bits 0 (Array.length t.bits) 0;
  t.small_n <- 0;
  t.bcount <- 0

(* Number of trailing zeros of a one-bit word [b] (b = x land (-x), b > 0),
   by binary search — branchy but allocation-free and plenty fast for a
   per-sharer cost. *)
let ntz_of_bit b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin n := !n + 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then n := !n + 1;
  !n

let iter t ~except f =
  if t.small_n >= 0 then begin
    (* Walk by value, re-finding the successor of the last visited id each
       step: O(n·cap) worst case with cap = 6, but robust against [f]
       removing any already-visited id (which shifts the array under us). *)
    let prev = ref (-1) in
    let continue_ = ref true in
    while !continue_ do
      (* smallest id > !prev *)
      let next = ref max_int in
      for i = 0 to t.small_n - 1 do
        let v = t.small.(i) in
        if v > !prev && v < !next then next := v
      done;
      if !next = max_int then continue_ := false
      else begin
        prev := !next;
        if !next <> except then f !next
      end
    done
  end
  else
    let words = Array.length t.bits in
    for w = 0 to words - 1 do
      (* Re-read the word after every callback: [f] may clear bits of nodes
         it has already visited, and masking off visited bits keeps the
         remaining walk faithful either way. *)
      let base = w * bits_per_word in
      let seen = ref 0 in
      let v = ref (t.bits.(w)) in
      while !v <> 0 do
        let bit = !v land (- !v) in
        let node = base + ntz_of_bit bit in
        seen := !seen lor bit;
        if node <> except then f node;
        v := t.bits.(w) land lnot !seen
      done
    done

(* Walk down from the largest member, consing, so the list comes out
   ascending and nothing but its cells is allocated. *)
let to_list t ~except =
  let acc = ref [] in
  if t.small_n >= 0 then
    for i = t.small_n - 1 downto 0 do
      let node = t.small.(i) in
      if node <> except then acc := node :: !acc
    done
  else
    for w = Array.length t.bits - 1 downto 0 do
      let v = t.bits.(w) in
      if v <> 0 then
        for b = bits_per_word - 1 downto 0 do
          let node = (w * bits_per_word) + b in
          if v land (1 lsl b) <> 0 && node <> except then acc := node :: !acc
        done
    done;
  !acc

(* Heap words attributable to this set (excluding the record itself, which
   is fixed-size): the inline id array plus the bitset words.  Monotone
   over a region's lifetime modulo [clear], which never shrinks storage —
   so an end-of-run sum is the peak. *)
let words t = Array.length t.small + Array.length t.bits
