(* Blocked Sparse Cholesky (BSC). Block columns are distributed round-robin;
   each step factors the diagonal block and its column at the owner, then
   every owner of a later column applies the updates to its own blocks,
   reading the factored column's blocks remotely (bulk region transfers —
   the paper notes that with user-specified granularity the default protocol
   already gets bulk transfer "for free", which is why the custom protocol
   gain is marginal, Fig. 7b).

   The custom protocol is WRITE_ONCE: blocks are written only by their
   creating processor, so write-side coherence disappears entirely.

   Scheduling note: the paper's BSC uses a dynamic task queue; we use the
   standard barrier-per-elimination-step schedule, which preserves the
   communication pattern (column broadcast + owner-local updates) that the
   protocols act on. *)

type config = {
  core : Chol_core.config;
  steps_unused : unit; (* BSC runs to completion; no step parameter *)
  protocol : string option; (* Some "WRITE_ONCE" *)
}

let default =
  {
    core = { Chol_core.nb = 12; b = 16; band = 4; seed = 11 };
    steps_unused = ();
    protocol = None;
  }

let n_spaces = 1

module Make (D : Ace_region.Dsm_intf.S) = struct

  let run cfg (ctx : D.ctx) =
    let c = cfg.core in
    let me = D.me ctx and nprocs = D.nprocs ctx in
    let owner j = j mod nprocs in
    let blocks = Chol_core.input c in
    (* Every block (i, j) is a region homed at owner(j). Owners allocate and
       initialize their columns, then rids are exchanged. *)
    let my_rids = ref [] in
    for j = c.Chol_core.nb - 1 downto 0 do
      if owner j = me then
        for i = c.Chol_core.nb - 1 downto j do
          if Chol_core.block_exists c ~i ~j then begin
            let h = D.alloc ctx ~space:0 ~len:(c.Chol_core.b * c.Chol_core.b) in
            D.start_write ctx h;
            let src = Hashtbl.find blocks (i, j) in
            Array.blit src 0 (D.data ctx h) 0 (Array.length src);
            D.end_write ctx h;
            my_rids := i :: j :: D.rid h :: !my_rids
          end
        done
    done;
    let parts = D.allgather ctx (Array.of_list !my_rids) in
    let rid_of = Hashtbl.create 64 in
    Array.iter
      (fun part ->
        let k = Array.length part / 3 in
        for t = 0 to k - 1 do
          Hashtbl.replace rid_of (part.(3 * t), part.((3 * t) + 1)) part.((3 * t) + 2)
        done)
      parts;
    let handle i j =
      match Hashtbl.find_opt rid_of (i, j) with
      | Some r -> Some (D.map ctx r)
      | None -> None
    in
    D.barrier ctx ~space:0;
    (match cfg.protocol with
    | Some p -> D.change_protocol ctx ~space:0 p
    | None -> ());
    let b = c.Chol_core.b in
    (* A scratch copy of a remote block read through the DSM. *)
    let read_block h =
      D.start_read ctx h;
      let copy = Array.copy (D.data ctx h) in
      D.end_read ctx h;
      copy
    in
    for k = 0 to c.Chol_core.nb - 1 do
      if owner k = me then begin
        (match handle k k with
        | Some hkk ->
            D.start_write ctx hkk;
            Chol_core.potrf ~b (D.data ctx hkk);
            D.end_write ctx hkk;
            D.work ctx (Chol_core.potrf_cycles b);
            let lkk = read_block hkk in
            for i = k + 1 to c.Chol_core.nb - 1 do
              match handle i k with
              | Some hik ->
                  D.start_write ctx hik;
                  Chol_core.trsm ~b lkk (D.data ctx hik);
                  D.end_write ctx hik;
                  D.work ctx (Chol_core.trsm_cycles b)
              | None -> ()
            done
        | None -> assert false)
      end;
      D.barrier ctx ~space:0;
      (* update phase: owner of column j applies L_ik L_jk^T *)
      for j = k + 1 to c.Chol_core.nb - 1 do
        if owner j = me then
          match handle j k with
          | None -> ()
          | Some hjk ->
              let ljk = read_block hjk in
              for i = j to c.Chol_core.nb - 1 do
                match (handle i k, handle i j) with
                | Some hik, Some hij ->
                    let lik = read_block hik in
                    D.start_write ctx hij;
                    Chol_core.gemm_nt ~b (D.data ctx hij) lik ljk;
                    D.end_write ctx hij;
                    D.work ctx (Chol_core.gemm_cycles b)
                | _ -> ()
              done
      done;
      D.barrier ctx ~space:0
    done;
    (* checksum over the factor *)
    if me = 0 then begin
      let s = ref 0. in
      Hashtbl.iter
        (fun (i, j) r ->
          ignore i;
          ignore j;
          let h = D.map ctx r in
          D.start_read ctx h;
          Array.iter (fun v -> s := !s +. abs_float v) (D.data ctx h);
          D.end_read ctx h)
        rid_of;
      !s
    end
    else 0.
end
