open Odex_extmem

type outcome = { dest : Ext_array.t; phases : int; ok : bool }

(* Compact each region in Alice's memory: the region is gathered high to
   low, one block at a time, into [region] (one-slot views in [slots]),
   and its survivors are packed in region order into its first slots.
   Those past the caller's prefix stay there for the final Theorem 4
   pass to collect. Fixed trace: every region block is read and written
   once. *)
let compact_regions ~m ~rho a =
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  Residency.check ~m rho;
  let region = Flat.create ~block_size:b ~blocks:rho in
  let slots = Array.init rho (fun k -> Flat.sub region ~off:k ~len:1) in
  let empty = Flat.create ~block_size:b ~blocks:1 in
  let survivors = Array.make rho 0 in
  let regions = Emodel.ceil_div n rho in
  for g = 0 to regions - 1 do
    let lo = g * rho in
    let len = min rho (n - lo) in
    for i = lo + len - 1 downto lo do
      Ext_array.read_flat a i ~count:1 slots.(i - lo)
    done;
    let count = ref 0 in
    for k = 0 to len - 1 do
      if Flat.first_item region k >= 0 then begin
        survivors.(!count) <- k;
        incr count
      end
    done;
    for slot = 0 to len - 1 do
      let out = if slot < !count then slots.(survivors.(slot)) else empty in
      Ext_array.write_flat a (lo + slot) ~count:1 out
    done
  done

let run ?(c0 = 8) ?key ?sparse_threshold ~m ~rng ~capacity a =
  if capacity < 0 then invalid_arg "Logstar_compaction.run: negative capacity";
  let storage = Ext_array.storage a in
  let b = Ext_array.block_size a in
  let r = capacity in
  let reserve = Emodel.ceil_div r 4 in
  let dest = Ext_array.create storage ~blocks:((4 * r) + reserve) in
  if r = 0 then { dest; phases = 0; ok = true }
  else begin
    let main = Ext_array.sub dest ~off:0 ~len:(4 * r) in
    let n0 = Ext_array.blocks a in
    (* Initial c0 A-to-main thinning passes. *)
    Ext_array.with_span a "logstar.thin0" (fun () ->
        for _ = 1 to c0 do
          Thinning.pass ~rng ~src:a ~dst:main
        done);
    (* Tower phases. *)
    let sparse_threshold =
      match sparse_threshold with
      | Some t -> t
      | None ->
          let lg = Float.of_int (max 2 (Emodel.ilog2_ceil (max 2 n0))) in
          max 2 (Float.to_int (Float.of_int n0 /. (lg *. lg)))
    in
    let cur = ref a in
    let phases = ref 0 in
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let t_i = Emodel.tower_of_twos !i in
      let budget = if t_i >= 64 then 0 else r / (t_i * t_i * t_i * t_i) in
      if budget <= sparse_threshold || t_i >= 64 || budget = 0 then continue := false
      else Ext_array.with_span a "logstar.phase" @@ fun () ->
      begin
        incr phases;
        (* Thinning-out: two A-to-C passes, t_i C-to-main passes, then A
           grows by C. *)
        let c_arr = Ext_array.create storage ~blocks:(max 1 (Emodel.ceil_div r t_i)) in
        Thinning.pass ~rng ~src:!cur ~dst:c_arr;
        Thinning.pass ~rng ~src:!cur ~dst:c_arr;
        for _ = 1 to t_i do
          Thinning.pass ~rng ~src:c_arr ~dst:main
        done;
        let grown =
          Ext_array.create storage ~blocks:(Ext_array.blocks !cur + Ext_array.blocks c_arr)
        in
        let one = Flat.create ~block_size:b ~blocks:1 in
        let cursor = ref 0 in
        List.iter
          (fun src ->
            for j = 0 to Ext_array.blocks src - 1 do
              Ext_array.read_flat src j ~count:1 one;
              Ext_array.write_flat grown !cursor ~count:1 one;
              incr cursor
            done)
          [ !cur; c_arr ];
        cur := grown;
        (* Region compaction: regions of min(m, 2^{4 t_i}) blocks,
           prefixes of 1/t_i^2, then t_i^2 prefix-to-main thinning
           passes. *)
        let rho =
          let cap = if t_i >= 16 then max_int else 1 lsl (4 * t_i) in
          max 2 (min (max 2 m) cap)
        in
        let prefix = max 1 (rho / (t_i * t_i)) in
        compact_regions ~m ~rho !cur;
        let n_cur = Ext_array.blocks !cur in
        let regions = Emodel.ceil_div n_cur rho in
        for _ = 1 to t_i * t_i do
          for g = 0 to regions - 1 do
            let lo = g * rho in
            let len = min prefix (n_cur - lo) in
            Thinning.pass ~rng ~src:(Ext_array.sub !cur ~off:lo ~len) ~dst:main
          done
        done;
        incr i
      end
    done;
    (* Final sparse compaction of whatever remains into the reserve. *)
    Ext_array.with_span a "logstar.final" @@ fun () ->
    let key = match key with Some k -> k | None -> Odex_crypto.Prf.key_of_int 0x106 in
    let ok = ref true in
    let final_capacity = reserve in
    (* Engine choice depends only on public parameters. *)
    let fits_sparse =
      final_capacity > 0
      && Compaction.sparse_table_fits ~m ~capacity_blocks:final_capacity ~block_size:b
    in
    let compacted =
      if fits_sparse then begin
        let out = Sparse_compaction.run ~m ~key ~capacity:final_capacity !cur in
        if not out.Sparse_compaction.complete then ok := false;
        out.Sparse_compaction.dest
      end
      else begin
        let occupied = Butterfly.compact ~m:(max 3 m) !cur in
        if occupied > final_capacity then ok := false;
        Ext_array.sub !cur ~off:0 ~len:(min (Ext_array.blocks !cur) final_capacity)
      end
    in
    let one = Flat.create ~block_size:b ~blocks:1 in
    for j = 0 to reserve - 1 do
      if j < Ext_array.blocks compacted then Ext_array.read_flat compacted j ~count:1 one
      else Flat.clear_blocks one 0 1;
      Ext_array.write_flat dest ((4 * r) + j) ~count:1 one
    done;
    { dest; phases = !phases; ok = !ok }
  end
