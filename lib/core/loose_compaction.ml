open Odex_extmem

type outcome = { dest : Ext_array.t; ok : bool }

(* Compact each region of [rho] blocks of [src] to its first ceil(rho/2)
   blocks, writing them to [dst] (of half the size). One in-cache pass per
   region: the region is gathered high to low, one block at a time, into
   [region] (rho slots, each with a one-slot view in [slots]). The trace
   is a fixed interleaving of region reads and half-region writes.
   Returns false if any region overflowed. *)
let halve_regions ~rho region slots src dst =
  let n = Ext_array.blocks src in
  let half = (rho + 1) / 2 in
  let regions = Emodel.ceil_div n rho in
  let ok = ref true in
  for g = 0 to regions - 1 do
    let lo = g * rho in
    let len = min rho (n - lo) in
    let out_lo = g * half in
    let out_len = min half (Ext_array.blocks dst - out_lo) in
    for i = lo + len - 1 downto lo do
      Ext_array.read_flat src i ~count:1 slots.(i - lo)
    done;
    (* Move the survivors to the front, in region order, and clear the
       rest: slot k is then the k-th output block. *)
    let occupied = ref 0 in
    for k = 0 to len - 1 do
      if Flat.first_item region k >= 0 then begin
        if k > !occupied then Flat.copy_block region k region !occupied;
        incr occupied
      end
    done;
    Flat.clear_blocks region !occupied (rho - !occupied);
    if !occupied > out_len then ok := false;
    (* Scatter the survivors (possibly truncated on overflow). *)
    for slot = 0 to out_len - 1 do
      Ext_array.write_flat dst (out_lo + slot) ~count:1 slots.(slot)
    done
  done;
  !ok

let run ?(c0 = 4) ?(c1 = 3) ?(sorter = Odex_sortnet.Ext_sort.auto) ~m ~rng ~capacity a =
  if capacity < 0 then invalid_arg "Loose_compaction.run: negative capacity";
  let storage = Ext_array.storage a in
  let b = Ext_array.block_size a in
  let n = Ext_array.blocks a in
  let dest = Ext_array.create storage ~blocks:(5 * capacity) in
  if capacity = 0 then { dest; ok = true }
  else begin
    let c_region = Ext_array.sub dest ~off:0 ~len:(4 * capacity) in
    let rho = max 2 (c1 * Emodel.ilog2_ceil (max 2 n)) in
    if rho > m then
      invalid_arg
        (Printf.sprintf
           "Loose_compaction.run: region of %d blocks exceeds cache m = %d (wide-block/tall-cache \
            assumption violated)"
           rho m);
    (* Alice holds one region at a time. *)
    Residency.check ~m rho;
    let region = Flat.create ~block_size:b ~blocks:rho in
    let slots = Array.init rho (fun k -> Flat.sub region ~off:k ~len:1) in
    (* Stop the halving once A is below n / log_m^2 n blocks (and always
       once regions stop making sense). *)
    let log_m_n =
      Float.max 1.
        (Emodel.log_base ~base:(Float.of_int (max 2 m)) (Float.of_int (max 2 n)))
    in
    let threshold =
      max (2 * rho) (Float.to_int (Float.of_int n /. (log_m_n *. log_m_n)))
    in
    let ok = ref true in
    let cur = ref a in
    Ext_array.with_span a "loose.halving" (fun () ->
        while Ext_array.blocks !cur > threshold do
          for _ = 1 to c0 do
            Thinning.pass ~rng ~src:!cur ~dst:c_region
          done;
          let next =
            Ext_array.create storage
              ~blocks:(Emodel.ceil_div (Ext_array.blocks !cur) rho * ((rho + 1) / 2))
          in
          if not (halve_regions ~rho region slots !cur next) then ok := false;
          cur := next
        done);
    (* Final deterministic compression of the residue: occupied cells
       first, then copy the first [capacity] blocks to the output tail. *)
    Ext_array.with_span a "loose.final-sort" (fun () ->
        Odex_sortnet.Ext_sort.run sorter ~m !cur;
        let one = slots.(0) in
        for i = 0 to capacity - 1 do
          if i < Ext_array.blocks !cur then Ext_array.read_flat !cur i ~count:1 one
          else Flat.clear_blocks one 0 1;
          Ext_array.write_flat dest ((4 * capacity) + i) ~count:1 one
        done);
    { dest; ok = !ok }
  end
