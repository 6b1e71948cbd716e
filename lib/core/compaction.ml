open Odex_extmem

type outcome = { dest : Ext_array.t; occupied : int; ok : bool }

let blocks_per_iblt_cell b = Emodel.ceil_div (2 + (5 * b)) (4 * b)

(* Mirrors [Sparse_compaction.run]'s defaults (k = 3, multiplier = 3):
   the table never has fewer than k + 1 cells, so tiny capacities still
   cost a 4-cell table — forgetting that floor dispatched capacity-1
   jobs to an engine that then rejected them. *)
let sparse_table_fits ~m ~capacity_blocks ~block_size =
  max 4 (3 * capacity_blocks) * blocks_per_iblt_cell block_size <= m

(* Estimated I/O counts of the two tight engines, in block I/Os, used to
   dispatch on public parameters only. *)
let sparse_cost ~n ~block_size =
  (* One read per input block plus k = 3 cell read-modify-writes. *)
  n * (1 + (2 * 3 * blocks_per_iblt_cell block_size))

let butterfly_cost ~n ~m =
  if n <= 1 then 2 * n
  else begin
    let w = 1 lsl Emodel.ilog2_floor (max 2 ((m + 1) / 2)) in
    let g = max 1 (Emodel.ilog2_floor w) in
    let phases = Emodel.ceil_div (Emodel.ilog2_ceil n) g in
    2 * n * (1 + phases)
  end

let tight ?key ~m ~capacity_blocks a =
  let b = Ext_array.block_size a in
  let n = Ext_array.blocks a in
  let key = match key with Some k -> k | None -> Odex_crypto.Prf.key_of_int 0x0b11 in
  let use_sparse =
    capacity_blocks > 0
    && sparse_table_fits ~m ~capacity_blocks ~block_size:b
    && sparse_cost ~n ~block_size:b <= butterfly_cost ~n ~m
  in
  if use_sparse then begin
    let { Sparse_compaction.dest; recovered; complete } =
      Sparse_compaction.run ~m ~key ~capacity:capacity_blocks a
    in
    { dest; occupied = recovered; ok = complete }
  end
  else begin
    let occupied = Butterfly.compact ~m a in
    if occupied > capacity_blocks then
      invalid_arg
        (Printf.sprintf "Compaction.tight: %d occupied blocks exceed capacity %d" occupied
           capacity_blocks);
    let dest =
      if Ext_array.blocks a <= capacity_blocks then a
      else Ext_array.sub a ~off:0 ~len:capacity_blocks
    in
    { dest; occupied; ok = true }
  end

let loose ?sorter ~m ~rng ~capacity_blocks a =
  let n = Ext_array.blocks a in
  let rho = 3 * Emodel.ilog2_ceil (max 2 n) in
  if capacity_blocks * 4 <= n && rho <= m then begin
    let { Loose_compaction.dest; ok } =
      Loose_compaction.run ?sorter ~m ~rng ~capacity:capacity_blocks a
    in
    { dest; occupied = -1; ok }
  end
  else begin
    (* Butterfly fallback (dense or tiny regime). *)
    let occupied = Butterfly.compact ~m a in
    let len = min (Ext_array.blocks a) (max occupied capacity_blocks) in
    let dest = if len = Ext_array.blocks a then a else Ext_array.sub a ~off:0 ~len in
    { dest; occupied; ok = true }
  end
