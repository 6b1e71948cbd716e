open Odex_extmem

let pass ~rng ~src ~dst =
  let n = Ext_array.blocks src in
  let c_size = Ext_array.blocks dst in
  if c_size = 0 then invalid_arg "Thinning.pass: destination has no blocks";
  let b = Ext_array.block_size src in
  for i = 0 to n - 1 do
    let blk = Ext_array.read_block src i in
    let j = Odex_crypto.Rng.int rng c_size in
    let target = Ext_array.read_block dst j in
    if (not (Block.is_empty blk)) && Block.is_empty target then begin
      Ext_array.write_block dst j blk;
      Ext_array.write_block src i (Block.make b)
    end
    else begin
      Ext_array.write_block dst j target;
      Ext_array.write_block src i blk
    end
  done
