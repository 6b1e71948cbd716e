open Odex_extmem

let pass ~rng ~src ~dst =
  let n = Ext_array.blocks src in
  let c_size = Ext_array.blocks dst in
  if c_size = 0 then invalid_arg "Thinning.pass: destination has no blocks";
  let b = Ext_array.block_size src in
  let blk = Flat.create ~block_size:b ~blocks:1 and target = Flat.create ~block_size:b ~blocks:1 in
  for i = 0 to n - 1 do
    Ext_array.read_flat src i ~count:1 blk;
    let j = Odex_crypto.Rng.int rng c_size in
    Ext_array.read_flat dst j ~count:1 target;
    if Flat.first_item blk 0 >= 0 && Flat.first_item target 0 < 0 then begin
      Ext_array.write_flat dst j ~count:1 blk;
      Flat.clear_blocks blk 0 1;
      Ext_array.write_flat src i ~count:1 blk
    end
    else begin
      Ext_array.write_flat dst j ~count:1 target;
      Ext_array.write_flat src i ~count:1 blk
    end
  done
