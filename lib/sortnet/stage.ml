open Odex_extmem

let whole ~m a f =
  let n = Ext_array.blocks a in
  Residency.check ~m n;
  let b = Ext_array.block_size a in
  let src = Flat.create ~block_size:b ~blocks:n in
  Ext_array.read_flat a 0 ~count:n src;
  Ext_array.write_flat a 0 ~count:n (f src (Flat.create ~block_size:b ~blocks:n))

let[@inline] offset f p =
  let b = Flat.block_size f in
  Flat.cell_offset f ~block:(p / b) ~slot:(p mod b)

let gather src offs ~first ~len dst =
  for k = 0 to len - 1 do
    Flat.copy_cell src offs.(k) dst (offset dst (first + k))
  done

let sort_cells order src ~first offs dst =
  let len = Array.length offs in
  for k = 0 to len - 1 do
    offs.(k) <- offset src (first + k)
  done;
  Order.sort_images order (Flat.buffer src) offs;
  gather src offs ~first ~len dst
