module Bigbuf = Odex_crypto.Bigbuf

type t = { buf : Bigbuf.t; block_size : int; blocks : int; stride : int }

let header_bytes = 8
let cell_bytes = Cell.encoded_size
let stride_of ~block_size = header_bytes + Block.encoded_size block_size

let create ~block_size ~blocks =
  if block_size < 1 || blocks < 0 then invalid_arg "Flat.create";
  let stride = stride_of ~block_size in
  { buf = Bigbuf.create (blocks * stride); block_size; blocks; stride }

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.blocks then invalid_arg "Flat.sub: out of bounds";
  { t with buf = Bigarray.Array1.sub t.buf (off * t.stride) (len * t.stride); blocks = len }

let block_size t = t.block_size
let blocks t = t.blocks
let buffer t = t.buf

let cell_offset t ~block ~slot =
  if block < 0 || block >= t.blocks || slot < 0 || slot >= t.block_size then
    invalid_arg "Flat.cell_offset: cell out of bounds";
  (block * t.stride) + header_bytes + (slot * cell_bytes)

(* Raw native-endian words: a copy moves bytes, so byte order is moot. *)
external get64 : Bigbuf.t -> int -> int64 = "%caml_bigstring_get64u"
external set64 : Bigbuf.t -> int -> int64 -> unit = "%caml_bigstring_set64u"

let check t off len who =
  if off < 0 || off > Bigbuf.length t.buf - len then
    invalid_arg (Printf.sprintf "Flat.%s: offset %d out of bounds" who off)

let copy_cell src soff dst doff =
  check src soff cell_bytes "copy_cell";
  check dst doff cell_bytes "copy_cell";
  let s = src.buf and d = dst.buf in
  set64 d doff (get64 s soff);
  set64 d (doff + 8) (get64 s (soff + 8));
  set64 d (doff + 16) (get64 s (soff + 16));
  set64 d (doff + 24) (get64 s (soff + 24));
  set64 d (doff + 32) (get64 s (soff + 32))

let clear_cell t off =
  check t off cell_bytes "clear_cell";
  let d = t.buf in
  set64 d off 0L;
  set64 d (off + 8) 0L;
  set64 d (off + 16) 0L;
  set64 d (off + 24) 0L;
  set64 d (off + 32) 0L

let get_cell t off =
  check t off cell_bytes "get_cell";
  Cell.decode_big t.buf off

let set_cell t off c =
  check t off cell_bytes "set_cell";
  Cell.encode_big t.buf off c

let is_item t off =
  check t off cell_bytes "is_item";
  Cell.is_item_big t.buf off

let aux t off =
  check t off cell_bytes "aux";
  Cell.aux_big t.buf off

let set_aux t off v =
  check t off cell_bytes "set_aux";
  Cell.set_aux_big t.buf off v

let image t i = (i * t.stride) + header_bytes

let check_block t i who =
  if i < 0 || i >= t.blocks then
    invalid_arg (Printf.sprintf "Flat.%s: block %d out of bounds (%d blocks)" who i t.blocks)

let copy_block src i dst j =
  check_block src i "copy_block";
  check_block dst j "copy_block";
  if src.block_size <> dst.block_size then invalid_arg "Flat.copy_block: block sizes differ";
  Bigbuf.blit src.buf (image src i) dst.buf (image dst j) (src.stride - header_bytes)

let clear_blocks t i n =
  if n < 0 || i < 0 || i + n > t.blocks then invalid_arg "Flat.clear_blocks: out of bounds";
  for k = i to i + n - 1 do
    Bigbuf.zero t.buf (image t k) (t.stride - header_bytes)
  done

let get_block t i =
  check_block t i "get_block";
  Block.decode_from_big ~block_size:t.block_size t.buf (image t i)

let set_block t i blk =
  check_block t i "set_block";
  if Array.length blk <> t.block_size then invalid_arg "Flat.set_block: block has wrong size";
  Block.encode_into_big blk t.buf (image t i)
