type t = Cell.t array

let make b = Array.make b Cell.empty

let copy = Array.copy
let size = Array.length

let count_items blk =
  Array.fold_left (fun acc c -> if Cell.is_item c then acc + 1 else acc) 0 blk

let is_full blk = count_items blk = Array.length blk
let is_empty blk = count_items blk = 0

let items blk =
  Array.fold_right (fun c acc -> if Cell.is_item c then Cell.get c :: acc else acc) blk []

let of_items b its =
  let blk = make b in
  List.iteri
    (fun i it ->
      if i >= b then invalid_arg "Block.of_items: too many items";
      blk.(i) <- Cell.Item it)
    its;
  blk

let sort_in_place cmp blk = Array.sort cmp blk

let encoded_size b = b * Cell.encoded_size

module Bigbuf = Odex_crypto.Bigbuf

let encode_into_big blk buf off =
  let b = Array.length blk in
  if off < 0 || off + encoded_size b > Bigbuf.length buf then
    invalid_arg "Block.encode_into_big: region out of bounds";
  Array.iteri (fun i c -> Cell.encode_big buf (off + (i * Cell.encoded_size)) c) blk

let decode_from_big ~block_size buf off =
  if off < 0 || off + encoded_size block_size > Bigbuf.length buf then
    invalid_arg "Block.decode_from_big: region out of bounds";
  Array.init block_size (fun i -> Cell.decode_big buf (off + (i * Cell.encoded_size)))

let pp ppf blk =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Cell.pp)
    blk
