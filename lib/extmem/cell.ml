type item = { key : int; value : int; tag : int; aux : int }

type t = Empty | Item of item

let empty = Empty
let item ?(tag = 0) ?(aux = 0) ~key ~value () = Item { key; value; tag; aux }

let is_item = function Empty -> false | Item _ -> true

let get = function
  | Empty -> invalid_arg "Cell.get: empty cell"
  | Item it -> it

let key_exn c = (get c).key

let compare_keys a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, Item _ -> 1
  | Item _, Empty -> -1
  | Item x, Item y ->
      let c = compare x.key y.key in
      if c <> 0 then c else compare x.tag y.tag

let encoded_size = 40
(* 5 × 8-byte words: a full constructor word followed by key, value,
   tag, aux. The constructor is padded from one byte to a word so that
   every field sits on a fixed 8-byte stride — encode/decode are
   straight int64 stores/loads, which is what keeps the sealing fast
   path free of per-byte work. *)

module Bigbuf = Odex_crypto.Bigbuf

let aux_offset = 32

(* The codec and the in-place word views all go through the compiler's
   raw 64-bit primitives, which keep the int64 unboxed: encoding,
   decoding's word loads and the views allocate nothing (a decode
   allocates only the cell it returns). Image words are little-endian. *)
external get64_ne : Bigbuf.t -> int -> int64 = "%caml_bigstring_get64u"
external set64_ne : Bigbuf.t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] set_word buf off v =
  let w = Int64.of_int v in
  set64_ne buf off (if Sys.big_endian then bswap64 w else w)

let[@inline] get_word buf off =
  let w = get64_ne buf off in
  Int64.to_int (if Sys.big_endian then bswap64 w else w)

let is_item_big buf off = get64_ne buf off <> 0L
let key_big buf off = get_word buf (off + 8)
let value_big buf off = get_word buf (off + 16)
let tag_big buf off = get_word buf (off + 24)
let set_tag_big buf off v = set_word buf (off + 24) v
let aux_big buf off = get_word buf (off + aux_offset)
let set_aux_big buf off v = set_word buf (off + aux_offset) v

let[@inline] encode_item_big buf off ~key ~value ~tag ~aux =
  set_word buf off 1;
  set_word buf (off + 8) key;
  set_word buf (off + 16) value;
  set_word buf (off + 24) tag;
  set_word buf (off + aux_offset) aux

let encode_big buf off = function
  | Empty ->
      set64_ne buf off 0L;
      set64_ne buf (off + 8) 0L;
      set64_ne buf (off + 16) 0L;
      set64_ne buf (off + 24) 0L;
      set64_ne buf (off + 32) 0L
  | Item { key; value; tag; aux } -> encode_item_big buf off ~key ~value ~tag ~aux

let decode_big buf off =
  match get_word buf off with
  | 0 -> Empty
  | 1 ->
      Item
        {
          key = get_word buf (off + 8);
          value = get_word buf (off + 16);
          tag = get_word buf (off + 24);
          aux = get_word buf (off + aux_offset);
        }
  | _ ->
      let w = get64_ne buf off in
      invalid_arg
        (Printf.sprintf "Cell.decode_big: bad constructor word %Ld"
           (if Sys.big_endian then bswap64 w else w))
