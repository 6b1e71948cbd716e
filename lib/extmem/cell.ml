type item = { key : int; value : int; tag : int; aux : int }

type t = Empty | Item of item

let empty = Empty
let item ?(tag = 0) ?(aux = 0) ~key ~value () = Item { key; value; tag; aux }

let is_item = function Empty -> false | Item _ -> true

let get = function
  | Empty -> invalid_arg "Cell.get: empty cell"
  | Item it -> it

let key_exn c = (get c).key

let with_tag c tag =
  match c with Empty -> Empty | Item it -> Item { it with tag }

let compare_keys a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, Item _ -> 1
  | Item _, Empty -> -1
  | Item x, Item y ->
      let c = compare x.key y.key in
      if c <> 0 then c else compare x.tag y.tag

let compare_by_aux a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, Item _ -> 1
  | Item _, Empty -> -1
  | Item x, Item y ->
      let c = compare x.aux y.aux in
      if c <> 0 then c
      else
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

(* In-place views of an image's constructor and aux words. The raw
   primitives keep the int64 unboxed, so these allocate nothing; the
   image words are little-endian. *)
external get64_ne : Bigbuf.t -> int -> int64 = "%caml_bigstring_get64u"
external set64_ne : Bigbuf.t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let is_item_big buf off = get64_ne buf off <> 0L

let aux_big buf off =
  let w = get64_ne buf (off + aux_offset) in
  Int64.to_int (if Sys.big_endian then bswap64 w else w)

let set_aux_big buf off v =
  let w = Int64.of_int v in
  set64_ne buf (off + aux_offset) (if Sys.big_endian then bswap64 w else w)

let encode_big buf off = function
  | Empty ->
      Bigbuf.unsafe_set64_le buf off 0L;
      Bigbuf.unsafe_set64_le buf (off + 8) 0L;
      Bigbuf.unsafe_set64_le buf (off + 16) 0L;
      Bigbuf.unsafe_set64_le buf (off + 24) 0L;
      Bigbuf.unsafe_set64_le buf (off + 32) 0L
  | Item { key; value; tag; aux } ->
      Bigbuf.unsafe_set64_le buf off 1L;
      Bigbuf.unsafe_set64_le buf (off + 8) (Int64.of_int key);
      Bigbuf.unsafe_set64_le buf (off + 16) (Int64.of_int value);
      Bigbuf.unsafe_set64_le buf (off + 24) (Int64.of_int tag);
      Bigbuf.unsafe_set64_le buf (off + aux_offset) (Int64.of_int aux)

let decode_big buf off =
  match Bigbuf.unsafe_get64_le buf off with
  | 0L -> Empty
  | 1L ->
      Item
        {
          key = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 8));
          value = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 16));
          tag = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 24));
          aux = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + aux_offset));
        }
  | c -> invalid_arg (Printf.sprintf "Cell.decode_big: bad constructor word %Ld" c)
