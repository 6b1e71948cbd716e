type item = { key : int; value : int; tag : int; aux : int }

type t = Empty | Item of item

let empty = Empty
let item ?(tag = 0) ?(aux = 0) ~key ~value () = Item { key; value; tag; aux }

let is_empty = function Empty -> true | Item _ -> false
let is_item = function Empty -> false | Item _ -> true

let get = function
  | Empty -> invalid_arg "Cell.get: empty cell"
  | Item it -> it

let key_exn c = (get c).key
let value_exn c = (get c).value
let tag_exn c = (get c).tag

let with_tag c tag =
  match c with Empty -> Empty | Item it -> Item { it with tag }

let with_aux c aux =
  match c with Empty -> Empty | Item it -> Item { it with aux }

let compare_keys a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, Item _ -> 1
  | Item _, Empty -> -1
  | Item x, Item y ->
      let c = compare x.key y.key in
      if c <> 0 then c else compare x.tag y.tag

let compare_by_tag a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, Item _ -> 1
  | Item _, Empty -> -1
  | Item x, Item y ->
      let c = compare x.tag y.tag in
      if c <> 0 then c else compare x.key y.key

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

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Item x, Item y -> x.key = y.key && x.value = y.value && x.tag = y.tag && x.aux = y.aux
  | Empty, Item _ | Item _, Empty -> false

let pp ppf = function
  | Empty -> Format.fprintf ppf "_"
  | Item { key; value; tag; aux } ->
      if tag = 0 && aux = 0 then Format.fprintf ppf "%d:%d" key value
      else Format.fprintf ppf "%d:%d@@%d.%d" key value tag aux

let encoded_size = 40
(* 5 × 8-byte words: a full constructor word followed by key, value,
   tag, aux. The constructor is padded from one byte to a word so that
   every field sits on a fixed 8-byte stride — encode/decode are
   straight int64 stores/loads, which is what keeps the sealing fast
   path free of per-byte work. *)

module Bigbuf = Odex_crypto.Bigbuf

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
      Bigbuf.unsafe_set64_le buf (off + 32) (Int64.of_int aux)

let decode_big buf off =
  match Bigbuf.unsafe_get64_le buf off with
  | 0L -> Empty
  | 1L ->
      Item
        {
          key = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 8));
          value = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 16));
          tag = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 24));
          aux = Int64.to_int (Bigbuf.unsafe_get64_le buf (off + 32));
        }
  | c -> invalid_arg (Printf.sprintf "Cell.decode_big: bad constructor word %Ld" c)
