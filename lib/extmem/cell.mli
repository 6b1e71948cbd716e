(** The unit of storage: one memory word-group holding a key–value item.

    The paper assumes "keys and values can be stored in memory words or
    blocks of memory words, which support the operations of read, write,
    copy, compare, add, and subtract" (§1). A cell is either empty — the
    paper's null value, "different from any input value" — or an item
    carrying a comparison key, a payload value, a [tag] word (original
    position, used for order preservation and for the §1 distinctness
    caveat) and an [aux] scratch word that algorithms use for private
    bookkeeping (butterfly distance labels, quantile colors, thinning
    success bits). User code should treat [aux] as volatile across
    library calls. *)

type item = { key : int; value : int; tag : int; aux : int }

type t = Empty | Item of item

val empty : t
val item : ?tag:int -> ?aux:int -> key:int -> value:int -> unit -> t

val is_item : t -> bool

val get : t -> item
(** @raise Invalid_argument on [Empty]. *)

val key_exn : t -> int

val with_tag : t -> int -> t
(** [with_tag c tag] replaces the tag; identity on [Empty]. *)

val compare_keys : t -> t -> int
(** Total order: items by [(key, tag)] (tag breaks ties, giving the
    distinctness the paper's §1 caveat requires when tags are original
    positions), and [Empty] sorts after every item (the paper treats empty
    cells as +∞ when sorting, §4). [aux] does not participate. The
    sorters take this order as data, {!Order.Keys}. *)

val encoded_size : int
(** Bytes of one cell image — a word-aligned stride (5 × 8 bytes: a
    constructor word, then key, value, tag and aux), so encode/decode
    are straight 64-bit loads and stores. The constructor word is [0]
    for [Empty] and [1] for an item, and an [Empty] image is all zeros:
    a zero-filled buffer decodes to empties. *)

val encode_big : Odex_crypto.Bigbuf.t -> int -> t -> unit
(** [encode_big buf off c] writes the image of [c] at byte offset [off]
    of an off-heap I/O buffer, using unsafe word stores that allocate
    nothing — the caller (in
    practice {!Block.encode_into_big} or {!Flat}) has already
    bounds-checked the whole region. *)

val decode_big : Odex_crypto.Bigbuf.t -> int -> t
(** The cell whose image starts at [off].
    @raise Invalid_argument on a constructor word other than [0] or [1].
    Region bounds are the caller's responsibility, as in {!encode_big}. *)

val is_item_big : Odex_crypto.Bigbuf.t -> int -> bool
(** Whether the image at [off] holds an item (its constructor word is
    not [0]), read without a decode. Bounds as in {!encode_big}. *)

val key_big : Odex_crypto.Bigbuf.t -> int -> int
(** The [key] word of the image at [off], read in place. Meaningful on
    item images. Bounds as in {!encode_big}. *)

val tag_big : Odex_crypto.Bigbuf.t -> int -> int
(** The [tag] word of the image at [off], read in place. Meaningful on
    item images. Bounds as in {!encode_big}. *)

val aux_big : Odex_crypto.Bigbuf.t -> int -> int
(** The [aux] word of the image at [off], read in place. Meaningful on
    item images. Bounds as in {!encode_big}. *)

val set_aux_big : Odex_crypto.Bigbuf.t -> int -> int -> unit
(** Rewrite the [aux] word of the image at [off] in place; the other
    words are untouched. Bounds as in {!encode_big}. *)
