(** A block of [B] cells — the unit of I/O in the external-memory model —
    decoded. Algorithms move blocks as {!Flat} images; this view serves
    {!Storage}'s block views and setup/inspection helpers
    ({!Storage.unchecked_peek}, {!Ext_array.of_cells}). *)

type t = Cell.t array

val make : int -> t
(** [make b] is a block of [b] empty cells. *)

val encoded_size : int -> int
(** Bytes of a block image: [b] cell images back to back. *)

val encode_into_big : t -> Odex_crypto.Bigbuf.t -> int -> unit
(** [encode_into_big blk buf off] writes the image of [blk] at byte
    offset [off] of the off-heap I/O buffer the cipher and the file
    backend operate on directly: one bounds check for the whole block,
    then unsafe word stores per cell. *)

val decode_from_big : block_size:int -> Odex_crypto.Bigbuf.t -> int -> t
(** [decode_from_big ~block_size buf off] decodes the image laid down by
    {!encode_into_big} at [off], with one bounds check for the whole
    block. *)
