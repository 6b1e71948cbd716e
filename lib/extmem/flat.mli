(** Flat runs: blocks as encoded cell images in one off-heap buffer.

    A [Flat.t] holds [blocks] block slots laid out exactly as the store's
    sealed payloads: slot [i] starts at byte [i * stride] with an 8-byte
    header word (the nonce slot, owned by {!Storage}), followed by the
    block's [block_size] cell images of {!Cell.encoded_size} bytes each.
    This is the one transfer format of {!Storage}: {!Storage.read_flat}
    and {!Storage.write_flat} move runs of these slots with no codec in
    between, and a {!Block.t} is a decode view over one slot.

    An all-zero cell image is the [Empty] cell, so a fresh buffer — and a
    {!clear_cell}ed image — reads back as empties.

    Cells are addressed by byte offset (see {!cell_offset}) so that
    kernels can walk a run by increments: the next cell of a block is
    {!cell_bytes} further on, and the first cell of the next block a
    further {!header_bytes} past the end of the current one. Every
    accessor checks its region against the buffer. *)

type t

val create : block_size:int -> blocks:int -> t
(** A zero-filled buffer of [blocks] slots: every cell [Empty]. *)

val stride_of : block_size:int -> int
(** Bytes per slot: [header_bytes + block_size * cell_bytes] — the
    store's payload size. *)

val header_bytes : int
(** The header word in front of every slot (8). *)

val cell_bytes : int
(** One cell image ({!Cell.encoded_size}). *)

val sub : t -> off:int -> len:int -> t
(** [sub t ~off ~len] is slots [off, off + len) of [t] as a buffer of
    its own that shares [t]'s bytes: a run read into the view lands in
    [t] at slot [off]. *)

val block_size : t -> int
val blocks : t -> int

val buffer : t -> Odex_crypto.Bigbuf.t
(** The underlying bytes, for the transfer layer. *)

val cell_offset : t -> block:int -> slot:int -> int
(** Byte offset of cell [slot] of block [block]. *)

val copy_cell : t -> int -> t -> int -> unit
(** [copy_cell src soff dst doff] copies one cell image between byte
    offsets. Word copies, no allocation. *)

val clear_cell : t -> int -> unit
(** Zero the image at a byte offset, making it [Empty]. *)

val get_cell : t -> int -> Cell.t
(** Decode the image at a byte offset. *)

val set_cell : t -> int -> Cell.t -> unit
(** Encode a cell at a byte offset. *)

val is_item : t -> int -> bool
(** Whether the image at a byte offset holds an item (not [Empty]). *)

val key : t -> int -> int
(** The [key] word of the image at a byte offset, read in place.
    Meaningful on item images, as are {!value}, {!tag} and {!aux}. *)

val value : t -> int -> int
val tag : t -> int -> int

val aux : t -> int -> int
(** The [aux] word — the scratch word kernels such as the butterfly
    router keep their labels in. *)

val set_aux : t -> int -> int -> unit
(** Rewrite the [aux] word of the item image at a byte offset in place;
    the other words are untouched. *)

val set_tag : t -> int -> int -> unit
(** Rewrite the [tag] word in place, as {!set_aux}. *)

val set_item : t -> int -> key:int -> value:int -> tag:int -> aux:int -> unit
(** Write an item image at a byte offset, without building the cell. *)

val first_item : t -> int -> int
(** [first_item t i] is the byte offset of slot [i]'s first item image,
    or [-1] when the slot holds no item. *)

val count_items : t -> int -> int
(** The number of item images in slot [i]. *)

val copy_block : t -> int -> t -> int -> unit
(** [copy_block src i dst j] copies the cell images of slot [i] to slot
    [j] (not the header word). *)

val clear_blocks : t -> int -> int -> unit
(** [clear_blocks t i n] zeroes the images of slots [i, i + n). *)

val get_block : t -> int -> Block.t
(** Decode slot [i]. *)

val set_block : t -> int -> Block.t -> unit
(** Encode a block of [block_size] cells into slot [i]. *)
