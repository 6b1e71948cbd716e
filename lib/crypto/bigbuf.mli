(** Off-heap byte buffers for the zero-copy sealing path.

    A [Bigbuf.t] is a C-layout char Bigarray: a flat, GC-opaque byte
    region that C stubs (ChaCha20 keystream, positional file I/O) can
    address directly while the OCaml runtime lock is released. All
    multi-byte accessors are little-endian — the sealed on-disk format —
    independent of host endianness. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] is a fresh zero-filled buffer of [n] bytes. (Raw Bigarray
    allocation is uninitialised; this fills, so grown buffers never leak
    stale heap contents into sealed payloads.) *)

val length : t -> int

val set : t -> int -> char -> unit

val unsafe_get : t -> int -> char

val set64_le : t -> int -> int64 -> unit
(** Bounds-checked little-endian 64-bit store at byte offset [i]
    (unaligned offsets allowed). *)

val unsafe_get64_le : t -> int -> int64
(** Unchecked little-endian 64-bit load, for inner loops whose caller
    has validated the whole region once ({!Cell.decode_big} and the
    cipher cores). *)

val unsafe_set64_le : t -> int -> int64 -> unit

val blit : t -> int -> t -> int -> int -> unit
(** [blit src soff dst doff len] copies [len] bytes with [memmove], so
    the regions may overlap (as {!Bytes.blit} allows). Allocates nothing.
    @raise Invalid_argument if either region is out of range or [len] is
    negative, before any byte moves. *)

val zero : t -> int -> int -> unit
(** [zero b off len] sets [len] bytes from [off] to zero with [memset].
    Allocates nothing. @raise Invalid_argument as {!blit}, before any
    byte changes. *)
