(** Invertible Bloom lookup table in external memory, with the
    semi-oblivious insertion trace of paper §2/Theorem 4.

    "The sequence of memory locations accessed during an insert(x, y)
    method is oblivious to the value y and the number of items already
    stored in the table ... the locations accessed ... depend only on the
    key, x." Here keys are block indices and values are whole blocks: as
    the paper prescribes, each table cell has a [count] field (word), a
    [keySum] field (word) and a [valueSum] field that is a block — we sum
    payload blocks componentwise, with a presence counter per position so
    empty cells add zero.

    [insert] (a real insertion) and [touch] (write everything back
    unchanged, re-encrypted) generate {e identical} traces for the same
    key — that is the property the oblivious compaction of Theorem 4
    builds on, and it is asserted by the test-suite. *)

open Odex_extmem

type t

val create : Storage.t -> ?k:int -> cells:int -> Odex_crypto.Prf.key -> t
(** Allocate a table of [cells] IBLT cells (default k = 3). Each cell
    occupies [blocks_per_cell] consecutive blocks on the server. *)

val k : t -> int
val blocks_per_cell : t -> int
val table_blocks : t -> int
(** Total server blocks used: [cells * blocks_per_cell]. *)

val insert : t -> index:int -> Block.t -> unit
(** [insert t ~index blk] inserts the pair (index, blk): k cell
    read–modify–writes whose addresses depend only on [index]. *)

val touch : t -> index:int -> unit
(** Dummy insertion: the same reads and writes as [insert t ~index _],
    with contents unchanged (but re-encrypted by the storage layer). *)

val decode_in_cache : t -> m:int -> (int * Block.t) list * bool
(** Read the whole table into Alice's cache (capacity [m] blocks;
    requires [table_blocks t <= m]) and run the peeling decode privately.
    Returns the recovered (index, block) pairs and a completeness flag.
    The trace is a single scan of the table — independent of contents.
    This is the fast path of the Theorem 4 decode; for larger tables
    the compaction facade switches engines instead (DESIGN.md §5). *)
