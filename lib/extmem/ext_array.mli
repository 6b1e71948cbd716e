(** A contiguous array of blocks on the server — the "array A in Bob's
    external memory" that every algorithm in the paper manipulates.

    An [Ext_array.t] is a window (base address + block count) onto a
    {!Storage.t}. Indexing is in blocks relative to the window; [sub]
    makes the sub-array views the recursive algorithms need (regions of
    the loose-compaction halving, the C_i subarrays of the sort) without
    copying. *)

type t

val create : Storage.t -> blocks:int -> t
(** Allocate a fresh all-empty array of [blocks] blocks. *)

val view : Storage.t -> base:int -> blocks:int -> t

val storage : t -> Storage.t
val base : t -> int
val blocks : t -> int
val block_size : t -> int

val cells : t -> int
(** Total cell capacity, [blocks * block_size]. *)

val addr : t -> int -> int
(** Absolute storage address of relative block [i]. *)

val sub : t -> off:int -> len:int -> t
(** Block-granularity sub-window. *)

val read_block : t -> int -> Block.t
(** Counted I/O. *)

val write_block : t -> int -> Block.t -> unit
(** Counted I/O. *)

val write_blocks : t -> int -> Block.t array -> unit
(** [write_blocks a i blks] writes [blks] to relative blocks
    [i, i + length blks) as one batched run (see {!Storage.write_many}):
    one counted I/O and one trace op per block in address order, a
    single backend transfer. *)

val read_flat : t -> int -> count:int -> Flat.t -> unit
(** [read_flat a i ~count buf] reads relative blocks [i, i + count) into
    slots [0, count) of [buf] as one batched run of opened cell images
    (see {!Storage.read_flat}): the same counted I/Os and trace as
    {!Storage.read_many}, with no decode. The buffer is the caller's; the
    header words are left unspecified. *)

val write_flat : t -> int -> count:int -> Flat.t -> unit
(** Mirror of {!read_flat}, via {!Storage.write_flat}: slots
    [0, count) of [buf] go to relative blocks [i, i + count). The
    caller's cell images are not mutated. *)

val iter_runs : t -> chunk:int -> (int -> Block.t array -> unit) -> unit
(** [iter_runs a ~chunk f] scans the whole array left to right in
    batched runs of at most [chunk] blocks, calling [f base blks] for
    each run ([base] is the relative index of [blks.(0)]). The workhorse
    of the scan phases: the trace is identical to a per-block
    [read_block] loop, the bytes travel [chunk] blocks at a time. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span a label f] runs [f ()] inside a labelled span of the
    underlying storage's trace (see {!Trace.with_span}): if two runs'
    traces diverge, the span boundaries pinpoint the phase. Labels must
    depend only on public parameters, never on data. *)

val of_cells : Storage.t -> block_size:int -> Cell.t array -> t
(** Set-up helper: lay the cells out in fresh blocks {e without} counting
    I/Os (the input is assumed to already reside on the server, as in the
    paper's problem statements). Pads the final block with empties. *)

val to_cells : t -> Cell.t array
(** Inspection helper for tests and harnesses: reads every block {e
    without} counting I/Os. Algorithms never call this. *)

val items : t -> Cell.item list
(** Non-empty cells in array order; uncounted, for tests. *)
