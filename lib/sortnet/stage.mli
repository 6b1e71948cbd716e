(** Alice's private staging for the sorters: runs of blocks held as
    encoded cell images ({!Odex_extmem.Flat}), compared in place, never
    decoded. A cell position [p] of a run is slot [p mod B] of block
    [p / B]. A kernel checks its stage against Alice's [m] blocks with
    {!Odex_extmem.Residency.check} before any I/O. *)

open Odex_extmem

val whole : m:int -> Ext_array.t -> (Flat.t -> Flat.t -> Flat.t) -> unit
(** [whole ~m a f] reads all of [a] as one run [src] and writes back
    [f src dst] as one run, [dst] being a spare run of the same size.
    Requires [blocks a <= m], checked before any I/O. *)

val offset : Flat.t -> int -> int
(** The byte offset of a cell position. *)

val gather : Flat.t -> int array -> first:int -> len:int -> Flat.t -> unit
(** [gather src offs ~first ~len dst] copies the images at byte offsets
    [offs.(0 .. len - 1)] of [src], in order, to cell positions
    [first, first + len) of [dst]. *)

val sort_cells : Order.t -> Flat.t -> first:int -> int array -> Flat.t -> unit
(** [sort_cells order src ~first offs dst] sorts the cells at positions
    [first, first + length offs) of [src] into the same positions of
    [dst] with {!Order.sort_images} ([offs] is its scratch), so ties land
    where [Array.sort] on the decoded cells puts them. *)
