(** (q+1)-way data consolidation — paper §5.

    One scan that reorganizes an array into {e monochromatic} blocks:
    every output block is either completely full of items of one color,
    or completely empty, except for at most one partial block per color
    flushed at the end. Alice keeps one pending group per color (fewer
    than B items each, plus the incoming block), so her memory use is
    (colors + 1)·B words — within M for colors <= m. The write pattern
    is one output block per input block plus a [colors]-block tail,
    independent of the data. *)

open Odex_extmem

val tail_blocks : int -> int
(** [tail_blocks colors] is the fixed number of flush blocks appended
    after the scan (2·colors + 4 — enough for the worst-case pending
    buffer even when a single color hoards it). *)

val consolidate :
  colors:int -> color_of:(Cell.item -> int) -> Ext_array.t -> Ext_array.t
(** [consolidate ~colors ~color_of a] returns a fresh array of
    [blocks a + tail_blocks colors] blocks. [color_of] must return
    values in [0, colors). Relative order within each color is
    preserved. *)

