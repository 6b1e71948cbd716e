(** Shuffle-and-deal data distribution — paper §5, Lemma 18 / Cor. 19.

    After (q+1)-way consolidation the blocks are monochromatic but may
    arrive in a color-skewed order (e.g. a pre-sorted input produces
    long monochromatic runs). The fix "reminiscent of Valiant–Brebner
    routing": first permute the blocks with the Knuth shuffle — the
    swap indices are pure coin tosses, so Bob learns nothing — then
    scan windows of the shuffled array and deal each window's blocks to
    per-color output arrays, writing a {e fixed quota} of blocks (full
    ones first, empty padding after) to every color for every window.
    Lemma 18 bounds the probability that a window holds more blocks of
    one color than the quota; our implementation additionally carries
    over-quota blocks to the next window in Alice's memory (up to a
    budget), which only reduces the failure probability and leaves the
    trace untouched. *)

open Odex_extmem

val shuffle : rng:Odex_crypto.Rng.t -> Ext_array.t -> unit
(** Knuth shuffle of the blocks: for i = 0..n-1 swap block i with a
    uniform block in [\[i, n)]. 4 I/Os per step; addresses depend only
    on the coins. *)

type engine = [ `Knuth | `Bucket ]

val shuffle_with : engine:engine -> m:int -> rng:Odex_crypto.Rng.t -> Ext_array.t -> bool
(** [`Knuth] is {!shuffle} (always complete). [`Bucket] routes whole
    blocks through the bucket-oblivious butterfly
    ({!Odex_sortnet.Bucket_sort.permute_blocks}) — 2 I/Os per
    block-level instead of 4 per step — falling back to the Knuth
    shuffle when the cache is too small for the bucket geometry
    (m < 18, a public condition). Returns false iff a bucket overflowed
    and blocks were dropped (coin-public probability
    {!Odex_sortnet.Bucket_sort.overflow_bound}; the caller must treat
    it as data loss). *)

type deal = {
  outputs : Ext_array.t array;  (** One array per color. *)
  ok : bool;  (** False iff the carry budget overflowed and blocks were dropped. *)
}

val deal :
  colors:int ->
  color_of:(Cell.item -> int) ->
  window:int ->
  quota:int ->
  carry_budget:int ->
  Ext_array.t ->
  deal
(** [deal ~colors ~color_of ~window ~quota ~carry_budget a] scans [a] in
    windows of [window] blocks and writes exactly [quota] blocks per
    color per window. Alice holds at most [window + carry_budget]
    blocks. Each output array has [ceil(blocks a / window) * quota]
    blocks. Empty input blocks are dropped (they carry no items). *)

val window_color_counts :
  colors:int -> color_of:(Cell.item -> int) -> window:int -> Ext_array.t -> int array array
(** Diagnostic for experiment E14 (uncounted reads): per window, the
    number of blocks of each color. *)
