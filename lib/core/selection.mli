(** Data-oblivious selection — Theorems 12 and 13.

    Finds the k-th smallest item (1-indexed, ordered by (key, tag) so
    ranks are well-defined under duplicate keys) using O(N/B) I/Os:

    + sample each item with probability N^{-1/2} (coins drawn per cell,
      so consumption is data-independent) and consolidate the sample;
    + compact the sample with the Theorem 4 IBLT engine and sort it;
    + bracket the answer between sample ranks x and y (Lemma 11: the
      k-th item lies in [x, y] and at most 8·N^{7/8} items do, w.v.h.p.);
    + count items below x, consolidate the in-range items and compact
      them tightly (the facade picks the cheaper of Theorems 4 and 6
      from public parameters);
    + recurse on the bracketed residue until it fits the cache, then
      read off rank k − rank(x) privately.

    The access pattern is a fixed composition of scans, IBLT traffic,
    thinning passes and sorting circuits; with a fixed RNG seed it is
    identical across same-shape inputs. Beats the Leighton–Ma–Suel
    Ω(n log log n) bound for compare-exchange-only circuits because it
    also uses copies, sums and random hashing (paper §4). *)

open Odex_extmem

type result = {
  item : Cell.item option;  (** The selected item ([None] only on failure). *)
  ok : bool;
      (** Success of every randomized sub-step (sample-size bounds, IBLT
          decode, bracketing); trace shape is unaffected by failure. *)
}

val count_items : Ext_array.t -> int
(** The number of items in an array: one batched scan. Shared with
    {!Quantiles}. *)

val extremes :
  order:Order.t -> Ext_array.t -> Flat.t -> Flat.t -> lo:int -> hi:int -> unit
(** [extremes ~order a buf marks ~lo ~hi]: one scan of [a] through the
    staging run [buf], copying the images of its least and greatest
    items under [order] to byte offsets [lo] and [hi] of [marks] (the
    first of equal items wins). [a] must hold an item. Shared with
    {!Quantiles}. *)

val items_in_cache : m:int -> Ext_array.t -> Cell.item list
(** The items of an array that fits in Alice's memory, read as one run,
    in reverse scan order: the in-memory base case shared with
    {!Quantiles}. Raises {!Odex_extmem.Residency.Overflow} before any
    I/O when the array has more than [m] blocks. *)

val select :
  ?key:Odex_crypto.Prf.key ->
  ?order:Order.t ->
  ?exponent:float ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  k:int ->
  Ext_array.t ->
  result
(** [select ~m ~rng ~k a]: the input array may interleave empty cells;
    [key] is the PRF key handed to the Theorem 4 IBLT compaction engine
    (it seeds the sparse-compaction hashing, {e not} the ordering);
    [order] is the {!Order.t} that defines rank — it defaults to
    {!Order.Keys} and is used consistently by every private sort,
    oblivious sort and bracketing scan.
    [k] ranges over the items. Items that compare equal under [order] come
    out of every sort in unspecified order, so when several of them tie
    at rank k, which one is returned is unspecified. Arrays that fit in
    cache are handled by a direct private sort (trace: one scan). The input array is preserved.
    Instead of sorting the bracketed residue outright, the algorithm
    recurses on it until it fits the cache — the same answer with the
    same obliviousness, but linear I/O at feasible N (the one-shot sort
    is only cheap for the astronomically large N the paper's constants
    target; see EXPERIMENTS.md E7). *)

val select_with_delta :
  ?key:Odex_crypto.Prf.key ->
  ?order:Order.t ->
  ?exponent:float ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  delta:(float -> float) ->
  k:int ->
  Ext_array.t ->
  result
(** [select_with_delta ~delta] overrides the default rank slack
    (s0^{3/4}, the paper's N^{3/8} at exponent 1/2) with [delta s0]
    where s0 is the expected sample size: smaller brackets, smaller
    residues, the same algorithm. [exponent] sets the sampling rate
    N^{-e} (default 1/2, the paper's Theorem 12; 1/4 is the
    quantile-style rate that shrinks the residue much faster at
    feasible N). Failure probability grows as the slack shrinks; the
    [ok] flag reports it faithfully. *)
