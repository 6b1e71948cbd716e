(** Deterministic data-oblivious external-memory sorting.

    This is our realization of the paper's Lemma 2 (the Goodrich–
    Mitzenmacher deterministic oblivious sort), the inner-loop substrate
    for everything else. Blocks are kept internally sorted and element
    comparators are simulated by {e merge-split} operations on block
    pairs (the replacement principle used by the Chaudhry–Cormen line of
    work the paper cites), so any sorting network on N/B block positions
    sorts the whole array.

    One interface, five algorithms and a dispatcher:
    - [cache_sort] — the base case: the whole array fits in Alice's m
      blocks; one read pass, private sort, one write pass.
    - [bitonic] — block-level bitonic network, one network level per
      pass: Θ((N/B)·log²(N/B)) I/Os.
    - [bitonic_windowed] — the same network, but ⌊log₂ m⌋ consecutive
      butterfly levels are applied per pass by gathering each
      2^⌊log₂ m⌋-block butterfly group into Alice's memory — the same trick
      Theorem 6 uses to divide the I/O count by log m.
    - [columnsort] — Leighton's seven linear passes, for inputs up to one
      columnsort level's capacity.
    - [bucket] / [bucket_rng] — the randomized bucket oblivious sort.
    - [auto] — [cache_sort] or [bitonic_windowed], by size.

    The fixed-circuit sorters' address traces depend only on (N/B, m, B),
    so they are data-oblivious by construction; [bucket]'s merge order is
    rank-driven and certified separately (see {!bucket}).

    Every sorter takes its order as data, an {!Odex_extmem.Order.t}
    ([Keys] by default), never a comparison closure.

    No sorter is stable: cells that compare equal under the order come
    out in unspecified order. [cache_sort] uses the unstable [Array.sort],
    and neither the networks nor the bucket routing preserve input
    order. *)

open Odex_extmem

type t
(** A named oblivious sorting algorithm. *)

val name : t -> string

val run : t -> ?order:Order.t -> m:int -> Ext_array.t -> unit
(** [run s ~order ~m a] sorts the cells of [a] in place into
    non-decreasing [order], empties last. [order] defaults to
    {!Order.Keys}. [m] is Alice's cache capacity in blocks; every
    kernel stages its blocks itself as encoded images and checks the
    residency bound with {!Odex_extmem.Residency.check} before its I/O,
    raising {!Odex_extmem.Residency.Overflow} when a stage would exceed
    [m]. *)

val run_selective :
  t -> ?order:Order.t -> real:bool -> m:int -> Ext_array.t -> unit
(** [run_selective s ~real ~m a] performs exactly the same I/Os as
    [run s ~m a], but when [real] is false every write puts back the
    content that was read: a {e dummy} pass. Bob sees identical traces
    either way (contents are re-encrypted), which is what the
    failure-sweeping step of Theorem 21 needs: re-sort the failed
    subarrays without revealing which ones failed. *)

val cache_sort : t
(** Requires [blocks a <= m]. *)

val bitonic : t
(** Requires [m >= 2]. Pads to a power of two internally. *)

val bitonic_windowed : t
(** Requires [m >= 2]. *)

val columnsort : t
(** Leighton's columnsort (the Chaudhry–Cormen lineage the paper cites):
    seven linear passes, O(N/B) I/Os — but only for N up to one
    columnsort level's capacity (roughly (m/2)·(m·B) cells, the familiar
    M^{3/2} bound); raises [Invalid_argument] beyond it. See
    {!Columnsort.plan}. *)

val auto : t
(** [cache_sort] when the array fits in cache, else [bitonic_windowed]. *)

val bucket : ?seed:int -> unit -> t
(** Bucket oblivious sort ({!Bucket_sort}, DESIGN.md §12): route the
    cells through a log-depth butterfly of size-Z buckets under fresh
    random labels, locally sort the buckets into runs, k-way merge —
    O((N/B)·log(N/B)) I/Os against the bitonic network's log² factor.
    Dispatch is public: in-cache inputs use [cache_sort]; when the
    default bucket geometry does not fit Alice's memory
    (m < 4·⌈Z/B⌉ + 2) it falls back to [bitonic_windowed]. The same
    sorter value replays the same coins on every invocation; overflow
    (probability {!Bucket_sort.overflow_bound}, ≈2^{-48} at the default
    Z) raises {!Bucket_sort.Overflow} after completing the full I/O
    schedule. Unlike the fixed-circuit sorters, its merge phase's read
    {e order} is rank-driven: certified by the rank-isomorphic pair
    mode plus the statistical trace-distribution check instead of the
    exact pair test. [run_selective ~real:false] runs the whole
    pipeline on scratch (identical trace) and restores the array's own
    content in the copy-back. *)

val bucket_rng : Odex_crypto.Rng.t -> t
(** Same, drawing each invocation's coins from the caller's stream. *)

val all : t list
(** The concrete algorithms (not [auto]), for the tests that cover every
    sorter. *)

val find : ?seed:int -> string -> t option
(** Look up a sorter by name for CLI/bench selection: ["cache"],
    ["bitonic"] (alias ["batcher"]), ["bitonic-windowed"],
    ["columnsort"], ["bucket"], ["auto"]. *)

val merge_split : order:Order.t -> ascending:bool -> Flat.t -> int -> int -> unit
(** The block comparator, on images: [merge_split ~order ~ascending f u v]
    merges the 2B cell images of blocks [u] and [v] of [f] and splits
    them low half into [u], high half into [v] (the reverse when
    [ascending] is false), in place. Requires both blocks sorted under
    [order] — the networks pre-sort every block and each merge-split
    keeps both sorted — and then equals a stable sort of [u @ v] split
    at B: a tie takes [u]'s cell first. One linear merge, no sort, no
    decode. *)
