(** Bucket oblivious sort and oblivious random permutation — Asharov,
    Chan, Nayak, Pass, Ren, Shi, "Bucket Oblivious Sort: An Extremely
    Simple Oblivious Sort" (arXiv:2008.01765), adapted to the paper's
    external-memory model (DESIGN.md §12).

    Elements are routed through a log-depth butterfly of β buckets of
    Z cells each: at level i, the per-node MergeSplit primitive splits a
    bucket pair by one fresh uniform coin bit per element, so after
    log₂ β levels every element sits in a uniformly random bucket.
    A random within-bucket order then yields a uniformly random
    permutation of the input (conditioned on no bucket overflowing,
    which fails with probability ≤ β·L·e^{-Z/6}); locally sorting the
    routed buckets and merging the runs yields an O(n log n)-work sort.

    Obliviousness model: destination labels are never written to
    storage — the coin bit for level i is drawn lazily at level i, and
    the per-bucket occupancy counts live in Alice's private memory.
    Counts are a pure function of the coins given the input {e shape},
    so every read and write below depends only on (n, B, M, Z) and the
    coins: {!permute} has a fully fixed trace, and {!sort}'s trace
    depends on data only through the rank order that its run-formation
    and merge phases consume (certified by the rank-isomorphic pair
    mode plus the statistical trace-distribution check, see
    {!Odex_obcheck.Pairtest} and {!Odex_obcheck.Statcheck}).

    Crash-resume: both pipelines checkpoint once per butterfly level /
    merge pass (owners ["bucket-perm/<base>/<n>"] and
    ["bucket-sort/<base>/<n>"]). Levels route between two ping-pong
    scratch areas, so every phase reads only data the previous
    checkpoint committed and re-running a torn phase is byte-identical;
    the private counts are re-derived on resume by replaying the coins
    with {!simulate_overflow}'s machinery. *)

open Odex_extmem

type plan = private {
  zb : int;  (** bucket capacity in blocks (even, >= 4) *)
  z : int;  (** bucket capacity in cells: zb·B *)
  half : int;  (** initial fill per bucket in cells: z/2 *)
  beta : int;  (** number of buckets (power of two, >= 2) *)
  levels : int;  (** butterfly depth: log₂ β *)
}

val make_plan : b:int -> z_cells:int -> n_cells:int -> plan
(** Derive the butterfly geometry for [n_cells] cells in blocks of [b]
    with bucket capacity ~[z_cells] (rounded up so buckets are an even
    number of blocks, at least 4). *)

val plan_for : b:int -> m:int -> n_cells:int -> plan option
(** The sorter's plan: bucket capacity [144 + 6·⌈log₂ n⌉] cells, which
    drives the union-bound failure probability β·L·e^{-Z/6} below
    ~2^{-48} at any feasible n; [None] when a routing node — two source
    buckets plus the two split sides, [4·zb + 2] blocks — does not fit
    Alice's [m] (callers fall back to a deterministic network). *)

val overflow_bound : plan -> float
(** Analytic union bound on the probability that any bucket overflows:
    [min 1 (β·L·e^{-Z/6})] — each bucket-level event is a sum of
    independent indicators with mean ≤ Z/2, Chernoff-bounded at
    e^{-Z/6}. *)

val simulate_overflow : plan -> master:int -> b:int -> n_blocks:int -> bool
(** Replay the coin stream of a routing with master seed [master] (no
    I/O) and report whether any bucket would overflow. This is the
    exact counts computation the real pipelines use, exposed for the
    Monte-Carlo sweeps in [test_properties.ml]. *)

exception Overflow of string
(** Raised by {!sort} (after completing its full I/O schedule, with the
    array untouched and the checkpoint slot cleared) when a bucket
    overflowed. The event depends only on the coins — probability
    {!overflow_bound} — never on the data. *)

val sort :
  plan:plan ->
  master:int ->
  real:bool ->
  order:Order.t ->
  m:int ->
  Ext_array.t ->
  unit
(** One bucket-oblivious sort pass over the whole array: scatter,
    [levels] butterfly levels (each reading only the occupied prefix of
    a bucket pair and writing packed prefixes, sized by the replayed
    counts), per-group local sort into runs, k-way merge passes of
    fan-in up to [m - 1], copy-back. Requires [4·zb + 2 <= m] and
    [blocks a > m] (smaller inputs belong to the cache sorter). Cells
    come out in non-decreasing [order], empties last.

    No phase decodes a cell: the local sort and the merge compare cell
    images in place ({!Order.compare_images}) and move them as bytes.
    The tie contract: cells that compare equal come out in an order
    fixed by two rules, and not by input order (the routing scatters
    them). The local sort of each group yields exactly the permutation
    stdlib [Array.sort] under [order] on the decoded cells would
    ({!Order.sort_images}). Each merge picks its next cell from a heap
    keyed by ([order] on the run heads, then run index) in O(log k)
    comparisons; among tied heads the lowest-numbered run wins, so the
    refill order — the trace's only data-driven part — is a function of
    the rank order alone. When [real] is false the entire pipeline
    still runs on the scratch areas (identical trace) but the copy-back
    rewrites the array's own content, leaving it untouched. Usually
    reached through {!Ext_sort.bucket}. *)

type outcome = { ok : bool }
(** [ok = false]: a bucket overflowed; the output is a uniformly random
    arrangement of the surviving cells, padded with empties
    (Alice-private, trace unchanged). *)

val permute : ?z_cells:int -> rng:Odex_crypto.Rng.t -> m:int -> Ext_array.t -> outcome
(** Oblivious random permutation of the {e cells} of the array — the
    routing phase alone (arXiv:2008.01765 §3): route through the
    butterfly under fresh uniform labels, then emit each final bucket in
    a fresh uniform order; no tags ever reach storage. Conditioned on no
    bucket overflowing (probability {!overflow_bound}), the output is a
    uniformly random arrangement of the input cells. [z_cells] overrides
    the bucket capacity (tests); by default it is {!plan_for}'s capacity
    capped to what [m] admits ([zb <= (m-2)/4]: smaller caps trade
    failure probability for cache, never trace shape). Requires [m >= 18] for
    out-of-cache inputs; inputs that fit in cache ([blocks a <= m]) are
    permuted privately behind a fixed trace: one read run, one write
    run. The trace is a
    function of (shape, coins) only, so it passes the {e exact} pair
    test. *)

val permute_blocks : rng:Odex_crypto.Rng.t -> m:int -> Ext_array.t -> outcome
(** Same routing at {e block} granularity: blocks travel through the
    butterfly unopened. This is the drop-in replacement for the Knuth
    shuffle in shuffle-and-deal passes ({!Odex.Shuffle_deal}), where
    block payloads must stay intact. *)
