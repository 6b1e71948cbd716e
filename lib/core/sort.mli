(** Randomized data-oblivious external-memory sorting — Theorem 21.

    The paper's pipeline, per recursion level:

    + pick q ≈ (M/B)^{1/4} bucket pivots — by default from a one-scan
      memory-bounded private sample (the exact Theorem 17 quantiles are
      available separately but cost an extra sort-scale pass per level);
    + (q+1)-way consolidation into monochromatic blocks (§5);
    + shuffle-and-deal the blocks into one array per color (Lemma 18);
    + compact each color array, or skip compaction — the deal output is
      only ~2× the bucket's true size, so the recursion shrinks anyway;
      [bucket_engine] selects `Auto (default: skip when the buckets
      reach the base case next level, exact Theorem 6 butterfly
      otherwise — skipping compounds the padding, which is exactly why
      the paper compacts every level), `Skip, the paper's `Loose
      (Theorem 8) or `Butterfly, all measured as E9 ablations;
    + recurse on each bucket; buckets that fit in the cache are sorted
      privately.

    Concatenating the recursively sorted buckets yields a {e padded
    sorting} (items in non-decreasing order with empty cells
    interspersed); a final consolidation + tight compaction (Theorem 6)
    turns it into the dense sorted output, as in the paper.

    Every phase is a fixed circuit, a scan, or coin-driven I/O, so with
    a fixed seed the trace is identical across same-shape inputs.
    Randomized sub-steps may fail (with the paper's probability bounds);
    failures are reported through [ok] without altering the trace. The
    paper's failure-sweeping step is provided by {!Failure_sweep} and
    runs once, at the top level, unless disabled with [~sweep:false]
    (the [ok] flag still reports everything; EXPERIMENTS.md E9 measures
    the sweep's I/O overhead). Lossy events (a dropped block in the
    deal, a loose-compaction overflow) are never masked by sweeping. *)

open Odex_extmem

type outcome = {
  ok : bool;  (** All randomized sub-steps succeeded (Alice-private). *)
}

val run :
  ?sweep:bool ->
  ?bucket_engine:[ `Auto | `Skip | `Loose | `Butterfly ] ->
  ?shuffle:Shuffle_deal.engine ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  Ext_array.t ->
  outcome
(** [run ~m ~rng a] sorts the items of [a] in place by (key, tag), the
    order {!Odex_extmem.Order.Keys}:
    items in non-decreasing order at the front, empties after.
    Requires [m >= 3]. The sort is not stable: items equal in both key
    and tag come out in unspecified order. [shuffle] selects the per-level block shuffle
    engine (default [`Knuth]; [`Bucket] is the bucket-oblivious
    butterfly, see {!Shuffle_deal.shuffle_with}). *)

val sort_padded_with_injection :
  ?sweep:bool ->
  ?bucket_engine:[ `Auto | `Skip | `Loose | `Butterfly ] ->
  ?shuffle:Shuffle_deal.engine ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  inject_failure:(int -> bool) ->
  Ext_array.t ->
  Ext_array.t * bool
(** The recursive core {!run} wraps, the paper's padded sorting: consumes
    [a] and returns a fresh (possibly larger) array whose items, read in
    position order, are sorted. Test hook: [inject_failure path] marks
    the sub-sort identified by [path] as failed even though it ran,
    exercising the failure-sweeping machinery deterministically. Paths:
    0 is the root, child i of node p is [p*64 + i + 1]. *)
