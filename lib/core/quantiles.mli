(** Data-oblivious quantile selection — Theorem 17.

    Computes the q quantile items (global ranks ⌈i·N/(q+1)⌉ for
    i = 1..q, ordered by (key, tag)) in O(N/B) I/Os:

    + when (M/B)⁴ >= N/B, the paper's easy case: one deterministic
      oblivious sort of a copy (O(N/B) I/Os in this regime) and a scan;
    + otherwise: sample with probability N^{-1/4}, compact (Theorem 4)
      and sort the sample; bracket every quantile between two sample
      ranks [x_i, y_i] (Lemma 16); one counting scan of A; consolidate
      and loosely compact (Theorem 8) the union of the intervals; sort
      that small residue; and read all q answers off one final scan.

    Alice holds 4q + O(1) counters, so q may be as large as m (the
    paper's q <= (M/B)^{1/4} is what the sorting algorithm needs, not a
    limit of this routine). Success-probability bookkeeping follows
    Lemmas 14–16; the [ok] flag reports the (rank-verified) outcome
    without affecting the trace. *)

open Odex_extmem

type result = {
  quantiles : Cell.item array;  (** Length q; garbage entries only if [ok] is false. *)
  ok : bool;
}

val run :
  ?key:Odex_crypto.Prf.key ->
  ?order:Order.t ->
  ?delta:(float -> float) ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  q:int ->
  Ext_array.t ->
  result
(** [run ~m ~rng ~q a]. [key] is the PRF key for the Theorem 4 IBLT
    compaction (sparse-compaction hashing only — it does not affect the
    ordering). [order] is the {!Order.t} that defines the quantile
    ranks (default {!Order.Keys}) and is used consistently across all sorts and interval
    tests. [delta] overrides the sample-rank slack (default 3·√s where
    s is the sample size), as in {!Selection.select_with_delta}. The
    input array is preserved. *)

