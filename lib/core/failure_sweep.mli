(** Data-oblivious failure sweeping — paper §5.

    Recursive sub-sorts fail with small probability; re-running just the
    failed ones would reveal which inputs caused failures. The paper
    repairs them with a deterministic compact–sort–expand pipeline whose
    trace is independent of which subarrays failed.

    Our realization exploits the same observation more directly: the
    adversary sees only {e addresses}, so running the deterministic
    oblivious sort (Lemma 2) over {e every} subarray — but letting the
    merge-split comparators actually exchange data only in the failed
    ones ({!Odex_sortnet.Ext_sort.run_selective}) — yields a
    byte-identical trace whether zero or all subarrays failed. Unlike
    the paper's variant it tolerates any number of failures (the
    paper's scratch region caps them at a small fraction); the price is
    that the sweep costs a full Lemma 2 pass over the level rather than
    a compaction plus one small sort. EXPERIMENTS.md (E9) measures that
    overhead; {!Sort.run} exposes it as the [sweep] switch. *)

open Odex_extmem

val monte_carlo :
  trials:int -> seed:int -> (rng:Odex_crypto.Rng.t -> trial:int -> bool) -> int
(** [monte_carlo ~trials ~seed f] runs [f] once per trial, each under a
    deterministic per-trial rng (a fixed mix of [seed] and the trial
    index), and returns the number of trials where [f] returned false.
    Fully seeded: the count is a reproducible measurement of a failure
    probability, suitable for pinning the paper's success bounds
    (Theorem 8 region overflow, Lemma 1 decode completeness) in tests
    that never flake. *)

val sweep : m:int -> Ext_array.t array -> bool array -> bool
(** [sweep ~m subarrays ok_flags] re-sorts (by (key, tag), {!Odex_extmem.Order.Keys}) every
    subarray whose flag is false, running trace-identical dummy passes
    over the healthy ones. Subarrays may have any sizes. Always returns
    true (kept for interface symmetry with the capacity-limited
    variant). *)
