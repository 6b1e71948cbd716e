(** The Goldreich–Ostrovsky square-root ORAM [22], with its epoch
    reshuffles driven by our data-oblivious external-memory sorts.

    Layout: a permuted main area of n + √n blocks (n real words, √n
    dummies) under a client-computable pseudorandom permutation π
    ({!Odex_crypto.Prp}), plus a √n-block shelter. An access scans the
    shelter, probes π(addr) — or π of a fresh dummy when the shelter
    already held the word — and appends the result to the shelter.
    After √n accesses the epoch ends: main and shelter are merged,
    deduplicated (newest version wins) and re-permuted under a fresh π,
    all with the injected oblivious sorter: a {!Odex_extmem.Order.Keys}
    sort to deduplicate, then a {!Odex_extmem.Order.By_aux} sort on the
    new π, evaluated once per word into its [aux] label by the
    deduplicating scan. That reshuffle is exactly
    the "data-oblivious sorting is the bottleneck in the inner loop of
    oblivious RAM simulations" the paper's introduction optimizes:
    experiment E10 swaps the sorter and measures the amortized I/O
    drop.

    Obliviousness: for any two virtual access sequences of equal length
    the trace distributions coincide (shelter scans are full scans;
    main probes are fresh π outputs). With fixed coins and a fixed
    virtual access sequence, the trace is also independent of the
    stored values — the property the audit tests assert. *)

open Odex_extmem

type t

val init :
  ?sorter:Odex_sortnet.Ext_sort.t ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  Storage.t ->
  values:int array ->
  t
(** Default sorter: {!Odex_sortnet.Ext_sort.auto}. The [rng] is retained
    for epoch keys. *)

val read : t -> int -> int
val write : t -> int -> int -> unit

val epochs : t -> int
(** Number of reshuffles performed. *)
