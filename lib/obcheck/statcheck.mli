(** Statistical obliviousness checks.

    {!Pairtest} verifies the operational definition with the coins
    {e fixed}: same seed, value-disjoint inputs, identical traces. It
    cannot see a defect that lives in the {e distribution} over coins —
    an algorithm whose every fixed-coin trace is data-independent, but
    which (say) draws its shuffle permutation from a data-biased region
    of the coin space. This module covers that flank: run a randomized
    subject many times on each of two value-disjoint same-shape inputs,
    each run under its own deterministic coin seed (input A uses seeds
    0..s-1, input B seeds 1000..1000+s-1 — disjoint streams), pool the
    address traces into histograms, and test homogeneity with a
    two-sample chi-square. Everything is seeded, so a verdict is
    bit-reproducible — the suite never flakes, it either proves the
    distributions compatible at the chosen significance or it has found
    a leak.

    The chi-square critical values come from the Wilson–Hilferty cube
    approximation (dependency-free, a few percent accurate for
    df >= 3); the default gate [z = 3.29] corresponds to p ~ 5e-4 per
    test. *)

type verdict = {
  name : string;
  stat : float;  (** The chi-square statistic. *)
  df : int;  (** Degrees of freedom (informative bins - 1). *)
  critical : float;  (** Rejection threshold at the chosen [z]. *)
  samples : int;  (** Runs per input (or total count, for uniformity). *)
  pass : bool;  (** [stat <= critical]: distributions consistent. *)
}

val chi_square_critical : df:int -> z:float -> float
(** Wilson–Hilferty upper critical value of chi-square with [df]
    degrees of freedom at normal quantile [z]. *)

val two_sample : int array -> int array -> float * int
(** [two_sample a b] is the two-sample chi-square homogeneity statistic
    and its degrees of freedom for two matched histograms (unequal
    totals are scale-corrected; bins empty in both samples are
    skipped). *)

val histogram_of_ops : bins:int -> Odex_extmem.Trace.op list -> int array -> unit
(** Fold a [Full]-mode op sequence into [acc] (length [2 * bins]): reads
    into bins [addr mod bins], writes into [bins + addr mod bins],
    retries with their direction. Bin collisions can hide a leak but
    never invent one, so the resulting test is conservative. *)

val trace_distribution :
  ?samples:int ->
  ?bins:int ->
  ?z:float ->
  Pairtest.subject ->
  n_cells:int ->
  b:int ->
  m:int ->
  verdict
(** [trace_distribution subject ~n_cells ~b ~m] runs the subject
    [samples] (default 200) times per input on the two halves of a
    value-disjoint pair, each run with its own coin seed from the
    deterministic disjoint streams above, and chi-squares the pooled
    address histograms ([2 * bins] cells, default [bins = 64]).
    [pass = true] means Bob's address distribution is statistically
    independent of the stored values at significance [z]
    (default 3.29). *)

val shard_distribution :
  ?samples:int ->
  ?bins:int ->
  ?z:float ->
  ?shards:int ->
  ?stripe_seed:int ->
  Pairtest.subject ->
  n_cells:int ->
  b:int ->
  m:int ->
  verdict array
(** The per-server distributional tier: like {!trace_distribution}, but
    the subject runs on a [shards]-member stripe (default 2, PRP seed
    [stripe_seed], default [0x5A4D]) over [Mem], and each shard's {e
    own} trace ({!Odex_extmem.Storage.shard_traces} — inner addresses,
    the view that server's device actually gets) is pooled and
    chi-squared separately. One verdict per shard, named
    ["subject/shardN"].

    This tier sees what the combined one provably cannot: pooling
    logical addresses erases routing entirely, so an implementation that
    keys {e which server} serves an op on the data — or issues a
    data-dependent op at logical addresses colliding modulo [bins] —
    passes {!trace_distribution} unchanged while skewing one shard's
    histogram here. A shard trace empty under both inputs passes
    vacuously; empty under exactly one input fails outright. *)

val uniformity_verdict : name:string -> ?z:float -> int array -> verdict
(** Package a {!uniformity} test of a histogram (e.g. observed shuffle
    swap partners against the uniform law the Knuth shuffle promises)
    as a verdict. *)

val pp_verdict : Format.formatter -> verdict -> unit
