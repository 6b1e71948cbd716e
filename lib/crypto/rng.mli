(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in ODEX flows through this module so that
    experiments are reproducible and, crucially, so that the obliviousness
    audit can fix the coins while varying the data: with equal seeds, two
    runs of a data-oblivious algorithm must produce byte-identical address
    traces regardless of the stored values. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val state : t -> int64
(** The full generator state as one serializable word. *)

val of_state : int64 -> t
(** Rebuild a generator from {!state}: [of_state (state t)] replays
    exactly the stream [t] would have produced. The persistence hook for
    crash-resumable sessions (the hierarchical ORAM checkpoints its
    generator so a resumed rebuild re-draws the same epoch key). *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t]. Use it to give sub-phases their own streams without
    coupling their consumption rates. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so there is no modulo bias. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. Allocation-free: the state is stepped in place. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] samples the number of Bernoulli(p) trials up to and
    including the first success (support {1, 2, ...}). Used by the
    Chernoff-bound Monte-Carlo checks (Lemma 23). *)
