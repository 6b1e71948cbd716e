(** Uniformly random permutations (Fisher–Yates / Knuth shuffle).

    The sorting algorithm's "shuffle-and-deal" step (paper §5) permutes the
    blocks of the consolidated array with the classic algorithm the paper
    cites from Knuth: for i = 0 .. n-1 swap position i with a uniformly
    random position in [\[i, n)]. The adversary may watch the swaps — the
    indices chosen never depend on data values, so the shuffle itself is
    data-oblivious. *)

val swap_sequence : Rng.t -> int -> (int * int) array
(** [swap_sequence rng n] is the raw Fisher–Yates transcript: the sequence
    of [(i, j)] swaps with [i <= j] that the shuffle performs. Algorithms
    that shuffle data held in external memory replay exactly these swaps so
    the adversary-visible I/O pattern is the canonical shuffle pattern. *)
