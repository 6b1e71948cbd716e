(** The butterfly-like compaction network — Figure 1, Lemma 5, Theorem 6.

    Tight order-preserving compaction of a {e consolidated} array (every
    block full or empty, per Lemma 3) at block granularity. Cell j of
    level L_i is connected to cells j and j − 2^i of level L_{i+1}; an
    occupied block labelled with its remaining leftward distance d moves
    by (d mod 2^{i+1}), and Lemma 5 guarantees the routing is
    collision-free. Processing Θ(log m) consecutive levels per sliding
    cache window turns the O(n log n) naive cost into
    O(n log n / log m) = O((N/B) log_{M/B}(N/B)) I/Os — Theorem 6.

    Every block is read once and written once per phase, in an order
    that depends only on (n, m), so the network is data-oblivious (it is
    a circuit simulation).

    Distance labels ride in the items' [aux] scratch word (the [tag]
    user field is preserved); [aux] is zeroed when routing completes. *)

open Odex_extmem

exception Collision of { level : int; position : int }
(** Raised if two blocks route to the same cell — impossible for valid
    labels (Lemma 5); exercised by tests with corrupted labels. *)

val compact : m:int -> Ext_array.t -> int
(** [compact ~m a] routes every occupied block of [a] to the front,
    preserving their relative order, and empties the rest. Returns the
    number of occupied blocks. Requires [m >= 3] (the paper's M >= 3B).
    Input blocks must each be full or empty (consolidate first); the one
    partial block Lemma 3 allows is fine anywhere. *)

val expand : m:int -> Ext_array.t -> (int -> int) -> unit
(** [expand ~m a factor] is the reverse network (paper: "we can also use
    this method in reverse"): the occupied block whose current position
    has rank i (0-based) moves [factor i] positions to the right.
    Destinations [position + factor rank] must be strictly increasing
    and within bounds ([Invalid_argument] otherwise). Implemented as the
    compaction network run backwards in time, so it inherits Lemma 5's
    collision-freedom when the factors are also non-decreasing in rank —
    the distances a compaction from the destinations would undo, as when
    a compacted prefix is sent back to its slots. With a decreasing
    factor two blocks can meet, and [Collision] is raised (positions
    {0, 4} with factors {4, 1} at [m = 3] do). The bench's E4
    [butterfly-expand] records send compacted prefixes back to their
    slots this way. *)

val naive_levels : Ext_array.t -> int list list
(** Diagnostic used by the Figure 1 experiment: simulate the network
    level by level {e in RAM} (uncounted) and return, per level, the
    remaining-distance label of each position (-1 for empty cells) —
    the numbers printed in Figure 1. *)
