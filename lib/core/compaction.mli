(** Compaction facade: pick the right algorithm for the regime.

    The paper provides three compaction engines with different
    trade-offs (§3): IBLT-based sparse tight compaction (Theorem 4), the
    butterfly network (Theorem 6) and randomized loose compaction
    (Theorem 8). This module composes them with consolidation (Lemma 3)
    behind two entry points used by selection, quantiles and sorting.

    Which engine runs depends only on public parameters (n, m, B,
    capacity), never on data, so dispatching does not break
    obliviousness. *)

open Odex_extmem

type outcome = {
  dest : Ext_array.t;
  occupied : int;  (** Occupied blocks moved (Alice-private). *)
  ok : bool;  (** Success flag of the randomized engines; always true for butterfly. *)
}

val tight :
  ?key:Odex_crypto.Prf.key ->
  m:int ->
  capacity_blocks:int ->
  Ext_array.t ->
  outcome
(** Tight order-preserving compaction of a {e consolidated} array into
    [capacity_blocks] blocks. Dispatches between the Theorem 4 IBLT
    engine (O(n) I/Os, constant ≈ 1 + 6·⌈(2+5B)/4B⌉ per block) and the
    Theorem 6 butterfly (O(n log_m n) I/Os, constant ≈ 2 per pass) by
    comparing their cost estimates — both depend only on (n, m, B), so
    the dispatch is public. At feasible sizes the butterfly usually
    wins; the IBLT engine takes over once log n / log m outgrows its
    constant (see EXPERIMENTS.md E3/E4). The input array is consumed as
    scratch. *)

val loose :
  ?sorter:Odex_sortnet.Ext_sort.t ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  capacity_blocks:int ->
  Ext_array.t ->
  outcome
(** Loose (5×) compaction of a consolidated array: Theorem 8 when the
    capacity is at most a quarter of the array and a region fits the
    cache, butterfly otherwise. The returned array has
    [5 * capacity_blocks] blocks (loose) or [capacity_blocks] blocks
    (butterfly fallback — check [Ext_array.blocks]). The input is
    consumed. *)

val sparse_table_fits : m:int -> capacity_blocks:int -> block_size:int -> bool
(** Whether the Theorem 4 engine's IBLT table (at its default k and
    multiplier, including the k+1-cell floor) fits Alice's cache — the
    precondition for dispatching to {!Odex.Sparse_compaction}. Public
    parameters only. *)

val butterfly_cost : n:int -> m:int -> int
(** Estimated I/O count of Theorem 6 compaction on an n-block array
    (public parameters only). *)

val sparse_cost : n:int -> block_size:int -> int
(** Estimated I/O count of the Theorem 4 insertion phase. *)
