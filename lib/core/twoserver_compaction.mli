(** Two-server oblivious tight compaction in the non-colluding model.

    When the store is striped across at least two physical servers that
    do not collude (DESIGN.md §14), each server is a separate adversary
    seeing only the op sequence its own device serves. Obliviousness
    then only has to hold {e per server} — a strictly weaker requirement
    than the single-server definition — and this engine exploits the
    difference: the data-dependent routing decision of tight compaction
    ("is this block occupied?") is encoded solely in the {e interleaving}
    between reads served by server A and writes served by server B,
    which neither server can observe alone.

    The protocol (order-preserving, block-granularity, like
    {!Butterfly.compact}): stage the input onto server A's slots; scan
    them in fixed order, forwarding each occupied block to server B's
    next output slot and padding the remainder with empties; deliver B's
    output back to a striped destination. Server A sees a fixed read
    sequence, server B a fixed write sequence, at every occupancy.

    Cost: exactly [3*(N/B) + 3*capacity] block I/Os —
    strictly below the single-server butterfly's
    [2*(N/B)*(1 + phases) >= 4*(N/B)] at equal (N, B, M), because the
    log-depth oblivious routing network is replaced by one
    plain-routed pass whose leak lands between the servers. The
    {e combined} trace is occupancy-dependent by design, so the
    registry certifies this subject with the [`Multi_server]
    certificate: the pair-tester requires every per-server trace to
    match, not the logical one. *)

open Odex_extmem

type outcome = {
  dest : Ext_array.t;  (** [capacity_blocks] blocks, occupied prefix first. *)
  occupied : int;  (** Occupied blocks moved (Alice-private). *)
  ok : bool;  (** Always [true]; present for parity with {!Compaction.outcome}. *)
}

val run : m:int -> capacity_blocks:int -> Ext_array.t -> outcome
(** Order-preserving tight compaction of the array's occupied blocks
    into a fresh [capacity_blocks]-block destination on the same store.
    Requires the store's backend to be sharded with [k >= 2] (shard 0
    plays server A, shard 1 server B); on single-server stores it
    dispatches — publicly, on backend shape alone — to
    {!Compaction.tight}. Raises [Invalid_argument] when more than
    [capacity_blocks] blocks are occupied (after the full per-server
    schedule has run) or [capacity_blocks < 0]. The input array is
    consumed as scratch. *)
