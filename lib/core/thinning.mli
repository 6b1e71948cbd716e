(** Randomized data-thinning passes (paper §3, loose compaction).

    An A-to-C thinning pass scans A once; for each block A[i] it draws a
    uniformly random index j into C, reads C[j], and — when A[i] is
    occupied and C[j] is empty — moves A[i] into C[j] (clearing A[i]).
    In every case exactly the same four I/Os happen: read A[i], read
    C[j], write C[j], write A[i]; only the (encrypted) contents differ,
    so the pass is data-oblivious. A block that was already moved is
    empty in A, which is precisely the paper's "simple bit associated
    with A[i]". *)

open Odex_extmem

val pass : rng:Odex_crypto.Rng.t -> src:Ext_array.t -> dst:Ext_array.t -> unit
(** One thinning pass; destructive on [src] (moved blocks become empty).
    4 · blocks(src) I/Os. *)

