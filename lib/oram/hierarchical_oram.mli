(** Hierarchical oblivious RAM (Goldreich–Ostrovsky [22]), rebuilt with
    the library's data-oblivious sorts — the construction whose "inner
    loop" the paper's sorting result accelerates.

    Geometry: a stash of S blocks scanned on every access, above levels
    ℓ = 1..L where level ℓ is a hash table of 2^ℓ buckets × Z blocks.
    An access scans the stash, then probes one bucket per non-empty
    level — the real bucket h_ℓ(addr) until the word is found, uniform
    dummy buckets after — and appends the (re-encrypted, possibly
    updated) word to the stash. Every S accesses the stash and levels
    1..ℓ−1 are merged into level ℓ (ℓ chosen by the usual
    binary-counter schedule), with the whole merge done obliviously:

    + one oblivious sort by (address, newest-timestamp-first), the order
      {!Odex_extmem.Order.Dedup}, and a streaming deduplication scan;
    + bucket assignment under a fresh per-epoch PRF key, one oblivious
      sort by (bucket, reals-before-fillers) — {!Odex_extmem.Order.By_aux},
      the bucket riding in [aux] — over the candidates plus
      Z fillers per bucket, a streaming keep-first-Z scan, and one
      butterfly tight compaction (Theorem 6) that leaves every bucket
      exactly Z blocks, aligned.

    The rebuild is two sorts plus linear passes, so its cost — and
    therefore the ORAM's amortized overhead — scales directly with the
    oblivious sort used, which is what experiment E10 measures.

    Failure: a bucket receiving more than Z = Θ(log n) words overflows
    (probability poly(1/n)); the loss is recorded and surfaced through
    {!healthy}, never through the trace. *)

open Odex_extmem

type t

val init :
  ?sorter:Odex_sortnet.Ext_sort.t ->
  ?bucket_size:int ->
  m:int ->
  rng:Odex_crypto.Rng.t ->
  Storage.t ->
  values:int array ->
  t
(** [bucket_size] defaults to max(4, ⌈log₂ n⌉ + 2); the stash period S
    equals the bucket size.

    On a journaled store, [init] additionally persists a session
    snapshot (geometry, counters, per-level epoch keys and occupancy,
    rng state) in a small sealed metadata region, registered under the
    ["oram-session"] owner of the store's checkpoint table, and every
    rebuild refreshes it — enabling {!resume}. One ORAM session per
    store: a second [init] on the same journaled store replaces the
    session slot. *)

val resume : ?sorter:Odex_sortnet.Ext_sort.t -> Storage.t -> t option
(** [resume storage] re-enters the ORAM session persisted on a journaled
    store, or returns [None] when the store carries no ["oram-session"]
    checkpoint (unjournaled store, or no {!init} ever committed).

    The restored session is the state at the last committed rebuild
    boundary (every rebuild, and [init] itself, is such a boundary);
    accesses made after that boundary were never durably checkpointed
    and are rolled back together with the journal tail. If a rebuild was
    in flight at the crash, [resume] finishes it from its own
    checkpointed phase — re-attaching the same scratch region and
    re-drawing the same epoch key from the snapshotted rng state —
    instead of restarting the session, so the rebuild's committed work
    (including inner-sort phases checkpointed under their own owners) is
    never repeated.

    [sorter] must be the sorter the crashed session ran with: inner-sort
    phase checkpoints are only sound against the same schedule. Raises
    [Invalid_argument] if the session metadata fails validation. *)

val levels : t -> int
val bucket_size : t -> int

val read : t -> int -> int
val write : t -> int -> int -> unit

val accesses : t -> int
val rebuilds : t -> int

val healthy : t -> bool
(** False iff some rebuild overflowed a bucket (and dropped words). *)
