(** Alice's private cache, with a machine-checked residency bound.

    The model gives Alice M private words — m = M/B blocks. The cache is
    the read side of that memory: scans (compaction, selection,
    quantiles, the IBLT) load the blocks they inspect through a [Cache.t]
    created with that capacity, and exceeding it raises {!Overflow}.
    Kernels that stage their blocks themselves as images — every sorter
    and the butterfly ring — check the same bound before any I/O and
    raise the same exception. Tests therefore verify the cache-size side
    of every theorem ("assuming M >= 3B", "m >= log² n", …)
    mechanically rather than by inspection. The cache contents are
    invisible to Bob: resident-block access performs no counted I/O.

    Every load counts a hit or a miss in the storage's {!Stats} — purely
    observational, never changing which I/Os happen. *)

exception Overflow of { capacity : int; requested : int }

type t

val create : Storage.t -> capacity:int -> t
(** [capacity] is in blocks (m = M/B). *)

val resident : t -> int
val peak : t -> int
(** High-water mark of resident blocks over the cache's lifetime. *)

val load : t -> int -> Block.t
(** [load c addr] brings the block in (one read I/O) unless already
    resident, and returns a {e copy}: mutating the returned array never
    affects the resident copy. *)

val load_run : t -> int -> count:int -> unit
(** [load_run c addr ~count] makes the contiguous run
    [addr, addr + count) resident, fetching the missing blocks as
    batched {!Storage.read_many} runs in address order (one read I/O per
    missing block, same trace as a per-block loop). The capacity check
    covers the whole run {e before} any I/O, so a raised {!Overflow}
    means nothing was read and the resident set is unchanged. Read the
    blocks afterwards with {!borrow}. *)

val borrow : t -> int -> Block.t
(** The resident block itself (shared, no copy); no I/O. The reference
    is only valid until the block is evicted.
    @raise Invalid_argument if not resident. *)

val drop : t -> int -> unit
(** Evict. *)

val drop_all : t -> unit
