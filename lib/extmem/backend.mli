(** Physical block stores underneath {!Storage}.

    {!Storage} is the paper-facing layer: it owns the I/O accounting,
    the adversary trace, encryption and the bump allocator. A backend is
    only the dumb device those sealed payloads land on — a fixed-size
    byte region per block address. Two devices ship:

    - {!mem}: a growable in-process off-heap arena (one flat
      {!Odex_crypto.Bigbuf}, blocks served by blit — no per-block
      allocation in either direction);
    - {!file}: a plain file addressed at [addr * payload_size], so
      datasets can exceed RAM and the block image persists across runs;
      block payloads move positionally ({!Bigio}) straight between the
      file and the caller's buffer.

    Decorators stack on top of them: {!faulty} injects deterministic
    transient failures (the retry path under the obliviousness harness),
    {!sharded} stripes one address space across several devices,
    {!crash_after} is the crash sweeps' kill switch, {!instrument} times
    device calls for a telemetry sink, and {!Journal.backend} adds
    write-ahead crash atomicity.

    A block moves only as part of a contiguous run ({!read_run} /
    {!write_run}); a single block is a run of one. All transfers go
    through caller-owned {!Odex_crypto.Bigbuf} regions — the same
    off-heap buffers the cipher XORs in place — so a sealed payload travels device <-> cipher <-> codec without a
    staging copy. Backends never see plaintext (when a cipher key is set
    the payload is ciphertext), never count I/Os and never touch the
    trace — that is Storage's job, which is what keeps the accounting
    identical across backends. *)

exception Transient of { addr : int; access : int }
(** A retryable fault: access [access] (the backend's global access
    counter) to block [addr] failed. Raised only by the faulty
    decorator; {!Storage} retries with capped exponential backoff. *)

exception Crashed
(** The simulated process death of the {!crash_after} decorator. Never
    retried — it unwinds through {!Storage} to the crash-sweep harness. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run a raw Unix call, restarting it as long as it raises
    [Unix_error (EINTR, _, _)]. Every [read]/[write]/[fsync]/[ftruncate]
    on the file-backend I/O path (and the journal's) goes through this:
    a handled signal — a profiler timer, a test harness's SIGALRM — must
    never abort a counted transfer half-written. *)

module type S = sig
  type t

  val kind : string
  (** Short name ("mem", "file", "faulty"), for reports. *)

  val payload_bytes : t -> int
  (** The fixed byte size of every block payload this store holds, set
      at construction. Decorators forward to their inner store. *)

  val ensure : t -> int -> unit
  (** [ensure t n] guarantees addresses [0 .. n-1] are backed. *)

  val size : t -> int
  (** Number of backed addresses (the [ensure] high-water mark). *)

  val read_run :
    t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit
  (** [read_run t ~addr ~count ~payload ~buf ~off] fills
      [buf[off .. off + count*payload)] with the payloads of the
      contiguous block run [addr, addr + count) — a single positioned
      transfer on {!file}, one blit on {!mem}, and a per-block
      fault-gated iteration on {!faulty}. A never-written address reads
      as zeros. [payload] must equal [payload_bytes]. The whole window
      (addresses and buffer region) is validated before any byte moves, so out-of-bounds runs raise
      without a partial transfer. On [Transient { addr = a }], blocks
      before [a] have been transferred and blocks from [a] on have not —
      the caller may resume the run at [a]. [count = 0] is a validated
      no-op. *)

  val write_run :
    t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit
  (** Mirror image of [read_run]: stores [count] payloads read from
      [buf[off ..]] at [addr, addr + count), with the same validation,
      fault and resume semantics. *)

  val read_meta : t -> bytes option
  (** The metadata blob last stored with {!write_meta} ([None] on a
      fresh store). Out-of-band server state: not an I/O of the model,
      never traced, never fault-gated. *)

  val write_meta : t -> bytes -> unit
  (** Durably associate a metadata blob (at most {!meta_capacity} bytes)
      with the store; {!Storage} keeps its sealing header — notably the
      cipher-nonce high-water mark and the cipher engine id — there, so
      a reopened file store can resume without ever reusing a
      (key, nonce) pair or misinterpreting ciphertext under the wrong
      engine. *)

  val sync : t -> unit
  (** Flush to durable media where that means something (file). *)

  val close : t -> unit

  val faults : t -> int
  (** Transient failures injected so far (0 for real devices). *)

  val shard_ops : t -> int array
  (** Per-shard block-op counts ([[||]] for unsharded devices). *)

  val shard_count : t -> int option
  (** [Some k] when a striping layer fans this store across [k] separate
      devices (decorators forward); [None] for a single-server store.
      [Some 1] and [None] are deliberately distinct: the former is a
      degenerate stripe, the latter no stripe at all. *)
end

type t = Packed : (module S with type t = 'a) * 'a -> t
(** An instantiated backend. *)

val kind : t -> string
val payload_bytes : t -> int
val ensure : t -> int -> unit
val size : t -> int

val read_run :
  t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit

val write_run :
  t -> addr:int -> count:int -> payload:int -> buf:Odex_crypto.Bigbuf.t -> off:int -> unit

val read_meta : t -> bytes option
val write_meta : t -> bytes -> unit
val sync : t -> unit
val close : t -> unit

val check_run :
  who:string ->
  payload_bytes:int ->
  blocks:int ->
  addr:int ->
  count:int ->
  payload:int ->
  buf:Odex_crypto.Bigbuf.t ->
  off:int ->
  unit
(** The run-argument validation every backend applies before any byte
    moves: [count >= 0], [payload] equal to the store's [payload_bytes],
    the address window [[addr, addr + count)] inside a [blocks]-block
    store and the buffer region [buf[off .. off + count*payload)] in
    bounds. Raises [Invalid_argument] prefixed with [who] otherwise. *)

val meta_capacity : int
(** Maximum {!write_meta} blob size (bytes) every backend supports. *)

val mem : payload_size:int -> unit -> t
(** In-process store: one flat off-heap arena, block [addr] at byte
    offset [addr * payload_size]. Reads and writes are single blits
    between the arena and the caller's buffer; fresh arena space is
    zero-filled, so a never-written slot reads as a zero payload. *)

val file : path:string -> payload_size:int -> t
(** File-backed store: a fixed {!file_header_bytes}-byte header (magic,
    payload size, metadata blob), then block [addr] at byte offset
    [file_header_bytes + addr * payload_size]. The file is created if
    missing and {e not} truncated, so a previous run's block image — and
    its metadata — is readable by a new backend on the same path.
    Opening a non-empty file without the header magic, with a different
    payload size, or whose data region is not a whole number of blocks
    (a write torn by a crash) raises [Invalid_argument] rather than
    misreading blocks at shifted offsets or exposing the torn block;
    recover a torn store by reopening through its {!Journal}.

    Block payloads transfer positionally (pread/pwrite via {!Bigio})
    directly against the caller's off-heap buffer; only the header path
    uses the shared file offset.

    Every operation on a closed store — including [read_meta] and
    [write_meta], so a nonce high-water checkpoint can never be silently
    dropped — raises [Invalid_argument]. *)

val file_header_bytes : int
(** Size of the file backend's on-disk header (64 bytes). *)

type fault_plan = {
  seed : int;  (** Fixes the whole fault schedule. *)
  failure_rate : float;  (** Probability a fresh access starts a fault burst. *)
  max_burst : int;  (** Maximum consecutive failing accesses per burst (>= 1). *)
}
(** A deterministic fault schedule. Whether access number [i] fails is a
    pure function of [(seed, i)] — never of the address and never of the
    data — so two runs that make the same number of accesses in the same
    order see byte-identical fault/retry sequences. That is what lets the
    pair-testing harness demand identical traces even with failures
    enabled: retries are part of Bob's view, but a value-independent
    part.

    Bursts end with a guaranteed recovery: the access immediately after
    a burst's last failure always succeeds, so a logical I/O retried in
    place needs at most [max_burst] retries. Keep [max_burst] below
    {!Storage.create}'s [max_retries] and the retry budget can never be
    exhausted; invert that (or lower [max_retries]) to exercise the
    permanent-failure path. *)

val faulty : fault_plan -> t -> t
(** [faulty plan inner] fails accesses according to [plan] (raising
    {!Transient}) and forwards the rest to [inner]. *)

val faults_injected : t -> int
(** Total {!Transient} raises so far ([0] for non-faulty backends). *)

type router = private { shards : int; perm : int array; perm_inv : int array }
(** The striping map of {!sharded}, in one value: [shards] devices and a
    keyed PRP [perm] of the lanes (lane to shard) with its inverse
    [perm_inv]. Logical block [a] belongs to group [g = a / shards] and
    lane [a mod shards], and lives on shard
    [perm.((a mod shards + g) mod shards)] at inner address [g] — a
    bijection, so every group of [shards] consecutive logical blocks
    touches all devices, and a pure function of the block index and the
    seed, so the fan-out is as data-independent as the flat address
    sequence it refines. The stripe routes through this value and
    {!Storage} records its per-server traces through it. *)

val router : shards:int -> seed:int -> router
(** The router of a [shards]-way stripe keyed by [seed]. Raises
    [Invalid_argument] when [shards < 1]. *)

val route_shard : router -> int -> int
(** [route_shard r a] is the shard logical block [a >= 0] maps to. *)

val route_index : router -> int -> int
(** [route_index r a] is the inner address logical block [a >= 0] has on
    its shard. Two int functions rather than one pair, so recording an
    I/O in a per-shard trace allocates nothing. *)

val logical : router -> shard:int -> index:int -> int
(** The inverse of {!route_shard} and {!route_index}: the logical
    address of the [index]-th block held by [shard]
    ([0 <= shard < r.shards], [index >= 0]), so [route_shard] and
    [route_index] map it back to [shard] and [index]. Strictly
    increasing in [index]. Arguments are not checked. *)

val shard_route : shards:int -> seed:int -> int -> int * int
(** [shard_route ~shards ~seed a] is the (shard, inner address) pair
    of [a] under [router ~shards ~seed], with a negative [a] rejected.
    Exposed for property tests (the map must be a bijection). *)

val sharded : seed:int -> t array -> t
(** [sharded ~seed inners] stripes one logical address space across the
    [K = Array.length inners] inner stores (requires [K >= 1], all with
    the same payload size), routed by [router ~shards:K ~seed].

    A contiguous logical run decomposes into exactly one contiguous
    inner run per shard (the logical addresses a shard serves are
    strictly increasing in its inner address). The per-shard runs
    execute on the caller's domain, one shard at a
    time. On a mid-run {!Transient} the smallest faulted {e logical}
    address is re-raised after every shard has run to completion or its
    own fault: all blocks below it have been transferred (blocks at or
    above it may have been too — resuming re-transfers them, which is
    idempotent). A non-transient exception from any shard is raised in
    preference to every transient.

    [ensure n] grows every inner store to [ceil(n / K)] blocks; the
    exact logical length is persisted as an 8-byte prefix of the
    metadata blob on shard 0 (so client metadata is limited to
    [meta_capacity - 8] bytes) and recovered on reopen. *)

val shard_count : t -> int option
(** [Some k] when this backend stack contains a {!sharded} stripe of [k]
    devices (decorators forward to their inner store); [None] when no
    stripe is present. Distinguishes a degenerate [K = 1] stripe
    ([Some 1]) from an unsharded store ([None]). *)

val shard_io_counts : t -> int array
(** Per-shard counts of block ops served ([|[]|] for unsharded
    backends; decorators forward to their inner store). The obliviousness
    harness compares these across a pair run: the fan-out must be a
    function of the logical trace alone. *)

val crash_after : ops:int -> t -> t
(** [crash_after ~ops inner] lets the first [ops] block operations (and
    syncs) through, then raises {!Crashed} on every further one — a
    deterministic kill switch for crash-recovery sweeps. [ensure],
    metadata and [close] are never gated: the sweep interrupts at block
    ops, and the harness must still release descriptors after the
    "crash". Sweeping [ops] over [0 .. total] simulates dying after
    every backend op of a run. *)

val instrument : Odex_telemetry.Telemetry.t -> t -> t
(** [instrument sink inner] times every [read_run]/[write_run]/[sync]
    with the monotonic clock and records each in [sink]'s cell for that op under [inner]'s kind (resolved once, here),
    forwarding everything else untouched. The shim observes only
    operation kinds, block/byte counts and durations — never payload
    contents — and {!Storage} installs it only when the sink is enabled,
    so a disabled sink leaves the I/O path byte-for-byte as before. *)
