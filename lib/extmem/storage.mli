(** Bob's disk: a growable store of encrypted blocks with exact I/O
    accounting and adversary-trace recording.

    This is the outsourced storage server of the paper's model (§1): data
    is "accessed and organized in contiguous blocks, with each block
    holding B words". Reads and writes are the unit-cost I/Os that every
    theorem counts; the trace records the adversary's view of them. When a
    cipher key is supplied, blocks are genuinely serialized and encrypted
    with a fresh nonce on every write, so rewriting identical content
    produces a different ciphertext — the re-encryption property the paper
    assumes.

    The bytes themselves live in a pluggable {!Backend}: in-memory (the
    default), file-backed (datasets larger than RAM; block images persist
    on the path), or a deterministic fault injector layered over either.
    The accounting layer is backend-independent — the same algorithm run
    performs the same counted I/Os on every backend — and transient
    backend failures are absorbed here by retrying with capped
    exponential backoff. Each failed attempt on a counted operation is
    itself visible to Bob, so it is recorded in the trace (as
    [Retry_read]/[Retry_write]) and tallied in {!Stats.retries}; because
    a fault schedule depends only on its seed and the access index, the
    retries of an oblivious algorithm are as value-independent as its
    I/Os, and pair-tested traces must still be identical. *)

type backend_spec =
  | Mem  (** In-process array; contents die with the process. *)
  | File of { path : string }
      (** File-backed block store (created if missing, not truncated):
          block [addr] lives at a fixed offset, so data can exceed RAM
          and the block image survives the process. *)
  | Faulty of { inner : backend_spec; seed : int; failure_rate : float; max_burst : int }
      (** Decorator injecting deterministic transient faults into
          [inner]; see {!Backend.fault_plan}. [max_burst] must stay
          below [max_retries] or accesses inside a burst exhaust their
          retry budget. *)
  | Sharded of { inner : backend_spec; shards : int; seed : int }
      (** Stripe the address space across [shards] instances of [inner]
          (each a fresh device: file paths get a [.shardN] suffix, fault
          seeds are mixed per shard), one contiguous inner run per shard
          for each run, all served on the caller's domain — see
          {!Backend.sharded}. The fan-out is the keyed-PRP
          {!Backend.router} of the block index, so the {e logical} trace —
          and therefore every obliviousness guarantee — is bit-identical
          to the single-shard run at every shard count. Nesting
          [Sharded] inside [Sharded] is rejected; composing [Faulty]
          {e outside} [Sharded] preserves exact trace parity with the
          unsharded faulty store (the fault gate iterates per logical
          block either way). *)
  | Journaled of { inner : backend_spec; path : string; durable : bool }
      (** Write-ahead journal at [path] over [inner] (see {!Journal}):
          every write lands in the journal — checksummed, and fsync'd
          when [durable] — before it is applied in place, so a crash
          tears at most the journal tail. Reopening with [resume:true]
          replays the redo log before the store comes up; with
          [resume:false] leftovers are discarded. Enables {!checkpoint}.
          Purely physical: traces, stats and nonces are identical with
          and without the journal (pair-tested). One journal per store —
          nest it {e outside} [Sharded], never inside, and never inside
          another [Journaled]. Disable [durable] only where crashes are
          simulated in-process (tests), where fsync adds nothing. *)
  | Crashing of { inner : backend_spec; ops : int }
      (** Deterministic kill switch for crash-recovery sweeps: the first
          [ops] backend block operations succeed, every later one raises
          {!Backend.Crashed} (never retried — it unwinds to the
          harness). Compose it {e inside} [Journaled] so the journal
          append survives and the in-place apply dies, the tear replay
          must heal. See {!Backend.crash_after}. *)

exception Io_failure of { addr : int; attempts : int }
(** A counted or uncounted operation kept failing after [attempts]
    tries: the fault outlasted the retry budget. *)

type t
(** One domain owns a store: a store, its {!Stats}, its trace and its
    telemetry sink belong to the domain that created the store and must
    not be shared across domains. None of them is synchronised — every
    I/O, every seal and every accounting update runs on the caller's
    domain — so concurrent use from two domains is a data race. *)

val create :
  ?cipher:Odex_crypto.Cipher.key ->
  ?cipher_engine:Odex_crypto.Cipher.engine ->
  ?telemetry:Odex_telemetry.Telemetry.t ->
  ?trace_mode:Trace.mode ->
  ?backend:backend_spec ->
  ?max_retries:int ->
  ?backoff:float * float ->
  ?resume:bool ->
  ?journal_auto_commit_bytes:int ->
  block_size:int ->
  unit ->
  t
(** Fresh empty disk. [trace_mode] defaults to [Digest]; [backend] to
    [Mem]. A transient backend failure is retried up to [max_retries]
    times (default 10), sleeping [min cap (base *. 2. ** attempts)]
    seconds between attempts where [backoff = (base, cap)] (default
    [1e-6, 1e-4] — real but negligible delays).

    [cipher_engine] takes one value, [Chacha20] (the default): blocks
    are sealed under ChaCha20 when a [cipher] key is supplied — see
    {!Odex_crypto.Cipher}. The engine id is recorded in the store header
    (and the journal header, on a [Journaled] spec): reopening a
    persistent store whose header names any other engine — id 1 was the
    retired PRF keystream — raises [Invalid_argument] instead of
    silently unsealing ciphertext with the wrong keystream.

    [telemetry] (default: the disabled sink) wires this store into a
    profiling sink: the store registers its {!stats} ledger there, every
    backend call is timed (through {!Backend.instrument}) and every
    {!with_span} becomes a timed phase whose counts the sink reads off
    the ledger. Purely observational — the sink sees only what Bob sees
    (op kinds, sizes, timings, never plaintext), and enabling it changes
    no trace (pair-tested). With the disabled sink the backend is not
    even wrapped, so the I/O path is exactly the uninstrumented one.

    {b Sealing state persistence.} A store whose backend persists (the
    file backend) carries a small header — block size, the cipher nonce
    high-water mark and the cipher engine id — maintained through the
    backend's [write_meta].
    [create] on an existing file reads it back and resumes the nonce
    counter {e above} every nonce that may ever have been used, so
    reopening a store with the same key never re-seals under a spent
    nonce (the two-time-pad reopen bug). The mark is persisted ahead of
    use in 2^16-nonce reservations and exactly on {!sync}/{!close}; a
    crash therefore costs at most one reservation of skipped (never
    used) nonces. Reopening with a different [block_size], a header of
    another version than 2, or a header naming a retired engine raises
    [Invalid_argument] and leaves the store's files untouched.

    [resume] (default [false]) controls whether the blocks already
    present on a persistent backend become addressable: with
    [resume:true], [capacity] starts at the backend's block count and
    previously written blocks can be read back (decrypting under the
    same key) without re-allocating — with the default, the store starts
    logically empty and {!alloc} zero-fills from address 0 as always
    (still under fresh nonces). On a [Journaled] spec, [resume:true]
    additionally replays the journal's redo log before the store comes
    up (see {!journal_replay}), healing any crash-torn writes;
    [resume:false] discards leftover journal records instead.

    [journal_auto_commit_bytes] (default 4 MiB) bounds the journal's
    pending tail on a [Journaled] spec: a write pushing past it triggers
    an automatic commit (outside {!atomically} groups). Smaller values
    bound crash-recovery scan/replay work tighter at the cost of more
    frequent commits — see EXPERIMENTS.md E17 for the measured
    trade-off. Ignored without a [Journaled] layer. *)

val block_size : t -> int
val capacity : t -> int
(** Number of allocated blocks. *)

val backend_kind : t -> string
(** The kind of the outermost backend layer the spec builds — "mem",
    "file", "faulty", "sharded", "journaled" or "crashing" — never the
    timing shim a telemetry sink installs (the shim keeps its inner
    layer's kind). For reports. *)

val shard_ios : t -> int array
(** Per-shard counts of block ops served by a [Sharded] backend ([[||]]
    otherwise) — the adversary's per-device view: the stripe's
    [shard_ops], which every layer above it inherits. *)

val shard_count : t -> int option
(** [Some k] when the backend spec has a [Sharded] layer of [k] members
    (including the degenerate [k = 1] stripe), [None] when it has none —
    the width of the backend's [router]. The two are deliberately
    distinct: a 1-shard stripe still routes through the PRP and records
    a per-server trace. *)

val shard_traces : t -> Trace.t array
(** The per-server adversary views: trace [s] records exactly the op
    sequence shard [s]'s device served — counted ops and counted
    retries, at {e inner} (per-device) addresses, in the order the
    coordinator issued them — and nothing else (uncounted ops are
    excluded, as in the logical trace). Span structure mirrors the
    logical trace's {!with_span} phases. [[||]] on unsharded backends.
    An algorithm is per-server oblivious when each shard's trace — not
    just the combined logical one — is value-independent; on a
    non-colluding multi-server deployment this is the {e weaker}
    requirement each individual server's view must satisfy, and the
    multi-server tier of the pair-tester checks it shard by shard. *)

val shard_addr : t -> shard:int -> index:int -> int
(** The logical address of the [index]-th block held by [shard] —
    {!Backend.logical} on the stripe's router, so
    [Backend.shard_route ~shards ~seed (shard_addr t ~shard ~index) =
    (shard, index)] for the spec's [shards] and [seed]. Public: routing
    depends only on the address and the stripe seed, never on data. Lets a
    multi-server algorithm address one chosen server's device through
    the logical store. Raises [Invalid_argument] on unsharded backends
    or out-of-range [shard]/negative [index]. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Bracket a public phase on the logical trace {e and} every per-shard
    trace at once, so shard-level divergence reports name the same
    phases as logical ones, and time it as a {!telemetry} phase of the
    same label (in every trace mode). The only place the library opens
    a phase. *)

val nonce_chunk : int
(** Granularity (2^16) of the nonce high-water reservations described
    above: a crash skips at most this many never-used nonces. *)

val next_nonce : t -> int option
(** The nonce the next sealed payload will use ([None] without a cipher
    key) — for tests asserting that two paths drew the same nonces. *)

val faults_injected : t -> int
(** Transient failures the backend has raised so far (0 unless the
    backend is [Faulty]). Counts faults on {e all} operations, counted
    or not; {!Stats.retries} counts only the retries Bob observes. *)

val sync : t -> unit
(** Flush the backend (fsync for [File]; no-op otherwise). Uncounted:
    durability is the server's concern, not an I/O of the model. *)

val close : t -> unit
(** Release backend resources (file descriptors). The store must not be
    used afterwards. On a journaled store this is also a final commit. *)

val abandon : t -> unit
(** Release every descriptor {e without} the checkpoint, commit and
    flush that {!close} performs: the on-disk state stays exactly as the
    last operation left it, simulating a process kill. Crash-sweep
    harness only; the store must not be used afterwards. *)

(** {2 Crash-atomic journaling}

    A store built from a [Journaled] spec write-ahead-logs every block
    write (see {!Journal}); these are its control surface. All of it is
    out-of-band server state — uncounted, untraced, invisible to Bob's
    view — so journaling on/off changes no trace (pair-tested). On an
    unjournaled store [checkpoint] is a no-op and the queries return
    empty/zero. *)

val journaled : t -> bool
(** Whether a write-ahead journal is attached. *)

val checkpoint : t -> owner:string -> phase:int -> cursor:int -> unit
(** Durably record in [owner]'s slot of the journal's checkpoint table
    that its computation has completed [phase] (plus an opaque
    non-negative [cursor], e.g. a scratch-array base). Also a journal
    group-commit and an exact nonce-counter checkpoint, so it is a safe
    crash boundary: killed after phase [k], the computation reopens with
    [resume:true] and restarts from phase [k + 1]. The table holds
    {!Journal.max_slots} slots keyed by the full owner string, so
    concurrent algorithms on one store — an ORAM rebuild, the ext-sort
    it runs internally, an independent columnsort — each keep their own
    slot; owners still fold their array base and shape into the string,
    and a resumed computation must be the same deterministic computation
    that wrote the slot ({!Ext_sort}'s phase numbering is the canonical
    client). [(0, 0)] is the reserved "no checkpoint" value —
    [~phase:0 ~cursor:0] is {!checkpoint_clear} — and a negative [phase]
    or [cursor], a phase-0 nonzero-cursor pair, an over-long owner, or a
    full table raise [Invalid_argument] (see {!Journal.checkpoint}).
    With an enabled sink its commit is timed into the journaled
    backend's [Sync] cell, the one {!Backend.instrument} times [sync]
    into. *)

val checkpoint_clear : t -> owner:string -> unit
(** Durably free [owner]'s checkpoint slot — the "computation complete"
    mark. Also a commit boundary, like {!checkpoint}; a no-op slot-wise
    if [owner] holds none, and entirely on unjournaled stores. *)

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically t f] runs [f], holding the journal's automatic commits
    for the duration: every write [f] issues lands in the same commit
    group, which either applies whole at the next commit boundary
    (checkpoint, sync, close, or a post-group auto-commit) or rolls back
    whole if the process dies first. Use it to bracket a logical write
    group that spans several backend runs — e.g. the strided write-back
    of one compare-exchange window — so a crash can never tear the
    group in the middle. Reentrant; a no-op on unjournaled stores. [f]
    must not call {!sync} or {!checkpoint} itself. *)

val checkpoint_state : t -> owner:string -> int * int
(** [owner]'s checkpoint slot as [(phase, cursor)]; [(0, 0)] when
    [owner] holds no slot (occupancy is explicit in the table encoding,
    and a header torn mid-write degrades to an empty table, never to a
    wrong slot). *)

val checkpoint_slots : t -> (string * int * int) list
(** The occupied checkpoint slots as [(owner, phase, cursor)]; [[]] on
    unjournaled stores. Introspection for tests and tooling. *)

val journal_replay : t -> (int * int) list
(** The (addr, count) runs journal replay re-applied when this store was
    opened ([resume:true] on a journaled spec); [[]] otherwise. The
    crash sweep asserts this schedule is bit-identical across pair
    inputs — recovery I/O is a function of the journal alone. *)

val journal_appends : t -> (int * int) list
(** The (addr, count) journal records appended since open — the commit
    schedule, pair-tested data-independent likewise. *)

val journal_commits : t -> int
(** Journal commits (sync, checkpoint, close or automatic) since open. *)

val alloc : t -> int -> int
(** [alloc t n] reserves [n] fresh blocks initialized to all-[Empty] and
    returns the address of the first. [alloc t 0] is a defined no-op: it
    returns the current allocation frontier and changes nothing (useful
    for zero-length views); negative [n] raises [Invalid_argument].
    Allocation itself performs no counted I/O (the server
    zero-initializes); any oblivious initialization an algorithm needs is
    paid by explicit writes. The allocator is a deterministic bump
    allocator, so allocation addresses never depend on data. *)

(** {2 Block I/O}

    The flat run is the one transfer path. {!read_flat} and {!write_flat}
    move a run of {!Flat} slots — the 8-byte header word, then the
    encoded cell image, at the payload stride — between the device and a
    caller-owned buffer, opening or sealing the images in place with no
    cell codec in between. {!read}/{!write} and {!read_many}/{!write_many}
    are decode/encode views over the same transfer and seal code: they
    run it on the store's own scratch and convert to {!Block.t}. Every
    path records the same per-block trace ops, Stats ticks and nonces. *)

val read_flat : t -> int -> int -> Flat.t -> unit
(** [read_flat t addr n buf] reads the contiguous run [addr, addr + n)
    into slots [0, n) of [buf], opened in place: afterwards slot [i]
    holds block [addr + i]'s plaintext cell images. The header words are
    the store's and are left unspecified. Logically identical to
    {!read_many} — one [Trace.Read] op and one Stats tick per block in
    address order, one backend run ([n > 1] tallied in
    {!Stats.batched_ios}).
    [buf] must have the store's block size and at least [n] slots.
    Allocates nothing per block on a plaintext store. *)

val write_flat : t -> int -> int -> Flat.t -> unit
(** [write_flat t addr n buf] writes slots [0, n) of [buf] to the run
    [addr, addr + n) — the mirror image of {!read_flat}, with fresh
    nonces drawn in slot order exactly as {!write_many} draws them. It
    never mutates the caller's cell images: a ciphered store seals a
    copy in its own scratch. It may overwrite the header words, which
    belong to the store. *)

val read : t -> int -> Block.t
(** [read t addr] performs one I/O and returns a private copy of the
    block. *)

val write : t -> int -> Block.t -> unit
(** [write t addr blk] performs one I/O, re-encrypting under a fresh
    nonce. The block is copied (or serialized), so the caller may keep
    mutating its buffer. *)

val read_many : t -> int -> int -> Block.t array
(** [read_many t addr n] reads the contiguous run
    [addr, addr + n) and returns the [n] blocks in address order.
    Logically identical to [n] calls to {!read}: it records one
    [Trace.Read] op and one Stats tick per block, in address order, and
    a faulty backend gates each block on the same access index — so the
    adversary's view is bit-identical to the per-block loop's.
    Physically the payloads travel as a single backend run — one
    [pread] on a file store — and the [n] blocks are tallied in
    {!Stats.batched_ios} when [n > 1]. [n = 0] returns [[||]] without
    touching anything. *)

val write_many : t -> int -> Block.t array -> unit
(** [write_many t addr blks] writes [blks] to the contiguous run
    starting at [addr]. The mirror image of {!read_many}: per-block
    trace ops, stats and fresh nonces exactly as [Array.length blks]
    calls to {!write} (nonces drawn in index order), one backend run. *)

val stats : t -> Stats.t
val trace : t -> Trace.t

val telemetry : t -> Odex_telemetry.Telemetry.t
(** The profiling sink this store reports to ({!Odex_telemetry.Telemetry.disabled}
    unless one was passed to {!create}). *)

val scratch_bytes : t -> int
(** Bytes currently retained by the shared run scratch buffer. Bounded:
    the scratch grows by doubling to the largest run ever requested, so
    it never exceeds [2 * payload_bytes_of_largest_run] — property-tested
    together with the staleness invariant (interleaved batched reads and
    writes never observe bytes left over from an earlier, larger run). *)

val unchecked_peek : t -> int -> Block.t
(** Read a block {e without} counting an I/O or recording a trace entry.
    For tests and experiment harnesses only — the equivalent of the
    experimenter inspecting the disk out-of-band. Transient faults are
    retried silently (no trace, no stats). *)

val unchecked_poke : t -> int -> Block.t -> unit
(** Write without accounting; test/harness setup only. *)

val remove_spec_files : backend_spec -> unit
(** Delete the files behind a spec — [File] stores, shard members and
    the stripe's base path (the one a caller reserved, e.g. with
    [Filename.temp_file]), and [Journaled] journals, recursing through
    every decorator — if any. Harness cleanup helper. *)
