(** A deferred-apply write-ahead journal wrapped around any {!Backend}:
    the crash-atomicity layer (DESIGN.md §10).

    The decorator returned by {!backend} stages every mutation as a
    length-prefixed, checksummed record in memory, in an off-heap arena
    indexed by an overlay that serves read-your-writes; neither the
    journal file nor the inner store is touched until {!commit}, so an
    uncommitted group never reaches the disk. A commit writes the
    staged records to the side file in one write and fsyncs them (when
    [durable]), durably sets the header's commit marker, and only then
    applies the group in place. Staging changes no recovery outcome:
    replay discards every record above the marker anyway. Reopening with [replay:true] re-applies
    the records below the marker (finishing a commit the crash
    interrupted — redo is idempotent) and {e discards} everything above
    it, so the inner store always lands exactly on a commit boundary —
    group atomicity, not merely run atomicity. That is what makes
    phase-checkpointed resume sound: a multi-run group (e.g. one bitonic
    compare-exchange window written back as several strided runs) either
    commits whole or rolls back whole, never tears in the middle.

    {b Recovery obliviousness.} The replay schedule is a function of the
    journal bytes alone — the address schedule and sealed payloads the
    server already observed — never of plaintext; replay copies the
    original ciphertexts verbatim, so no new (key, nonce) pair is ever
    created by recovery. Pair- and kill-sweep-tested in test_journal.ml.

    {b Checkpoint table.} The header carries a bounded table of
    {!max_slots} (owner, phase, cursor) slots for algorithm-level
    restart points, written through {!checkpoint} (which is also a
    {!commit}). Each slot stores its owner string verbatim (up to
    {!max_owner_bytes} bytes) — distinct owners can never alias — and
    occupancy is an explicit per-slot tag in the encoding, so concurrent
    algorithms on one store (an ORAM rebuild, the ext-sort it runs
    internally, an unrelated columnsort) each keep their own slot and
    never clobber each other. Resuming from a slot is sound only for the
    same deterministic computation that wrote it, which owners encode by
    folding their array base and shape into the owner string. The header
    checksum makes a header torn mid-rewrite read as "no checkpoints,
    nothing committed" — a full restart from the previous boundary —
    never as a wrong checkpoint or a half-committed group.

    {b Format.} The one accepted format is v3 ("ODEXJRN3"), whose header
    records the cipher engine id (ChaCha20, id 2). A file with any other
    magic — the retired v2 single-slot format included — or naming any
    other engine is refused and left untouched. *)

type t

val max_slots : int
(** Size of the checkpoint table (8): at most this many distinct owners
    can hold a checkpoint concurrently; one more raises. *)

val max_owner_bytes : int
(** Longest owner string a slot can store (40 bytes). *)

val header_bytes : int
(** Size of the header — the file offset at which records begin.
    Exposed for the tests and tooling that do journal-file surgery. *)

val create :
  ?auto_commit_bytes:int ->
  path:string ->
  payload_size:int ->
  durable:bool ->
  replay:bool ->
  Backend.t ->
  t
(** Open (creating if missing) the journal at [path] over the given
    inner backend. With [replay:true] the committed records are
    re-applied to the inner store and the checkpoint table is restored; uncommitted
    leftovers are discarded either way, and [replay:false] additionally
    drops committed records and the whole checkpoint table (the store
    starts logically fresh). Either way the journal file ends empty but
    for its header. [durable] controls the fsync-before-marker
    discipline (and header fsyncs); disable it only where crashes are
    simulated in-process, e.g. the test sweeps, where the page cache
    survives the "crash" anyway. [auto_commit_bytes] (default 4 MiB)
    bounds the pending tail: a write that pushes past it triggers an
    automatic {!commit}, except while a {!hold} is outstanding.

    The header records the engine id of the sealed payloads (ChaCha20,
    id 2), and the id seeds every record checksum. Raises
    [Invalid_argument], leaving the file untouched, on a foreign or
    retired-format file (bad magic), a payload-size mismatch, or a
    header naming a retired engine (replaying ciphertext that would be
    unsealed under the wrong keystream would garble the store
    silently). *)

val backend : t -> Backend.t
(** The journaled decorator (kind ["journaled"]): [{ inner with ... }]
    over the journal's inner store, stating the run verbs (staged and
    served through the overlay), [sync] ({!commit}), [close] (commits,
    closes the journal and the inner store), and [ensure] and the
    metadata verbs, which refuse a closed journal. [size], [faults],
    [shard_ops] and [router] are the inner store's. *)

val commit : t -> unit
(** Group-commit boundary: make the pending records durable, mark them
    committed, apply them to the inner store, flush it, and truncate the
    journal to its header. After a commit a crash replays nothing —
    recovery work is bounded by the bytes written since the last
    commit. *)

val hold : t -> unit
(** Suppress automatic commits until the matching {!release}: the writes
    in between form one atomic group that either commits whole at a
    later {!commit}/{!checkpoint} or rolls back whole. Reentrant
    (nesting holds is fine); explicit {!commit} calls are not blocked —
    bracket owners simply must not make them mid-group. *)

val release : t -> unit
(** Undo one {!hold}. Never commits by itself (so it is safe in an
    exception-unwinding [finally]); a deferred auto-commit fires on the
    next unheld write instead. *)

val checkpoint : t -> owner:string -> phase:int -> cursor:int -> unit
(** {!commit}, then durably record in [owner]'s table slot that its
    computation has completed [phase] (with an opaque non-negative
    [cursor], e.g. a scratch-array base address). Upserts: an existing
    slot for [owner] is overwritten, otherwise a free slot is taken. [(0, 0)] is the
    reserved "no checkpoint" value: [checkpoint ~phase:0 ~cursor:0] is
    {!clear}. Raises [Invalid_argument] on a negative [phase] {e or}
    [cursor] (a negative cursor would aim a resume at a bogus base), on
    [phase = 0] with a nonzero cursor (unrepresentable: it would read
    back as cleared), on an empty or over-long owner, and when all
    {!max_slots} slots are held by other owners (loud, never a silent
    eviction). *)

val clear : t -> owner:string -> unit
(** {!commit}, then free [owner]'s slot (no-op on its absence, but still
    a commit): the durable "computation complete" mark. *)

val state : t -> owner:string -> int * int
(** [owner]'s slot as [(phase, cursor)] — [(0, 0)] when [owner] holds no
    slot. Occupancy is explicit in the table encoding, and {!checkpoint}
    cannot write [(0, 0)] into a live slot, so the two cases read back
    identically by construction, not by sentinel collision. *)

val slots : t -> (string * int * int) list
(** The occupied checkpoint slots as [(owner, phase, cursor)] triples,
    in table order. Introspection for tests and tooling. *)

val replay_log : t -> (int * int) list
(** The (addr, count) runs re-applied by this open's replay, in replay
    order; [[]] when nothing was replayed. Non-empty only when a crash
    landed between a commit's marker and its completed apply. The sweep
    tests assert this schedule is bit-identical across pair inputs. *)

val append_log : t -> (int * int) list
(** The (addr, count) record appends since open, in append order — the
    journal's commit schedule, asserted data-independent likewise. *)

val commits : t -> int
(** Commits (explicit, checkpoint, sync or automatic) since open. *)

val pending_bytes : t -> int
(** Record bytes currently pending in the journal tail (staged in
    memory until the next commit). *)

val abandon : t -> unit
(** Release descriptors {e without} committing — the journal tail and
    inner store stay exactly as a kill would leave them. Crash-sweep
    harness only; the handle is unusable afterwards. *)
