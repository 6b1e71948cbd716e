(** A deferred-apply write-ahead journal wrapped around any {!Backend}:
    the crash-atomicity layer (DESIGN.md §10).

    The decorator returned by {!backend} stages every mutation as a
    length-prefixed, checksummed record in memory, in an off-heap arena
    indexed by an overlay that serves read-your-writes; neither the
    journal file nor the inner store is touched until {!commit}, so an
    uncommitted group never reaches the disk. A commit is one durable
    group: it writes the staged records to the side file in one write
    and fsyncs them (when [durable]), writes and fsyncs one header that
    marks them committed — carrying the next commit epoch, the
    checkpoint table and the inner store's latest metadata blob — and
    only then applies the group in place and flushes the inner store.
    Nothing is truncated: the next group overwrites the record region,
    and each record's checksum is seeded with its group's epoch, so
    replay never mistakes a record of an unmarked group for one of the
    marked group. Reopening with [replay:true] re-applies the records
    below the marker (finishing a commit the crash interrupted, or
    redoing the last group, already applied — redo is idempotent) and
    {e discards} everything above it, so the inner store always lands
    exactly on a commit boundary — group atomicity, not merely run
    atomicity. That is what makes phase-checkpointed resume sound: a
    multi-run group (e.g. one bitonic compare-exchange window written
    back as several strided runs) either commits whole or rolls back
    whole, never tears in the middle.

    {b Recovery obliviousness.} The replay schedule is a function of the
    journal bytes alone — the address schedule and sealed payloads the
    server already observed — never of plaintext; replay copies the
    original ciphertexts verbatim, so no new (key, nonce) pair is ever
    created by recovery. Pair- and kill-sweep-tested in test_journal.ml.

    {b Checkpoint table.} The header carries a bounded table of
    {!max_slots} (owner, phase, cursor) slots for algorithm-level
    restart points, written through {!checkpoint}, whose slot update
    rides in the header of its own commit group. Each slot stores its
    owner string verbatim (up to {!max_owner_bytes} bytes) — distinct
    owners can never alias — and occupancy is an explicit per-slot tag
    in the encoding, so concurrent algorithms on one store (an ORAM
    rebuild, the ext-sort it runs internally, an unrelated columnsort)
    each keep their own slot and never clobber each other. Resuming from
    a slot is sound only for the same deterministic computation that
    wrote it, which owners encode by folding their array base and shape
    into the owner string. The header checksum makes a header torn
    mid-rewrite read as "no checkpoints, nothing committed" — a full
    restart from the previous boundary — never as a wrong checkpoint or
    a half-committed group.

    {b Format.} The one accepted format is v4 ("ODEXJRN4"), whose header
    records the cipher engine id (ChaCha20, id 2). A v3 ("ODEXJRN3")
    journal is refused with a message naming the retired format; a file
    with any other magic — the retired v2 single-slot format included —
    or naming any other engine is refused too, and every refused file
    is left untouched. *)

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
    re-applied to the inner store and the checkpoint table is restored;
    uncommitted leftovers are discarded either way, and [replay:false]
    additionally drops committed records and the whole checkpoint table
    (the store starts logically fresh). Either way the journal file
    ends empty but for its header; it is empty again after a clean
    close, while between the two it keeps the last committed group.
    [durable] controls the fsync-before-marker discipline (and header
    fsyncs); disable it only where crashes are simulated in-process,
    e.g. the test sweeps, where the page cache survives the "crash"
    anyway. [auto_commit_bytes] (default 4 MiB) bounds the pending tail:
    a write that pushes past it triggers an automatic {!commit}, except
    while a {!hold} is outstanding.

    The header records the engine id of the sealed payloads (ChaCha20,
    id 2), and the id, with the group's epoch, seeds every record
    checksum. Raises
    [Invalid_argument], leaving the file untouched, on a foreign or
    retired-format file (bad magic), a payload-size mismatch, or a
    header naming a retired engine (replaying ciphertext that would be
    unsealed under the wrong keystream would garble the store
    silently). *)

val backend : t -> Backend.t
(** The journaled decorator (kind ["journaled"]): [{ inner with ... }]
    over the journal's inner store, stating the run verbs (staged and
    served through the overlay), [sync] ({!commit}), [close] (commits,
    clears the marker and cuts the journal back to its header, then
    closes it and the inner store), [ensure] and [read_meta], which
    refuse a closed journal, and [write_meta], which also keeps the blob
    for the next commit's header. [size], [faults],
    [shard_ops] and [router] are the inner store's. *)

val commit : t -> unit
(** Group-commit boundary: make the pending records durable, mark them
    committed in one header write, apply them to the inner store and
    flush it — two journal fsyncs when [durable]. With nothing pending
    it only flushes the inner store. After a commit a crash replays at
    most this group again, already applied — recovery work is bounded
    by the largest group. A commit that raises after its marker keeps
    the group pending, and the next commit writes it again as the
    prefix of its own group. *)

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
(** {!commit}, recording in [owner]'s table slot that its computation
    has completed [phase] (with an opaque non-negative [cursor], e.g. a
    scratch-array base address). The slot rides in the group's own
    header, so it is durable exactly when the group is; with nothing
    pending the checkpoint is one header write and one fsync. Upserts: an existing
    slot for [owner] is overwritten, otherwise a free slot is taken. [(0, 0)] is the
    reserved "no checkpoint" value: [checkpoint ~phase:0 ~cursor:0] is
    {!clear}. Raises [Invalid_argument] on a negative [phase] {e or}
    [cursor] (a negative cursor would aim a resume at a bogus base), on
    [phase = 0] with a nonzero cursor (unrepresentable: it would read
    back as cleared), on an empty or over-long owner, and when all
    {!max_slots} slots are held by other owners (loud, never a silent
    eviction). *)

val clear : t -> owner:string -> unit
(** {!commit} with [owner]'s slot freed in the group's header (no-op on
    its absence, but still a commit): the durable "computation complete"
    mark. *)

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
    order; [[]] when nothing was replayed. Non-empty only after a crash
    that followed some commit's marker: the reopen redoes that group,
    whose apply may or may not have finished. The sweep
    tests assert this schedule is bit-identical across pair inputs. *)

val append_log : t -> (int * int) list
(** The (addr, count) record appends since open, in append order — the
    journal's commit schedule, asserted data-independent likewise. *)

val commits : t -> int
(** Commits (explicit, checkpoint, sync or automatic) since open. *)

val pending_bytes : t -> int
(** Record bytes currently pending in the journal tail (staged in
    memory until the next commit). *)

val meta : t -> bytes option
(** The inner store's metadata blob as the journal last saw it: after an
    open, the blob the last committed header carried ([None] when it
    carried none or failed its checksum). {!Storage} restores the
    store's nonce high-water mark from it when the store file's own
    copy, written without an fsync, is behind. *)

val fsyncs : unit -> int
(** Journal-file fsyncs since the program started, across all journals.
    Test hook: the fsync-count test reads it around one checkpoint. *)

val ftruncates : unit -> int
(** Journal-file truncations since the program started, likewise. *)

val tear_after : t -> int -> unit
(** Arm a simulated kill in the next commit's record write: when the
    group's records span more than [n] bytes, only their first [n] reach
    the file, with the header still marking the previous group, and the
    commit raises {!Backend.Crashed}. Crash-sweep harness only. *)

val abandon : t -> unit
(** Release descriptors {e without} committing — the journal tail and
    inner store stay exactly as a kill would leave them. Crash-sweep
    harness only; the handle is unusable afterwards. *)
