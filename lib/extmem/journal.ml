(* Write-ahead redo journal around a backend (the crash-atomicity layer
   of DESIGN.md §10).

   Every mutation is staged as a length-prefixed, checksummed record in
   one off-heap arena (the byte image of the journal's record region),
   indexed by an overlay that serves read-your-writes; neither the file
   nor the inner store is touched until [commit]. The commit protocol is
   marker-then-apply:

     1. write the arena behind the header in one positioned write and
        fsync it (when [durable]),
     2. persist the commit marker — the header's committed-tail offset —
        and fsync it,
     3. apply every pending record to the inner store, in append order,
     4. flush the inner store, truncate the journal, clear the marker.

   Reopening with [replay:true] re-applies the records below the
   committed tail (a crash during step 3/4 — redo is idempotent) and
   DISCARDS everything above it (a crash before step 2): the inner store
   always lands exactly on a commit boundary, never between two writes
   of the same commit group. That group atomicity — not just run
   atomicity — is what makes phase-checkpointed resume sound: a bitonic
   compare-exchange group torn in the middle loses data when re-run,
   while a group rolled back to its start is simply re-executed
   ({!Ext_sort} aligns its checkpoints with commits for exactly this
   reason). Staging a group until its commit changes no recovery
   outcome: replay would discard every record of it anyway.

   Recovery is oblivious by construction: the replay schedule — which
   (addr, count) runs are rewritten, in which order — is a function of
   the journal bytes alone, which in turn record only the address
   schedule and ciphertexts the server already saw. Replay copies the
   original sealed payloads verbatim, so it introduces no new
   (key, nonce) pairs; the nonce high-water header (PR 4) still bounds
   the counter on resume. Both properties are pair- and sweep-tested in
   test_journal.ml.

   The header additionally carries the cipher engine id the payloads are
   sealed under — ChaCha20 (id 2) is the only engine, and a journal
   naming any other id is refused rather than replayed — and a bounded
   checkpoint TABLE of [max_slots] entries, each a full (owner string,
   phase, cursor) triple for algorithm-level restart points; see
   {!Storage.checkpoint}. Owners are stored verbatim (not hashed), so
   two distinct owners can never alias, and occupancy is an explicit
   per-slot kind tag, never inferred from the phase value. Concurrent algorithms on one store — an ORAM rebuild
   plus the ext-sort it runs internally plus an unrelated columnsort —
   each own their slot and never clobber each other. The whole header is
   covered by a checksum: a header torn mid-rewrite degrades to "no
   checkpoints, nothing committed" (a full restart from the previous
   boundary), never to a wrong checkpoint or a half-committed group.

   The format is v3 ("ODEXJRN3", 616-byte header). Any other magic —
   the retired v2 single-slot format included — is refused untouched. *)

module Bigbuf = Odex_crypto.Bigbuf
module Cipher = Odex_crypto.Cipher

type slot = { owner : string; phase : int; cursor : int }

type t = {
  path : string;
  payload_size : int;
  inner : Backend.t;
  durable : bool;
  auto_commit_bytes : int;
  mutable fd : Unix.file_descr;
  mutable tail : int;  (** Append offset: header_bytes + pending record bytes. *)
  mutable committed_tail : int;
      (** The commit marker: records below this offset are committed
          (their apply may be incomplete — replay finishes it); records
          at or above it are provisional and discarded by replay. *)
  mutable slots : slot option array;  (** The checkpoint table, [max_slots] entries. *)
  mutable arena : Bigbuf.t;
      (** The record region [header_bytes, tail) at offset
          [- header_bytes]: the pending group, record headers included,
          until commit writes it out; replay reads the committed region
          back into it. *)
  mutable overlay : int array;
      (** addr -> arena offset of the addr's latest pending payload: the
          read-your-writes view of the pending group, open-addressed as
          (addr, offset) pairs, addr -1 = free. *)
  mutable live : int;  (** Occupied overlay pairs. *)
  mutable hold_depth : int;
      (** > 0 suppresses auto-commit: the writer is inside an atomic
          group ({!hold}/{!release}) that must not be split. *)
  mutable appends : int array;  (** addr, count per record since open, flattened. *)
  mutable logged : int;  (** Words of [appends] in use. *)
  mutable replay_log : (int * int) list;  (** Records re-applied at open, in order. *)
  mutable commit_count : int;
  mutable closed : bool;
}

(* v3 header layout:
     0  magic "ODEXJRN3"
     8  payload_size
    16  committed_tail
    24  cipher engine id
    32  max_slots (8) slot entries of slot_bytes (72) each:
          +0 kind (0 = empty, 1 = occupied)
          +8 phase, +16 cursor, +24 owner_len, +32 owner bytes (40)
   608  FNV-1a checksum over bytes [0, 608)
   Each record: len, addr, count, checksum (8 bytes each), then the
   len = count * payload_size payload bytes. *)
let max_slots = 8
let max_owner_bytes = 40
let slot_bytes = 72
let header_bytes = 32 + (max_slots * slot_bytes) + 8
let record_header_bytes = 32
let magic = "ODEXJRN3"
let engine_id = Cipher.engine_id Cipher.Chacha20

(* ---- FNV-1a, 64-bit: the record and header checksums. Not a MAC —
   the journal holds only ciphertexts the server already has — just a
   torn-write detector. ---- *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) fnv_prime

let fnv_big h buf off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := fnv_byte !h (Char.code (Bigbuf.unsafe_get buf i))
  done;
  !h

let fnv_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical v (i * 8)))
  done;
  !h

(* The engine id seeds every record checksum: a record written under a
   retired engine can never validate — and thus never replay — even if
   the header were somehow bypassed. *)
let record_checksum ~addr ~count buf off len =
  fnv_big
    (fnv_int64 (fnv_int64 (fnv_int64 fnv_offset engine_id) (Int64.of_int addr))
       (Int64.of_int count))
    buf off len

(* Little-endian words of the header and the arena, through the unboxed
   primitives; bounds are the caller's. Both travel through {!Bigio}. *)
external get64 : Bigbuf.t -> int -> int64 = "%caml_bigstring_get64u"
external set64 : Bigbuf.t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] le w = if Sys.big_endian then bswap64 w else w
let[@inline] get_word a off = Int64.to_int (le (get64 a off))

let fsync_fd fd = Backend.retry_eintr (fun () -> Unix.fsync fd)

(* ---- header ---- *)

let build_header t =
  let h = Bigbuf.create header_bytes in
  let set off v = set64 h off (le (Int64.of_int v)) in
  String.iteri (Bigbuf.set h) magic;
  set 8 t.payload_size;
  set 16 t.committed_tail;
  set64 h 24 (le engine_id);
  Array.iteri
    (fun i s ->
      let off = 32 + (i * slot_bytes) in
      match s with
      | None -> ()
      | Some { owner; phase; cursor } ->
          set off 1;
          set (off + 8) phase;
          set (off + 16) cursor;
          set (off + 24) (String.length owner);
          String.iteri (fun j -> Bigbuf.set h (off + 32 + j)) owner)
    t.slots;
  set64 h (header_bytes - 8) (le (fnv_big fnv_offset h 0 (header_bytes - 8)));
  h

let write_header t = Bigio.write_all t.fd ~pos:0 (build_header t) ~off:0 ~len:header_bytes

let empty_slots () = Array.make max_slots None

let parse_slot h off =
  let len = get_word h (off + 24) in
  if le (get64 h off) <> 1L || len < 1 || len > max_owner_bytes then None
  else
    Some
      {
        owner = String.init len (fun j -> Bigbuf.unsafe_get h (off + 32 + j));
        phase = get_word h (off + 8);
        cursor = get_word h (off + 16);
      }

(* Parse a header buffer into (slots, committed_tail). A failed header
   checksum degrades to "no checkpoints, nothing committed" — a safe
   full restart — while the magic, payload size and cipher engine still
   validate, so a foreign file or a journal sealed under a retired
   engine fails loudly. *)
let parse_header ~payload_size h =
  let ps = get_word h 8 in
  if ps <> payload_size then
    invalid_arg
      (Printf.sprintf "Journal: journal has payload size %d, expected %d" ps payload_size);
  if le (get64 h (header_bytes - 8)) <> fnv_big fnv_offset h 0 (header_bytes - 8) then
    (empty_slots (), header_bytes)
  else begin
    Cipher.check_engine_id ~who:"Journal: journal header" (le (get64 h 24));
    let slots = Array.init max_slots (fun i -> parse_slot h (32 + (i * slot_bytes))) in
    (slots, max header_bytes (get_word h 16))
  end

(* ---- the arena and the overlay ---- *)

let reserve t need =
  if Bigbuf.length t.arena < need then begin
    let a = Bigbuf.create (max need (2 * Bigbuf.length t.arena)) in
    Bigbuf.blit t.arena 0 a 0 (t.tail - header_bytes);
    t.arena <- a
  end

(* The pair index of [a]'s entry, or of the free pair where it would go:
   linear probing from a multiplicative hash, so strided runs spread.
   The table is at most half full, so a free pair always ends the probe. *)
let find_pair tbl a =
  let mask = (Array.length tbl / 2) - 1 in
  let i = ref (((a * 0x2545F4914F6CDD1D) lsr 29) land mask) in
  while tbl.(2 * !i) >= 0 && tbl.(2 * !i) <> a do
    i := (!i + 1) land mask
  done;
  2 * !i

let rec overlay_set t a off =
  if 4 * (t.live + 1) > Array.length t.overlay then begin
    let old = t.overlay in
    t.overlay <- Array.make (2 * Array.length old) (-1);
    t.live <- 0;
    for i = 0 to (Array.length old / 2) - 1 do
      if old.(2 * i) >= 0 then overlay_set t old.(2 * i) old.((2 * i) + 1)
    done
  end;
  let p = find_pair t.overlay a in
  if t.overlay.(p) < 0 then begin
    t.overlay.(p) <- a;
    t.live <- t.live + 1
  end;
  t.overlay.(p + 1) <- off

(* The arena offset of [a]'s pending payload; -1 when none is pending. *)
let overlay_find t a =
  let p = find_pair t.overlay a in
  if t.overlay.(p) < 0 then -1 else t.overlay.(p + 1)

(* ---- applying records to the inner store ----

   Inner [Transient]s are retried here — commit application and replay
   are out-of-band recovery, below Storage's counted engine. *)

let apply_record t ~addr ~count ~off =
  Backend.ensure t.inner (addr + count);
  let payload = t.payload_size in
  let fin = addr + count in
  let rec go a attempts =
    if a < fin then
      match
        Backend.write_run t.inner ~addr:a ~count:(fin - a) ~payload ~buf:t.arena
          ~off:(off + ((a - addr) * payload))
      with
      | () -> ()
      | exception Backend.Transient { addr = fa; _ } ->
          let attempts = if fa > a then 1 else attempts + 1 in
          if attempts > 1000 then failwith "Journal: replay exhausted its retry budget";
          go fa attempts
  in
  go addr 0

(* Redo the records of arena bytes [0, len) onto the inner store, in
   append order: the one apply path of commit and replay. Commit walks
   the group it staged itself; replay walks the committed region it
   read back, so [replay] also verifies each checksum and logs the run.
   The walk stops at the first torn or checksum-failing record (records
   are appended strictly in order, so nothing intact can follow a torn
   one). *)
let apply_records t ~len ~replay =
  let a = t.arena in
  let pos = ref 0 in
  while !pos + record_header_bytes <= len do
    let rlen = get_word a !pos and addr = get_word a (!pos + 8) in
    let count = get_word a (!pos + 16) and body = !pos + record_header_bytes in
    if
      count < 1 || addr < 0
      || rlen <> count * t.payload_size
      || body + rlen > len
      || (replay && record_checksum ~addr ~count a body rlen <> le (get64 a (!pos + 24)))
    then pos := len
    else begin
      apply_record t ~addr ~count ~off:body;
      if replay then t.replay_log <- (addr, count) :: t.replay_log;
      pos := body + rlen
    end
  done

(* ---- commit / checkpoint ---- *)

let check_open t = if t.closed then invalid_arg "Backend.Journaled: store is closed"

let commit t =
  check_open t;
  if t.tail > header_bytes then begin
    (* Records durable, then the marker, then the in-place application:
       a crash anywhere in between replays this exact group on reopen. *)
    Bigio.write_all t.fd ~pos:header_bytes t.arena ~off:0 ~len:(t.tail - header_bytes);
    if t.durable then fsync_fd t.fd;
    t.committed_tail <- t.tail;
    write_header t;
    if t.durable then fsync_fd t.fd;
    apply_records t ~len:(t.tail - header_bytes) ~replay:false;
    Backend.sync t.inner;
    Backend.retry_eintr (fun () -> Unix.ftruncate t.fd header_bytes);
    t.tail <- header_bytes;
    t.committed_tail <- header_bytes;
    write_header t;
    if t.durable then fsync_fd t.fd;
    Array.fill t.overlay 0 (Array.length t.overlay) (-1);
    t.live <- 0
  end
  else Backend.sync t.inner;
  t.commit_count <- t.commit_count + 1

(* The first slot satisfying [p]; -1 when none does. *)
let find_slot t p =
  let rec go i = if i = max_slots then -1 else if p t.slots.(i) then i else go (i + 1) in
  go 0

let owned_by owner = function Some s -> String.equal s.owner owner | None -> false

let validate_owner owner =
  if String.length owner = 0 then invalid_arg "Journal.checkpoint: empty owner";
  if String.length owner > max_owner_bytes then
    invalid_arg
      (Printf.sprintf "Journal.checkpoint: owner %S exceeds %d bytes" owner max_owner_bytes)

let occupied_owners t = Array.to_list t.slots |> List.filter_map (Option.map (fun s -> s.owner))

let clear t ~owner =
  validate_owner owner;
  commit t;
  (match find_slot t (owned_by owner) with i when i >= 0 -> t.slots.(i) <- None | _ -> ());
  write_header t;
  if t.durable then fsync_fd t.fd

let checkpoint t ~owner ~phase ~cursor =
  validate_owner owner;
  if phase < 0 then invalid_arg "Journal.checkpoint: negative phase";
  if cursor < 0 then invalid_arg "Journal.checkpoint: negative cursor";
  if phase = 0 then begin
    (* (0, 0) is the reserved "no checkpoint" value: writing it clears
       the owner's slot. A phase-0 checkpoint with a nonzero cursor
       would be indistinguishable from that on read-back, so it is
       rejected rather than silently aliased. *)
    if cursor <> 0 then
      invalid_arg "Journal.checkpoint: phase 0 admits only cursor 0 (the clear)";
    clear t ~owner
  end
  else begin
    commit t;
    let i =
      match (find_slot t (owned_by owner), find_slot t Option.is_none) with
      | -1, -1 ->
          invalid_arg
            (Printf.sprintf "Journal.checkpoint: checkpoint table full (%d slots; owners: %s)"
               max_slots
               (String.concat ", " (occupied_owners t)))
      | -1, i | i, _ -> i
    in
    t.slots.(i) <- Some { owner; phase; cursor };
    write_header t;
    if t.durable then fsync_fd t.fd
  end

let state t ~owner =
  if t.closed then (0, 0)
  else
    match find_slot t (owned_by owner) with
    | i when i >= 0 -> (
        match t.slots.(i) with Some { phase; cursor; _ } -> (phase, cursor) | None -> (0, 0))
    | _ -> (0, 0)

let slots t =
  Array.to_list t.slots
  |> List.filter_map (Option.map (fun { owner; phase; cursor } -> (owner, phase, cursor)))

let hold t = t.hold_depth <- t.hold_depth + 1

let release t = if t.hold_depth > 0 then t.hold_depth <- t.hold_depth - 1

(* ---- the append path: stage the record in the arena ---- *)

let append t ~addr ~count ~buf ~off =
  let len = count * t.payload_size in
  let at = t.tail - header_bytes in
  let body = at + record_header_bytes in
  reserve t (body + len);
  let a = t.arena in
  (* The arena owns a copy — callers reuse their run buffers — and the
     checksum is taken over that copy. *)
  Bigbuf.blit buf off a body len;
  set64 a at (le (Int64.of_int len));
  set64 a (at + 8) (le (Int64.of_int addr));
  set64 a (at + 16) (le (Int64.of_int count));
  set64 a (at + 24) (le (record_checksum ~addr ~count a body len));
  t.tail <- header_bytes + body + len;
  if t.logged = Array.length t.appends then
    t.appends <- Array.append t.appends (Array.make (max 64 t.logged) 0);
  t.appends.(t.logged) <- addr;
  t.appends.(t.logged + 1) <- count;
  t.logged <- t.logged + 2;
  for i = 0 to count - 1 do
    overlay_set t (addr + i) (body + (i * t.payload_size))
  done

(* Both run verbs validate the whole window before any byte moves —
   before an overlay hit is blitted into the caller's buffer, too. *)
let check_run ~who t ~addr ~count ~payload ~buf ~off =
  check_open t;
  Backend.check_run ~who ~payload_bytes:t.payload_size ~blocks:(Backend.size t.inner) ~addr ~count
    ~payload ~buf ~off

let maybe_auto_commit t =
  if t.hold_depth = 0 && t.tail - header_bytes > t.auto_commit_bytes then commit t

(* Inner blocks [lo, hi) of a read of the run at [addr] into [buf] at
   [off]; nothing when the stretch is empty. *)
let read_inner t ~lo ~hi ~addr ~payload ~buf ~off =
  if hi > lo then
    Backend.read_run t.inner ~addr:lo ~count:(hi - lo) ~payload ~buf
      ~off:(off + ((lo - addr) * payload))

(* ---- the decorator ---- *)

module Journaled = struct
  type nonrec t = t

  let kind = "journaled"

  let payload_bytes t = t.payload_size

  let ensure t n =
    check_open t;
    Backend.ensure t.inner n

  let size t = Backend.size t.inner

  (* Blocks with a pending (uncommitted) write are served from the
     overlay — the inner store has not seen them yet. Which blocks those
     are is a function of the address schedule alone, so the inner
     access pattern stays data-independent. Maximal inner stretches
     between overlay hits travel as single reads. *)
  let read_run t ~addr ~count ~payload ~buf ~off =
    check_run ~who:"Backend.Journaled.read_run" t ~addr ~count ~payload ~buf ~off;
    if t.live = 0 then Backend.read_run t.inner ~addr ~count ~payload ~buf ~off
    else begin
      let lo = ref addr in
      for a = addr to addr + count - 1 do
        let src = overlay_find t a in
        if src >= 0 then begin
          read_inner t ~lo:!lo ~hi:a ~addr ~payload ~buf ~off;
          lo := a + 1;
          Bigbuf.blit t.arena src buf (off + ((a - addr) * payload)) payload
        end
      done;
      read_inner t ~lo:!lo ~hi:(addr + count) ~addr ~payload ~buf ~off
    end

  (* Append-only: one record per backend run, applied in place at the
     next commit. A [write_many] group therefore commits — or rolls back
     — as a unit. *)
  let write_run t ~addr ~count ~payload ~buf ~off =
    check_run ~who:"Backend.Journaled.write_run" t ~addr ~count ~payload ~buf ~off;
    if count > 0 then begin
      append t ~addr ~count ~buf ~off;
      maybe_auto_commit t
    end

  (* Metadata is the inner store's own write-ahead protocol (the nonce
     high-water header lands before any payload sealed under it): it
     passes straight through, preserving that ordering. *)
  let read_meta t =
    check_open t;
    Backend.read_meta t.inner

  let write_meta t m =
    check_open t;
    Backend.write_meta t.inner m

  let sync t = commit t

  let close t =
    if not t.closed then begin
      commit t;
      t.closed <- true;
      Unix.close t.fd;
      Backend.close t.inner
    end

  let faults t = Backend.faults_injected t.inner
  let shard_ops t = Backend.shard_io_counts t.inner
  let shard_count t = Backend.shard_count t.inner
end

let backend t = Backend.Packed ((module Journaled), t)

let abandon t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd;
    Backend.close t.inner
  end

(* ---- open ---- *)

let create ?(auto_commit_bytes = 1 lsl 22) ~path ~payload_size ~durable ~replay inner =
  if payload_size < 1 then invalid_arg "Journal.create: payload_size must be >= 1";
  if auto_commit_bytes < 1 then invalid_arg "Journal.create: auto_commit_bytes must be >= 1";
  let fd =
    Backend.retry_eintr (fun () ->
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600)
  in
  let size = (Unix.fstat fd).Unix.st_size in
  let t =
    {
      path;
      payload_size;
      inner;
      durable;
      auto_commit_bytes;
      fd;
      tail = header_bytes;
      committed_tail = header_bytes;
      slots = empty_slots ();
      arena = Bigbuf.create 0;
      overlay = Array.make 128 (-1);
      live = 0;
      hold_depth = 0;
      appends = [||];
      logged = 0;
      replay_log = [];
      commit_count = 0;
      closed = false;
    }
  in
  let start_fresh () =
    (* Fresh journal (or one torn during its very first header write,
       before any record could exist): start clean. *)
    Backend.retry_eintr (fun () -> Unix.ftruncate fd 0);
    write_header t;
    if durable then fsync_fd t.fd
  in
  let open_existing (slots, committed_tail) =
    if replay then begin
      (* Redo the region below the committed tail. Records beyond it are
         a group the crash interrupted before its marker: discarding them
         is what returns the store to the last commit boundary. *)
      t.slots <- slots;
      let len = max 0 (min committed_tail size - header_bytes) in
      reserve t len;
      apply_records t ~len:(Bigio.read_upto fd ~pos:header_bytes t.arena ~off:0 ~len) ~replay:true;
      t.replay_log <- List.rev t.replay_log;
      Backend.sync t.inner
    end;
    (* Committed records replayed, uncommitted tail (or, with
       [replay:false], everything) deliberately discarded: truncate and
       persist the surviving checkpoint table. *)
    t.committed_tail <- header_bytes;
    Backend.retry_eintr (fun () -> Unix.ftruncate fd header_bytes);
    write_header t;
    if durable then fsync_fd t.fd
  in
  (match
     (* The header is written front-to-first on every rewrite, so any
        file of >= 8 bytes carries an intact magic; shorter files (and
        files shorter than the full header — a tear during the very
        first header write) are fresh. Unknown magics — a retired
        format's included — fail loudly: truncating a foreign file would
        destroy data. *)
     if size < 8 then start_fresh ()
     else begin
       let h = Bigbuf.create header_bytes in
       ignore (Bigio.read_upto fd ~pos:0 h ~off:0 ~len:header_bytes);
       if String.init 8 (Bigbuf.unsafe_get h) <> magic then
         invalid_arg "Journal: unrecognized journal format (bad magic)"
       else if size < header_bytes then start_fresh ()
       else open_existing (parse_header ~payload_size h)
     end
   with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  t

let replay_log t = t.replay_log
let append_log t = List.init (t.logged / 2) (fun i -> (t.appends.(2 * i), t.appends.((2 * i) + 1)))
let commits t = t.commit_count
let pending_bytes t = t.tail - header_bytes
