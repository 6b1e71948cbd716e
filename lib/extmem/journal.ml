(* Write-ahead redo journal around a backend (the crash-atomicity layer
   of DESIGN.md §10).

   Every mutation is appended to a side file as a length-prefixed,
   checksummed record and kept in an in-memory overlay that serves
   read-your-writes; the inner store is NOT touched until [commit]. The
   commit protocol is marker-then-apply:

     1. fsync the records (when [durable]),
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
   reason).

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
  overlay : (int, Bigbuf.t * int) Hashtbl.t;
      (** addr -> latest pending sealed payload (buffer, offset): the
          read-your-writes view of the uncommitted tail. *)
  mutable pending_ops : (int * int * Bigbuf.t) list;
      (** (addr, count, payload run) per pending record, reversed. *)
  mutable hold_depth : int;
      (** > 0 suppresses auto-commit: the writer is inside an atomic
          group ({!hold}/{!release}) that must not be split. *)
  mutable append_log : (int * int) list;  (** (addr, count) per record, reversed. *)
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
   608  FNV-1a checksum over bytes [0, 608) *)
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

let fnv_bytes h buf off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := fnv_byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h

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

(* ---- raw file I/O (EINTR-hardened like the file backend's) ----

   The header and record headers are small cold-path [bytes]; record
   bodies are sealed-payload runs and travel positionally through
   {!Bigio} straight from/to the caller's off-heap buffer. *)

let pwrite_all fd ~pos buf ~off ~len =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let done_ = ref 0 in
  while !done_ < len do
    done_ := !done_ + Backend.retry_eintr (fun () -> Unix.write fd buf (off + !done_) (len - !done_))
  done

(* Best-effort positioned read: returns the number of bytes read before
   EOF — a short read here is a crash boundary, not an error. *)
let pread_upto fd ~pos buf ~len =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let done_ = ref 0 in
  let eof = ref false in
  while (not !eof) && !done_ < len do
    let k = Backend.retry_eintr (fun () -> Unix.read fd buf !done_ (len - !done_)) in
    if k = 0 then eof := true else done_ := !done_ + k
  done;
  !done_

let fsync_fd fd = Backend.retry_eintr (fun () -> Unix.fsync fd)

(* ---- header ---- *)

let build_header t =
  let h = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 h 0 8;
  Bytes.set_int64_le h 8 (Int64.of_int t.payload_size);
  Bytes.set_int64_le h 16 (Int64.of_int t.committed_tail);
  Bytes.set_int64_le h 24 engine_id;
  Array.iteri
    (fun i s ->
      let off = 32 + (i * slot_bytes) in
      match s with
      | None -> ()
      | Some { owner; phase; cursor } ->
          Bytes.set_int64_le h off 1L;
          Bytes.set_int64_le h (off + 8) (Int64.of_int phase);
          Bytes.set_int64_le h (off + 16) (Int64.of_int cursor);
          Bytes.set_int64_le h (off + 24) (Int64.of_int (String.length owner));
          Bytes.blit_string owner 0 h (off + 32) (String.length owner))
    t.slots;
  Bytes.set_int64_le h (header_bytes - 8) (fnv_bytes fnv_offset h 0 (header_bytes - 8));
  h

let write_header t = pwrite_all t.fd ~pos:0 (build_header t) ~off:0 ~len:header_bytes

let empty_slots () = Array.make max_slots None

let parse_slot h off =
  let len = Int64.to_int (Bytes.get_int64_le h (off + 24)) in
  if Bytes.get_int64_le h off <> 1L || len < 1 || len > max_owner_bytes then None
  else
    Some
      {
        owner = Bytes.sub_string h (off + 32) len;
        phase = Int64.to_int (Bytes.get_int64_le h (off + 8));
        cursor = Int64.to_int (Bytes.get_int64_le h (off + 16));
      }

(* Parse a header buffer into (slots, committed_tail). A failed header
   checksum degrades to "no checkpoints, nothing committed" — a safe
   full restart — while the magic, payload size and cipher engine still
   validate, so a foreign file or a journal sealed under a retired
   engine fails loudly. *)
let parse_header ~payload_size h =
  let ps = Int64.to_int (Bytes.get_int64_le h 8) in
  if ps <> payload_size then
    invalid_arg
      (Printf.sprintf "Journal: journal has payload size %d, expected %d" ps payload_size);
  if Bytes.get_int64_le h (header_bytes - 8) <> fnv_bytes fnv_offset h 0 (header_bytes - 8)
  then (empty_slots (), header_bytes)
  else begin
    Cipher.check_engine_id ~who:"Journal: journal header" (Bytes.get_int64_le h 24);
    let slots = Array.init max_slots (fun i -> parse_slot h (32 + (i * slot_bytes))) in
    (slots, max header_bytes (Int64.to_int (Bytes.get_int64_le h 16)))
  end

(* ---- applying records to the inner store ----

   Inner [Transient]s are retried here — commit application and replay
   are out-of-band recovery, below Storage's counted engine. *)

let apply_record t ~addr ~count buf =
  Backend.ensure t.inner (addr + count);
  let payload = t.payload_size in
  let fin = addr + count in
  let rec go a attempts =
    if a < fin then
      match
        Backend.write_run t.inner ~addr:a ~count:(fin - a) ~payload ~buf
          ~off:((a - addr) * payload)
      with
      | () -> ()
      | exception Backend.Transient { addr = fa; _ } ->
          let attempts = if fa > a then 1 else attempts + 1 in
          if attempts > 1000 then failwith "Journal: replay exhausted its retry budget";
          go fa attempts
  in
  go addr 0

(* ---- replay ----

   Scan records from the end of the header up to the committed tail,
   stopping early at the first torn or checksum-failing one (records are
   appended strictly in order, so nothing intact can follow a torn
   record), and redo each onto the inner store. Records beyond the
   committed tail are a group the crash interrupted before its marker:
   discarding them is what returns the store to the last commit
   boundary. *)

let replay_records t ~size =
  let hdr = Bytes.create record_header_bytes in
  let body = ref (Bigbuf.create 0) in
  let pos = ref header_bytes in
  let fin = min t.committed_tail size in
  let stop = ref false in
  while not !stop do
    if !pos + record_header_bytes > fin then stop := true
    else if pread_upto t.fd ~pos:!pos hdr ~len:record_header_bytes < record_header_bytes
    then stop := true
    else begin
      let len = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let addr = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let count = Int64.to_int (Bytes.get_int64_le hdr 16) in
      let cks = Bytes.get_int64_le hdr 24 in
      if
        count < 1 || addr < 0
        || len <> count * t.payload_size
        || !pos + record_header_bytes + len > fin
      then stop := true
      else begin
        if Bigbuf.length !body < len then body := Bigbuf.create len;
        if Bigio.read_upto t.fd ~pos:(!pos + record_header_bytes) !body ~off:0 ~len < len
        then stop := true
        else if record_checksum ~addr ~count !body 0 len <> cks then stop := true
        else begin
          apply_record t ~addr ~count !body;
          t.replay_log <- (addr, count) :: t.replay_log;
          pos := !pos + record_header_bytes + len
        end
      end
    end
  done;
  t.replay_log <- List.rev t.replay_log

(* ---- commit / checkpoint ---- *)

let check_open t = if t.closed then invalid_arg "Backend.Journaled: store is closed"

let commit t =
  check_open t;
  if t.tail > header_bytes then begin
    (* Records durable, then the marker, then the in-place application:
       a crash anywhere in between replays this exact group on reopen. *)
    if t.durable then fsync_fd t.fd;
    t.committed_tail <- t.tail;
    write_header t;
    if t.durable then fsync_fd t.fd;
    List.iter
      (fun (addr, count, buf) -> apply_record t ~addr ~count buf)
      (List.rev t.pending_ops);
    Backend.sync t.inner;
    Backend.retry_eintr (fun () -> Unix.ftruncate t.fd header_bytes);
    t.tail <- header_bytes;
    t.committed_tail <- header_bytes;
    write_header t;
    if t.durable then fsync_fd t.fd;
    t.pending_ops <- [];
    Hashtbl.reset t.overlay
  end
  else Backend.sync t.inner;
  t.commit_count <- t.commit_count + 1

(* The slot owned by [owner]; -1 when absent. *)
let find_slot t ~owner =
  let found = ref (-1) in
  Array.iteri
    (fun i s ->
      match s with
      | Some { owner = o; _ } when !found < 0 && String.equal o owner -> found := i
      | _ -> ())
    t.slots;
  !found

let validate_owner owner =
  if String.length owner = 0 then invalid_arg "Journal.checkpoint: empty owner";
  if String.length owner > max_owner_bytes then
    invalid_arg
      (Printf.sprintf "Journal.checkpoint: owner %S exceeds %d bytes" owner max_owner_bytes)

let occupied_owners t = Array.to_list t.slots |> List.filter_map (Option.map (fun s -> s.owner))

let clear t ~owner =
  validate_owner owner;
  commit t;
  (match find_slot t ~owner with
  | i when i >= 0 -> t.slots.(i) <- None
  | _ -> ());
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
      match find_slot t ~owner with
      | i when i >= 0 -> i
      | _ -> (
          let free = ref (-1) in
          Array.iteri (fun i s -> if s = None && !free < 0 then free := i) t.slots;
          match !free with
          | -1 ->
              invalid_arg
                (Printf.sprintf
                   "Journal.checkpoint: checkpoint table full (%d slots; owners: %s)"
                   max_slots
                   (String.concat ", " (occupied_owners t)))
          | i -> i)
    in
    t.slots.(i) <- Some { owner; phase; cursor };
    write_header t;
    if t.durable then fsync_fd t.fd
  end

let state t ~owner =
  if t.closed then (0, 0)
  else
    match find_slot t ~owner with
    | i when i >= 0 -> (
        match t.slots.(i) with Some { phase; cursor; _ } -> (phase, cursor) | None -> (0, 0))
    | _ -> (0, 0)

let slots t =
  Array.to_list t.slots
  |> List.filter_map (Option.map (fun { owner; phase; cursor } -> (owner, phase, cursor)))

let hold t = t.hold_depth <- t.hold_depth + 1

let release t = if t.hold_depth > 0 then t.hold_depth <- t.hold_depth - 1

(* ---- the append path ---- *)

let append t ~addr ~count ~buf ~off =
  let len = count * t.payload_size in
  let hdr = Bytes.create record_header_bytes in
  Bytes.set_int64_le hdr 0 (Int64.of_int len);
  Bytes.set_int64_le hdr 8 (Int64.of_int addr);
  Bytes.set_int64_le hdr 16 (Int64.of_int count);
  Bytes.set_int64_le hdr 24 (record_checksum ~addr ~count buf off len);
  (* Header before body: a crash between the two leaves a header whose
     checksum cannot match the missing body — the scan discards it. *)
  pwrite_all t.fd ~pos:t.tail hdr ~off:0 ~len:record_header_bytes;
  Bigio.write_all t.fd ~pos:(t.tail + record_header_bytes) buf ~off ~len;
  t.tail <- t.tail + record_header_bytes + len;
  t.append_log <- (addr, count) :: t.append_log;
  (* The overlay and pending set own a copy: callers reuse their run
     buffers. *)
  let copy = Bigbuf.create len in
  Bigbuf.blit buf off copy 0 len;
  t.pending_ops <- (addr, count, copy) :: t.pending_ops;
  for i = 0 to count - 1 do
    Hashtbl.replace t.overlay (addr + i) (copy, i * t.payload_size)
  done

(* Both run verbs validate the whole window before any byte moves —
   before an overlay hit is blitted into the caller's buffer, too. *)
let check_run ~who t ~addr ~count ~payload ~buf ~off =
  check_open t;
  Backend.check_run ~who ~payload_bytes:t.payload_size ~blocks:(Backend.size t.inner) ~addr ~count
    ~payload ~buf ~off

let maybe_auto_commit t =
  if t.hold_depth = 0 && t.tail - header_bytes > t.auto_commit_bytes then commit t

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
     access pattern stays data-independent. *)
  let read_run t ~addr ~count ~payload ~buf ~off =
    check_run ~who:"Backend.Journaled.read_run" t ~addr ~count ~payload ~buf ~off;
    if Hashtbl.length t.overlay = 0 then
      Backend.read_run t.inner ~addr ~count ~payload ~buf ~off
    else begin
      (* Maximal inner stretches between overlay hits, so a mostly
         committed run still travels as few contiguous reads. *)
      let flush_inner lo hi =
        (* [lo, hi) not in the overlay *)
        if hi > lo then
          Backend.read_run t.inner ~addr:lo ~count:(hi - lo) ~payload ~buf
            ~off:(off + ((lo - addr) * payload))
      in
      let lo = ref addr in
      for a = addr to addr + count - 1 do
        match Hashtbl.find_opt t.overlay a with
        | Some (src, soff) ->
            flush_inner !lo a;
            lo := a + 1;
            Bigbuf.blit src soff buf (off + ((a - addr) * payload)) payload
        | None -> ()
      done;
      flush_inner !lo (addr + count)
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
      overlay = Hashtbl.create 64;
      pending_ops = [];
      hold_depth = 0;
      append_log = [];
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
      t.slots <- slots;
      t.committed_tail <- committed_tail;
      replay_records t ~size;
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
       let mg = Bytes.create 8 in
       ignore (pread_upto fd ~pos:0 mg ~len:8);
       let mg = Bytes.to_string mg in
       if mg = magic then
         if size < header_bytes then start_fresh ()
         else begin
           let h = Bytes.create header_bytes in
           ignore (pread_upto fd ~pos:0 h ~len:header_bytes);
           open_existing (parse_header ~payload_size h)
         end
       else invalid_arg "Journal: unrecognized journal format (bad magic)"
     end
   with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  t

let replay_log t = t.replay_log
let append_log t = List.rev t.append_log
let commits t = t.commit_count
let pending_bytes t = t.tail - header_bytes
