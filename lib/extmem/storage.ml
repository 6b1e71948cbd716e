module Bigbuf = Odex_crypto.Bigbuf
module Cipher = Odex_crypto.Cipher

type backend_spec =
  | Mem
  | File of { path : string }
  | Faulty of { inner : backend_spec; seed : int; failure_rate : float; max_burst : int }
  | Sharded of { inner : backend_spec; shards : int; seed : int }
  | Journaled of { inner : backend_spec; path : string; durable : bool }
  | Crashing of { inner : backend_spec; ops : int }

exception Io_failure of { addr : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Io_failure { addr; attempts } ->
        Some
          (Printf.sprintf "Storage.Io_failure(addr=%d after %d attempts)" addr attempts)
    | _ -> None)

module Telemetry = Odex_telemetry.Telemetry

type cipher_state = { st : Cipher.state; mutable next_nonce : int }

(* ---- per-server traces.

   Under a [Sharded] spec each shard is a separate adversary: a
   non-colluding server sees only the inner-address op sequence routed to
   its own device, never the logical interleaving. Every counted op (and
   counted retry) is recorded a second time into the trace of the shard
   that served it, at its inner address, through the backend's [router]
   field — the very value the stripe routes by, not a copy of it.
   Uncounted ops are excluded exactly as they are from the logical
   trace, and the logical trace itself is untouched — every pinned
   digest survives. *)

type t = {
  block_size : int;
  payload_size : int;
  backend : Backend.t;
  mutable used : int;
  stats : Stats.t;
  trace : Trace.t;
  tel : Telemetry.t;
  cipher : cipher_state option;
  cipher_timer : (Telemetry.cell * Telemetry.cell) option;
      (** The sink's "cipher" (seal, unseal) cells, when it collects and the store seals. *)
  mutable nonce_reserved : int;
      (** Nonces below this are persisted as potentially spent (the store
          header's high-water mark); a crash can never roll the counter
          back below a nonce that hit the device. *)
  max_retries : int;
  backoff_base : float;
  backoff_cap : float;
  journal : Journal.t option;
      (** The write-ahead journal handle, when the spec has a [Journaled]
          layer — owns the crash-atomicity and checkpoint machinery. *)
  commit_timer : Telemetry.cell option;
      (** The sink's sync cell for the journaled backend, when it collects
          and the store is journaled: checkpoint commits land there. *)
  straces : Trace.t array;  (** One per shard of [backend.router]; [[||]] without a stripe. *)
  seal_buf : Flat.t;  (** One slot: the single-block codec scratch. *)
  mutable run_buf : Flat.t;  (** Grows to the largest run requested; reused across calls. *)
}

(* The member spec of shard [i] under a [Sharded] spec: file paths get a
   per-shard suffix (each shard is its own device and needs its own
   file) and fault seeds are mixed with the shard index (each device
   runs its own deterministic weather). Nesting Sharded in Sharded is
   rejected — the striping math assumes one flat address refinement. *)
let rec shard_member_spec i = function
  | Mem -> Mem
  | File { path } -> File { path = Printf.sprintf "%s.shard%d" path i }
  | Faulty f ->
      Faulty { f with inner = shard_member_spec i f.inner; seed = f.seed + ((i + 1) * 0x9E37) }
  | Sharded _ -> invalid_arg "Storage: nested Sharded specs are not supported"
  | Journaled _ ->
      (* One journal (and one checkpoint slot) per store: compose the
         journal OUTSIDE the stripe, where it sees logical addresses. *)
      invalid_arg "Storage: Journaled inside Sharded is not supported (journal the stripe)"
  | Crashing _ -> invalid_arg "Storage: Crashing inside Sharded is not supported"

(* ---- store header: the sealing state that must survive the process.

   A reopened File store MUST NOT restart the nonce counter: Bob may
   have retained every ciphertext ever written, and re-sealing under an
   already-used nonce is a two-time pad against them. The header
   (persisted through the backend's [write_meta], which the file backend
   keeps in its fixed 64-byte file header) records a conservative
   high-water mark: before a nonce at or above the persisted mark is
   used, the mark is pushed [nonce_chunk] ahead and written out — so at
   most one out-of-band metadata write per 2^16 seals, and after a crash
   the store resumes from the persisted mark, skipping at most
   [nonce_chunk] never-used nonces (nonces are a resource of size 2^62;
   burning a few is free, reusing one is fatal). [sync]/[close] persist
   the exact counter, so a cleanly closed store resumes with no gap.

   The header (version 2, 32 bytes) also records the cipher engine id:
   ChaCha20 (id 2) is the only engine, and any other id — id 1 was the
   retired PRF keystream — is refused rather than unsealed with the
   wrong keystream. Version 1 (24 bytes, pre-engines) is likewise
   refused. *)

let header_version = 2L
let header_bytes = 32
let nonce_chunk = 1 lsl 16

let build_header t =
  let m = Bytes.create header_bytes in
  Bytes.set_int64_le m 0 header_version;
  Bytes.set_int64_le m 8 (Int64.of_int t.block_size);
  Bytes.set_int64_le m 16 (Int64.of_int t.nonce_reserved);
  Bytes.set_int64_le m 24 (Cipher.engine_id Cipher.Chacha20);
  m

let write_header t = t.backend.write_meta (build_header t)

(* Returns the nonce high-water mark. *)
let parse_header ~block_size m =
  if Bytes.length m < 8 then invalid_arg "Storage: corrupt store header";
  let v = Bytes.get_int64_le m 0 in
  if v <> header_version then
    invalid_arg (Printf.sprintf "Storage: unsupported store header version %Ld" v);
  if Bytes.length m < header_bytes then invalid_arg "Storage: corrupt store header";
  let bs = Int64.to_int (Bytes.get_int64_le m 8) in
  if bs <> block_size then
    invalid_arg
      (Printf.sprintf "Storage: store was created with block_size %d, reopened with %d" bs
         block_size);
  let hw = Int64.to_int (Bytes.get_int64_le m 16) in
  if hw < 0 then invalid_arg "Storage: corrupt store header (nonce high-water)";
  Cipher.check_engine_id ~who:"Storage: store header" (Bytes.get_int64_le m 24);
  hw

(* Instantiation returns the backend plus the journal handle when the
   spec tree contains a [Journaled] layer ([resume] decides whether that
   journal replays its redo log or starts fresh). The store header is
   checked before a journal opens, so a refused store is never replayed
   into. *)
let rec instantiate ~block_size ~payload_size ~resume ~auto_commit_bytes = function
  | Mem -> (Backend.mem ~payload_size (), None)
  | File { path } -> (Backend.file ~path ~payload_size, None)
  | Faulty { inner; seed; failure_rate; max_burst } ->
      let b, j = instantiate ~block_size ~payload_size ~resume ~auto_commit_bytes inner in
      (Backend.faulty { Backend.seed; failure_rate; max_burst } b, j)
  | Crashing { inner; ops } ->
      let b, j = instantiate ~block_size ~payload_size ~resume ~auto_commit_bytes inner in
      (Backend.crash_after ~ops b, j)
  | Sharded { inner; shards; seed } ->
      if shards < 1 then invalid_arg "Storage: shards must be >= 1";
      ( Backend.sharded ~seed
          (Array.init shards (fun i ->
               fst
                 (instantiate ~block_size ~payload_size ~resume ~auto_commit_bytes
                    (shard_member_spec i inner)))),
        None )
  | Journaled { inner; path; durable } ->
      let b, j = instantiate ~block_size ~payload_size ~resume ~auto_commit_bytes inner in
      if Option.is_some j then invalid_arg "Storage: nested Journaled specs are not supported";
      let journal =
        match
          let mark = Option.map (parse_header ~block_size) (b.read_meta ()) in
          let j = Journal.create ?auto_commit_bytes ~path ~payload_size ~durable ~replay:resume b in
          (* The journal header holds the store header as of the last
             commit, durable before its group was applied; the store's
             own copy is written without an fsync, so a power loss can
             leave it behind the nonces the replayed payloads carry. *)
          (match Journal.meta j with
          | Some m when Some (parse_header ~block_size m) > mark -> b.write_meta m
          | _ -> ()
          | exception e ->
              Journal.abandon j;
              raise e);
          j
        with
        | j -> j
        | exception e ->
            b.close ();
            raise e
      in
      (Journal.backend journal, Some journal)

let rec remove_spec_files = function
  | Mem -> ()
  | File { path } -> if Sys.file_exists path then Sys.remove path
  | Faulty { inner; _ } -> remove_spec_files inner
  | Crashing { inner; _ } -> remove_spec_files inner
  | Journaled { inner; path; _ } ->
      if Sys.file_exists path then Sys.remove path;
      remove_spec_files inner
  | Sharded { inner; shards; _ } ->
      for i = 0 to shards - 1 do
        remove_spec_files (shard_member_spec i inner)
      done;
      (* The members live at derived paths; a file stripe's base path is
         the caller's reservation (a [Filename.temp_file]) and goes too. *)
      remove_spec_files inner

let create ?cipher ?(cipher_engine = Cipher.Chacha20) ?telemetry ?(trace_mode = Trace.Digest)
    ?(backend = Mem) ?(max_retries = 10) ?(backoff = (1e-6, 1e-4)) ?(resume = false)
    ?journal_auto_commit_bytes ~block_size () =
  if block_size < 1 then invalid_arg "Storage.create: block_size must be >= 1";
  if max_retries < 1 then invalid_arg "Storage.create: max_retries must be >= 1";
  let backoff_base, backoff_cap = backoff in
  if backoff_base < 0. || backoff_cap < backoff_base then
    invalid_arg "Storage.create: backoff must satisfy 0 <= base <= cap";
  let payload_size = Flat.stride_of ~block_size in
  let raw, journal =
    instantiate ~block_size ~payload_size ~resume ~auto_commit_bytes:journal_auto_commit_bytes
      backend
  in
  let tel = Option.value telemetry ~default:Telemetry.disabled in
  let timed = Telemetry.enabled tel in
  (* The timing shim and the cipher timer exist only when the sink
     collects: a disabled sink leaves the backend — and thus the whole
     I/O path — untouched. *)
  let backend = if timed then Backend.instrument tel raw else raw in
  let nonce_hw =
    match Option.map (parse_header ~block_size) (backend.read_meta ()) with
    | Some hw -> hw
    | None -> 0
    | exception e ->
        (* A refused store is released untouched: the header is only
           rewritten once it has been accepted. *)
        backend.close ();
        raise e
  in
  let stats = Stats.create ~payload_size () in
  Telemetry.register tel (fun () ->
      let s = Stats.snapshot stats in
      { Telemetry.ios = s.reads + s.writes; retries = s.retries; faults = s.faults;
        bytes = s.bytes_moved });
  let t =
    {
      block_size;
      payload_size;
      backend;
      used = (if resume then backend.size () else 0);
      stats;
      trace = Trace.create trace_mode;
      tel;
      cipher =
        Option.map (fun key -> { st = Cipher.init cipher_engine key; next_nonce = nonce_hw })
          cipher;
      cipher_timer =
        (let c = Telemetry.cell tel ~backend:"cipher" in
         if timed && cipher <> None then Some (c Telemetry.Seal, c Telemetry.Unseal) else None);
      nonce_reserved = nonce_hw;
      max_retries;
      backoff_base;
      backoff_cap;
      journal;
      commit_timer =
        (if timed && journal <> None then
           Some (Telemetry.cell tel ~backend:backend.kind Telemetry.Sync)
         else None);
      straces =
        (match backend.router with
        | None -> [||]
        | Some r -> Array.init r.shards (fun _ -> Trace.create trace_mode));
      seal_buf = Flat.create ~block_size ~blocks:1;
      run_buf = Flat.create ~block_size ~blocks:0;
    }
  in
  write_header t;
  t

let block_size t = t.block_size
let capacity t = t.used
let stats t = t.stats
let trace t = t.trace
let telemetry t = t.tel
let backend_kind t = t.backend.kind
let faults_injected t = t.backend.faults ()
let next_nonce t = Option.map (fun cs -> cs.next_nonce) t.cipher
let scratch_bytes t = Bigbuf.length (Flat.buffer t.run_buf)
let shard_ios t = t.backend.shard_ops ()
let shard_count t = Option.map (fun (r : Backend.router) -> r.shards) t.backend.router
let shard_traces t = t.straces

let shard_addr t ~shard ~index =
  match t.backend.router with
  | None -> invalid_arg "Storage.shard_addr: backend is not sharded"
  | Some r ->
      if shard < 0 || shard >= r.shards then invalid_arg "Storage.shard_addr: shard out of range";
      if index < 0 then invalid_arg "Storage.shard_addr: negative index";
      Backend.logical r ~shard ~index

(* Bracket a public phase across the logical trace {e and} every
   per-shard trace, so shard-level divergence reports name the same
   phases the logical reports do, and time it as a sink phase of the
   same label and nesting. This is the one place a phase opens; timing
   never feeds back into what the traces record. *)
let traced_span t label f =
  match t.straces with
  | [||] -> Trace.with_span t.trace label f
  | straces ->
      Array.iter (fun tr -> Trace.span_enter tr label) straces;
      Fun.protect
        ~finally:(fun () -> Array.iter Trace.span_exit straces)
        (fun () -> Trace.with_span t.trace label f)

(* A disabled sink opens no phase, so the span builds no closure. *)
let with_span t label f =
  if Telemetry.enabled t.tel then
    Telemetry.with_phase t.tel label (fun () -> traced_span t label f)
  else traced_span t label f

(* Persist the exact counter (not the rounded-up reservation) before the
   device flushes or the descriptor goes away: a cleanly closed store
   reopens with a gap-free nonce stream. *)
let checkpoint_header t =
  (match t.cipher with Some cs -> t.nonce_reserved <- cs.next_nonce | None -> ());
  write_header t

let sync t =
  checkpoint_header t;
  t.backend.sync ()

let close t =
  checkpoint_header t;
  t.backend.close ()

(* Simulate a kill: release every descriptor with no header checkpoint,
   no journal commit, no flush — the on-disk state stays exactly as the
   crash point left it. Crash-sweep harness only. *)
let abandon t =
  match t.journal with
  | Some j -> Journal.abandon j
  | None -> t.backend.close ()

(* ---- journal-backed checkpoints (no-ops on unjournaled stores).

   The slot rides in the header of a journal commit, so a checkpoint is
   also a group-commit boundary; the nonce counter is checkpointed
   exactly (as on [sync]/[close]) just before, so the same header
   carries it and a resume after the crash wastes no reservation.
   All of it is out-of-band server state: uncounted, untraced — traces
   are bit-identical with journaling on and off (pair-tested). *)

let journaled t = Option.is_some t.journal

(* A checkpoint commits the journal behind the instrumented backend's
   back, so its time is recorded here, in the same sync cell the shim
   times [sync] into. A disabled sink reads no clock. *)
let timed_commit t f =
  match t.commit_timer with
  | None -> f ()
  | Some c ->
      let t0 = Telemetry.clock () in
      f ();
      Telemetry.record c ~blocks:0 ~bytes:0 ~ns:(Telemetry.clock () - t0)

let checkpoint t ~owner ~phase ~cursor =
  match t.journal with
  | None -> ()
  | Some j ->
      checkpoint_header t;
      timed_commit t (fun () -> Journal.checkpoint j ~owner ~phase ~cursor)

let checkpoint_clear t ~owner =
  match t.journal with
  | None -> ()
  | Some j ->
      checkpoint_header t;
      timed_commit t (fun () -> Journal.clear j ~owner)

let checkpoint_state t ~owner =
  match t.journal with None -> (0, 0) | Some j -> Journal.state j ~owner

let checkpoint_slots t = match t.journal with None -> [] | Some j -> Journal.slots j

(* Bracket a logical group that spans several backend runs (a strided
   network group's write-back, a split batch) so the journal cannot auto-commit in the
   middle of it: everything inside either commits whole at the next
   commit boundary or rolls back whole on a crash. No-op without a
   journal. Release never commits, so unwinding through a simulated
   crash is safe; a deferred auto-commit fires on the next unheld
   write. *)
let atomically t f =
  match t.journal with
  | None -> f ()
  | Some j ->
      Journal.hold j;
      Fun.protect ~finally:(fun () -> Journal.release j) f

let journal_replay t = match t.journal with None -> [] | Some j -> Journal.replay_log j
let journal_appends t = match t.journal with None -> [] | Some j -> Journal.append_log j
let journal_commits t = match t.journal with None -> 0 | Some j -> Journal.commits j

let ensure_run_buf t n =
  let have = Flat.blocks t.run_buf in
  if have < n then
    t.run_buf <- Flat.create ~block_size:t.block_size ~blocks:(max n (2 * have))

(* ---- sealed payload: an 8-byte nonce header (-1 = plaintext) followed
   by the encoded (and possibly encrypted) block image — exactly one slot
   of a {!Flat} run. A fixed layout keeps every backend
   address-computable and lets a file store reopen a previous run's
   blocks given the same key.

   The flat run is the one transfer path: every read lands a run of
   slots in a flat buffer and opens it in place; every write seals a run
   of slots in place and transfers it. The cipher XORs the keystream in
   place — through the engine's C core for ChaCha20 — and the same
   buffer is what the backend transfers from/to. {!read_many}/{!write_many}
   (and the single-block {!read}/{!write}) are codec views over it: they
   decode from / encode into the store's own scratch run ([seal_buf] for
   single blocks, [run_buf] for runs) around the same transfer and seal
   code. ---- *)

let plain_nonce = -1L

(* Header-slot words in native byte order: the plain marker is all ones
   in either order, so stamping and testing it need no byte swap — and,
   being primitives, no boxed [int64] on any build. Nonce values go
   through the little-endian accessors. *)
external raw_get64 : Bigbuf.t -> int -> int64 = "%caml_bigstring_get64u"
external raw_set64 : Bigbuf.t -> int -> int64 -> unit = "%caml_bigstring_set64u"

(* Cipher work is recorded in the sink's "cipher" cells, so a profile
   attributes keystream time separately from device time. Only sealed
   payloads are timed, and only when the sink collects; on the codec
   views the timer brackets the encode/decode too, as it always has. A
   start/stop pair rather than a wrapper, so the untimed path builds no
   closure. *)
let seal_start t = match t.cipher_timer with None -> 0 | Some _ -> Telemetry.clock ()

let seal_stop t ~seal ~blocks t0 =
  match t.cipher_timer with
  | None -> ()
  | Some (s, u) ->
      Telemetry.record (if seal then s else u) ~blocks
        ~bytes:(blocks * (t.payload_size - 8))
        ~ns:(Telemetry.clock () - t0)

(* Seal the first [n] slots of [buf] in place: stamp each header slot
   and, on a ciphered store, XOR the keystream over the image. The [n]
   nonces are reserved up front — slot [i] seals under [base + i],
   exactly the sequence a per-block loop draws — so a run is keyed by
   one [Cipher.xor_run] (the ChaCha20 engine dispatches 8 regions per
   SIMD batch). The reservation lands on the device before any payload
   sealed under it can. *)
let seal_run t buf n =
  let b = Flat.buffer buf and stride = t.payload_size in
  match t.cipher with
  | None ->
      for i = 0 to n - 1 do
        raw_set64 b (i * stride) plain_nonce
      done
  | Some cs ->
      let base = cs.next_nonce in
      if base + n > t.nonce_reserved then begin
        t.nonce_reserved <- base + n + nonce_chunk;
        write_header t
      end;
      cs.next_nonce <- base + n;
      for i = 0 to n - 1 do
        Bigbuf.unsafe_set64_le b (i * stride) (Int64.of_int (base + i))
      done;
      let len = stride - 8 in
      if n = 1 then Cipher.xor_big cs.st ~nonce:base b ~off:8 ~len
      else Cipher.xor_run cs.st ~nonces:(Array.init n (fun i -> base + i)) b ~off:8 ~stride ~len

(* Open the first [n] slots of [buf] in place. When every payload is
   sealed (the steady state of a ciphered store) the nonces come from
   the header slots and the run opens through one [Cipher.xor_run]; a
   run mixing plaintext and sealed payloads — fresh blocks carry the
   plain marker — opens slot by slot. *)
let open_run t buf n =
  let b = Flat.buffer buf and stride = t.payload_size in
  let sealed = ref 0 in
  for i = 0 to n - 1 do
    if raw_get64 b (i * stride) <> plain_nonce then incr sealed
  done;
  if !sealed > 0 then
    match t.cipher with
    | None -> invalid_arg "Storage: encrypted block but no cipher key"
    | Some cs ->
        let len = stride - 8 in
        if !sealed = n && n > 1 then
          Cipher.xor_run cs.st
            ~nonces:(Array.init n (fun i -> Int64.to_int (Bigbuf.unsafe_get64_le b (i * stride))))
            b ~off:8 ~stride ~len
        else
          for i = 0 to n - 1 do
            let header = Bigbuf.unsafe_get64_le b (i * stride) in
            if header <> plain_nonce then
              Cipher.xor_big cs.st ~nonce:(Int64.to_int header) b ~off:((i * stride) + 8) ~len
          done

(* ---- the run engine: every transfer, single-block or batched, goes
   through [run_transfer], which drives the backend's run API and
   resumes after transient faults at the faulting block.

   Failed attempts on counted operations are themselves disk accesses
   Bob observes, so each one is recorded in the trace (and tallied in
   [Stats.retries]); the fault schedule of a faulty backend depends only
   on its access index, never on data, so oblivious algorithms keep
   identical traces with failures enabled. Uncounted (out-of-band)
   operations retry silently: they model the experimenter's view, not
   Alice's protocol.

   A counted block is recorded once, in address order, exactly where a
   loop of single-block runs would have recorded it: blocks transferred
   before a mid-run fault are recorded before the fault's retry op. A
   run of [n] blocks therefore emits a trace bit-identical to [n] runs
   of one, which is what keeps the pair-tester's traces independent of
   how an algorithm groups its I/Os. Attempt counting is per block too:
   a fresh faulting block restarts at attempt 1. ---- *)

let backoff t attempt =
  let delay = Float.min t.backoff_cap (t.backoff_base *. Float.pow 2. (Float.of_int (attempt - 1))) in
  (* A signal interrupting the sleep ends it early rather than aborting
     the retry (restarting the full delay could livelock under a fast
     signal clock; the backoff is advisory, the retry is not). *)
  if delay > 0. then try Unix.sleepf delay with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let record_read t a =
  Stats.record_read t.stats;
  Trace.record_read t.trace a;
  match t.backend.router with
  | None -> ()
  | Some r -> Trace.record_read t.straces.(Backend.route_shard r a) (Backend.route_index r a)

let record_write t a =
  Stats.record_write t.stats;
  Trace.record_write t.trace a;
  match t.backend.router with
  | None -> ()
  | Some r -> Trace.record_write t.straces.(Backend.route_shard r a) (Backend.route_index r a)

(* A counted retry is a disk access the faulting shard's server observed
   too: it lands in that shard's trace as well as the logical one. *)
let record_retry t ~write a =
  let op_of a = if write then Trace.Retry_write a else Trace.Retry_read a in
  Trace.record t.trace (op_of a);
  match t.backend.router with
  | None -> ()
  | Some r -> Trace.record t.straces.(Backend.route_shard r a) (op_of (Backend.route_index r a))

let record_range t ~counted ~write lo hi =
  if counted then
    for i = lo to hi - 1 do
      if write then record_write t i else record_read t i
    done

(* Move blocks [a, fin) to or from [buf] — block [addr] sits at byte
   [off] — as one backend run, resuming at the faulting block. *)
let rec run_from t ~counted ~write ~addr ~fin ~buf ~off a attempt =
  if a < fin then begin
    let count = fin - a and boff = off + ((a - addr) * t.payload_size) in
    match
      if write then t.backend.write_run ~addr:a ~count ~payload:t.payload_size ~buf ~off:boff
      else t.backend.read_run ~addr:a ~count ~payload:t.payload_size ~buf ~off:boff
    with
    | () -> record_range t ~counted ~write a fin
    | exception Backend.Transient { addr = fa; _ } ->
        record_range t ~counted ~write a fa;
        let attempt = if fa > a then 1 else attempt in
        if attempt >= t.max_retries then raise (Io_failure { addr = fa; attempts = attempt });
        Stats.record_fault t.stats;
        if counted then begin
          Stats.record_retry t.stats;
          record_retry t ~write fa
        end;
        backoff t attempt;
        run_from t ~counted ~write ~addr ~fin ~buf ~off fa (attempt + 1)
  end

let run_transfer t ~counted ~write ~addr ~n ~buf ~off =
  run_from t ~counted ~write ~addr ~fin:(addr + n) ~buf ~off addr 1

(* The counted transfer of slots [0, n) of [buf]: one backend run, its
   blocks tallied in {!Stats.batched_ios} when [n > 1]. *)
let transfer t ~write addr n buf =
  run_transfer t ~counted:true ~write ~addr ~n ~buf:(Flat.buffer buf) ~off:0;
  if n > 1 then Stats.record_batched t.stats n

(* A run write is one journal group: it commits whole or not at all. *)
let transfer_group t addr n buf =
  match t.journal with
  | None -> transfer t ~write:true addr n buf
  | Some _ -> atomically t (fun () -> transfer t ~write:true addr n buf)

let alloc t n =
  if n < 0 then invalid_arg "Storage.alloc: negative size";
  let base = t.used in
  if n > 0 then begin
    t.backend.ensure (t.used + n);
    t.used <- t.used + n;
    (* Zero-initialization is the server's job and costs no counted I/O;
       retries here stay out of the trace for the same reason. Batched
       runs change neither property: a faulty backend gates once per
       block per attempt whether or not the blocks travel together. *)
    let chunk = 256 in
    let c0 = min chunk n in
    ensure_run_buf t c0;
    (* The zero image is public — zero-initialization is the server's
       own uncounted work — so fresh blocks carry the plaintext marker
       even on a ciphered store: sealing a constant the adversary
       already computes himself would spend keystream and nonces for
       nothing. [open_run] passes the plain marker on any store, so a
       read of a never-written block still decodes to empties. One
       zeroed slot + blits fill the run, which stays valid across
       chunks. *)
    let buf = Flat.buffer t.run_buf in
    Flat.clear_blocks t.run_buf 0 1;
    Bigbuf.set64_le buf 0 plain_nonce;
    for i = 1 to c0 - 1 do
      Bigbuf.blit buf 0 buf (i * t.payload_size) t.payload_size
    done;
    let a = ref base in
    atomically t (fun () ->
        while !a < base + n do
          let c = min chunk (base + n - !a) in
          run_transfer t ~counted:false ~write:true ~addr:!a ~n:c ~buf ~off:0;
          a := !a + c
        done)
  end;
  base

let check_addr t addr =
  if addr < 0 || addr >= t.used then
    invalid_arg (Printf.sprintf "Storage: address %d out of bounds (capacity %d)" addr t.used)

let check_run t ~who addr n =
  if n < 0 then invalid_arg (who ^ ": negative count");
  if n > 0 then begin
    check_addr t addr;
    check_addr t (addr + n - 1)
  end

let check_flat t ~who n buf =
  if Flat.block_size buf <> t.block_size then
    invalid_arg (who ^ ": buffer block size differs from the store's");
  if n > Flat.blocks buf then invalid_arg (who ^ ": buffer holds fewer than n blocks")

let check_block t ~who blk =
  if Array.length blk <> t.block_size then invalid_arg (who ^ ": block has wrong size")

(* ---- flat runs: the transfer path itself. ---- *)

let read_flat t addr n buf =
  check_run t ~who:"Storage.read_flat" addr n;
  check_flat t ~who:"Storage.read_flat" n buf;
  if n > 0 then begin
    transfer t ~write:false addr n buf;
    let t0 = seal_start t in
    open_run t buf n;
    seal_stop t ~seal:false ~blocks:n t0
  end

let write_flat t addr n src =
  check_run t ~who:"Storage.write_flat" addr n;
  check_flat t ~who:"Storage.write_flat" n src;
  if n > 0 then begin
    (* Sealing runs in place, so a ciphered store first stages the
       images in its own run scratch: the caller's images are never
       mutated. A plaintext store only stamps the header slots, which
       belong to the store, and transfers straight from [src]. *)
    let buf =
      match t.cipher with
      | None -> src
      | Some _ ->
          ensure_run_buf t n;
          Bigbuf.blit (Flat.buffer src) 0 (Flat.buffer t.run_buf) 0 (n * t.payload_size);
          t.run_buf
    in
    let t0 = seal_start t in
    seal_run t buf n;
    seal_stop t ~seal:true ~blocks:n t0;
    transfer_group t addr n buf
  end

(* ---- codec views: the same transfer and seal code, decoding from /
   encoding into the store's own scratch run. ---- *)

let read t addr =
  check_addr t addr;
  transfer t ~write:false addr 1 t.seal_buf;
  let t0 = seal_start t in
  open_run t t.seal_buf 1;
  let blk = Flat.get_block t.seal_buf 0 in
  seal_stop t ~seal:false ~blocks:1 t0;
  blk

let write t addr blk =
  check_addr t addr;
  check_block t ~who:"Storage.write" blk;
  let t0 = seal_start t in
  Flat.set_block t.seal_buf 0 blk;
  seal_run t t.seal_buf 1;
  seal_stop t ~seal:true ~blocks:1 t0;
  transfer t ~write:true addr 1 t.seal_buf

let read_many t addr n =
  check_run t ~who:"Storage.read_many" addr n;
  if n = 0 then [||]
  else begin
    ensure_run_buf t n;
    let buf = t.run_buf in
    transfer t ~write:false addr n buf;
    let t0 = seal_start t in
    open_run t buf n;
    let blks = Array.init n (Flat.get_block buf) in
    seal_stop t ~seal:false ~blocks:n t0;
    blks
  end

let write_many t addr blks =
  let n = Array.length blks in
  check_run t ~who:"Storage.write_many" addr n;
  Array.iter (check_block t ~who:"Storage.write_many") blks;
  if n > 0 then begin
    ensure_run_buf t n;
    let buf = t.run_buf in
    let t0 = seal_start t in
    Array.iteri (Flat.set_block buf) blks;
    seal_run t buf n;
    seal_stop t ~seal:true ~blocks:n t0;
    transfer_group t addr n buf
  end

let unchecked_peek t addr =
  check_addr t addr;
  run_transfer t ~counted:false ~write:false ~addr ~n:1 ~buf:(Flat.buffer t.seal_buf) ~off:0;
  open_run t t.seal_buf 1;
  Flat.get_block t.seal_buf 0

let unchecked_poke t addr blk =
  check_addr t addr;
  check_block t ~who:"Storage.unchecked_poke" blk;
  Flat.set_block t.seal_buf 0 blk;
  seal_run t t.seal_buf 1;
  run_transfer t ~counted:false ~write:true ~addr ~n:1 ~buf:(Flat.buffer t.seal_buf) ~off:0
