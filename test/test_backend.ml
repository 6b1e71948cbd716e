(* The pluggable storage backends: file persistence, backend-independent
   I/O accounting, and oblivious fault handling. *)

open Odex_extmem

let with_temp_store f =
  let path = Filename.temp_file "odex_test" ".store" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* ---------------- backend layer ---------------- *)

let test_backend_kinds () =
  Alcotest.(check string) "mem" "mem" (Backend.mem ~payload_size:16 ()).kind;
  with_temp_store (fun path ->
      let b = Backend.file ~path ~payload_size:16 in
      Alcotest.(check string) "file" "file" b.kind;
      b.close ();
      let f =
        Backend.faulty
          { Backend.seed = 1; failure_rate = 0.5; max_burst = 2 }
          (Backend.mem ~payload_size:16 ())
      in
      Alcotest.(check string) "faulty" "faulty" f.kind)

let test_backend_bounds () =
  let b = Backend.mem ~payload_size:16 () in
  b.ensure 4;
  Alcotest.check_raises "mem read past end"
    (Invalid_argument "Backend.Mem.read_run: run [4, 5) out of bounds (4 blocks)") (fun () ->
      ignore (Util.read_block b 4));
  with_temp_store (fun path ->
      let f = Backend.file ~path ~payload_size:8 in
      f.ensure 2;
      Alcotest.check_raises "file payload size enforced"
        (Invalid_argument "Backend.File.write_run: buffer region out of bounds") (fun () ->
          f.write_run ~addr:0 ~count:1 ~payload:8 ~buf:(Odex_crypto.Bigbuf.create 7)
            ~off:0);
      f.close ())

let test_faulty_plan_validation () =
  let inner () = Backend.mem ~payload_size:16 () in
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Backend.faulty: failure_rate must be in [0, 1]") (fun () ->
      ignore (Backend.faulty { Backend.seed = 0; failure_rate = 1.5; max_burst = 1 } (inner ())));
  Alcotest.check_raises "burst < 1"
    (Invalid_argument "Backend.faulty: max_burst must be >= 1") (fun () ->
      ignore (Backend.faulty { Backend.seed = 0; failure_rate = 0.1; max_burst = 0 } (inner ())))

(* A file-backed block image survives its backend: new backend on the
   same path, same payloads. This is the property that lets a dataset
   outlive the process (Storage.alloc zero-fills fresh blocks, so the
   reopen contract lives at the backend layer). *)
let test_file_persistence () =
  with_temp_store (fun path ->
      let payload i = Bytes.init 16 (fun j -> Char.chr ((i + (3 * j)) land 0xFF)) in
      let b = Backend.file ~path ~payload_size:16 in
      b.ensure 8;
      for i = 0 to 7 do
        Util.write_block b i (payload i)
      done;
      b.sync ();
      b.close ();
      let b' = Backend.file ~path ~payload_size:16 in
      for i = 7 downto 0 do
        Alcotest.(check bytes) (Printf.sprintf "block %d" i) (payload i) (Util.read_block b' i)
      done;
      b'.close ())

(* ---------------- accounting is backend-independent ---------------- *)

(* The acceptance bar: a sort whose footprint exceeds the cache many
   times over must cost the same counted I/Os — and the same adversary
   trace — on the file store as in memory. *)
let test_file_mem_io_parity () =
  with_temp_store (fun path ->
      let n = 2048 and b = 4 and m = 16 in
      let keys = Util.random_keys (Odex_crypto.Rng.create ~seed:42) n ~bound:10_000 in
      let run backend =
        let s = Storage.create ~trace_mode:Trace.Digest ~backend ~block_size:b () in
        Fun.protect
          ~finally:(fun () -> Storage.close s)
          (fun () ->
            let a = Ext_array.of_cells s ~block_size:b (Util.cells_of_keys keys) in
            Alcotest.(check bool) "footprint exceeds cache" true (Ext_array.blocks a > 8 * m);
            let rng = Odex_crypto.Rng.create ~seed:7 in
            let o = Odex.Sort.run ~m ~rng a in
            Alcotest.(check bool) "sort ok" true o.Odex.Sort.ok;
            Util.check_sorted_by_key (Storage.backend_kind s) a;
            let st = Storage.stats s and tr = Storage.trace s in
            (Stats.reads st, Stats.writes st, Stats.retries st, Trace.length tr, Trace.digest tr))
      in
      let r_mem, w_mem, q_mem, len_mem, dig_mem = run Storage.Mem in
      let r_file, w_file, q_file, len_file, dig_file = run (Storage.File { path }) in
      Alcotest.(check int) "same reads" r_mem r_file;
      Alcotest.(check int) "same writes" w_mem w_file;
      Alcotest.(check int) "no retries on either" 0 (q_mem + q_file);
      Alcotest.(check int) "same trace length" len_mem len_file;
      Alcotest.(check int64) "same trace digest" dig_mem dig_file)

(* ---------------- fault handling ---------------- *)

(* rate 1.0 with max_burst 1 makes the schedule exactly periodic: every
   access fails once and succeeds on the retry, so the counts are exact,
   not statistical. *)
let always_faulty = Storage.Faulty { inner = Storage.Mem; seed = 3; failure_rate = 1.0; max_burst = 1 }

let test_faulty_retries_visible () =
  let s = Storage.create ~trace_mode:Trace.Full ~backend:always_faulty ~block_size:2 () in
  let base = Storage.alloc s 4 in
  let blk = Block.make 2 in
  blk.(0) <- Cell.item ~key:9 ~value:9 ();
  Storage.write s base blk;
  for _ = 1 to 5 do
    ignore (Storage.read s base)
  done;
  let st = Storage.stats s and tr = Storage.trace s in
  Alcotest.(check int) "reads" 5 (Stats.reads st);
  Alcotest.(check int) "writes" 1 (Stats.writes st);
  Alcotest.(check int) "one retry per counted I/O" 6 (Stats.retries st);
  Alcotest.(check int) "retries are trace entries" (6 + 6) (Trace.length tr);
  let retry_ops =
    List.filter
      (function Trace.Retry_read _ | Trace.Retry_write _ -> true | _ -> false)
      (Trace.ops tr)
  in
  Alcotest.(check int) "retry ops recorded in full mode" 6 (List.length retry_ops);
  (* The backend also faulted once per uncounted zero-init write. *)
  Alcotest.(check bool) "faults_injected counts uncounted ops too" true
    (Storage.faults_injected s > Stats.retries st);
  Alcotest.(check int) "round-trip value" 9 (Cell.key_exn (Storage.read s base).(0))

let test_faulty_deterministic () =
  let run () =
    let s = Storage.create ~trace_mode:Trace.Full ~backend:always_faulty ~block_size:2 () in
    let base = Storage.alloc s 8 in
    for i = 0 to 7 do
      ignore (Storage.read s (base + i))
    done;
    (Storage.trace s, Stats.retries (Storage.stats s), Storage.faults_injected s)
  in
  let tr_a, retries_a, faults_a = run () in
  let tr_b, retries_b, faults_b = run () in
  Alcotest.(check bool) "same trace" true (Trace.equal tr_a tr_b);
  Alcotest.(check int) "same retries" retries_a retries_b;
  Alcotest.(check int) "same injected faults" faults_a faults_b

let test_retry_budget_exhausted () =
  let s =
    Storage.create ~backend:always_faulty ~max_retries:1 ~backoff:(0., 0.) ~block_size:2 ()
  in
  (* With a single attempt allowed, the very first gated operation (the
     zero-init write of the first allocated block) outlasts the budget. *)
  Alcotest.check_raises "fault outlasts the budget"
    (Storage.Io_failure { addr = 0; attempts = 1 })
    (fun () -> ignore (Storage.alloc s 1))

let test_unchecked_ops_retry_silently () =
  let s = Storage.create ~trace_mode:Trace.Full ~backend:always_faulty ~block_size:2 () in
  let base = Storage.alloc s 2 in
  let faults_before = Storage.faults_injected s in
  let blk = Block.make 2 in
  blk.(1) <- Cell.item ~key:3 ~value:4 ();
  Storage.unchecked_poke s base blk;
  let got = Storage.unchecked_peek s base in
  Alcotest.(check int) "poke/peek round-trip" 3 (Cell.key_exn got.(1));
  Alcotest.(check int) "no counted reads" 0 (Stats.reads (Storage.stats s));
  Alcotest.(check int) "no counted writes" 0 (Stats.writes (Storage.stats s));
  Alcotest.(check int) "no visible retries" 0 (Stats.retries (Storage.stats s));
  Alcotest.(check int) "no trace entries" 0 (Trace.length (Storage.trace s));
  Alcotest.(check bool) "yet the backend did fault" true
    (Storage.faults_injected s > faults_before)

(* ---------------- sealing state persistence ---------------- *)

(* Raw out-of-band scan of a file store: the 8-byte little-endian nonce
   header of every sealed payload, read straight off the disk image —
   exactly what an adversary who retained the file would look at. *)
let scan_nonces path ~payload_size =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let nblocks = (len - Backend.file_header_bytes) / payload_size in
      List.init nblocks (fun i ->
          seek_in ic (Backend.file_header_bytes + (i * payload_size));
          let b = Bytes.create 8 in
          really_input ic b 0 8;
          Bytes.get_int64_le b 0))

let rec has_duplicate = function
  | [] -> false
  | x :: rest -> List.mem x rest || has_duplicate rest

(* The headline regression: closing an encrypted file store and
   reopening it with the same key must NOT restart the nonce counter.
   Write, close, reopen, write again — across the store's entire
   history, no two sealed payloads may ever have shared a (key, nonce)
   pair, and the first session's blocks must still decrypt. *)
let test_nonce_fresh_across_reopen () =
  with_temp_store (fun path ->
      let b = 4 in
      let payload_size = 8 + Block.encoded_size b in
      let key = Odex_crypto.Cipher.key_of_int 77 in
      let mk ?resume () =
        Storage.create ~cipher:key ?resume ~backend:(Storage.File { path }) ~block_size:b ()
      in
      let data tag i =
        let blk = Block.make b in
        blk.(0) <- Cell.item ~key:(tag + i) ~value:i ();
        blk
      in
      let s = mk () in
      let base = Storage.alloc s 8 in
      for i = 0 to 7 do
        Storage.write s (base + i) (data 100 i)
      done;
      Storage.close s;
      let session1 = scan_nonces path ~payload_size in
      Alcotest.(check bool) "session 1 nonces distinct" false (has_duplicate session1);
      let s = mk ~resume:true () in
      Alcotest.(check int) "resumed capacity" 8 (Storage.capacity s);
      for i = 0 to 7 do
        Alcotest.(check int)
          (Printf.sprintf "old block %d still decrypts" i)
          (100 + i)
          (Cell.key_exn (Storage.read s (base + i)).(0))
      done;
      for i = 0 to 7 do
        Storage.write s (base + i) (data 200 i)
      done;
      Storage.close s;
      let session2 = scan_nonces path ~payload_size in
      (* Every address was overwritten, so session2 holds only the
         reopened run's nonces; together with the retained session-1 scan
         this is the store's full sealing history. *)
      Alcotest.(check bool) "no (key, nonce) pair ever reused" false
        (has_duplicate (session1 @ session2));
      let s = mk ~resume:true () in
      for i = 0 to 7 do
        Alcotest.(check int)
          (Printf.sprintf "rewritten block %d decrypts" i)
          (200 + i)
          (Cell.key_exn (Storage.read s (base + i)).(0))
      done;
      Storage.close s)

(* Crash simulation: skip the clean close (no exact-counter checkpoint).
   The reservation written ahead of use must still keep a reopened
   store's nonces above everything on disk. *)
let test_nonce_fresh_after_crash () =
  with_temp_store (fun path ->
      let b = 2 in
      let payload_size = 8 + Block.encoded_size b in
      let key = Odex_crypto.Cipher.key_of_int 5 in
      let s = Storage.create ~cipher:key ~backend:(Storage.File { path }) ~block_size:b () in
      let base = Storage.alloc s 4 in
      let blk = Block.make b in
      blk.(0) <- Cell.item ~key:1 ~value:1 ();
      for i = 0 to 3 do
        Storage.write s (base + i) blk
      done;
      (* No Storage.close: the process "dies" with the fd open. The
         header on disk holds the reservation, not the exact counter. *)
      let crashed = scan_nonces path ~payload_size in
      let s2 = Storage.create ~cipher:key ~resume:true ~backend:(Storage.File { path }) ~block_size:b () in
      for i = 0 to 3 do
        Storage.write s2 (base + i) blk
      done;
      Storage.close s2;
      let after = scan_nonces path ~payload_size in
      Alcotest.(check bool) "crash recovery never reuses a nonce" false
        (has_duplicate (crashed @ after));
      Storage.close s)

(* Sort-based duplicate check for the large scans below (the List.mem
   one is quadratic). *)
let has_duplicate_sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  let dup = ref false in
  Array.iteri (fun i x -> if i > 0 && a.(i - 1) = x then dup := true) a;
  !dup

(* The reservation window, pinned exactly: a store that dies between
   reserving a nonce chunk and syncing must lose at most that one 2^16
   reservation — the reopened store's first nonce sits above everything
   on disk but within one chunk of it. *)
let test_crash_skips_at_most_one_reservation () =
  with_temp_store (fun path ->
      let b = 2 in
      let payload_size = 8 + Block.encoded_size b in
      let key = Odex_crypto.Cipher.key_of_int 23 in
      let s = Storage.create ~cipher:key ~backend:(Storage.File { path }) ~block_size:b () in
      let base = Storage.alloc s 6 in
      let blk = Block.make b in
      blk.(0) <- Cell.item ~key:1 ~value:1 ();
      for i = 0 to 5 do
        Storage.write s (base + i) blk
      done;
      (* Crash: the header holds the chunk reservation written ahead of
         use; the exact counter (a clean close's checkpoint) is lost. *)
      let crashed = scan_nonces path ~payload_size in
      let s2 =
        Storage.create ~cipher:key ~resume:true ~backend:(Storage.File { path })
          ~block_size:b ()
      in
      for i = 0 to 5 do
        Storage.write s2 (base + i) blk
      done;
      Storage.close s2;
      let after = scan_nonces path ~payload_size in
      Alcotest.(check bool) "no reuse" false (has_duplicate (crashed @ after));
      let last_before = List.fold_left max Int64.min_int crashed in
      let first_after = List.fold_left min Int64.max_int after in
      Alcotest.(check bool) "reopened nonces sit above the crashed run" true
        (first_after > last_before);
      let skipped = Int64.to_int (Int64.sub first_after last_before) - 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%d skipped nonces < one %d-nonce reservation" skipped
           Storage.nonce_chunk)
        true
        (skipped >= 0 && skipped < Storage.nonce_chunk))

(* Same property across a reservation boundary: more than 2^16 seals in
   the first session (batched, so the reserve-ahead runs mid-transfer),
   then a crash. History stays reuse-free and the reopened store still
   wastes less than one chunk. *)
let test_crash_across_reservation_boundary () =
  with_temp_store (fun path ->
      let b = 1 in
      let payload_size = 8 + Block.encoded_size b in
      let key = Odex_crypto.Cipher.key_of_int 29 in
      let n = Storage.nonce_chunk + 64 in
      let s = Storage.create ~cipher:key ~backend:(Storage.File { path }) ~block_size:b () in
      let base = Storage.alloc s n in
      let blk = Block.make b in
      blk.(0) <- Cell.item ~key:7 ~value:7 ();
      let chunk = 4096 in
      let i = ref 0 in
      while !i < n do
        let c = min chunk (n - !i) in
        Storage.write_many s (base + !i) (Array.make c blk);
        i := !i + c
      done;
      (* Crash past the second reservation. *)
      let crashed = scan_nonces path ~payload_size in
      Alcotest.(check bool) "first session reuse-free" false (has_duplicate_sorted crashed);
      let s2 =
        Storage.create ~cipher:key ~resume:true ~backend:(Storage.File { path })
          ~block_size:b ()
      in
      Storage.write_many s2 base (Array.make 64 blk);
      Storage.close s2;
      let after = scan_nonces path ~payload_size in
      Alcotest.(check bool) "disk image reuse-free" false (has_duplicate_sorted after);
      let last_before = List.fold_left max Int64.min_int crashed in
      (* Only the rewritten prefix carries session-2 seals; the other
         blocks keep their session-1 nonces, so the cross-session
         freshness check covers the fresh ones. *)
      let fresh = List.filter (fun x -> x > last_before) after in
      Alcotest.(check int) "every rewritten block got a fresh nonce" 64 (List.length fresh);
      Alcotest.(check bool) "fresh nonces never collide with the crashed run" false
        (has_duplicate_sorted (crashed @ fresh));
      let first_after = List.fold_left min Int64.max_int fresh in
      let skipped = Int64.to_int (Int64.sub first_after last_before) - 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%d skipped < one reservation after a boundary crossing" skipped)
        true
        (skipped >= 0 && skipped < Storage.nonce_chunk);
      Storage.close s)

let test_reopen_is_empty_without_resume () =
  with_temp_store (fun path ->
      let s = Storage.create ~backend:(Storage.File { path }) ~block_size:2 () in
      ignore (Storage.alloc s 6);
      Storage.close s;
      let s = Storage.create ~backend:(Storage.File { path }) ~block_size:2 () in
      Alcotest.(check int) "default reopen starts logically empty" 0 (Storage.capacity s);
      Storage.close s)

let test_reopen_block_size_mismatch () =
  with_temp_store (fun path ->
      let s = Storage.create ~backend:(Storage.File { path }) ~block_size:4 () in
      ignore (Storage.alloc s 2);
      Storage.close s;
      (* A different block size changes the payload size, which the file
         backend's header check refuses before Storage even sees it. *)
      Alcotest.(check bool) "reopen with another block_size refused" true
        (match Storage.create ~backend:(Storage.File { path }) ~block_size:8 () with
        | exception Invalid_argument _ -> true
        | s -> Storage.close s; false))

let test_file_rejects_garbage () =
  with_temp_store (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 128 'x');
      close_out oc;
      Alcotest.(check bool) "garbage file refused" true
        (match Backend.file ~path ~payload_size:16 with
        | exception Invalid_argument _ -> true
        | b -> b.close (); false))

let test_meta_roundtrip () =
  let roundtrip name (backend : Backend.t) =
    let m = Bytes.of_string "hello-header" in
    backend.write_meta m;
    (match backend.read_meta () with
    | Some got -> Alcotest.(check bytes) (name ^ " meta roundtrip") m got
    | None -> Alcotest.fail (name ^ ": metadata lost"));
    Alcotest.check_raises (name ^ " oversized meta refused")
      (Invalid_argument
         (Printf.sprintf "Backend.%s.write_meta: metadata exceeds %d bytes"
            (String.capitalize_ascii name) Backend.meta_capacity))
      (fun () -> backend.write_meta (Bytes.create (Backend.meta_capacity + 1)))
  in
  roundtrip "mem" (Backend.mem ~payload_size:16 ());
  with_temp_store (fun path ->
      let b = Backend.file ~path ~payload_size:16 in
      roundtrip "file" b;
      b.close ();
      (* The file header — hence the metadata — survives a reopen. *)
      let b = Backend.file ~path ~payload_size:16 in
      (match b.read_meta () with
      | Some got -> Alcotest.(check bytes) "meta survives reopen" (Bytes.of_string "hello-header") got
      | None -> Alcotest.fail "file metadata lost across reopen");
      b.close ())

(* ---------------- durability bugfix sweep ---------------- *)

(* A closed store must refuse metadata access loudly. The old silent
   no-op (write dropped, read -> None) let callers believe a nonce
   high-water checkpoint had been persisted when it had not — the kind
   of quiet data loss this sweep exists to remove. *)
let test_meta_on_closed_store_raises () =
  with_temp_store (fun path ->
      let b = Backend.file ~path ~payload_size:16 in
      b.write_meta (Bytes.of_string "live");
      b.close ();
      Alcotest.check_raises "write_meta on closed store"
        (Invalid_argument "Backend.File: store is closed") (fun () ->
          b.write_meta (Bytes.of_string "dead"));
      Alcotest.check_raises "read_meta on closed store"
        (Invalid_argument "Backend.File: store is closed") (fun () ->
          ignore (b.read_meta ())))

(* A store file whose data section is not a whole number of blocks was
   torn by a crash mid-append. Reopening used to round the size down,
   silently discarding the partial block; it must refuse instead. *)
let test_torn_store_rejected () =
  with_temp_store (fun path ->
      let b = Backend.file ~path ~payload_size:16 in
      b.ensure 4;
      Util.write_block b 0 (Bytes.make 16 'a');
      b.sync ();
      b.close ();
      (* Tear the tail: 5 bytes of a sixth... fifth block. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      ignore (Unix.write fd (Bytes.make 5 'x') 0 5);
      Unix.close fd;
      Alcotest.(check bool) "torn store refused with a clear error" true
        (match Backend.file ~path ~payload_size:16 with
        | exception Invalid_argument msg -> Util.contains msg "torn store" && Util.contains msg "5"
        | b ->
            b.close ();
            false);
      (* A whole-block file still opens. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (Backend.file_header_bytes + (4 * 16));
      Unix.close fd;
      let b = Backend.file ~path ~payload_size:16 in
      Alcotest.(check bytes) "intact blocks still readable" (Bytes.make 16 'a')
        (Util.read_block b 0);
      b.close ())

(* EINTR hammer: a high-frequency interval timer delivers SIGALRM
   throughout a file-backend workload. OCaml installs Signal_handle
   handlers without SA_RESTART, so the backend's read/write/fsync calls
   really do return EINTR here; the shared retry helper must absorb
   every one without dropping or short-writing a byte. *)
let test_eintr_retried () =
  let ticks = ref 0 in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr ticks)) in
  let old_timer =
    Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 2e-4; it_value = 2e-4 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL old_timer);
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      with_temp_store (fun path ->
          let payload i = Bytes.init 64 (fun j -> Char.chr ((i + j) land 0xFF)) in
          let b = Backend.file ~path ~payload_size:64 in
          let n = 512 in
          b.ensure n;
          for round = 0 to 3 do
            for i = 0 to n - 1 do
              Util.write_block b i (payload (i + round))
            done;
            b.sync ();
            for i = 0 to n - 1 do
              Alcotest.(check bytes)
                (Printf.sprintf "round %d block %d" round i)
                (payload (i + round)) (Util.read_block b i)
            done
          done;
          b.close ());
      (* The harness only proves something if signals actually landed. *)
      Alcotest.(check bool)
        (Printf.sprintf "timer delivered signals (%d)" !ticks)
        true (!ticks > 0))

(* ---------------- spec plumbing ---------------- *)

let test_remove_spec_files () =
  let path = Filename.temp_file "odex_test" ".store" in
  let spec = Storage.Faulty { inner = Storage.File { path }; seed = 1; failure_rate = 0.0; max_burst = 1 } in
  let s = Storage.create ~backend:spec ~block_size:2 () in
  Alcotest.(check string) "decorated kind" "faulty" (Storage.backend_kind s);
  ignore (Storage.alloc s 4);
  Storage.sync s;
  Storage.close s;
  Alcotest.(check bool) "file exists before" true (Sys.file_exists path);
  Storage.remove_spec_files spec;
  Alcotest.(check bool) "file removed through the decorator" false (Sys.file_exists path);
  (* A file stripe: the members live at derived paths, and the base path
     the caller reserved goes with them. *)
  let base = Filename.temp_file "odex_test" ".store" in
  let spec = Storage.Sharded { inner = Storage.File { path = base }; shards = 2; seed = 3 } in
  let s = Storage.create ~backend:spec ~block_size:2 () in
  ignore (Storage.alloc s 4);
  Storage.sync s;
  Storage.close s;
  let files = [ base; base ^ ".shard0"; base ^ ".shard1" ] in
  Alcotest.(check (list bool)) "stripe files exist before" [ true; true; true ]
    (List.map Sys.file_exists files);
  Storage.remove_spec_files spec;
  Alcotest.(check (list bool)) "stripe base and members removed" [ false; false; false ]
    (List.map Sys.file_exists files)

(* ---------------- layers inherit what they do not own ----------------

   A decorator states only the verbs it changes; everything else is its
   inner layer's. Over each stack, with the telemetry sink on and off:
   the reported kind is the outermost layer's (the shim keeps its
   inner's), the stripe's width and op counts reach Storage unchanged —
   a fault gate fails before the stripe is called, so the stripe serves
   exactly the blocks the bare stripe serves — the per-server traces are
   the logical trace routed through the stripe's own map, and the fault
   count is the fault layer's own, the same as the stack without its
   journal and shim. The workload commits before it reads, so the
   journal hands the layers below it the same block transfers in the
   same order as the unjournaled stack does. *)

let stripe_seed = 0x5A4D
let stripe inner = Storage.Sharded { inner; shards = 2; seed = stripe_seed }

let faulty inner =
  Storage.Faulty { inner; seed = 0xFA17; failure_rate = 0.05; max_burst = 2 }

let temp_file () = Storage.File { path = Filename.temp_file "odex_test" ".store" }

let journaled ~journal inner =
  if not journal then inner
  else
    Storage.Journaled
      { inner; path = Filename.temp_file "odex_test" ".journal"; durable = false }

(* label, outermost kind, stripe width, whether faults fire, the bare
   stripe (or device), and the stack with or without its journal *)
let inheritance_stacks =
  [
    ( "Journaled (Faulty (Sharded K=2 (File)))", "journaled", Some 2, true,
      (fun () -> stripe (temp_file ())),
      fun ~journal -> journaled ~journal (faulty (stripe (temp_file ()))) );
    ( "Journaled (Crashing (Sharded K=2 (Mem)))", "journaled", Some 2, false,
      (fun () -> stripe Storage.Mem),
      fun ~journal ->
        journaled ~journal (Storage.Crashing { inner = stripe Storage.Mem; ops = max_int }) );
    ( "Faulty (Mem)", "faulty", None, true,
      (fun () -> Storage.Mem),
      fun ~journal:_ -> faulty Storage.Mem );
  ]

let run_stack ?telemetry backend =
  let s =
    Storage.create ?telemetry ~trace_mode:Trace.Full ~backoff:(0., 0.) ~backend ~block_size:4 ()
  in
  let n = 24 in
  let base = Storage.alloc s n in
  Storage.write_many s base
    (Array.init n (fun i -> Array.init 4 (fun j -> Cell.item ~key:((4 * i) + j) ~value:i ())));
  Storage.sync s;
  ignore (Storage.read_many s base n);
  List.iter (fun a -> Storage.write s (base + a) (Storage.read s (base + n - 1 - a))) [ 3; 17; 8 ];
  Storage.sync s;
  ignore (Storage.read_many s (base + 2) 20);
  s

let addr_of = function Trace.Read a | Write a | Retry_read a | Retry_write a -> a

let op_name op a =
  (match op with Trace.Read _ -> "R" | Write _ -> "W" | Retry_read _ -> "r" | Retry_write _ -> "w")
  ^ string_of_int a

(* Shard [shard]'s view of a logical trace under the stripe's map. *)
let routed_view ~shards ~shard ops =
  List.filter_map
    (fun op ->
      let s, i = Backend.shard_route ~shards ~seed:stripe_seed (addr_of op) in
      if s = shard then Some (op_name op i) else None)
    ops

let check_stack_inherits (label, kind, shards, faults_fire, bare, stack) =
  let bare_spec = bare () and plain_spec = stack ~journal:false in
  let bare = run_stack bare_spec and plain = run_stack plain_spec in
  if faults_fire then
    Alcotest.(check bool) (label ^ ": faults fire") true (Storage.faults_injected plain > 0);
  List.iter
    (fun sink ->
      let name = Printf.sprintf "%s, sink %s" label (if sink then "on" else "off") in
      let telemetry =
        if sink then Odex_telemetry.Telemetry.create () else Odex_telemetry.Telemetry.disabled
      in
      let spec = stack ~journal:true in
      let s = run_stack ~telemetry spec in
      Fun.protect ~finally:(fun () ->
          Storage.close s;
          Storage.remove_spec_files spec)
      @@ fun () ->
      Alcotest.(check string) (name ^ ": kind") kind (Storage.backend_kind s);
      Alcotest.(check (option int)) (name ^ ": bare shard_count") shards (Storage.shard_count bare);
      Alcotest.(check (option int)) (name ^ ": shard_count") shards (Storage.shard_count s);
      Alcotest.(check (array int)) (name ^ ": shard_ios") (Storage.shard_ios bare)
        (Storage.shard_ios s);
      Alcotest.(check int) (name ^ ": faults_injected") (Storage.faults_injected plain)
        (Storage.faults_injected s);
      let logical = Trace.ops (Storage.trace s) in
      let k = Option.value shards ~default:0 in
      Alcotest.(check (array (list string)))
        (name ^ ": per-server traces are the logical trace routed by the stripe")
        (Array.init k (fun shard -> routed_view ~shards:k ~shard logical))
        (Array.map
           (fun tr -> List.map (fun op -> op_name op (addr_of op)) (Trace.ops tr))
           (Storage.shard_traces s));
      match shards with
      | None ->
          Alcotest.check_raises (name ^ ": shard_addr refused")
            (Invalid_argument "Storage.shard_addr: backend is not sharded") (fun () ->
              ignore (Storage.shard_addr s ~shard:0 ~index:0))
      | Some k ->
          for shard = 0 to k - 1 do
            for index = 0 to 15 do
              Alcotest.(check (pair int int))
                (Printf.sprintf "%s: shard_addr %d %d round-trips" name shard index)
                (shard, index)
                (Backend.shard_route ~shards:k ~seed:stripe_seed
                   (Storage.shard_addr s ~shard ~index))
            done
          done)
    [ false; true ];
  List.iter
    (fun (s, spec) ->
      Storage.close s;
      Storage.remove_spec_files spec)
    [ (bare, bare_spec); (plain, plain_spec) ]

let test_layers_inherit () =
  List.iter check_stack_inherits inheritance_stacks;
  (* The fault plan's refusals are test_faulty_plan_validation's. *)
  let mem () = Backend.mem ~payload_size:8 () in
  List.iter
    (fun (msg, refused) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (refused ())))
    [
      ("Backend.mem: payload_size must be >= 1", fun () -> Backend.mem ~payload_size:0 ());
      ( "Backend.file: payload_size must be >= 1",
        fun () -> Backend.file ~path:"odex_test.never-created" ~payload_size:0 );
      ("Backend.router: shards must be >= 1", fun () -> Backend.sharded ~seed:1 [||]);
      ( "Backend.sharded: inner stores disagree on payload size",
        fun () -> Backend.sharded ~seed:1 [| mem (); Backend.mem ~payload_size:16 () |] );
      ("Backend.crash_after: negative op budget", fun () -> Backend.crash_after ~ops:(-1) (mem ()));
      ( "Journal.create: payload_size must be >= 1",
        fun () ->
          Journal.backend
            (Journal.create ~path:"odex_test.never-created" ~payload_size:0 ~durable:false
               ~replay:false (mem ())) );
    ];
  Alcotest.check_raises "Storage refuses an empty stripe"
    (Invalid_argument "Storage: shards must be >= 1") (fun () ->
      ignore
        (Storage.create
           ~backend:(Storage.Sharded { inner = Storage.Mem; shards = 0; seed = 1 })
           ~block_size:2 ()))

let suite =
  [
    ("backend kinds", `Quick, test_backend_kinds);
    ("backend bounds", `Quick, test_backend_bounds);
    ("faulty plan validation", `Quick, test_faulty_plan_validation);
    ("file persistence", `Quick, test_file_persistence);
    ("file/mem I/O parity on an out-of-cache sort", `Quick, test_file_mem_io_parity);
    ("faulty retries visible in stats and trace", `Quick, test_faulty_retries_visible);
    ("faulty schedule deterministic", `Quick, test_faulty_deterministic);
    ("retry budget exhaustion", `Quick, test_retry_budget_exhausted);
    ("unchecked ops retry silently", `Quick, test_unchecked_ops_retry_silently);
    ("nonce freshness across reopen", `Quick, test_nonce_fresh_across_reopen);
    ("nonce freshness after crash", `Quick, test_nonce_fresh_after_crash);
    ("crash skips at most one nonce reservation", `Quick, test_crash_skips_at_most_one_reservation);
    ("crash across a reservation boundary", `Quick, test_crash_across_reservation_boundary);
    ("reopen starts empty without resume", `Quick, test_reopen_is_empty_without_resume);
    ("reopen block_size mismatch refused", `Quick, test_reopen_block_size_mismatch);
    ("garbage store file refused", `Quick, test_file_rejects_garbage);
    ("backend metadata roundtrip", `Quick, test_meta_roundtrip);
    ("meta access on a closed store raises", `Quick, test_meta_on_closed_store_raises);
    ("torn trailing block rejected on reopen", `Quick, test_torn_store_rejected);
    ("EINTR retried across the whole I/O surface", `Quick, test_eintr_retried);
    ("remove_spec_files", `Quick, test_remove_spec_files);
    ("layers inherit what they do not own", `Quick, test_layers_inherit);
  ]
