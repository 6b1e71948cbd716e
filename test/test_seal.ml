(* The zero-copy sealing substrate: cipher engine selection and
   persistence, sealed run round-trips, registry-wide sealed pair
   certification, and the allocation discipline of the hot transfer
   path. *)

open Odex_extmem
open Odex_obcheck
module Cipher = Odex_crypto.Cipher
module Bigbuf = Odex_crypto.Bigbuf

let with_temp_store f =
  let path = Filename.temp_file "odex_seal" ".store" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let data b i =
  let blk = Block.make b in
  blk.(0) <- Cell.item ~key:(1000 + i) ~value:i ();
  blk

(* ---------------- engine selection and persistence ---------------- *)

(* Reopening a sealed store under a different engine must fail loudly:
   unsealing ChaCha20 ciphertext with the PRF keystream garbles every
   block silently, so the header check is the only line of defense. *)
let test_cross_engine_reopen_rejected () =
  with_temp_store (fun path ->
      let b = 4 in
      let key = Cipher.key_of_int 7 in
      let s =
        Storage.create ~cipher:key ~cipher_engine:Cipher.Chacha20
          ~backend:(Storage.File { path }) ~block_size:b ()
      in
      let base = Storage.alloc s 4 in
      for i = 0 to 3 do
        Storage.write s (base + i) (data b i)
      done;
      Storage.close s;
      (* Default engine (Prf_xor) against a ChaCha20 store: refused. *)
      Alcotest.(check bool) "wrong-engine reopen refused" true
        (match
           Storage.create ~cipher:key ~resume:true ~backend:(Storage.File { path })
             ~block_size:b ()
         with
        | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "error names both engines: %s" msg)
              true
              (let has sub =
                 let n = String.length msg and m = String.length sub in
                 let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
                 go 0
               in
               has "chacha20" && has "prf_xor");
            true
        | s ->
            Storage.close s;
            false);
      (* The right engine still opens and decrypts. *)
      let s =
        Storage.create ~cipher:key ~cipher_engine:Cipher.Chacha20 ~resume:true
          ~backend:(Storage.File { path }) ~block_size:b ()
      in
      for i = 0 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "block %d decrypts under the right engine" i)
          (1000 + i)
          (Cell.key_exn (Storage.read s (base + i)).(0))
      done;
      Storage.close s)

(* A version-1 header (24 bytes, pre-engines) must read back as Prf_xor:
   that is the engine that sealed every v1 store. *)
let test_v1_header_reads_as_prf_xor () =
  with_temp_store (fun path ->
      let b = 2 in
      let payload_size = 8 + Block.encoded_size b in
      (* Forge a v1 store: a bare file backend carrying a 24-byte header. *)
      let bk = Backend.file ~path ~payload_size in
      let m = Bytes.create 24 in
      Bytes.set_int64_le m 0 1L;
      Bytes.set_int64_le m 8 (Int64.of_int b);
      Bytes.set_int64_le m 16 0L;
      Backend.write_meta bk m;
      Backend.close bk;
      let key = Cipher.key_of_int 3 in
      (* Prf_xor (the default) opens it... *)
      let s =
        Storage.create ~cipher:key ~resume:true ~backend:(Storage.File { path })
          ~block_size:b ()
      in
      Alcotest.(check string) "v1 store opens under prf_xor" "prf_xor"
        (Cipher.engine_name (Storage.cipher_engine s));
      Storage.close s;
      (* ... and ChaCha20 is refused. *)
      Alcotest.(check bool) "v1 store refused under chacha20" true
        (match
           Storage.create ~cipher:key ~cipher_engine:Cipher.Chacha20 ~resume:true
             ~backend:(Storage.File { path }) ~block_size:b ()
         with
        | exception Invalid_argument _ -> true
        | s ->
            Storage.close s;
            false))

(* The journal records the engine too: replaying ciphertext under the
   wrong keystream would garble the store, so reopen must refuse. *)
let test_journal_cross_engine_rejected () =
  with_temp_store (fun sp ->
      let jp = sp ^ ".journal" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists jp then Sys.remove jp)
        (fun () ->
          let inner = Backend.file ~path:sp ~payload_size:16 in
          let j =
            Journal.create ~engine:Cipher.Chacha20 ~path:jp ~payload_size:16 ~durable:false
              ~replay:false inner
          in
          let bk = Journal.backend j in
          Backend.ensure bk 2;
          Backend.write bk 0 (Bytes.make 16 'a');
          Backend.close bk;
          let inner = Backend.file ~path:sp ~payload_size:16 in
          Alcotest.(check bool) "journal reopen under another engine refused" true
            (match
               Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner
             with
            | exception Invalid_argument _ ->
                Backend.close inner;
                true
            | j ->
                Backend.close (Journal.backend j);
                false)))

(* Engine choice must be invisible to Bob: same key, same coins, same
   shape — the PRF store and the ChaCha20 store produce identical
   traces. *)
let test_engine_trace_parity () =
  let e = List.hd Registry.all in
  let run cipher_engine =
    let o =
      Pairtest.check ~cipher:(Cipher.key_of_int 11) ~cipher_engine
        ~pair:(Registry.pair_mode e) e.subject ~n_cells:e.n_cells ~b:e.b ~m:e.m
    in
    Alcotest.(check bool)
      (Format.asprintf "%a" Pairtest.pp_outcome o)
      true o.oblivious;
    (o.run_a.trace_length, o.run_a.digest)
  in
  Alcotest.(check (pair int int64))
    "prf-xor and chacha20 traces identical" (run Cipher.Prf_xor) (run Cipher.Chacha20)

(* ---------------- sealed runs ---------------- *)

(* A sealed run written in one batch reads back through the batched
   unseal, both in the writing session and after a clean close and
   reopen of the file store. *)
let test_sealed_run_reads_back_on_file () =
  with_temp_store (fun path ->
      let b = 4 and n = 64 in
      let open_store ~resume =
        Storage.create ~cipher:(Cipher.key_of_int 21) ~cipher_engine:Cipher.Chacha20 ~resume
          ~backend:(Storage.File { path }) ~block_size:b ()
      in
      let check_back label s base =
        Array.iteri
          (fun i blk ->
            Alcotest.(check int)
              (Printf.sprintf "%s: block %d round-trips" label i)
              (1000 + i) (Cell.key_exn blk.(0)))
          (Storage.read_many s base n)
      in
      let s = open_store ~resume:false in
      let base = Storage.alloc s n in
      Storage.write_many s base (Array.init n (data b));
      check_back "same session" s base;
      Storage.close s;
      let s = open_store ~resume:true in
      check_back "after reopen" s base;
      Storage.close s)

(* Registry-wide certification: every algorithm, on every backend,
   sealed under ChaCha20 — the pair traces must be identical, and the
   trace, retries and shard fan-out must match the unsealed run of the
   same entry exactly. (The case names keep their historical "parallel
   seal" prefix so the test IDs stay stable.) *)
let sealed_parity_cases =
  List.concat_map
    (fun backend_name ->
      List.map
        (fun (e : Registry.entry) ->
          Alcotest.test_case
            (Printf.sprintf "parallel seal %s [%s]" e.subject.Pairtest.name backend_name)
            `Slow
            (fun () ->
              let run ?cipher ?cipher_engine () =
                let spec = Registry.backend_spec backend_name in
                Fun.protect
                  ~finally:(fun () -> Storage.remove_spec_files spec)
                  (fun () ->
                    let o =
                      Pairtest.check ~backend:spec ?cipher ?cipher_engine
                        ~pair:(Registry.pair_mode e) e.subject ~n_cells:e.n_cells ~b:e.b
                        ~m:e.m
                    in
                    Alcotest.(check bool)
                      (Format.asprintf "%a" Pairtest.pp_outcome o)
                      true o.oblivious;
                    ( o.run_a.trace_length,
                      o.run_a.digest,
                      o.run_a.retries,
                      o.run_a.shard_ios ))
              in
              let l0, d0, r0, sh0 = run () in
              let l, d, r, sh =
                run ~cipher:(Cipher.key_of_int 31) ~cipher_engine:Cipher.Chacha20 ()
              in
              Alcotest.(check int) "same trace length" l0 l;
              Alcotest.(check int64) "same digest" d0 d;
              Alcotest.(check int) "same retries" r0 r;
              Alcotest.(check (array int)) "same shard fan-out" sh0 sh))
        Registry.all)
    Registry.backend_names

(* ---------------- allocation discipline ---------------- *)

(* The mem backend serves single blocks by blit into the caller's
   off-heap buffer: the read loop must not allocate per block (the old
   path allocated a fresh Bytes per read). Minor-heap words are counted
   across a big loop; the budget allows fixed setup noise but not
   per-iteration garbage. *)
let test_mem_read_does_not_allocate () =
  let payload = 168 in
  let bk = Backend.mem ~payload_size:payload () in
  Backend.ensure bk 8;
  let buf = Bigbuf.create payload in
  for i = 0 to 7 do
    Bigbuf.set64_le buf 0 (Int64.of_int i);
    Backend.write_from bk i ~buf ~off:0
  done;
  let iters = 10_000 in
  (* Warm up any lazy structure before measuring. *)
  Backend.read_into bk 0 ~buf ~off:0;
  let w0 = Gc.minor_words () in
  for i = 0 to iters - 1 do
    Backend.read_into bk (i land 7) ~buf ~off:0
  done;
  let per_iter = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per read (want ~0)" per_iter)
    true (per_iter < 1.0);
  (* And the data actually moved. *)
  Backend.read_into bk 5 ~buf ~off:0;
  Alcotest.(check int64) "blit read serves the payload" 5L (Bigbuf.get64_le buf 0)

(* The trace digest of a fixed 1 000-op sequence mixing all four op
   kinds, pinned by value: a changed hash or op coding fails here by
   name. *)
let fixed_ops () =
  Array.init 1000 (fun i ->
      let a = i * 7919 mod 1009 in
      match i land 3 with
      | 0 -> Trace.Read a
      | 1 -> Trace.Write a
      | 2 -> Trace.Retry_read a
      | _ -> Trace.Retry_write a)

let test_trace_digest_pinned () =
  let ops = fixed_ops () in
  let digest mode =
    let tr = Trace.create mode in
    Array.iter (Trace.record tr) ops;
    (Trace.digest tr, Trace.length tr)
  in
  Alcotest.(check (pair int64 int)) "digest mode" (-8321853571788511085L, 1000) (digest Digest);
  Alcotest.(check (pair int64 int)) "full mode" (-8321853571788511085L, 1000) (digest Full);
  (* The per-I/O hooks fold exactly what [record] folds. *)
  let tr = Trace.create Digest in
  Array.iter
    (function
      | Trace.Read a -> Trace.record_read tr a
      | Trace.Write a -> Trace.record_write tr a
      | op -> Trace.record tr op)
    ops;
  Alcotest.(check (pair int64 int)) "record_read/record_write" (-8321853571788511085L, 1000)
    (Trace.digest tr, Trace.length tr)

(* Folding an op into a digest-mode trace allocates nothing: the running
   digest is an unboxed word. The op itself is built once, outside the
   loop. *)
let test_trace_record_does_not_allocate () =
  let tr = Trace.create Digest in
  let op = Trace.Write 12345 in
  let n = 100_000 in
  for _ = 1 to 1000 do
    Trace.record tr op
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Trace.record tr op
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per Trace.record (want < 0.5)" per_op)
    true (per_op < 0.5);
  Alcotest.(check int) "every op counted" (n + 1000) (Trace.length tr)

(* A flat run on a warmed plaintext Mem store moves encoded images with
   no codec: reading and writing it back allocates less than one minor
   word per block (the per-run closures and bookkeeping amortize over
   the run). *)
let test_flat_run_does_not_allocate () =
  let b = 8 and run = 16 in
  let s = Storage.create ~block_size:b () in
  let base = Storage.alloc s (2 * run) in
  let buf = Flat.create ~block_size:b ~blocks:run in
  Flat.set_cell buf (Flat.cell_offset buf ~block:3 ~slot:5) (Cell.item ~key:35 ~value:1 ());
  Storage.write_flat s base run buf;
  Storage.read_flat s base run buf;
  let iters = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Storage.read_flat s base run buf;
    Storage.write_flat s (base + run) run buf
  done;
  let per_block = (Gc.minor_words () -. w0) /. float_of_int (2 * iters * run) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per flat block (want < 1)" per_block)
    true (per_block < 1.0);
  Alcotest.(check int) "every block counted" ((2 * iters + 2) * run)
    (Stats.total (Storage.stats s));
  Alcotest.(check int) "the image round-trips" 35
    (Cell.key_exn (Storage.unchecked_peek s (base + run + 3)).(5))

let suite =
  [
    ("cross-engine reopen rejected", `Quick, test_cross_engine_reopen_rejected);
    ("v1 header reads as prf-xor", `Quick, test_v1_header_reads_as_prf_xor);
    ("journal cross-engine reopen rejected", `Quick, test_journal_cross_engine_rejected);
    ("engine choice invisible in the trace", `Quick, test_engine_trace_parity);
    ("sealed run reads back on file", `Quick, test_sealed_run_reads_back_on_file);
    ("mem single-block read allocation-free", `Quick, test_mem_read_does_not_allocate);
    ("trace digest pinned", `Quick, test_trace_digest_pinned);
    ("trace record allocation-free", `Quick, test_trace_record_does_not_allocate);
    ("flat run allocation-free", `Quick, test_flat_run_does_not_allocate);
  ]
  @ sealed_parity_cases
