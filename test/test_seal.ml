(* The zero-copy sealing substrate: refusal of retired store formats,
   sealed run round-trips, registry-wide sealed pair certification, and
   the allocation discipline of the hot transfer path. *)

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

(* ---------------- retired store formats ---------------- *)

(* A sealed, journaled ChaCha20 store written by the current code, then
   its store header rewritten to [header] — the way a retired format
   would have left it. *)
let with_forged_store ~header f =
  with_temp_store (fun sp ->
      let jp = sp ^ ".journal" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists jp then Sys.remove jp)
        (fun () ->
          let b = 2 in
          let key = Cipher.key_of_int 7 in
          let spec =
            Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
          in
          let open_store ~resume =
            Storage.create ~cipher:key ~resume ~backend:spec ~block_size:b ()
          in
          let s = open_store ~resume:false in
          let base = Storage.alloc s 4 in
          for i = 0 to 3 do
            Storage.write s (base + i) (data b i)
          done;
          Storage.checkpoint s ~owner:"forged" ~phase:1 ~cursor:base;
          Storage.close s;
          let bk = Backend.file ~path:sp ~payload_size:(Flat.stride_of ~block_size:b) in
          let m = Option.get (bk.read_meta ()) in
          bk.write_meta (header m);
          bk.close ();
          f ~paths:[ sp; jp ] ~reopen:(fun ~resume () -> Storage.close (open_store ~resume))))

(* A version-1 store header (24 bytes, pre-engines) is refused on every
   open, resumed or not. *)
let test_v1_store_header_refused () =
  with_forged_store
    ~header:(fun m ->
      let v1 = Bytes.sub m 0 24 in
      Bytes.set_int64_le v1 0 1L;
      v1)
    (fun ~paths ~reopen ->
      List.iter
        (fun resume ->
          Util.check_refused
            ~what:(Printf.sprintf "v1 header (resume %b)" resume)
            ~cause:"unsupported store header version 1" ~paths (reopen ~resume))
        [ true; false ])

(* A version-2 header naming engine id 1 (the retired PRF keystream) is
   refused: unsealing its ciphertext under ChaCha20 would garble every
   block silently. *)
let test_retired_store_engine_refused () =
  with_forged_store
    ~header:(fun m ->
      let m = Bytes.copy m in
      Bytes.set_int64_le m 24 1L;
      m)
    (fun ~paths ~reopen ->
      List.iter
        (fun resume ->
          Util.check_refused
            ~what:(Printf.sprintf "engine id 1 (resume %b)" resume)
            ~cause:"retired cipher engine id 1" ~paths (reopen ~resume))
        [ true; false ])

(* A sealed store reopened without a key must refuse to read rather
   than hand back ciphertext decoded as cells, on the single-block and
   the run path alike; the keyed reopen afterwards still reads every
   block back. *)
let test_sealed_store_without_key_refused () =
  with_temp_store (fun path ->
      let b = 4 and n = 8 in
      let open_store ?cipher ~resume () =
        Storage.create ?cipher ~resume ~backend:(Storage.File { path }) ~block_size:b ()
      in
      let key = Cipher.key_of_int 23 in
      let s = open_store ~cipher:key ~resume:false () in
      let base = Storage.alloc s n in
      Storage.write_many s base (Array.init n (data b));
      Storage.close s;
      let s = open_store ~resume:true () in
      let refused what f =
        match f () with
        | exception Invalid_argument msg ->
            Alcotest.(check bool) (Printf.sprintf "%s: %S names the cause" what msg) true
              (Util.contains msg "encrypted block but no cipher key")
        | _ -> Alcotest.failf "%s: read sealed blocks without a key" what
      in
      refused "single block" (fun () -> ignore (Storage.read s base));
      refused "run" (fun () -> ignore (Storage.read_many s base n));
      Storage.close s;
      let s = open_store ~cipher:key ~resume:true () in
      Array.iteri
        (fun i blk ->
          Alcotest.(check int) (Printf.sprintf "block %d reads back under the key" i) (1000 + i)
            (Cell.key_exn blk.(0)))
        (Storage.read_many s base n);
      Storage.close s)

(* ---------------- sealed runs ---------------- *)

(* A sealed run written in one batch reads back through the batched
   unseal, both in the writing session and after a clean close and
   reopen of the file store. *)
let test_sealed_run_reads_back_on_file () =
  with_temp_store (fun path ->
      let b = 4 and n = 64 in
      let open_store ~resume =
        Storage.create ~cipher:(Cipher.key_of_int 21) ~resume
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
              let run ?cipher () =
                let spec = Registry.backend_spec backend_name in
                Fun.protect
                  ~finally:(fun () -> Storage.remove_spec_files spec)
                  (fun () ->
                    let o =
                      Pairtest.check ~backend:spec ?cipher
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
              let l, d, r, sh = run ~cipher:(Cipher.key_of_int 31) () in
              Alcotest.(check int) "same trace length" l0 l;
              Alcotest.(check int64) "same digest" d0 d;
              Alcotest.(check int) "same retries" r0 r;
              Alcotest.(check (array int)) "same shard fan-out" sh0 sh))
        Registry.all)
    Registry.backend_names

(* ---------------- allocation discipline ---------------- *)

(* The mem backend serves a run of one by blit into the caller's
   off-heap buffer: the read loop must not allocate per block (the old
   path allocated a fresh Bytes per read). Minor-heap words are counted
   across a big loop; the budget allows fixed setup noise but not
   per-iteration garbage. *)
let test_mem_read_does_not_allocate () =
  let payload = 168 in
  let bk = Backend.mem ~payload_size:payload () in
  bk.ensure 8;
  let buf = Bigbuf.create payload in
  for i = 0 to 7 do
    Bigbuf.set64_le buf 0 (Int64.of_int i);
    bk.write_run ~addr:i ~count:1 ~payload ~buf ~off:0
  done;
  let iters = 10_000 in
  (* Warm up any lazy structure before measuring. *)
  bk.read_run ~addr:0 ~count:1 ~payload ~buf ~off:0;
  let w0 = Gc.minor_words () in
  for i = 0 to iters - 1 do
    bk.read_run ~addr:(i land 7) ~count:1 ~payload ~buf ~off:0
  done;
  let per_iter = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per read (want ~0)" per_iter)
    true (per_iter < 1.0);
  (* And the data actually moved. *)
  bk.read_run ~addr:5 ~count:1 ~payload ~buf ~off:0;
  Alcotest.(check int64) "blit read serves the payload" 5L
    (Bytes.get_int64_le (Util.bytes_of_big buf) 0)

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
   the run). With an enabled sink the same holds inside an open phase,
   even for single-block runs: a counted I/O touches only Stats, the
   trace and a resolved timing cell. So it does through the decorators —
   a 2-way stripe, and a fault layer that never fires over it — whose
   record closures must not allocate per call. *)
let flat_words_per_block ?telemetry ?backend ~run () =
  let b = 8 in
  let s = Storage.create ?telemetry ?backend ~block_size:b () in
  let base = Storage.alloc s (2 * run) in
  let buf = Flat.create ~block_size:b ~blocks:run in
  Flat.set_cell buf
    (Flat.cell_offset buf ~block:(3 mod run) ~slot:5)
    (Cell.item ~key:35 ~value:1 ());
  Storage.write_flat s base run buf;
  Storage.read_flat s base run buf;
  let iters = 3200 / run in
  let per_block =
    Storage.with_span s "flat" (fun () ->
        let w0 = Gc.minor_words () in
        for _ = 1 to iters do
          Storage.read_flat s base run buf;
          Storage.write_flat s (base + run) run buf
        done;
        (Gc.minor_words () -. w0) /. float_of_int (2 * iters * run))
  in
  Alcotest.(check int) "every block counted" ((2 * iters + 2) * run)
    (Stats.total (Storage.stats s));
  Alcotest.(check int) "the image round-trips" 35
    (Cell.key_exn (Storage.unchecked_peek s (base + run + (3 mod run))).(5));
  per_block

let test_flat_run_does_not_allocate () =
  let check what per_block =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f minor words per flat block (want < 1)" what per_block)
      true (per_block < 1.0)
  in
  check "no sink, runs of 16" (flat_words_per_block ~run:16 ());
  List.iter
    (fun run ->
      let telemetry = Odex_telemetry.Telemetry.create () in
      check
        (Printf.sprintf "enabled sink, runs of %d" run)
        (flat_words_per_block ~telemetry ~run ()))
    [ 1; 16 ];
  let stripe = Storage.Sharded { inner = Storage.Mem; shards = 2; seed = 0x5A4D } in
  List.iter
    (fun (what, backend) ->
      List.iter
        (fun run ->
          check
            (Printf.sprintf "%s, runs of %d" what run)
            (flat_words_per_block ~backend ~run ()))
        [ 1; 16 ])
    [
      ("Sharded {Mem; 2}", stripe);
      ( "Faulty {Sharded; failure_rate = 0}",
        Storage.Faulty { inner = stripe; seed = 7; failure_rate = 0.; max_burst = 1 } );
    ]

(* The butterfly routes encoded images, never decoding a cell: compacting
   N/B = 2048 blocks of B = 8 at m = 64 on a warmed Mem store allocates
   under 5 minor words per counted I/O. *)
let test_butterfly_allocation () =
  let b = 8 and n = 2048 in
  let s = Storage.create ~block_size:b () in
  let a = Ext_array.create s ~blocks:n in
  let fill () =
    for i = 0 to n - 1 do
      Storage.unchecked_poke s (Ext_array.addr a i)
        (if i mod 3 = 0 then Block.make b
         else Array.init b (fun j -> Cell.item ~key:((i * b) + j) ~value:i ()))
    done
  in
  fill ();
  ignore (Odex.Butterfly.compact ~m:64 a);
  fill ();
  let ios0 = Stats.total (Storage.stats s) in
  let w0 = Gc.minor_words () in
  let r = Odex.Butterfly.compact ~m:64 a in
  let per_io =
    (Gc.minor_words () -. w0) /. float_of_int (Stats.total (Storage.stats s) - ios0)
  in
  Alcotest.(check int) "every occupied block kept" (n - ((n + 2) / 3)) r;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per counted I/O (want < 5)" per_io)
    true (per_io < 5.0)

(* Minor words [f] allocates per call, over [iters] calls after a
   warm-up call. *)
let words_per_call ?(iters = 10_000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* The byte mover and the cell encoder sit under every transfer and every
   staged cell: neither may allocate at all. [Bigbuf.blit] is a
   [@@noalloc] memmove behind its range check; [Flat.set_cell] encodes
   through the unboxed 64-bit primitives. *)
let test_blit_and_set_cell_do_not_allocate () =
  let src = Bigbuf.create 4096 and dst = Bigbuf.create 4096 in
  let i = ref 0 in
  let per_blit =
    words_per_call (fun () ->
        i := (!i + 40) land 2047;
        Bigbuf.blit src !i dst (2048 - !i) 2000)
  in
  Alcotest.(check (float 0.)) "minor words per Bigbuf.blit" 0. per_blit;
  let flat = Flat.create ~block_size:8 ~blocks:4 in
  let cells = [| Cell.item ~tag:3 ~aux:(-1) ~key:max_int ~value:7 (); Cell.empty |] in
  let per_set =
    words_per_call (fun () ->
        i := (!i + 1) land 31;
        Flat.set_cell flat
          (Flat.cell_offset flat ~block:(!i lsr 3) ~slot:(!i land 7))
          cells.(!i land 1))
  in
  Alcotest.(check (float 0.)) "minor words per Flat.set_cell" 0. per_set;
  Alcotest.(check bool) "the last image round-trips" true
    (Flat.get_cell flat (Flat.cell_offset flat ~block:3 ~slot:7) = cells.(1))

(* The bucket sort stages, sorts and merges encoded images and never
   decodes a cell: sorting N = 16 384 cells of B = 8 at m = 128 (the
   sort-mem geometry at half its N) on a warmed Mem store allocates under
   5 minor words per counted I/O. *)
let test_bucket_sort_allocation () =
  let b = 8 and n = 2048 in
  let s = Storage.create ~block_size:b () in
  let a = Ext_array.create s ~blocks:n in
  let fill () =
    for i = 0 to n - 1 do
      Storage.unchecked_poke s (Ext_array.addr a i)
        (Array.init b (fun j -> Cell.item ~key:(((i * b) + j) * 7919 mod 16_384) ~value:i ()))
    done
  in
  let sorter = Odex_sortnet.Ext_sort.bucket () in
  fill ();
  Odex_sortnet.Ext_sort.run sorter ~m:128 a;
  fill ();
  let ios0 = Stats.total (Storage.stats s) in
  let w0 = Gc.minor_words () in
  Odex_sortnet.Ext_sort.run sorter ~m:128 a;
  let per_io =
    (Gc.minor_words () -. w0) /. float_of_int (Stats.total (Storage.stats s) - ios0)
  in
  Alcotest.(check bool) "sorted" true
    (Util.is_sorted_list (Util.keys_of_items (Ext_array.items a)));
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per counted I/O (want < 5)" per_io)
    true (per_io < 5.0)

(* The fixed-circuit sorters stage encoded images too: on a warmed Mem
   store (the first sort grows the store and its run scratch), a second
   sort of the same input allocates under 5 minor words per counted I/O.
   The shapes are the windowed network at N/B = 2048, columnsort at
   N/B = 1024 (nine columns) and the cache sorter at the cache's size. *)
let sorter_words_per_io sorter ~b ~n ~m =
  let s = Storage.create ~block_size:b () in
  let a = Ext_array.create s ~blocks:n in
  let fill () =
    for i = 0 to n - 1 do
      Storage.unchecked_poke s (Ext_array.addr a i)
        (Array.init b (fun j -> Cell.item ~key:(((i * b) + j) * 7919 mod 4096) ~value:i ()))
    done
  in
  fill ();
  Odex_sortnet.Ext_sort.run sorter ~m a;
  fill ();
  let ios0 = Stats.total (Storage.stats s) in
  let w0 = Gc.minor_words () in
  Odex_sortnet.Ext_sort.run sorter ~m a;
  let per_io =
    (Gc.minor_words () -. w0) /. float_of_int (Stats.total (Storage.stats s) - ios0)
  in
  Alcotest.(check bool) "sorted" true
    (Util.is_sorted_list (Util.keys_of_items (Ext_array.items a)));
  per_io

let sorter_allocation_cases =
  List.map
    (fun (what, sorter, b, n, m) ->
      ( what ^ " allocation",
        `Quick,
        fun () ->
          let per_io = sorter_words_per_io sorter ~b ~n ~m in
          Alcotest.(check bool)
            (Printf.sprintf "%.2f minor words per counted I/O (want < 5)" per_io)
            true (per_io < 5.0) ))
    Odex_sortnet.Ext_sort.
      [
        ("windowed network, 2048 blocks", bitonic_windowed, 8, 2048, 128);
        ("columnsort, 1024 blocks", columnsort, 8, 1024, 128);
        ("cache sort, 64 blocks", cache_sort, 8, 64, 64);
      ]

(* The journal stages each record in its off-heap arena: on a warmed
   journal (arena, overlay and append log grown by an identical first
   round), appending a 64-block run allocates exactly what appending a
   1-block run does — the per-record constant, nothing per block — and a
   read served from the overlay allocates nothing at all. *)
let test_journal_append_allocation () =
  let payload = 16 and iters = 200 in
  let jp = Filename.temp_file "odex_seal" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove jp) @@ fun () ->
  let j =
    Journal.create ~path:jp ~payload_size:payload ~durable:false ~replay:false
      (Backend.mem ~payload_size:payload ())
  in
  let b = Journal.backend j in
  b.ensure 64;
  let buf = Bigbuf.create (64 * payload) in
  let per_append count =
    let round () =
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do
        b.write_run ~addr:0 ~count ~payload ~buf ~off:0
      done;
      let w = (Gc.minor_words () -. w0) /. float_of_int iters in
      Journal.commit j;
      w
    in
    ignore (round ());
    round ()
  in
  let one = per_append 1 and sixty_four = per_append 64 in
  Alcotest.(check (float 0.))
    (Printf.sprintf "minor words per 64-block append (1-block: %.2f)" one)
    one sixty_four;
  b.write_run ~addr:0 ~count:64 ~payload ~buf ~off:0;
  let per_hit =
    words_per_call (fun () -> b.read_run ~addr:5 ~count:1 ~payload ~buf ~off:0)
  in
  Alcotest.(check (float 0.)) "minor words per overlay read hit" 0. per_hit;
  b.close ()

let suite =
  [
    ("v1 store header refused", `Quick, test_v1_store_header_refused);
    ("retired store engine refused", `Quick, test_retired_store_engine_refused);
    ("sealed store without a key refused", `Quick, test_sealed_store_without_key_refused);
    ("sealed run reads back on file", `Quick, test_sealed_run_reads_back_on_file);
    ("mem single-block read allocation-free", `Quick, test_mem_read_does_not_allocate);
    ("trace digest pinned", `Quick, test_trace_digest_pinned);
    ("trace record allocation-free", `Quick, test_trace_record_does_not_allocate);
    ("flat run allocation-free", `Quick, test_flat_run_does_not_allocate);
    ("butterfly compaction allocation", `Quick, test_butterfly_allocation);
    ("blit and set_cell allocation-free", `Quick, test_blit_and_set_cell_do_not_allocate);
    ("bucket sort allocation", `Quick, test_bucket_sort_allocation);
    ("journal append allocation", `Quick, test_journal_append_allocation);
  ]
  @ sorter_allocation_cases
  @ sealed_parity_cases
