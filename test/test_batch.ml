(* Batched block I/O: every registry subject's trace and counts are
   pinned by value on every backend; read_many/write_many must be
   indistinguishable from per-block loops in everything the model
   observes (traces, retries, data); the backend run primitives must
   respect bounds, fault schedules and the resume contract. *)

open Odex_extmem
module Bigbuf = Odex_crypto.Bigbuf

let with_temp_store f =
  let path = Filename.temp_file "odex_batch" ".store" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* ---------------- registry traces pinned by value ---------------- *)

type fingerprint = {
  trace_length : int;
  digest : int64;
  reads : int;
  writes : int;
  retries : int;
  batched_ios : int;
}

let run_entry ~spec (e : Odex_obcheck.Registry.entry) =
  let cells, _ = Odex_obcheck.Pairtest.pair_inputs ~seed:0xBA7C4 ~n:e.n_cells in
  let s =
    Storage.create ~trace_mode:Trace.Digest ~backend:spec ~backoff:(0., 0.) ~block_size:e.b ()
  in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let a = Ext_array.of_cells s ~block_size:e.b cells in
      let rng = Odex_crypto.Rng.create ~seed:0xC0111 in
      e.subject.Odex_obcheck.Pairtest.run ~rng ~m:e.m s a;
      let st = Storage.stats s and tr = Storage.trace s in
      {
        trace_length = Trace.length tr;
        digest = Trace.digest tr;
        reads = Stats.reads st;
        writes = Stats.writes st;
        retries = Stats.retries st;
        batched_ios = Stats.batched_ios st;
      })

(* Per registry subject: (trace length, digest, reads, writes, retries)
   on [mem] — which [file] must equal — and on [faulty] (rate 0.05,
   seed 0xFA17). Recorded when every transfer could still be served
   either as one backend run or as a per-block loop, with both ways
   agreeing on every row, so the table is the per-block behaviour the
   run path must keep. *)
let pins =
  [
    ( "consolidation",
      (256, 0xcc7b7380c013f636L, 128, 128, 0),
      (270, 0x381facbeb3616f51L, 128, 128, 14) );
    ( "butterfly",
      (1280, 0xbdad53329f5ec68eL, 640, 640, 0),
      (1377, 0xbf0e24702699ee03L, 640, 640, 97) );
    ( "compaction-tight",
      (1280, 0xbdad53329f5ec68eL, 640, 640, 0),
      (1377, 0xbf0e24702699ee03L, 640, 640, 97) );
    ( "loose-compaction",
      (9456, 0x155a656f91233874L, 4820, 4636, 0),
      (10180, 0xaeba244338b743edL, 4820, 4636, 724) );
    ( "logstar-compaction",
      (5128, 0xf5fff108dcd93b71L, 2564, 2564, 0),
      (5539, 0xb84071bf6e933ce6L, 2564, 2564, 411) );
    ( "twoserver-compaction",
      (1280, 0xbdad53329f5ec68eL, 640, 640, 0),
      (1377, 0xbf0e24702699ee03L, 640, 640, 97) );
    ( "selection",
      (7168, 0x545e2accf077bb2eL, 3840, 3328, 0),
      (7704, 0x614608ec66138f4dL, 3840, 3328, 536) );
    ( "quantiles",
      (7424, 0x1034819b99124171L, 3840, 3584, 0),
      (7983, 0x52b219995c4dab31L, 3840, 3584, 559) );
    ( "sort",
      (489726, 0x5ee00b33e1937ccaL, 244260, 245466, 0),
      (526361, 0xbea2fbef7e872b8bL, 244260, 245466, 36635) );
    ( "bucket-sort",
      (9832, 0x8d1fe895affa1fd8L, 5172, 4660, 0),
      (10579, 0x5dcd195da3de17a3L, 5172, 4660, 747) );
    ( "oblivious-permutation",
      (7260, 0x832d563dd162ea5dL, 3630, 3630, 0),
      (7796, 0x7afad906d622591fL, 3630, 3630, 536) );
    ( "linear-oram",
      (23716, 0xb9b47785f4a53c53L, 11858, 11858, 0),
      (25553, 0xb6f58be49b87ca62L, 11858, 11858, 1837) );
    ( "sqrt-oram",
      (111345, 0xc8c06801fb173790L, 56212, 55133, 0),
      (119717, 0x79403964e3588e1aL, 56212, 55133, 8372) );
    ( "hier-oram",
      (186942, 0xde83a79760f4fc5cL, 95320, 91622, 0),
      (200980, 0xfb36f594e041deeeL, 95320, 91622, 14038) );
  ]

let test_registry_pins backend_name () =
  let subject (e : Odex_obcheck.Registry.entry) = e.subject.Odex_obcheck.Pairtest.name in
  Alcotest.(check (list string)) "one pin per registry subject"
    (List.map subject Odex_obcheck.Registry.all)
    (List.map (fun (n, _, _) -> n) pins);
  List.iter
    (fun e ->
      let name = Printf.sprintf "%s[%s]" (subject e) backend_name in
      let _, mem, faulty = List.find (fun (n, _, _) -> n = subject e) pins in
      let l, d, r, w, rt = if backend_name = "faulty" then faulty else mem in
      let spec = Odex_obcheck.Registry.backend_spec backend_name in
      let got =
        Fun.protect
          ~finally:(fun () -> Storage.remove_spec_files spec)
          (fun () -> run_entry ~spec e)
      in
      Alcotest.(check int) (name ^ ": trace length") l got.trace_length;
      Alcotest.(check int64) (name ^ ": trace digest") d got.digest;
      Alcotest.(check int) (name ^ ": reads") r got.reads;
      Alcotest.(check int) (name ^ ": writes") w got.writes;
      Alcotest.(check int) (name ^ ": retries") rt got.retries;
      Alcotest.(check bool)
        (name ^ ": batched_ios <= total")
        true
        (got.batched_ios <= got.reads + got.writes))
    Odex_obcheck.Registry.all

let test_scan_algorithms_do_batch () =
  (* Runs must actually engage: a scan-heavy algorithm serves most of
     its I/Os through multi-block runs. *)
  let e = Util.registry "consolidation" in
  let on = run_entry ~spec:Storage.Mem e in
  Alcotest.(check bool) "consolidation batches most I/Os" true
    (2 * on.batched_ios > on.reads + on.writes)

(* ---------------- Storage.read_many / write_many ---------------- *)

let block_of_int b v =
  let blk = Block.make b in
  blk.(0) <- Cell.item ~key:v ~value:(v * 10) ();
  blk

let test_many_roundtrip_and_trace () =
  let b = 2 in
  let s = Storage.create ~trace_mode:Trace.Full ~block_size:b () in
  let base = Storage.alloc s 6 in
  let blks = Array.init 5 (fun i -> block_of_int b (100 + i)) in
  Storage.write_many s (base + 1) blks;
  let got = Storage.read_many s (base + 1) 5 in
  Array.iteri
    (fun i blk -> Alcotest.(check int) (Printf.sprintf "key %d" i) (100 + i) (Cell.key_exn blk.(0)))
    got;
  (* One op per logical block, in address order — identical to the
     per-block loop's trace. *)
  let expect =
    List.init 5 (fun i -> Trace.Write (base + 1 + i))
    @ List.init 5 (fun i -> Trace.Read (base + 1 + i))
  in
  Alcotest.(check bool) "per-block ops in address order" true
    (Trace.ops (Storage.trace s) = expect);
  let st = Storage.stats s in
  Alcotest.(check int) "reads" 5 (Stats.reads st);
  Alcotest.(check int) "writes" 5 (Stats.writes st);
  Alcotest.(check int) "all ten batched" 10 (Stats.batched_ios st);
  let payload = 8 + Block.encoded_size b in
  Alcotest.(check int) "bytes_moved = payload per I/O" (10 * payload) (Stats.bytes_moved st)

let test_many_degenerate_sizes () =
  let s = Storage.create ~trace_mode:Trace.Full ~block_size:2 () in
  let base = Storage.alloc s 2 in
  Alcotest.(check int) "read_many 0 returns nothing" 0 (Array.length (Storage.read_many s base 0));
  Storage.write_many s base [||];
  Storage.write_many s base [| block_of_int 2 7 |];
  Alcotest.(check int) "singleton roundtrip" 7 (Cell.key_exn (Storage.read_many s base 1).(0).(0));
  (* Length-0 and length-1 runs never tally as batched. *)
  Alcotest.(check int) "no multi-block runs" 0 (Stats.batched_ios (Storage.stats s));
  Alcotest.(check int) "two counted ops" 2 (Stats.total (Storage.stats s));
  Alcotest.check_raises "read_many past capacity"
    (Invalid_argument "Storage: address 2 out of bounds (capacity 2)") (fun () ->
      ignore (Storage.read_many s base 3));
  Alcotest.(check int) "refused run performed no I/O" 2 (Stats.total (Storage.stats s))

let test_many_parity_under_faults () =
  (* rate 1.0, burst 1: every access fails once. A multi-block run must
     see the same fault schedule, produce the same retry-laden trace,
     and deliver the same data as per-block reads and writes on a twin
     store. *)
  let faulty = Storage.Faulty { inner = Storage.Mem; seed = 3; failure_rate = 1.0; max_burst = 1 } in
  let run ~many =
    let s =
      Storage.create ~trace_mode:Trace.Full ~backend:faulty ~backoff:(0., 0.) ~block_size:2 ()
    in
    let base = Storage.alloc s 8 in
    let blks = Array.init 8 (fun i -> block_of_int 2 (i + 1)) in
    let got =
      if many then begin
        Storage.write_many s base blks;
        Storage.read_many s base 8
      end
      else begin
        Array.iteri (fun i blk -> Storage.write s (base + i) blk) blks;
        Array.init 8 (fun i -> Storage.read s (base + i))
      end
    in
    let keys = Array.map (fun blk -> Cell.key_exn blk.(0)) got in
    (Trace.ops (Storage.trace s), Stats.retries (Storage.stats s), keys)
  in
  let ops_many, retries_many, keys_many = run ~many:true in
  let ops_single, retries_single, keys_single = run ~many:false in
  Alcotest.(check bool) "identical op sequence with retries" true (ops_many = ops_single);
  Alcotest.(check int) "one retry per counted I/O" 16 retries_many;
  Alcotest.(check int) "same retries" retries_single retries_many;
  Alcotest.(check (array int)) "same data through the fault storm" keys_single keys_many;
  Alcotest.(check (array int)) "data written is data read" (Array.init 8 (fun i -> i + 1)) keys_many

(* ---------------- backend run primitives ---------------- *)

let test_backend_run_edges () =
  let check_backend name (bk : Backend.t) =
    bk.ensure 4;
    let payload = 8 in
    let pat i = Bytes.init payload (fun j -> Char.chr ((i * 31 + j) land 0xFF)) in
    let buf = Bigbuf.create (4 * payload) in
    for i = 0 to 3 do
      Bigbuf.blit (Util.big_of_bytes (pat i)) 0 buf (i * payload) payload
    done;
    (* count = 0 is a validated no-op; a full-width run ends exactly at
       capacity. *)
    bk.write_run ~addr:2 ~count:0 ~payload ~buf ~off:0;
    bk.write_run ~addr:0 ~count:4 ~payload ~buf ~off:0;
    let out = Bigbuf.create (4 * payload) in
    bk.read_run ~addr:0 ~count:4 ~payload ~buf:out ~off:0;
    Alcotest.(check bytes) (name ^ ": full-run roundtrip") (Util.bytes_of_big buf)
      (Util.bytes_of_big out);
    (* A run of one serves exactly its block. *)
    let one = Bigbuf.create payload in
    bk.read_run ~addr:3 ~count:1 ~payload ~buf:one ~off:0;
    Alcotest.(check bytes) (name ^ ": run of one") (pat 3) (Util.bytes_of_big one);
    (* Out-of-bounds address windows, negative lengths, a foreign payload
       size and undersized buffers raise before any byte moves — in
       either direction. *)
    let is_oob = function Invalid_argument _ -> true | _ -> false in
    let refused f = try f (); false with e -> is_oob e in
    let sentinel = Bytes.make (4 * payload) '\xA5' in
    let read_refused what f =
      Bigbuf.blit (Util.big_of_bytes sentinel) 0 out 0 (4 * payload);
      Alcotest.(check bool) (name ^ ": " ^ what ^ " refused") true (refused f);
      Alcotest.(check bytes)
        (name ^ ": " ^ what ^ " moved nothing")
        sentinel (Util.bytes_of_big out)
    in
    read_refused "run past end" (fun () ->
        bk.read_run ~addr:2 ~count:3 ~payload ~buf:out ~off:0);
    read_refused "negative addr" (fun () ->
        bk.read_run ~addr:(-1) ~count:1 ~payload ~buf:out ~off:0);
    read_refused "negative count" (fun () ->
        bk.read_run ~addr:0 ~count:(-1) ~payload ~buf:out ~off:0);
    read_refused "foreign payload size" (fun () ->
        bk.read_run ~addr:0 ~count:2 ~payload:(payload - 1) ~buf:out ~off:0);
    read_refused "short read buffer" (fun () ->
        bk.read_run ~addr:0 ~count:4 ~payload ~buf:out ~off:1);
    let refused_write what f =
      Alcotest.(check bool) (name ^ ": " ^ what ^ " refused") true (refused f)
    in
    refused_write "short buffer" (fun () ->
        bk.write_run ~addr:0 ~count:4 ~payload ~buf:(Bigbuf.create 31) ~off:0);
    refused_write "write past end" (fun () ->
        bk.write_run ~addr:3 ~count:2 ~payload ~buf:(Bigbuf.create (2 * payload)) ~off:0);
    refused_write "negative write count" (fun () ->
        bk.write_run ~addr:0 ~count:(-1) ~payload ~buf ~off:0);
    refused_write "foreign write payload" (fun () ->
        bk.write_run ~addr:0 ~count:2 ~payload:(payload - 1) ~buf ~off:0);
    let before = Bigbuf.create (4 * payload) in
    bk.read_run ~addr:0 ~count:4 ~payload ~buf:before ~off:0;
    Alcotest.(check bytes) (name ^ ": refused writes moved nothing") (Util.bytes_of_big buf)
      (Util.bytes_of_big before)
  in
  check_backend "mem" (Backend.mem ~payload_size:8 ());
  with_temp_store (fun path ->
      let bk = Backend.file ~path ~payload_size:8 in
      Fun.protect ~finally:(fun () -> bk.close ()) (fun () -> check_backend "file" bk));
  (* A journal over mem whose writes all stay pending (the auto-commit
     threshold is far above four blocks): reads of pending blocks are
     served from its overlay, so its run verbs must validate before the
     first overlay blit, not leave that to the inner store. *)
  with_temp_store (fun path ->
      let j =
        Journal.create ~path ~payload_size:8 ~durable:false ~replay:false
          (Backend.mem ~payload_size:8 ())
      in
      Fun.protect
        ~finally:(fun () -> Journal.abandon j)
        (fun () ->
          check_backend "journaled, writes pending" (Journal.backend j);
          Alcotest.(check bool) "journaled: writes still pending" true
            (Journal.pending_bytes j > 0)))

let test_faulty_run_resume_contract () =
  (* rate 1.0, burst 1 alternates fail/recover by access index, so a
     4-block run faults mid-run on every attempt: first at block 0, then
     (after the guaranteed recovery) one block further each resume — the
     bursts cross the run repeatedly. The Transient address must never
     fall before the resume point (those blocks are already transferred),
     and resuming there must finish the run with one fault per block. *)
  let plan = { Backend.seed = 5; failure_rate = 1.0; max_burst = 1 } in
  let bk = Backend.faulty plan (Backend.mem ~payload_size:8 ()) in
  bk.ensure 4;
  let payload = 8 in
  let src = Util.big_of_bytes (Bytes.init (4 * payload) (fun i -> Char.chr (i land 0xFF))) in
  let resume_loop f =
    let rec go a faults =
      if a < 4 then
        match f a with
        | () -> faults
        | exception Backend.Transient { addr; _ } ->
            if addr < a then Alcotest.failf "fault at %d before resume point %d" addr a;
            go addr (faults + 1)
      else faults
    in
    go 0 0
  in
  let wf =
    resume_loop (fun a ->
        bk.write_run ~addr:a ~count:(4 - a) ~payload ~buf:src ~off:(a * payload))
  in
  Alcotest.(check int) "one write fault per block" 4 wf;
  let out = Bigbuf.create (4 * payload) in
  let rf =
    resume_loop (fun a ->
        bk.read_run ~addr:a ~count:(4 - a) ~payload ~buf:out ~off:(a * payload))
  in
  Alcotest.(check int) "one read fault per block" 4 rf;
  Alcotest.(check bytes) "resumed run transferred every block" (Util.bytes_of_big src)
    (Util.bytes_of_big out);
  Alcotest.(check int) "every fault was raised through the runs" 8 (bk.faults ());
  (* An out-of-bounds run or a foreign payload size is refused before
     the first gate: no fault schedule advance, no transfer. *)
  let faults_before = bk.faults () in
  let refused f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "oob refused" true
    (refused (fun () ->
         bk.read_run ~addr:2 ~count:5 ~payload ~buf:(Bigbuf.create (5 * payload)) ~off:0));
  Alcotest.(check bool) "foreign payload refused" true
    (refused (fun () ->
         bk.write_run ~addr:0 ~count:2 ~payload:(payload - 1) ~buf:src ~off:0));
  Alcotest.(check int) "refused runs consumed no accesses" faults_before
    (bk.faults ())

(* ---------------- residency refusals ---------------- *)

(* Every site that holds blocks in Alice's memory checks them with
   Residency.check. At m one below what the site needs, each refuses
   with the one exception, naming both numbers; a stage that reads a
   whole run (and the windowed network, which checks its largest chunk
   group up front) refuses before any counted read. Columnsort's window
   has no row: its plan only admits geometries whose window of
   r/B + 1 blocks is at least three blocks below m, so its check cannot
   fire through the sorter. *)
let residency_cases =
  let b = 4 in
  let input n =
    let s = Storage.create ~block_size:b () in
    let cells = Array.init (n * b) (fun i -> Cell.item ~tag:i ~key:(i * 7919 mod 97) ~value:i ()) in
    (s, Ext_array.of_cells s ~block_size:b cells)
  in
  let rng () = Odex_crypto.Rng.create ~seed:0x8E5 in
  let sort sorter ~m n = (input n, fun a -> Odex_sortnet.Ext_sort.run sorter ~m a) in
  [
    ("cache sort", `Whole_run, 7, 8, sort Odex_sortnet.Ext_sort.cache_sort ~m:7 8);
    ("windowed chunk group", `Whole_run, 1, 2, sort Odex_sortnet.Ext_sort.bitonic_windowed ~m:1 8);
    ("butterfly ring", `After_io, 2, 3, (input 8, fun a -> ignore (Odex.Butterfly.compact ~m:2 a)));
    ( "selection and quantiles in-cache base",
      `Whole_run,
      7,
      8,
      (input 8, fun a -> ignore (Odex.Selection.items_in_cache ~m:7 a)) );
    ( "IBLT decode",
      `Whole_run,
      15,
      16,
      ( input 1,
        fun a ->
          let module I = Odex_iblt.Ext_iblt in
          let t = I.create (Ext_array.storage a) ~cells:8 (Odex_crypto.Prf.key_of_int 5) in
          ignore (I.decode_in_cache t ~m:(I.table_blocks t - 1)) ) );
    ( "log* region",
      `After_io,
      1,
      2,
      ( input 64,
        fun a ->
          ignore
            (Odex.Logstar_compaction.run ~sparse_threshold:0 ~m:1 ~rng:(rng ()) ~capacity:256
               a) ) );
  ]
  |> List.map (fun (site, when_, capacity, requested, ((s, a), run)) ->
         ( "residency refusal: " ^ site,
           `Quick,
           fun () ->
             let reads_before = Stats.reads (Storage.stats s) in
             Alcotest.check_raises site (Residency.Overflow { capacity; requested }) (fun () ->
                 run a);
             if when_ = `Whole_run then
               Alcotest.(check int) (site ^ ": refused run read nothing") reads_before
                 (Stats.reads (Storage.stats s)) ))

(* ---------------- trace and stats plumbing ---------------- *)

let test_full_trace_growth () =
  (* The growable Full-mode buffer: push far past the initial capacity,
     then check [ops] returns the exact sequence. *)
  let t = Trace.create Trace.Full in
  let n = 1000 in
  for i = 0 to n - 1 do
    Trace.record t (if i mod 2 = 0 then Trace.Read i else Trace.Write i)
  done;
  let ops = Trace.ops t in
  Alcotest.(check int) "all ops kept" n (List.length ops);
  List.iteri
    (fun i op ->
      let expect = if i mod 2 = 0 then Trace.Read i else Trace.Write i in
      if op <> expect then Alcotest.failf "op %d mismatch" i)
    ops;
  Alcotest.(check int) "length tracks" n (Trace.length t)

let test_stats_transfer_fields () =
  let st = Stats.create ~payload_size:88 () in
  Alcotest.(check int) "fresh bytes_moved" 0 (Stats.bytes_moved st);
  Alcotest.(check int) "fresh batched_ios" 0 (Stats.batched_ios st);
  Stats.record_read st;
  Stats.record_write st;
  Stats.record_batched st 2;
  Alcotest.(check int) "bytes are payload_size * total" 176 (Stats.bytes_moved st);
  Alcotest.(check int) "batched accumulate" 2 (Stats.batched_ios st)

let suite =
  [
    ("registry pins mem", `Slow, test_registry_pins "mem");
    ("registry pins file", `Slow, test_registry_pins "file");
    ("registry pins faulty", `Slow, test_registry_pins "faulty");
    ("scan algorithms actually batch", `Quick, test_scan_algorithms_do_batch);
    ("read_many/write_many roundtrip and trace", `Quick, test_many_roundtrip_and_trace);
    ("read_many/write_many degenerate sizes", `Quick, test_many_degenerate_sizes);
    ("batched I/O under a fault storm", `Quick, test_many_parity_under_faults);
    ("backend run edge cases", `Quick, test_backend_run_edges);
    ("faulty run resume contract", `Quick, test_faulty_run_resume_contract);
    ("full trace growth", `Quick, test_full_trace_growth);
    ("stats transfer fields", `Quick, test_stats_transfer_fields);
  ]
  @ residency_cases
