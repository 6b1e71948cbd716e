(* Batched block I/O: batching on and off must be indistinguishable in
   everything the model observes (traces, stats, retries, data), on every
   backend; the backend run primitives must respect bounds, fault
   schedules and the resume contract. *)

open Odex_extmem
module Bigbuf = Odex_crypto.Bigbuf

let with_temp_store f =
  let path = Filename.temp_file "odex_batch" ".store" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* ---------------- batch/unbatch parity across the registry ------------ *)

type fingerprint = {
  trace_length : int;
  digest : int64;
  reads : int;
  writes : int;
  retries : int;
  bytes_moved : int;
  batched_ios : int;
  result : Cell.t array;
}

let run_entry ~batching ~spec (e : Odex_obcheck.Registry.entry) =
  let cells, _ = Odex_obcheck.Pairtest.pair_inputs ~seed:0xBA7C4 ~n:e.n_cells in
  let s =
    Storage.create ~trace_mode:Trace.Digest ~backend:spec ~backoff:(0., 0.) ~batching
      ~block_size:e.b ()
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
        bytes_moved = Stats.bytes_moved st;
        batched_ios = Stats.batched_ios st;
        result = Ext_array.to_cells a;
      })

let check_entry_parity backend_name (e : Odex_obcheck.Registry.entry) =
  let name = Printf.sprintf "%s[%s]" e.subject.Odex_obcheck.Pairtest.name backend_name in
  let with_spec f =
    let spec = Odex_obcheck.Registry.backend_spec backend_name in
    Fun.protect ~finally:(fun () -> Storage.remove_spec_files spec) (fun () -> f spec)
  in
  let on = with_spec (fun spec -> run_entry ~batching:true ~spec e) in
  let off = with_spec (fun spec -> run_entry ~batching:false ~spec e) in
  Alcotest.(check int) (name ^ ": trace length") off.trace_length on.trace_length;
  Alcotest.(check int64) (name ^ ": trace digest") off.digest on.digest;
  Alcotest.(check int) (name ^ ": reads") off.reads on.reads;
  Alcotest.(check int) (name ^ ": writes") off.writes on.writes;
  Alcotest.(check int) (name ^ ": retries") off.retries on.retries;
  Alcotest.(check int) (name ^ ": bytes moved") off.bytes_moved on.bytes_moved;
  Alcotest.(check int) (name ^ ": batching off tallies none") 0 off.batched_ios;
  Alcotest.(check bool)
    (name ^ ": batched_ios <= total")
    true
    (on.batched_ios <= on.reads + on.writes);
  Alcotest.(check bool) (name ^ ": same final cells") true (off.result = on.result)

let test_registry_parity backend_name () =
  List.iter (check_entry_parity backend_name) Odex_obcheck.Registry.all

let test_scan_algorithms_do_batch () =
  (* The batching win must actually engage: a scan-heavy algorithm on a
     batching storage serves most of its I/Os through multi-block runs. *)
  let e = Option.get (Odex_obcheck.Registry.find "consolidation") in
  let on = run_entry ~batching:true ~spec:Storage.Mem e in
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
  (* rate 1.0, burst 1: every access fails once. A batched run must see
     the same fault schedule, produce the same retry-laden trace, and
     deliver the same data as the per-block loop. *)
  let faulty = Storage.Faulty { inner = Storage.Mem; seed = 3; failure_rate = 1.0; max_burst = 1 } in
  let run ~batching =
    let s =
      Storage.create ~trace_mode:Trace.Full ~backend:faulty ~backoff:(0., 0.) ~batching
        ~block_size:2 ()
    in
    let base = Storage.alloc s 8 in
    Storage.write_many s base (Array.init 8 (fun i -> block_of_int 2 (i + 1)));
    let keys = Array.map (fun blk -> Cell.key_exn blk.(0)) (Storage.read_many s base 8) in
    (Trace.ops (Storage.trace s), Stats.retries (Storage.stats s), keys)
  in
  let ops_on, retries_on, keys_on = run ~batching:true in
  let ops_off, retries_off, keys_off = run ~batching:false in
  Alcotest.(check bool) "identical op sequence with retries" true (ops_on = ops_off);
  Alcotest.(check int) "one retry per counted I/O" 16 retries_on;
  Alcotest.(check int) "same retries" retries_off retries_on;
  Alcotest.(check bool) "same data through the fault storm" true (keys_on = keys_off)

(* ---------------- backend run primitives ---------------- *)

let test_backend_run_edges () =
  let check_backend name (bk : Backend.t) =
    Backend.ensure bk 4;
    let payload = 8 in
    let pat i = Bytes.init payload (fun j -> Char.chr ((i * 31 + j) land 0xFF)) in
    let buf = Bigbuf.create (4 * payload) in
    for i = 0 to 3 do
      Bigbuf.blit_from_bytes (pat i) 0 buf (i * payload) payload
    done;
    (* count = 0 is a validated no-op; a full-width run ends exactly at
       capacity. *)
    Backend.write_run bk ~addr:2 ~count:0 ~payload ~buf ~off:0;
    Backend.write_run bk ~addr:0 ~count:4 ~payload ~buf ~off:0;
    let out = Bigbuf.create (4 * payload) in
    Backend.read_run bk ~addr:0 ~count:4 ~payload ~buf:out ~off:0;
    Alcotest.(check bytes) (name ^ ": full-run roundtrip") (Bigbuf.to_bytes buf)
      (Bigbuf.to_bytes out);
    (* count = 1 equals the single-block API. *)
    let one = Bigbuf.create payload and single = Bigbuf.create payload in
    Backend.read_run bk ~addr:3 ~count:1 ~payload ~buf:one ~off:0;
    Backend.read_into bk 3 ~buf:single ~off:0;
    Alcotest.(check bytes) (name ^ ": run of one") (Bigbuf.to_bytes single) (Bigbuf.to_bytes one);
    (* Out-of-bounds address windows and undersized buffers raise before
       any byte moves. *)
    let is_oob = function Invalid_argument _ -> true | _ -> false in
    let refused f = try f (); false with e -> is_oob e in
    Alcotest.(check bool) (name ^ ": run past end refused") true
      (refused (fun () -> Backend.read_run bk ~addr:2 ~count:3 ~payload ~buf:out ~off:0));
    Alcotest.(check bool) (name ^ ": negative addr refused") true
      (refused (fun () -> Backend.read_run bk ~addr:(-1) ~count:1 ~payload ~buf:out ~off:0));
    Alcotest.(check bool) (name ^ ": short buffer refused") true
      (refused (fun () ->
           Backend.write_run bk ~addr:0 ~count:4 ~payload ~buf:(Bigbuf.create 31) ~off:0));
    let before = Bigbuf.create (4 * payload) in
    Backend.read_run bk ~addr:0 ~count:4 ~payload ~buf:before ~off:0;
    Alcotest.(check bytes) (name ^ ": refused writes moved nothing") (Bigbuf.to_bytes buf)
      (Bigbuf.to_bytes before)
  in
  check_backend "mem" (Backend.mem ~payload_size:8 ());
  with_temp_store (fun path ->
      let bk = Backend.file ~path ~payload_size:8 in
      Fun.protect ~finally:(fun () -> Backend.close bk) (fun () -> check_backend "file" bk))

let test_faulty_run_resume_contract () =
  (* rate 1.0, burst 1 alternates fail/recover by access index, so a
     4-block run faults mid-run on every attempt: first at block 0, then
     (after the guaranteed recovery) one block further each resume — the
     bursts cross the run repeatedly. The Transient address must never
     fall before the resume point (those blocks are already transferred),
     and resuming there must finish the run with one fault per block. *)
  let plan = { Backend.seed = 5; failure_rate = 1.0; max_burst = 1 } in
  let bk = Backend.faulty plan (Backend.mem ~payload_size:8 ()) in
  Backend.ensure bk 4;
  let payload = 8 in
  let src = Bigbuf.of_bytes (Bytes.init (4 * payload) (fun i -> Char.chr (i land 0xFF))) in
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
        Backend.write_run bk ~addr:a ~count:(4 - a) ~payload ~buf:src ~off:(a * payload))
  in
  Alcotest.(check int) "one write fault per block" 4 wf;
  let out = Bigbuf.create (4 * payload) in
  let rf =
    resume_loop (fun a ->
        Backend.read_run bk ~addr:a ~count:(4 - a) ~payload ~buf:out ~off:(a * payload))
  in
  Alcotest.(check int) "one read fault per block" 4 rf;
  Alcotest.(check bytes) "resumed run transferred every block" (Bigbuf.to_bytes src)
    (Bigbuf.to_bytes out);
  Alcotest.(check int) "every fault was raised through the runs" 8 (Backend.faults_injected bk);
  (* An out-of-bounds run is refused before the first gate: no fault
     schedule advance, no transfer. *)
  let faults_before = Backend.faults_injected bk in
  Alcotest.(check bool) "oob refused" true
    (try
       Backend.read_run bk ~addr:2 ~count:5 ~payload ~buf:(Bigbuf.create (5 * payload)) ~off:0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "refused run consumed no accesses" faults_before
    (Backend.faults_injected bk)

(* ---------------- cache runs ---------------- *)

let test_cache_load_run () =
  let s = Storage.create ~trace_mode:Trace.Full ~block_size:2 () in
  let base = Storage.alloc s 6 in
  Storage.write_many s base (Array.init 6 (fun i -> block_of_int 2 (50 + i)));
  let c = Cache.create s ~capacity:4 in
  (* Overflow is checked for the whole run before any I/O. *)
  let reads_before = Stats.reads (Storage.stats s) in
  Alcotest.check_raises "run larger than capacity"
    (Cache.Overflow { capacity = 4; requested = 5 }) (fun () ->
      Cache.load_run c base ~count:5);
  Alcotest.(check int) "refused run read nothing" reads_before (Stats.reads (Storage.stats s));
  Alcotest.(check int) "nothing resident" 0 (Cache.resident c);
  (* A resident block in the middle splits the fill into two runs but
     costs no second read. *)
  ignore (Cache.load c (base + 2));
  Cache.load_run c base ~count:4;
  Alcotest.(check int) "four resident" 4 (Cache.resident c);
  Alcotest.(check int) "missing blocks read once each" (reads_before + 4)
    (Stats.reads (Storage.stats s));
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "resident block %d" i)
      (50 + i)
      (Cell.key_exn (Cache.borrow c (base + i)).(0))
  done;
  Cache.flush_all c;
  Alcotest.(check int) "flushed" 0 (Cache.resident c)

(* ---------------- trace and stats plumbing ---------------- *)

let test_full_trace_growth () =
  (* The growable Full-mode buffer: push far past the initial capacity,
     then check [ops] returns the exact sequence, and [reset] restarts
     it. *)
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
  Alcotest.(check int) "length tracks" n (Trace.length t);
  Trace.reset t;
  Alcotest.(check int) "reset empties ops" 0 (List.length (Trace.ops t));
  Trace.record t (Trace.Read 42);
  Alcotest.(check bool) "recording works after reset" true (Trace.ops t = [ Trace.Read 42 ])

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
    ("registry parity mem", `Slow, test_registry_parity "mem");
    ("registry parity file", `Slow, test_registry_parity "file");
    ("registry parity faulty", `Slow, test_registry_parity "faulty");
    ("scan algorithms actually batch", `Quick, test_scan_algorithms_do_batch);
    ("read_many/write_many roundtrip and trace", `Quick, test_many_roundtrip_and_trace);
    ("read_many/write_many degenerate sizes", `Quick, test_many_degenerate_sizes);
    ("batched I/O under a fault storm", `Quick, test_many_parity_under_faults);
    ("backend run edge cases", `Quick, test_backend_run_edges);
    ("faulty run resume contract", `Quick, test_faulty_run_resume_contract);
    ("cache load_run", `Quick, test_cache_load_run);
    ("full trace growth", `Quick, test_full_trace_growth);
    ("stats transfer fields", `Quick, test_stats_transfer_fields);
  ]
