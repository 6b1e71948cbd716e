(* The telemetry subsystem: zero-cost disabled sink, latency histograms,
   backend-op timing, span phases whose counts are read off the stores'
   Stats ledgers, exports — and the load-bearing property
   that profiling is invisible to the adversary (pair-tested). *)

open Odex_extmem
module Telemetry = Odex_telemetry.Telemetry

(* ---------------- the disabled sink ---------------- *)

let test_disabled_sink_is_noop () =
  let t = Telemetry.disabled in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Telemetry.record (Telemetry.cell t ~backend:"mem" Telemetry.Read) ~blocks:1 ~bytes:64 ~ns:100;
  Telemetry.register t (fun () ->
      { Telemetry.ios = 3; retries = 1; faults = 1; bytes = 512 });
  let r = Telemetry.with_phase t "phase" (fun () -> 42) in
  Alcotest.(check int) "with_phase is exactly f ()" 42 r;
  Alcotest.(check int) "no op stats" 0 (List.length (Telemetry.op_stats t));
  Alcotest.(check int) "no phases" 0 (List.length (Telemetry.phases t));
  Alcotest.(check int) "no counters" 0 (List.length (Telemetry.counters t))

let test_storage_default_sink_is_disabled () =
  let s = Storage.create ~block_size:2 () in
  Alcotest.(check bool) "plain storage carries the disabled sink" false
    (Telemetry.enabled (Storage.telemetry s))

(* ---------------- histograms ---------------- *)

let test_histogram_percentiles () =
  let t = Telemetry.create () in
  Alcotest.(check bool) "enabled" true (Telemetry.enabled t);
  (* 100 samples spread over four decades of latency. *)
  let c = Telemetry.cell t ~backend:"mem" Telemetry.Read in
  for i = 1 to 100 do
    let ns = if i <= 50 then 100 else if i <= 90 then 10_000 else 1_000_000 in
    Telemetry.record c ~blocks:1 ~bytes:8 ~ns
  done;
  match Telemetry.op_stats t with
  | [ st ] ->
      let h = st.Telemetry.latency in
      Alcotest.(check int) "count" 100 (Telemetry.hist_count h);
      (* 50*100ns + 40*10us + 10*1ms = 10_405_000 ns, exactly. *)
      Alcotest.(check int64) "total is the exact sum" 10_405_000L (Telemetry.hist_total_ns h);
      let p50 = Telemetry.hist_percentile h 50. in
      let p90 = Telemetry.hist_percentile h 90. in
      let p99 = Telemetry.hist_percentile h 99. in
      Alcotest.(check bool) "p50 near 100ns bucket" true (p50 >= 64. && p50 < 256.);
      Alcotest.(check bool) "p90 near 10us bucket" true (p90 >= 8192. && p90 < 32768.);
      Alcotest.(check bool) "p99 near 1ms bucket" true (p99 >= 524288. && p99 < 2097152.);
      Alcotest.(check bool) "percentiles monotone" true (p50 <= p90 && p90 <= p99)
  | l -> Alcotest.failf "expected one op stat, got %d" (List.length l)

(* A recorder resolves its (kind, backend) cell once and then updates it
   in place: a recorded op allocates nothing, however many distinct
   pairs the sink already holds. *)
let test_cell_record_alloc_free () =
  let words_per_call pairs =
    let t = Telemetry.create () in
    List.iter (fun (op, backend) -> ignore (Telemetry.cell t ~backend op)) pairs;
    let c = Telemetry.cell t ~backend:"mem" Telemetry.Read in
    let iters = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      Telemetry.record c ~blocks:1 ~bytes:8 ~ns:100
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int iters in
    Alcotest.(check int) "every call counted" iters
      (List.fold_left (fun a (st : Telemetry.op_stat) -> a + st.count) 0 (Telemetry.op_stats t));
    w
  in
  let twelve =
    List.concat_map
      (fun backend ->
        List.map (fun op -> (op, backend)) Telemetry.[ Read; Write; Read_run; Write_run; Sync; Seal ])
      [ "mem"; "file" ]
  in
  Alcotest.(check int) "twelve distinct pairs" 12 (List.length (List.sort_uniq compare twelve));
  let one = words_per_call [ (Telemetry.Read, "mem") ] in
  let many = words_per_call twelve in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words/call at 1 pair, %.4f at 12 pairs (want 0)" one many)
    true (one < 0.01 && many < 0.01)

(* ---------------- storage instrumentation ---------------- *)

let test_storage_ops_timed () =
  let tel = Telemetry.create () in
  let s = Storage.create ~telemetry:tel ~block_size:2 () in
  Alcotest.(check string) "kind survives the shim" "mem" (Storage.backend_kind s);
  let base = Storage.alloc s 8 in
  let blk = Block.make 2 in
  blk.(0) <- Cell.item ~key:1 ~value:1 ();
  Storage.write s base blk;
  ignore (Storage.read s base);
  ignore (Storage.read_many s base 8);
  Storage.write_many s base (Array.init 8 (fun _ -> Array.copy blk));
  Storage.sync s;
  let stats = Telemetry.op_stats tel in
  let find op =
    List.find_opt (fun (st : Telemetry.op_stat) -> st.op = op && st.op_backend = "mem") stats
  in
  (* Every storage transfer — single-block included — travels through
     the backend's run API, so the timed kinds are Read_run/Write_run. *)
  (match find Telemetry.Read_run with
  | Some st ->
      Alcotest.(check int) "read runs timed (1 single + 1 batched)" 2 st.Telemetry.count;
      Alcotest.(check int) "read_run blocks" 9 st.Telemetry.op_blocks;
      Alcotest.(check bool) "read_run bytes" true (st.Telemetry.op_bytes > 0)
  | None -> Alcotest.fail "no Read_run stat");
  (match find Telemetry.Write_run with
  (* alloc's zero-init also travels as write runs, so >= 3 runs here. *)
  | Some st -> Alcotest.(check bool) "write runs timed" true (st.Telemetry.count >= 3)
  | None -> Alcotest.fail "no Write_run stat");
  (match find Telemetry.Sync with
  | Some st -> Alcotest.(check int) "sync timed" 1 st.Telemetry.count
  | None -> Alcotest.fail "no Sync stat");
  List.iter
    (fun (st : Telemetry.op_stat) ->
      Alcotest.(check int)
        ("hist count matches op count for " ^ Telemetry.op_kind_name st.op)
        st.Telemetry.count
        (Telemetry.hist_count st.Telemetry.latency))
    stats

(* A checkpoint commits the journal behind the instrumented backend, so
   Storage times it itself, into the journaled backend's sync cell: one
   [sync] and two checkpoint commits are three timed syncs. *)
let test_checkpoint_commits_timed () =
  let sp = Filename.temp_file "odex_tel" ".store" and jp = Filename.temp_file "odex_tel" ".journal" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ sp; jp ]) @@ fun () ->
  let tel = Telemetry.create () in
  let backend =
    Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
  in
  let s = Storage.create ~telemetry:tel ~backend ~block_size:2 () in
  Storage.write s (Storage.alloc s 4) (Block.make 2);
  Storage.sync s;
  Storage.checkpoint s ~owner:"tel" ~phase:1 ~cursor:0;
  Storage.checkpoint_clear s ~owner:"tel";
  let syncs =
    List.filter_map
      (fun (st : Telemetry.op_stat) ->
        if st.op = Telemetry.Sync then Some (st.op_backend, st.count) else None)
      (Telemetry.op_stats tel)
  in
  Alcotest.(check (list (pair string int))) "journaled syncs timed" [ ("journaled", 3) ] syncs;
  Storage.close s

let test_phase_attribution () =
  let tel = Telemetry.create () in
  let s = Storage.create ~telemetry:tel ~block_size:2 () in
  let payload = 8 + Block.encoded_size 2 in
  let base = Storage.alloc s 4 in
  Storage.with_span s "outer" (fun () ->
      ignore (Storage.read s base);
      Storage.with_span s "inner" (fun () -> ignore (Storage.read_many s base 4)));
  (match Telemetry.phases tel with
  | [ inner; outer ] ->
      (* Completion order: inner closes first. *)
      Alcotest.(check string) "inner label" "inner" inner.Telemetry.label;
      Alcotest.(check int) "inner depth" 1 inner.Telemetry.depth;
      Alcotest.(check int) "inner ios" 4 inner.Telemetry.ios;
      Alcotest.(check int) "inner bytes" (4 * payload) inner.Telemetry.bytes;
      Alcotest.(check string) "outer label" "outer" outer.Telemetry.label;
      (* Innermost attribution: the outer phase keeps only its own read. *)
      Alcotest.(check int) "outer ios" 1 outer.Telemetry.ios;
      Alcotest.(check bool) "durations nest" true
        (outer.Telemetry.dur_ns >= inner.Telemetry.dur_ns)
  | l -> Alcotest.failf "expected 2 phases, got %d" (List.length l));
  match Telemetry.phase_stats tel with
  | [ a; b ] ->
      Alcotest.(check (list string)) "phase stats sorted by label" [ "inner"; "outer" ]
        [ a.Telemetry.phase_label; b.Telemetry.phase_label ]
  | l -> Alcotest.failf "expected 2 phase stats, got %d" (List.length l)

let test_retry_and_fault_attribution () =
  let tel = Telemetry.create () in
  let backend =
    Storage.Faulty { inner = Storage.Mem; seed = 3; failure_rate = 1.0; max_burst = 1 }
  in
  let s =
    Storage.create ~telemetry:tel ~backend ~backoff:(0., 0.) ~trace_mode:Trace.Digest
      ~block_size:2 ()
  in
  Alcotest.(check string) "kind is the device's, not the shim's" "faulty"
    (Storage.backend_kind s);
  let base = Storage.alloc s 2 in
  Storage.with_span s "probe" (fun () -> ignore (Storage.read_many s base 2));
  match Telemetry.phases tel with
  | [ p ] ->
      Alcotest.(check string) "phase label" "probe" p.Telemetry.label;
      Alcotest.(check int) "ios" 2 p.Telemetry.ios;
      Alcotest.(check int) "one retry per access" 2 p.Telemetry.retries;
      Alcotest.(check int) "faults" 2 p.Telemetry.faults
  | l -> Alcotest.failf "expected 1 phase, got %d" (List.length l)

(* ---------------- one ledger ---------------- *)

(* The sink counts nothing itself: a phase's numbers are differences of
   the stores' Stats. Over one root phase the phases must therefore add
   up to exactly the Stats deltas — whatever nests, raises, retries or
   moves as a flat run inside. [retried]: the store's own retry loop sees faults (a
   journal over a faulty device absorbs them). *)
let ledger_identity ~retried make_spec () =
  let spec = make_spec () in
  let tel = Telemetry.create () in
  let s = Storage.create ~telemetry:tel ~backend:spec ~backoff:(0., 0.) ~block_size:2 () in
  Fun.protect
    ~finally:(fun () ->
      Storage.close s;
      Storage.remove_spec_files spec)
    (fun () ->
      let base = Storage.alloc s 8 in
      let st = Storage.stats s in
      let run = Flat.create ~block_size:2 ~blocks:4 in
      let before = Stats.snapshot st in
      Storage.with_span s "root" (fun () ->
          ignore (Storage.read s base);
          Storage.with_span s "load" (fun () ->
              Storage.read_flat s base 4 run;
              Storage.with_span s "scan" (fun () -> ignore (Storage.read_many s (base + 4) 4)));
          (try
             Storage.with_span s "doomed" (fun () ->
                 Storage.write s (base + 7) (Storage.read s (base + 6));
                 failwith "boom")
           with Failure _ -> ());
          Storage.with_span s "idle" (fun () -> ()));
      let after = Stats.snapshot st in
      let phases = Telemetry.phases tel in
      Alcotest.(check (list string)) "phases in completion order"
        [ "scan"; "load"; "doomed"; "idle"; "root" ]
        (List.map (fun (p : Telemetry.phase) -> p.label) phases);
      let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
      let delta f = f after - f before in
      Alcotest.(check int) "ios" (delta (fun (x : Stats.snapshot) -> x.reads + x.writes))
        (sum (fun p -> p.ios));
      Alcotest.(check int) "retries" (delta (fun x -> x.retries)) (sum (fun p -> p.retries));
      Alcotest.(check int) "faults" (delta (fun x -> x.faults)) (sum (fun p -> p.faults));
      Alcotest.(check int) "bytes" (delta (fun x -> x.bytes_moved)) (sum (fun p -> p.bytes));
      Alcotest.(check bool) "the root phase did I/O" true (sum (fun p -> p.ios) > 0);
      Alcotest.(check bool) "the store's retry loop saw faults" retried
        (delta (fun x -> x.retries) > 0 && delta (fun x -> x.faults) > 0);
      (* A journal retries its own faults, which only the backend counts. *)
      Alcotest.(check bool) "ledger faults never exceed the injected ones" true
        (after.faults <= Storage.faults_injected s);
      Alcotest.(check int) "the raising phase kept its read and write" 2
        (List.find (fun (p : Telemetry.phase) -> p.label = "doomed") phases).ios)

let ledger_specs =
  let faulty inner = Storage.Faulty { inner; seed = 3; failure_rate = 1.0; max_burst = 1 } in
  [
    ("mem", false, fun () -> Storage.Mem);
    ("faulty", true, fun () -> faulty Storage.Mem);
    ("stripe K=2", false, fun () -> Storage.Sharded { inner = Storage.Mem; shards = 2; seed = 0x5A4D });
    ( "journaled over faulty",
      false,
      fun () ->
        let path = Filename.temp_file "odex_tel" ".journal" in
        Sys.remove path;
        Storage.Journaled { inner = faulty Storage.Mem; path; durable = false } );
  ]

(* The suite wraps each op in a phase the sink opens itself, with no
   span behind it; stores may even be created while it is open. Its
   numbers are still what happened while it was innermost. *)
let test_bare_sink_phase () =
  let tel = Telemetry.create () in
  let s = Storage.create ~telemetry:tel ~block_size:2 () in
  let base = Storage.alloc s 4 in
  Telemetry.with_phase tel "bench.op" (fun () ->
      ignore (Storage.read s base);
      Storage.with_span s "kid" (fun () -> ignore (Storage.read_many s base 4));
      let late = Storage.create ~telemetry:tel ~block_size:2 () in
      ignore (Storage.read late (Storage.alloc late 1)));
  Telemetry.with_phase tel "bench.check" (fun () -> ());
  match Telemetry.phases tel with
  | [ kid; op; check ] ->
      Alcotest.(check (pair string int)) "kid" ("kid", 4) (kid.label, kid.ios);
      Alcotest.(check int) "kid depth" 1 kid.depth;
      Alcotest.(check (pair string int))
        "op keeps its own reads" ("bench.op", 2) (op.label, op.ios);
      Alcotest.(check int) "op depth" 0 op.depth;
      Alcotest.(check int) "an empty phase counts nothing" 0 check.ios
  | l -> Alcotest.failf "expected 3 phases, got %d" (List.length l)

(* ---------------- obliviousness ---------------- *)

(* The central safety property: enabling telemetry must not change one
   op of the trace. Run A of each pair is instrumented, run B is not —
   [oblivious = true] is exactly "profiled trace == unprofiled trace". *)
let sort_subject =
  {
    Odex_obcheck.Pairtest.name = "sort-under-telemetry";
    run = (fun ~rng ~m _s a -> ignore (Odex.Sort.run ~m ~rng a));
  }

let check_invisible backend =
  let o =
    Odex_obcheck.Pairtest.check ~backend ~telemetry:(Telemetry.create ()) sort_subject
      ~n_cells:96 ~b:4 ~m:16
  in
  Alcotest.(check bool)
    (Printf.sprintf "telemetry-on trace == telemetry-off trace on %s"
       o.Odex_obcheck.Pairtest.backend)
    true o.Odex_obcheck.Pairtest.oblivious

let test_telemetry_invisible_mem () = check_invisible Storage.Mem

let test_telemetry_invisible_file () =
  let path = Filename.temp_file "odex_tel" ".store" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> check_invisible (Storage.File { path }))

let test_telemetry_invisible_faulty () =
  check_invisible
    (Storage.Faulty { inner = Storage.Mem; seed = 11; failure_rate = 0.1; max_burst = 2 })

(* ---------------- exports ---------------- *)

let test_exports () =
  let tel = Telemetry.create () in
  let s = Storage.create ~telemetry:tel ~block_size:2 () in
  let base = Storage.alloc s 4 in
  Storage.with_span s "export \"phase\"" (fun () ->
      ignore (Storage.read_many s base 4));
  let summary = Format.asprintf "%a" Telemetry.pp_summary tel in
  Alcotest.(check bool) "summary names the op" true (Util.contains summary "read_run[mem]");
  Alcotest.(check bool) "summary names the phase" true (Util.contains summary "export");
  let path = Filename.temp_file "odex_tel" ".json" in
  let json =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Telemetry.write_chrome ~path [ ("run", tel) ];
        Util.read_file path)
  in
  Alcotest.(check bool) "traceEvents present" true (Util.contains json "\"traceEvents\"");
  Alcotest.(check bool) "phase event present" true (Util.contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "thread named" true (Util.contains json "thread_name");
  Alcotest.(check bool) "quotes escaped" true (Util.contains json "export \\\"phase\\\"");
  let empty = Format.asprintf "%a" Telemetry.pp_summary Telemetry.disabled in
  Alcotest.(check bool) "disabled sink prints a note" true (String.length empty > 0)

let suite =
  [
    ("disabled sink is a no-op", `Quick, test_disabled_sink_is_noop);
    ("storage default sink is disabled", `Quick, test_storage_default_sink_is_disabled);
    ("histogram percentiles", `Quick, test_histogram_percentiles);
    ("op cell record allocation-free", `Quick, test_cell_record_alloc_free);
    ("backend ops are timed", `Quick, test_storage_ops_timed);
    ("checkpoint commits are timed", `Quick, test_checkpoint_commits_timed);
    ("phase counter attribution", `Quick, test_phase_attribution);
    ("retries and faults attributed", `Quick, test_retry_and_fault_attribution);
    ("bare-sink phase attribution", `Quick, test_bare_sink_phase);
    ("telemetry invisible to the adversary (mem)", `Quick, test_telemetry_invisible_mem);
    ("telemetry invisible to the adversary (file)", `Quick, test_telemetry_invisible_file);
    ("telemetry invisible to the adversary (faulty)", `Quick, test_telemetry_invisible_faulty);
    ("summary and chrome exports", `Quick, test_exports);
  ]
  @ List.map
      (fun (name, retried, spec) ->
        ("ledger identity on " ^ name, `Quick, ledger_identity ~retried spec))
      ledger_specs
