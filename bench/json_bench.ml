(* Machine-readable counterpart of the E-series tables: each entry
   re-runs a core workload with trace digests on and appends one JSON
   record per run to BENCH_core.json (overwritten each invocation).

   Usage: main.exe --json                    — every entry
          main.exe --json E2 E9              — selected experiments only
          main.exe --json E2 --backend faulty — run on another backend
                                               (mem | file | faulty)
          main.exe --json E2 --shards 4       — stripe every store across
                                               4 shards
          main.exe --json E18 --servers 2     — size the multi-server
                                               compaction leg's stripe
                                               (non-colluding servers)
          main.exe --json E2 --journal        — run each entry twice,
                                               journal off then on, so
                                               the WAL overhead lands in
                                               the same file
          main.exe --json E2 --cipher chacha20 — seal every workload
                                               store under ChaCha20
                                               (none | chacha20);
                                               records carry the engine
                                               in "cipher"
          main.exe --json E16                 — the seal/unseal
                                               throughput microbench
                                               (records fill
                                               "seal_mb_per_s")
          main.exe --json E2 --profile p.json — also collect telemetry:
                                               per-phase latency
                                               percentiles land in the
                                               records and a Chrome
                                               trace-event file at the
                                               given path *)

open Odex_extmem
module Telemetry = Odex_telemetry.Telemetry

type phase_row = {
  ph_label : string;
  ph_count : int;
  ph_total_ms : float;
  ph_p50_us : float;
  ph_p90_us : float;
  ph_p99_us : float;
}

type record = {
  experiment : string;
  name : string;
  sorter : string;  (* "" unless the entry sweeps sorting engines (E15) *)
  backend : string;
  shards : int;
  servers : int;  (* non-colluding servers of a multi-server protocol; 1 otherwise *)
  journal : bool;
  cipher : string;  (* "none", or the engine sealing this run's stores *)
  n_cells : int;
  b : int;
  m : int;
  reads : int;
  writes : int;
  total_ios : int;
  retries : int;
  trace_length : int;
  spans : int;
  wall_ms : float;
  bytes_moved : int;
  batched_ios : int;
  mb_per_s : float;
  seal_mb_per_s : float;  (* cipher keystream throughput; 0 unless measured (E16) *)
  ok : bool;
  phases : phase_row list;  (* empty unless profiling *)
}

(* Throughput over the sealed payloads actually transferred by counted
   I/Os: MB (10^6 bytes) per wall-clock second. 0 when nothing moved or
   the clock read 0. *)
let throughput ~bytes_moved ~wall_ms =
  if bytes_moved = 0 || wall_ms <= 0. then 0.
  else Float.of_int bytes_moved /. 1e6 /. (wall_ms /. 1e3)

(* Backend selection for the whole JSON run (`--backend mem|file|faulty`);
   storages made through Workloads pick it up via [default_backend], and
   the entries that build their own storage consult it directly. *)
let current_backend = ref "mem"

(* `--shards K` for the whole JSON run; every record carries it so a
   sweep over K lands in one comparable file. *)
let current_shards = ref 1

(* `--journal` runs every selected entry twice — journal off, then on —
   so BENCH_core.json carries the overhead comparison in one file. The
   journal-on records report backend "journaled" (the decorator's kind),
   keeping `"backend":"file"` floor checks scoped to the bare store. *)
let current_journal = ref false

(* `--sorter NAME` narrows E15's engine sweep to one sorter (CI runs one
   matrix leg per engine); the default sweeps all three head-to-head. *)
let current_sorter : string option ref = ref None

(* `--servers K` sets the stripe width of E18's multi-server leg (the
   non-colluding server count the two-server protocol splits its
   schedule across); the single-server baseline leg ignores it. *)
let current_servers = ref 2

(* `--cipher NAME` (none | chacha20) seals every workload store under
   ChaCha20 with a fixed benchmark key; every record names it. *)
let current_cipher = ref "none"

let fresh_spec () =
  Odex_obcheck.Registry.backend_spec ~shards:!current_shards ~journal:!current_journal
    !current_backend

(* `--profile PATH` flips this on: workload storages get live sinks (via
   the [Workloads.telemetry] factory), each collected run's sink is kept
   here under its experiment label, and the lot is written as one Chrome
   trace at the end. *)
let profiling = ref false
let profiled : (string * Telemetry.t) list ref = ref []

let phase_rows tel =
  List.map
    (fun (ps : Telemetry.phase_stat) ->
      let h = ps.phase_latency in
      {
        ph_label = ps.phase_label;
        ph_count = ps.phase_count;
        ph_total_ms = Int64.to_float (Telemetry.hist_total_ns h) /. 1e6;
        ph_p50_us = Telemetry.hist_percentile h 50. /. 1e3;
        ph_p90_us = Telemetry.hist_percentile h 90. /. 1e3;
        ph_p99_us = Telemetry.hist_percentile h 99. /. 1e3;
      })
    (Telemetry.phase_stats tel)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

(* Run [f] (returning its success flag) against [s] and harvest the
   storage counters afterwards, then release the backend. *)
let collect ?(sorter = "") ?(servers = 1) ~experiment ~name ~n_cells ~b ~m s f =
  let tel = Storage.telemetry s in
  (* Zero-cost-when-disabled guard: unless `--profile` was given, every
     benched storage must carry the shared no-op sink — anything else
     means instrumentation leaked into the timed path. *)
  if not !profiling then assert (not (Telemetry.enabled tel));
  let ok, wall_ms = timed f in
  if Telemetry.enabled tel then
    profiled := (Printf.sprintf "%s/%s" experiment name, tel) :: !profiled;
  let tr = Storage.trace s in
  let r =
    {
      experiment;
      name;
      sorter;
      backend = Storage.backend_kind s;
      shards = !current_shards;
      servers;
      journal = !current_journal;
      n_cells;
      b;
      m;
      cipher = !current_cipher;
      reads = Stats.reads (Storage.stats s);
      writes = Stats.writes (Storage.stats s);
      total_ios = Stats.total (Storage.stats s);
      retries = Stats.retries (Storage.stats s);
      trace_length = Trace.length tr;
      spans = List.length (Trace.spans tr);
      wall_ms;
      bytes_moved = Stats.bytes_moved (Storage.stats s);
      batched_ios = Stats.batched_ios (Storage.stats s);
      mb_per_s = throughput ~bytes_moved:(Stats.bytes_moved (Storage.stats s)) ~wall_ms;
      seal_mb_per_s = 0.;
      ok;
      phases = (if Telemetry.enabled tel then phase_rows tel else []);
    }
  in
  Storage.close s;
  r

let uniform ~seed ~b ~n =
  let rng = Odex_crypto.Rng.create ~seed in
  let s, a = Workloads.array ~trace:Trace.Digest ~rng ~b ~n Workloads.Uniform in
  (s, a, rng)

(* One entry per measurable E-series experiment; ids match the tables
   printed by [Experiments.all] so `--json E5` instruments the same
   algorithm E5's table describes. *)

let e2 () =
  List.map
    (fun n ->
      let s, a, _ = uniform ~seed:2 ~b:8 ~n in
      collect ~experiment:"E2" ~name:"consolidation" ~n_cells:n ~b:8 ~m:2 s (fun () ->
          ignore (Odex.Consolidation.run ~into:None a);
          true))
    [ 4096; 16384 ]

let e4 () =
  let b = 8 and n = 1024 and m = 64 in
  let s, a = Workloads.consolidated_blocks ~trace:Trace.Digest ~b ~n ~occupied:300 () in
  [
    collect ~experiment:"E4" ~name:"butterfly-compact" ~n_cells:(n * b) ~b ~m s (fun () ->
        ignore (Odex.Butterfly.compact ~m a);
        true);
  ]

let e5 () =
  let b = 8 and n = 2048 and m = 64 in
  let s, a = Workloads.consolidated_blocks ~trace:Trace.Digest ~b ~n ~occupied:256 () in
  let rng = Odex_crypto.Rng.create ~seed:5 in
  [
    collect ~experiment:"E5" ~name:"loose-compaction" ~n_cells:(n * b) ~b ~m s (fun () ->
        (Odex.Loose_compaction.run ~m ~rng ~capacity:512 a).Odex.Loose_compaction.ok);
  ]

let e6 () =
  let b = 8 and n = 1024 and m = 64 in
  let s, a = Workloads.consolidated_blocks ~trace:Trace.Digest ~b ~n ~occupied:128 () in
  let rng = Odex_crypto.Rng.create ~seed:6 in
  [
    collect ~experiment:"E6" ~name:"logstar-compaction" ~n_cells:(n * b) ~b ~m s (fun () ->
        (Odex.Logstar_compaction.run ~m ~rng ~capacity:128 a).Odex.Logstar_compaction.ok);
  ]

let e7 () =
  let b = 8 and n = 8192 and m = 64 in
  let s, a, rng = uniform ~seed:7 ~b ~n in
  [
    collect ~experiment:"E7" ~name:"selection" ~n_cells:n ~b ~m s (fun () ->
        (Odex.Selection.select ~m ~rng ~k:(n / 2) a).Odex.Selection.ok);
  ]

let e8 () =
  let b = 8 and n = 8192 and m = 64 in
  let s, a, rng = uniform ~seed:8 ~b ~n in
  [
    collect ~experiment:"E8" ~name:"quantiles-q4" ~n_cells:n ~b ~m s (fun () ->
        (Odex.Quantiles.run ~m ~rng ~q:4 a).Odex.Quantiles.ok);
  ]

let e9 () =
  let b = 8 and n = 8192 and m = 64 in
  let s, a, rng = uniform ~seed:9 ~b ~n in
  [
    collect ~experiment:"E9" ~name:"sort-thm21" ~n_cells:n ~b ~m s (fun () ->
        (Odex.Sort.run ~sweep:false ~m ~rng a).Odex.Sort.ok);
  ]

let e10 () =
  let words = 1024 and m = 64 in
  let s =
    Storage.create ~telemetry:(!Workloads.telemetry ()) ~trace_mode:Trace.Digest
      ~backend:(fresh_spec ()) ~block_size:4 ()
  in
  let rng = Odex_crypto.Rng.create ~seed:10 in
  [
    collect ~experiment:"E10" ~name:"hier-oram-64-accesses" ~n_cells:words ~b:4 ~m s (fun () ->
        let t = Odex_oram.Hierarchical_oram.init ~m ~rng s ~values:(Array.make words 0) in
        for i = 1 to 64 do
          ignore (Odex_oram.Hierarchical_oram.read t (i mod words))
        done;
        true);
  ]

(* E11's table is the obliviousness audit; the JSON form re-runs the
   obcheck pair tests and reports run A's counters plus the verdict. *)
let e11 () =
  List.map
    (fun (e : Odex_obcheck.Registry.entry) ->
      let spec = fresh_spec () in
      let (o : Odex_obcheck.Pairtest.outcome), wall_ms =
        timed (fun () ->
            Odex_obcheck.Pairtest.check ~backend:spec
              ~pair:(Odex_obcheck.Registry.pair_mode e)
              ~multi_server:(Odex_obcheck.Registry.multi_server e) e.subject
              ~n_cells:e.n_cells ~b:e.b ~m:e.m)
      in
      Storage.remove_spec_files spec;
      let a = o.run_a in
      {
        experiment = "E11";
        name = "pair-" ^ e.subject.Odex_obcheck.Pairtest.name;
        sorter = "";
        backend = o.Odex_obcheck.Pairtest.backend;
        shards = !current_shards;
        servers = 1;
        journal = !current_journal;
        cipher = !current_cipher;
        n_cells = e.n_cells;
        b = e.b;
        m = e.m;
        reads = a.Odex_obcheck.Pairtest.reads;
        writes = a.Odex_obcheck.Pairtest.writes;
        total_ios = a.Odex_obcheck.Pairtest.reads + a.Odex_obcheck.Pairtest.writes;
        retries = a.Odex_obcheck.Pairtest.retries;
        trace_length = a.Odex_obcheck.Pairtest.trace_length;
        spans = a.Odex_obcheck.Pairtest.span_count;
        wall_ms;
        bytes_moved = a.Odex_obcheck.Pairtest.bytes_moved;
        batched_ios = a.Odex_obcheck.Pairtest.batched_ios;
        mb_per_s = throughput ~bytes_moved:a.Odex_obcheck.Pairtest.bytes_moved ~wall_ms;
        seal_mb_per_s = 0.;
        ok = o.oblivious;
        (* Pair runs build their own storages; the profile covers the
           workload entries, not the audit. *)
        phases = [];
      })
    Odex_obcheck.Registry.all

(* E15: sorting-engine head-to-head. The same uniform workload through
   each registered out-of-core sorter (Batcher's bitonic network,
   columnsort, bucket oblivious sort), so the record file carries the
   crossover data EXPERIMENTS.md summarises. Every record names its
   engine in the [sorter] field; the floor check keys on it. m = 128
   keeps the default-Z bucket geometry feasible (4*zb + 2 = 114 blocks
   at B = 8) — at m = 64 the bucket engine would publicly fall back to
   the windowed bitonic network and the record would mislabel it. *)
let e15 () =
  let b = 8 and m = 128 in
  (* Uncounted sortedness sweep: unchecked peeks keep the verification
     out of the benched I/O counters and trace. *)
  let sorted a =
    let s = Ext_array.storage a in
    let prev = ref None and ok = ref true in
    for i = 0 to Ext_array.blocks a - 1 do
      List.iter
        (fun (it : Cell.item) ->
          (match !prev with Some p when p > it.key -> ok := false | _ -> ());
          prev := Some it.key)
        (Block.items (Storage.unchecked_peek s (Ext_array.addr a i)))
    done;
    !ok
  in
  (* Columnsort's single-level geometry caps N at ~M^{3/2}; sizes past
     the cap are skipped for that engine rather than recorded as
     failures (the cap is public geometry, not a sorting defect). *)
  let feasible name n =
    name <> "columnsort" || Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m <> None
  in
  List.concat_map
    (fun name ->
      List.filter_map
        (fun n ->
          if not (feasible name n) then None
          else begin
            let s, a, _ = uniform ~seed:13 ~b ~n in
            let eng = Option.get (Odex_sortnet.Ext_sort.find name) in
            Some
              (collect ~sorter:name ~experiment:"E15"
                 ~name:(Printf.sprintf "sort-%s-%d" name n)
                 ~n_cells:n ~b ~m s
                 (fun () ->
                   match Odex_sortnet.Ext_sort.run eng ~m a with
                   | () -> sorted a
                   | exception Odex_sortnet.Bucket_sort.Overflow _ -> false))
          end)
        (* 1280 cells = 160 blocks is the smallest out-of-core point at
           m = 128: it brackets the engines' crossover from below. *)
        [ 1280; 2048; 8192; 32768; 131072 ])
    (match !current_sorter with
    | Some name -> [ name ]
    | None -> [ "batcher"; "columnsort"; "bucket" ])

(* E16: seal/unseal throughput microbench. One record, for ChaCha20:
   a mem-backed store (so the device is not the bottleneck) streams runs
   through write_many/read_many while a private live telemetry sink
   times the Seal/Unseal ops Storage reports under the "cipher" pseudo
   backend. [seal_mb_per_s] is keystream throughput — plaintext bytes
   per second of in-cipher wall time — the number a keystream change
   actually moves; [mb_per_s] stays the end-to-end transfer rate. This
   entry builds its record directly (its sink is always live, which
   [collect]'s zero-cost-when-disabled guard would reject). *)
let e16 () =
  let b = 8 and run_blocks = 256 and rounds = 24 in
  let engine = Odex_crypto.Cipher.(engine_name Chacha20) in
  let tel = Telemetry.create () in
  let s =
    Storage.create ~cipher:(Odex_crypto.Cipher.key_of_int 0x5ea1) ~telemetry:tel
      ~trace_mode:Trace.Digest ~backend:Storage.Mem ~block_size:b ()
  in
  let base = Storage.alloc s run_blocks in
  let blks =
    Array.init run_blocks (fun i ->
        let blk = Block.make b in
        for j = 0 to b - 1 do
          blk.(j) <- Cell.item ~tag:j ~key:((i * b) + j) ~value:i ()
        done;
        blk)
  in
  let ok, wall_ms =
    timed (fun () ->
        for _ = 1 to rounds do
          Storage.write_many s base blks;
          ignore (Storage.read_many s base run_blocks)
        done;
        true)
  in
  (* Keystream throughput from the cipher pseudo-backend's op rows:
     plaintext bytes over in-cipher nanoseconds, both seal and
     unseal legs pooled. *)
  let cipher_bytes, cipher_ns =
    List.fold_left
      (fun (bts, ns) (st : Telemetry.op_stat) ->
        match st.op with
        | Telemetry.Seal | Telemetry.Unseal when st.op_backend = "cipher" ->
            (bts + st.op_bytes, Int64.add ns (Telemetry.hist_total_ns st.latency))
        | _ -> (bts, ns))
      (0, 0L) (Telemetry.op_stats tel)
  in
  let seal_mb_per_s =
    if cipher_bytes = 0 || cipher_ns = 0L then 0.
    else Float.of_int cipher_bytes /. 1e6 /. (Int64.to_float cipher_ns /. 1e9)
  in
  let bytes_moved = Stats.bytes_moved (Storage.stats s) in
  let r =
    {
      experiment = "E16";
      name = "seal-roundtrip-" ^ engine;
      sorter = "";
      backend = Storage.backend_kind s;
      shards = 1;
      servers = 1;
      journal = false;
      cipher = engine;
      n_cells = run_blocks * b;
      b;
      m = 2;
      reads = Stats.reads (Storage.stats s);
      writes = Stats.writes (Storage.stats s);
      total_ios = Stats.total (Storage.stats s);
      retries = Stats.retries (Storage.stats s);
      trace_length = Trace.length (Storage.trace s);
      spans = List.length (Trace.spans (Storage.trace s));
      wall_ms;
      bytes_moved;
      batched_ios = Stats.batched_ios (Storage.stats s);
      mb_per_s = throughput ~bytes_moved ~wall_ms;
      seal_mb_per_s;
      ok;
      phases = [];
    }
  in
  Storage.close s;
  [ r ]

(* E18: the multi-server model exploit, head to head. The same
   compaction workload at equal (N, B, M), measured twice: the classical
   single-server tight compaction on the selected backend, then the
   two-server protocol on a K-stripe of it (K from `--servers`, default
   2). The protocol's whole point is that splitting the schedule across
   non-colluding servers buys strictly fewer I/Os — 3(N/B) + 3cap
   against the butterfly's 2(N/B)(1 + phases) — so the two records in
   BENCH_core.json must show [total_ios] strictly below the baseline. *)
let e18 () =
  let b = 8 and m = 64 and n_blocks = 1024 in
  let n_cells = n_blocks * b in
  (* One third occupied against a half-capacity target: the butterfly's
     cost is fixed by shape (2(N/B)(1 + phases), capacity-blind), while
     the two-server schedule scales with the target — 3(N/B) + 3cap. At
     m = 64 the butterfly needs 2 phases, so the margin is 6144 vs 4608. *)
  let capacity = n_blocks / 2 in
  let cells =
    Array.init n_cells (fun idx ->
        if idx / b mod 3 = 0 then Cell.item ~key:idx ~value:idx () else Cell.empty)
  in
  let mk spec =
    Storage.create ~telemetry:(!Workloads.telemetry ()) ~trace_mode:Trace.Digest
      ~backend:spec ~block_size:b ()
  in
  let single =
    let spec = fresh_spec () in
    let s = mk spec in
    let a = Ext_array.of_cells s ~block_size:b cells in
    let r =
      collect ~experiment:"E18" ~name:"tight-compaction-1server" ~n_cells ~b ~m s
        (fun () -> (Odex.Compaction.tight ~m ~capacity_blocks:capacity a).Odex.Compaction.ok)
    in
    Storage.remove_spec_files spec;
    r
  in
  let k = max 2 !current_servers in
  let multi =
    let spec =
      Odex_obcheck.Registry.backend_spec ~shards:k ~journal:!current_journal
        !current_backend
    in
    let s = mk spec in
    let a = Ext_array.of_cells s ~block_size:b cells in
    let r =
      collect ~servers:k ~experiment:"E18"
        ~name:(Printf.sprintf "tight-compaction-%dserver" k)
        ~n_cells ~b ~m s
        (fun () ->
          (Odex.Twoserver_compaction.run ~m ~capacity_blocks:capacity a)
            .Odex.Twoserver_compaction.ok)
    in
    Storage.remove_spec_files spec;
    r
  in
  if multi.total_ios >= single.total_ios then
    Printf.eprintf
      "warning: E18 two-server compaction (%d I/Os) not below single-server (%d I/Os)\n"
      multi.total_ios single.total_ios;
  [ single; multi ]

let entries =
  [
    ("E2", e2); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7); ("E8", e8);
    ("E9", e9); ("E10", e10); ("E11", e11); ("E15", e15); ("E16", e16); ("E18", e18);
  ]

let json_of_phase p =
  Printf.sprintf
    "{\"label\":%S,\"count\":%d,\"total_ms\":%.3f,\"p50_us\":%.2f,\"p90_us\":%.2f,\"p99_us\":%.2f}"
    p.ph_label p.ph_count p.ph_total_ms p.ph_p50_us p.ph_p90_us p.ph_p99_us

let json_of_record r =
  Printf.sprintf
    "{\"experiment\":%S,\"name\":%S,\"sorter\":%S,\"backend\":%S,\"shards\":%d,\"servers\":%d,\"journal\":%b,\"cipher\":%S,\"n_cells\":%d,\"b\":%d,\"m\":%d,\"reads\":%d,\"writes\":%d,\"total_ios\":%d,\"retries\":%d,\"trace_length\":%d,\"spans\":%d,\"wall_ms\":%.3f,\"bytes_moved\":%d,\"batched_ios\":%d,\"mb_per_s\":%.3f,\"seal_mb_per_s\":%.3f,\"ok\":%b,\"phases\":[%s]}"
    r.experiment r.name r.sorter r.backend r.shards r.servers r.journal r.cipher r.n_cells
    r.b r.m r.reads r.writes r.total_ios r.retries r.trace_length r.spans r.wall_ms
    r.bytes_moved r.batched_ios r.mb_per_s r.seal_mb_per_s r.ok
    (String.concat "," (List.map json_of_phase r.phases))

let run ?(backend = "mem") ?(shards = 1) ?(servers = 2) ?(journal = false)
    ?(cipher = "none") ?sorter ?profile ids =
  if not (List.mem backend Odex_obcheck.Registry.backend_names) then begin
    Printf.eprintf "unknown backend %S (available: %s)\n" backend
      (String.concat " " Odex_obcheck.Registry.backend_names);
    exit 2
  end;
  (match sorter with
  | Some name when Odex_sortnet.Ext_sort.find name = None ->
      Printf.eprintf
        "unknown sorter %S (available: batcher columnsort bucket bitonic bitonic-windowed \
         cache auto)\n"
        name;
      exit 2
  | _ -> current_sorter := sorter);
  if shards < 1 then begin
    Printf.eprintf "--shards must be >= 1 (got %d)\n" shards;
    exit 2
  end;
  if servers < 2 then begin
    Printf.eprintf "--servers must be >= 2 (got %d)\n" servers;
    exit 2
  end;
  current_servers := servers;
  (match cipher with
  | "none" -> ()
  | "chacha20" ->
      (* A fixed benchmark key: sealing overhead is what's measured, not
         key management. *)
      Workloads.cipher := Some (Odex_crypto.Cipher.key_of_int 0x0dec)
  | other ->
      Printf.eprintf "unknown cipher %S (available: none chacha20)\n" other;
      exit 2);
  current_cipher := cipher;
  current_backend := backend;
  current_shards := shards;
  Workloads.default_backend := fresh_spec;
  (match profile with
  | None -> ()
  | Some _ ->
      profiling := true;
      Workloads.telemetry := Telemetry.create);
  List.iter
    (fun id ->
      if not (List.mem_assoc id entries) then
        Printf.eprintf "warning: no JSON entry for %s (available: %s)\n" id
          (String.concat " " (List.map fst entries)))
    ids;
  let want id = ids = [] || List.mem id ids in
  let pass jrnl =
    current_journal := jrnl;
    List.concat_map (fun (id, f) -> if want id then f () else []) entries
  in
  (* With --journal, the baseline pass runs first so the floor-checked
     bare-backend records are unchanged; the journal-on pass appends its
     own records (backend "journaled") for the overhead comparison. *)
  let records = if journal then pass false @ pass true else pass false in
  Workloads.cleanup ();
  (match profile with
  | None -> ()
  | Some path ->
      Telemetry.write_chrome ~path (List.rev !profiled);
      Printf.printf "wrote %s (%d profiled runs, Chrome trace-event JSON)\n" path
        (List.length !profiled));
  let oc = open_out "BENCH_core.json" in
  output_string oc "{\n  \"schema\": \"odex-bench/10\",\n  \"records\": [\n";
  List.iteri
    (fun i r ->
      output_string oc "    ";
      output_string oc (json_of_record r);
      if i < List.length records - 1 then output_string oc ",";
      output_string oc "\n")
    records;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_core.json (%d records)\n" (List.length records)
