(* Experiment harness: one section per experiment in DESIGN.md's index
   (E1–E17) plus Bechamel wall-clock micro-benches for the headline
   operations.

   Usage: main.exe            — run everything
          main.exe E9 E10     — run selected experiments
          main.exe time       — wall-clock benches only
          main.exe --json     — machine-readable metrics -> BENCH_core.json
          main.exe --json E2  — ditto, selected experiments only
          main.exe --json E2 --profile p.json
                              — ditto, plus telemetry: per-phase latency
                                percentiles in the records and a Chrome
                                trace-event JSON at the given path

   `--backend mem|file|faulty` (anywhere on the line) picks the storage
   backend for every workload-created store: `file` spills blocks to
   per-store temp files, `faulty` injects deterministic transient
   faults (fixed seed) whose retries show up in the trace lengths and
   the JSON `retries` field.

   `--shards K` stripes every workload store across K inner devices
   (PRP fan-out; see DESIGN.md §9) — a physical-only knob whose logical
   trace stays bit-identical to the plain run.

   `--journal` (JSON mode) runs each selected entry twice — write-ahead
   journal off, then on (DESIGN.md §10) — so the WAL's overhead lands as
   paired records in one BENCH_core.json.

   `--servers K` (JSON mode) sizes the stripe of E18's multi-server
   compaction leg — K non-colluding servers splitting the two-server
   protocol's schedule (DESIGN.md §14).

   `--sorter NAME` (JSON mode) narrows E15's engine head-to-head to one
   sorting engine (batcher | columnsort | bucket | ...), so a CI matrix
   can run one leg per engine.

   `--cipher none|chacha20` seals every workload store under ChaCha20
   (fixed benchmark key) — a physical-only knob
   whose traces stay bit-identical to the plaintext run. E16 (JSON mode)
   is the seal/unseal throughput microbench. *)

open Bechamel
open Toolkit

let wallclock_tests () =
  let open Odex_extmem in
  let b = 8 in
  let n = 8192 in
  let fresh shape =
    let rng = Odex_crypto.Rng.create ~seed:42 in
    Workloads.array ~rng ~b ~n shape
  in
  [
    Test.make ~name:"sort-thm21-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        let rng = Odex_crypto.Rng.create ~seed:1 in
        ignore (Odex.Sort.run ~sweep:false ~m:64 ~rng a)));
    Test.make ~name:"sort-bitonic-win-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:64 a));
    Test.make ~name:"selection-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        let rng = Odex_crypto.Rng.create ~seed:2 in
        ignore (Odex.Selection.select ~m:64 ~rng ~k:(n / 2) a)));
    Test.make ~name:"quantiles-q4-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        let rng = Odex_crypto.Rng.create ~seed:3 in
        ignore (Odex.Quantiles.run ~m:64 ~rng ~q:4 a)));
    Test.make ~name:"butterfly-compact-2k" (Staged.stage (fun () ->
        let _, a = Workloads.consolidated_blocks ~b ~n:2048 ~occupied:700 () in
        ignore (Odex.Butterfly.compact ~m:64 a)));
    Test.make ~name:"loose-compact-2k" (Staged.stage (fun () ->
        let _, a = Workloads.consolidated_blocks ~b ~n:2048 ~occupied:256 () in
        let rng = Odex_crypto.Rng.create ~seed:4 in
        ignore (Odex.Loose_compaction.run ~m:64 ~rng ~capacity:512 a)));
    Test.make ~name:"consolidation-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        ignore (Odex.Consolidation.run ~into:None a)));
    Test.make ~name:"iblt-insert-1k" (Staged.stage (fun () ->
        let t = Odex_iblt.Iblt.create ~size:8192 (Odex_crypto.Prf.key_of_int 5) in
        for x = 0 to 999 do
          Odex_iblt.Iblt.insert t ~key:x ~value:x
        done));
    Test.make ~name:"sort-columnsort-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.columnsort ~m:128 a));
    (* m = 128 >= the default-Z bucket geometry's 114-block floor at
       B = 8, so this times the butterfly pipeline, not the fallback. *)
    Test.make ~name:"sort-bucket-8k" (Staged.stage (fun () ->
        let _, a = fresh Workloads.Uniform in
        Odex_sortnet.Ext_sort.run (Odex_sortnet.Ext_sort.bucket ()) ~m:128 a));
    Test.make ~name:"hier-oram-access-1k" (Staged.stage (fun () ->
        let s = Storage.create ~trace_mode:Trace.Off ~block_size:4 () in
        let rng = Odex_crypto.Rng.create ~seed:7 in
        let t = Odex_oram.Hierarchical_oram.init ~m:64 ~rng s ~values:(Array.make 1024 0) in
        for i = 1 to 64 do
          ignore (Odex_oram.Hierarchical_oram.read t (i mod 1024))
        done));
    Test.make ~name:"sqrt-oram-epoch-1k" (Staged.stage (fun () ->
        let s = Storage.create ~trace_mode:Trace.Off ~block_size:4 () in
        let rng = Odex_crypto.Rng.create ~seed:6 in
        let t = Odex_oram.Sqrt_oram.init ~m:64 ~rng s ~values:(Array.make 1024 0) in
        while Odex_oram.Sqrt_oram.epochs t < 1 do
          ignore (Odex_oram.Sqrt_oram.read t 0)
        done));
  ]

let run_wallclock () =
  print_endline "\n== Wall-clock micro-benches (Bechamel, monotonic clock) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let tests = Test.make_grouped ~name:"odex" ~fmt:"%s %s" (wallclock_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns_per_run ] -> rows := (name, ns_per_run) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns) ->
      if ns >= 1e6 then Printf.printf "  %-34s %10.2f ms/run\n" name (ns /. 1e6)
      else Printf.printf "  %-34s %10.2f us/run\n" name (ns /. 1e3))
    rows

(* Pull `--backend NAME` out of the argument list, wherever it appears. *)
let rec extract_backend = function
  | [] -> (None, [])
  | "--backend" :: name :: rest ->
      let _, cleaned = extract_backend rest in
      (Some name, cleaned)
  | [ "--backend" ] -> failwith "--backend needs an argument (mem | file | faulty)"
  | arg :: rest ->
      let backend, cleaned = extract_backend rest in
      (backend, arg :: cleaned)

(* Pull `--profile PATH` out likewise (JSON mode only: enables telemetry
   on every workload storage and writes a Chrome trace there). *)
let rec extract_profile = function
  | [] -> (None, [])
  | "--profile" :: path :: rest ->
      let _, cleaned = extract_profile rest in
      (Some path, cleaned)
  | [ "--profile" ] -> failwith "--profile needs an output path"
  | arg :: rest ->
      let profile, cleaned = extract_profile rest in
      (profile, arg :: cleaned)

(* Pull `--shards K` out likewise. *)
let rec extract_shards = function
  | [] -> (None, [])
  | "--shards" :: k :: rest ->
      let shards =
        match int_of_string_opt k with
        | Some k when k >= 1 -> k
        | _ -> failwith "--shards needs a positive integer"
      in
      let _, cleaned = extract_shards rest in
      (Some shards, cleaned)
  | [ "--shards" ] -> failwith "--shards needs a shard count"
  | arg :: rest ->
      let shards, cleaned = extract_shards rest in
      (shards, arg :: cleaned)

(* Pull `--servers K` out likewise (JSON mode: the stripe width of
   E18's multi-server compaction leg). *)
let rec extract_servers = function
  | [] -> (None, [])
  | "--servers" :: k :: rest ->
      let servers =
        match int_of_string_opt k with
        | Some k when k >= 2 -> k
        | _ -> failwith "--servers needs an integer >= 2"
      in
      let _, cleaned = extract_servers rest in
      (Some servers, cleaned)
  | [ "--servers" ] -> failwith "--servers needs a server count"
  | arg :: rest ->
      let servers, cleaned = extract_servers rest in
      (servers, arg :: cleaned)

(* Pull `--sorter NAME` out likewise (JSON mode: narrow E15's engine
   sweep to the named sorter — one matrix leg per CI job). *)
let rec extract_sorter = function
  | [] -> (None, [])
  | "--sorter" :: name :: rest ->
      let _, cleaned = extract_sorter rest in
      (Some name, cleaned)
  | [ "--sorter" ] -> failwith "--sorter needs an engine name (batcher | columnsort | bucket)"
  | arg :: rest ->
      let sorter, cleaned = extract_sorter rest in
      (sorter, arg :: cleaned)

(* Pull `--cipher NAME` out likewise (none | chacha20). *)
let rec extract_cipher = function
  | [] -> (None, [])
  | "--cipher" :: name :: rest ->
      let _, cleaned = extract_cipher rest in
      (Some name, cleaned)
  | [ "--cipher" ] -> failwith "--cipher needs an engine name (none | chacha20)"
  | arg :: rest ->
      let cipher, cleaned = extract_cipher rest in
      (cipher, arg :: cleaned)

(* Pull the bare `--journal` flag out likewise (JSON mode: run each
   selected entry journal-off then journal-on, recording both). *)
let extract_journal args =
  (List.mem "--journal" args, List.filter (fun a -> a <> "--journal") args)

let () =
  let backend, args = extract_backend (List.tl (Array.to_list Sys.argv)) in
  let profile, args = extract_profile args in
  let shards, args = extract_shards args in
  let servers, args = extract_servers args in
  let sorter, args = extract_sorter args in
  let cipher, args = extract_cipher args in
  let journal, args = extract_journal args in
  match args with
  | "--json" :: ids ->
      Json_bench.run ?backend ?shards ?servers ~journal ?cipher ?sorter ?profile ids
  | args ->
      let backend_name = Option.value backend ~default:"mem" in
      let shard_count = Option.value shards ~default:1 in
      if backend <> None || shard_count > 1 then
        Workloads.default_backend :=
          (fun () -> Odex_obcheck.Registry.backend_spec ~shards:shard_count backend_name);
      (match cipher with
      | None | Some "none" -> ()
      | Some "chacha20" -> Workloads.cipher := Some (Odex_crypto.Cipher.key_of_int 0x0dec)
      | Some other -> failwith (Printf.sprintf "unknown cipher %S" other));
      Fun.protect ~finally:Workloads.cleanup (fun () ->
          let want id = args = [] || List.mem id args in
          List.iter (fun (id, f) -> if want id then f ()) Experiments.all;
          if args = [] || List.mem "time" args then run_wallclock ())
