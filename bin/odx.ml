(* odx — command-line front end for the ODEX library.

   Feed it a file of integers (one per line, "-" for stdin); it loads
   them into the simulated outsourced store and runs the requested
   data-oblivious computation, reporting the answer together with what
   the storage provider observed.

     odx sort data.txt
     odx select -k 500 data.txt
     odx quantiles -q 4 data.txt
     odx compact --keep-even data.txt
     odx audit -n 600
     odx sort --profile trace.json data.txt   # latency profile -> Chrome trace *)

open Cmdliner
open Odex_extmem

(* One integer per line; blank lines are skipped. A malformed line is a
   usage error reported as [path:line], and a named file is closed on
   every path out. *)
let read_keys path =
  let ic = if path = "-" then stdin else open_in path in
  let parse () =
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file -> Ok (Array.of_list (List.rev acc))
      | raw -> (
          let line = String.trim raw in
          if line = "" then go (lineno + 1) acc
          else
            match int_of_string_opt line with
            | Some k -> go (lineno + 1) (k :: acc)
            | None -> Error (Printf.sprintf "odx: %s:%d: not an integer: %S" path lineno line))
    in
    go 1 []
  in
  let result =
    Fun.protect ~finally:(fun () -> if path <> "-" then close_in_noerr ic) parse
  in
  match result with
  | Ok keys -> keys
  | Error msg ->
      prerr_endline msg;
      exit 1

(* The store spec is the obcheck registry's, so `--backend faulty` runs
   the registry's fixed fault plan (seed and all) and is exactly as
   reproducible as a mem run; `--shards K` stripes the chosen store
   across K inner devices, and `--journal` wraps the finished spec. Named
   files sit at --store (the journal at <store>.journal); without
   --store they are fresh temp files, removed when odx exits. *)
let backend_spec ~store ~shards ~journal name =
  if not (List.mem name Odex_obcheck.Registry.backend_names) then begin
    prerr_endline
      ("unknown backend " ^ name ^ " (available: "
      ^ String.concat " " Odex_obcheck.Registry.backend_names
      ^ ")");
    exit 2
  end;
  let spec = Odex_obcheck.Registry.backend_spec ?store ~shards:(max 1 shards) ~journal name in
  if store = None then at_exit (fun () -> Storage.remove_spec_files spec);
  spec

let setup ~block_size ~backend ~store ~shards ~seed ~profile ~journal ~auto_commit ~resume
    ~cipher ~seal_key keys =
  (* `--profile` turns on the telemetry sink; without it the storage
     carries the shared disabled sink and the I/O path is untouched. *)
  let telemetry =
    match profile with
    | Some _ -> Odex_telemetry.Telemetry.create ()
    | None -> Odex_telemetry.Telemetry.disabled
  in
  (* `--cipher chacha20` seals every payload before it reaches the
     backend, so a --resume must name it again, with the same
     --seal-key. *)
  let cipher_key =
    match cipher with
    | "none" -> None
    | "chacha20" -> Some (Odex_crypto.Cipher.key_of_int seal_key)
    | name ->
        prerr_endline ("unknown cipher engine " ^ name ^ " (available: none chacha20)");
        exit 2
  in
  let server =
    Storage.create ~telemetry ~trace_mode:Trace.Digest ~resume ?cipher:cipher_key
      ?journal_auto_commit_bytes:auto_commit
      ~backend:(backend_spec ~store ~shards ~journal backend) ~block_size ()
  in
  let n = Array.length keys in
  let blocks = (n + block_size - 1) / block_size in
  let a =
    (* `--resume` replays the journal and re-attaches the existing data
       region instead of re-loading (and so clobbering) the input; a
       subsequent sort picks up from its last committed phase. *)
    if resume && Storage.capacity server >= blocks then
      Ext_array.view server ~base:0 ~blocks
    else begin
      let cells = Array.mapi (fun i k -> Cell.item ~tag:i ~key:k ~value:i ()) keys in
      Ext_array.of_cells server ~block_size cells
    end
  in
  let rng = Odex_crypto.Rng.create ~seed in
  (server, a, rng)

(* A store that refuses to open — a wrong block size, a retired format —
   or to unseal — a sealed store resumed without its --cipher or under
   another --seal-key — is a usage error reported against the store,
   not a crash. *)
let with_store ~backend ~store f =
  match f () with
  | () -> ()
  | exception Invalid_argument msg ->
      prerr_endline (Printf.sprintf "odx: %s: %s" (Option.value store ~default:backend) msg);
      exit 1

let report_trace server =
  let retries = Stats.retries (Storage.stats server) in
  Printf.printf "; provider view (%s backend): %d I/Os, trace digest %016Lx%s\n"
    (Storage.backend_kind server)
    (Trace.length (Storage.trace server))
    (Trace.digest (Storage.trace server))
    (if retries > 0 then Printf.sprintf ", %d transient faults retried" retries else "");
  let per_shard = Storage.shard_ios server in
  if Array.length per_shard > 0 then
    Printf.printf "; per-shard ops: %s\n"
      (String.concat " "
         (Array.to_list (Array.mapi (Printf.sprintf "s%d=%d") per_shard)))

let report_profile server profile =
  match profile with
  | None -> ()
  | Some path ->
      let tel = Storage.telemetry server in
      Odex_telemetry.Telemetry.write_chrome ~path [ ("odx", tel) ];
      Format.printf "%a" Odex_telemetry.Telemetry.pp_summary tel;
      Printf.printf "; wrote Chrome trace-event profile to %s (load in chrome://tracing)\n"
        path

(* ---- common options ---- *)

let file_arg =
  let doc = "Input file of integers, one per line ('-' = stdin)." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let block_size_arg =
  let doc = "Block size B (cells per block) of the simulated store." in
  Arg.(value & opt int 8 & info [ "b"; "block-size" ] ~docv:"B" ~doc)

let cache_arg =
  let doc = "Alice's cache size m, in blocks (M = m*B words)." in
  Arg.(value & opt int 64 & info [ "m"; "cache-blocks" ] ~docv:"M" ~doc)

let seed_arg =
  let doc = "Random seed (fix it to reproduce a trace exactly)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let backend_arg =
  let doc =
    "Storage backend: $(b,mem) (in-process), $(b,file) (file-backed block store), or \
     $(b,faulty) (deterministic transient faults over mem; retries are part of the \
     provider's view)."
  in
  Arg.(value & opt string "mem" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let store_arg =
  let doc = "Path of the block store for --backend file (default: a fresh temp file)." in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"PATH" ~doc)

let shards_arg =
  let doc =
    "Stripe the store across $(docv) shards (deterministic PRP fan-out). \
     The logical trace — and the answer — are bit-identical at every shard count; the \
     provider report adds the per-shard op split."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let journal_arg =
  let doc =
    "Wrap the store in a write-ahead journal: every batch of writes is group-committed \
     to a checksummed side log and fsync'd before being applied in place, so a crash \
     never tears the store. Pair with $(b,--resume) to recover and continue a killed \
     run. The journal's commit schedule is data-independent, like every other access."
  in
  Arg.(value & flag & info [ "journal" ] ~doc)

let auto_commit_arg =
  let doc =
    "Auto-commit threshold for $(b,--journal), in bytes (default 4 MiB): a write that \
     pushes the pending journal tail past $(docv) triggers an automatic group commit. \
     Smaller values bound crash-recovery replay work at the price of more fsyncs; \
     experiment E17 measures the trade-off."
  in
  Arg.(value & opt (some int) None & info [ "auto-commit-bytes" ] ~docv:"BYTES" ~doc)

let resume_arg =
  let doc =
    "Reopen an existing store (use $(b,--store) and $(b,--journal)), replay any \
     journaled writes a crash left behind, and continue: a sort that was killed \
     mid-run restarts from its last committed phase instead of from scratch."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let cipher_arg =
  let doc =
    "Seal every block before it reaches the backend: $(b,none) (plaintext) or \
     $(b,chacha20) (the RFC 8439 keystream). A $(b,--resume) of a sealed store must \
     name $(b,chacha20) again with the same $(b,--seal-key); otherwise unsealing fails \
     and odx exits with status 1."
  in
  Arg.(value & opt string "none" & info [ "cipher" ] ~docv:"ENGINE" ~doc)

let seal_key_arg =
  let doc =
    "Sealing key for $(b,--cipher) (reuse the same key to $(b,--resume) a sealed store)."
  in
  Arg.(value & opt int 1 & info [ "seal-key" ] ~docv:"KEY" ~doc)

let profile_arg =
  let doc =
    "Collect latency telemetry and write a Chrome trace-event JSON profile to $(docv) \
     (load it in chrome://tracing or Perfetto); a human-readable summary is printed too. \
     Profiling observes only what the storage provider already sees and never changes \
     the access trace."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"OUT.json" ~doc)

(* ---- sort ---- *)

let sort_cmd =
  let sorter_arg =
    let doc =
      "Sorting engine: the default is the paper's full pipeline (shuffle + spill-free \
       scan with network fallback, Theorem 21); name one of $(b,batcher), \
       $(b,columnsort), $(b,bucket), $(b,bitonic-windowed), $(b,cache) or $(b,auto) to \
       run that registered network directly. The bucket engine derives its routing coins \
       from $(b,--seed), so a fixed seed reproduces the permutation exactly."
    in
    Arg.(value & opt (some string) None & info [ "sorter" ] ~docv:"ENGINE" ~doc)
  in
  let run block_size m seed backend store shards profile journal auto_commit resume cipher seal_key sorter file =
    let keys = read_keys file in
    if Array.length keys = 0 then prerr_endline "no input"
    else
      with_store ~backend ~store @@ fun () ->
      let server, a, rng =
        setup ~block_size ~backend ~store ~shards ~seed ~profile ~journal ~auto_commit ~resume
          ~cipher ~seal_key keys
      in
      let ok =
        match sorter with
        | None -> (Odex.Sort.run ~m ~rng a).Odex.Sort.ok
        | Some name -> (
            match Odex_sortnet.Ext_sort.find ~seed name with
            | None ->
                prerr_endline
                  ("unknown sorter " ^ name
                 ^ " (available: batcher columnsort bucket bitonic bitonic-windowed cache \
                    auto)");
                Storage.close server;
                exit 2
            | Some eng -> (
                match Odex_sortnet.Ext_sort.run eng ~m a with
                | () -> true
                | exception Odex_sortnet.Bucket_sort.Overflow msg ->
                    prerr_endline ("; bucket overflow (coin-public): " ^ msg);
                    false))
      in
      List.iter
        (fun (it : Cell.item) -> print_endline (string_of_int it.key))
        (Ext_array.items a);
      Printf.printf "; ok = %b\n" ok;
      report_trace server;
      report_profile server profile;
      (* Commit the journal tail and flush: without this, a journaled
         store would roll the whole run back on the next --resume. *)
      Storage.close server
  in
  let doc = "Data-oblivious external-memory sort (Theorem 21)." in
  Cmd.v (Cmd.info "sort" ~doc)
    Term.(
      const run $ block_size_arg $ cache_arg $ seed_arg $ backend_arg $ store_arg
      $ shards_arg $ profile_arg $ journal_arg $ auto_commit_arg $ resume_arg $ cipher_arg $ seal_key_arg
      $ sorter_arg $ file_arg)

(* ---- select ---- *)

let select_cmd =
  let k_arg =
    let doc = "Rank to select (1-indexed)." in
    Arg.(required & opt (some int) None & info [ "k"; "rank" ] ~docv:"K" ~doc)
  in
  let run block_size m seed backend store shards profile journal auto_commit resume cipher seal_key k file =
    let keys = read_keys file in
    with_store ~backend ~store @@ fun () ->
    let server, a, rng =
      setup ~block_size ~backend ~store ~shards ~seed ~profile ~journal ~auto_commit ~resume
          ~cipher ~seal_key keys
    in
    let r = Odex.Selection.select ~m ~rng ~k a in
    (match r.Odex.Selection.item with
    | Some it -> Printf.printf "%d\n; rank %d of %d, ok = %b\n" it.key k (Array.length keys) r.ok
    | None -> Printf.printf "; selection failed (re-run with a fresh --seed)\n");
    report_trace server;
    report_profile server profile;
    Storage.close server
  in
  let doc = "Data-oblivious selection of the k-th smallest (Theorem 13)." in
  Cmd.v (Cmd.info "select" ~doc)
    Term.(
      const run $ block_size_arg $ cache_arg $ seed_arg $ backend_arg $ store_arg
      $ shards_arg $ profile_arg $ journal_arg $ auto_commit_arg $ resume_arg $ cipher_arg $ seal_key_arg
      $ k_arg $ file_arg)

(* ---- quantiles ---- *)

let quantiles_cmd =
  let q_arg =
    let doc = "Number of quantiles." in
    Arg.(value & opt int 3 & info [ "q"; "quantiles" ] ~docv:"Q" ~doc)
  in
  let run block_size m seed backend store shards profile journal auto_commit resume cipher seal_key q file =
    let keys = read_keys file in
    with_store ~backend ~store @@ fun () ->
    let server, a, rng =
      setup ~block_size ~backend ~store ~shards ~seed ~profile ~journal ~auto_commit ~resume
          ~cipher ~seal_key keys
    in
    let r = Odex.Quantiles.run ~m ~rng ~q a in
    Array.iteri
      (fun i (it : Cell.item) -> Printf.printf "p%d = %d\n" ((i + 1) * 100 / (q + 1)) it.key)
      r.Odex.Quantiles.quantiles;
    Printf.printf "; ok = %b\n" r.Odex.Quantiles.ok;
    report_trace server;
    report_profile server profile;
    Storage.close server
  in
  let doc = "Data-oblivious quantiles (Theorem 17)." in
  Cmd.v (Cmd.info "quantiles" ~doc)
    Term.(
      const run $ block_size_arg $ cache_arg $ seed_arg $ backend_arg $ store_arg
      $ shards_arg $ profile_arg $ journal_arg $ auto_commit_arg $ resume_arg $ cipher_arg $ seal_key_arg
      $ q_arg $ file_arg)

(* ---- compact ---- *)

let compact_cmd =
  let keep_even =
    let doc = "Treat even keys as the distinguished items (default: all)." in
    Arg.(value & flag & info [ "keep-even" ] ~doc)
  in
  let servers_arg =
    let doc =
      "Run the compaction in the multi-server model: stripe the store across $(docv) \
       non-colluding servers and use the two-server oblivious protocol (DESIGN.md §14) \
       instead of the butterfly — strictly fewer I/Os, at the price of the combined \
       (colluding) view no longer being data-independent; each server's own view still \
       is. Implies at least $(docv) shards."
    in
    Arg.(value & opt int 1 & info [ "servers" ] ~docv:"K" ~doc)
  in
  let run block_size m seed backend store shards servers profile journal auto_commit resume cipher seal_key keep_even file =
    let keys = read_keys file in
    let shards = if servers >= 2 then max shards servers else shards in
    with_store ~backend ~store @@ fun () ->
    let server, a, _rng =
      setup ~block_size ~backend ~store ~shards ~seed ~profile ~journal ~auto_commit ~resume
          ~cipher ~seal_key keys
    in
    let distinguished buf off = (not keep_even) || Flat.key buf off mod 2 = 0 in
    let d = Odex.Consolidation.run ~distinguished ~into:None a in
    let out, occupied, how =
      if servers >= 2 then begin
        let o = Odex.Twoserver_compaction.run ~m ~capacity_blocks:(Ext_array.blocks d) d in
        ( o.Odex.Twoserver_compaction.dest,
          o.Odex.Twoserver_compaction.occupied,
          Printf.sprintf "two-server protocol, %d non-colluding servers" servers )
      end
      else (d, Odex.Butterfly.compact ~m d, "Theorem 6")
    in
    List.iter (fun (it : Cell.item) -> print_endline (string_of_int it.key)) (Ext_array.items out);
    Printf.printf "; %d occupied blocks after tight compaction (%s)\n" occupied how;
    report_trace server;
    report_profile server profile;
    Storage.close server
  in
  let doc = "Consolidate + tight order-preserving compaction (Lemma 3 + Theorem 6)." in
  Cmd.v (Cmd.info "compact" ~doc)
    Term.(
      const run $ block_size_arg $ cache_arg $ seed_arg $ backend_arg $ store_arg
      $ shards_arg $ servers_arg $ profile_arg $ journal_arg $ auto_commit_arg $ resume_arg $ cipher_arg $ seal_key_arg
      $ keep_even $ file_arg)

(* ---- audit ---- *)

let audit_cmd =
  let n_arg =
    let doc = "Input size (cells) for the audit datasets." in
    Arg.(value & opt int 600 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run block_size m seed n =
    let rng = Odex_crypto.Rng.create ~seed in
    let inputs = Odex.Oblivious.input_classes ~rng ~n in
    let subjects =
      [
        {
          Odex.Oblivious.name = "sort";
          run = (fun rng _ a -> ignore (Odex.Sort.run ~m ~rng a));
        };
        {
          Odex.Oblivious.name = "selection";
          run = (fun rng _ a -> ignore (Odex.Selection.select ~m ~rng ~k:(max 1 (n / 3)) a));
        };
        {
          Odex.Oblivious.name = "consolidation";
          run = (fun _ _ a -> ignore (Odex.Consolidation.run ~into:None a));
        };
      ]
    in
    List.iter
      (fun subject ->
        let report = Odex.Oblivious.audit ~b:block_size ~inputs subject in
        Format.printf "%a@." Odex.Oblivious.pp_report report)
      subjects
  in
  let doc = "Run the obliviousness audit: fixed coins, contrasting inputs, compare traces." in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ block_size_arg $ cache_arg $ seed_arg $ n_arg)

let () =
  let doc = "data-oblivious external-memory algorithms (Goodrich, SPAA 2011)" in
  let info = Cmd.info "odx" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ sort_cmd; select_cmd; quantiles_cmd; compact_cmd; audit_cmd ]))
