(* Experiment harness: every experiment of DESIGN.md's index (E1–E18)
   runs once and is rendered either as its text tables (the default) or
   as odex-bench/10 records in BENCH_core.json (`--json`). No ids = every
   experiment. Every flag means the same in both modes:
     --backend mem|file|faulty  backend of every store (`file` temp files
                                go with their record; `faulty` injects
                                seeded transient faults)
     --shards K                 stripe every store across K devices
     --journal                  run everything journal off, then again
                                journal on (experiments whose stores
                                ignore the flag run once)
     --cipher none|chacha20     seal every store under a fixed key
     --servers K                stripe width (>= 2) of E18's multi-server leg
     --sorter NAME              narrow E15 to one sorting engine
     --profile PATH             live telemetry: per-phase latency in the
                                records, a Chrome trace at PATH
   A bad flag or an unknown id prints one line and exits 2 before any
   experiment runs. *)

module H = Harness

let usage =
  "usage: main.exe [--json] [--backend mem|file|faulty] [--shards K] [--journal] [--cipher \
   none|chacha20] [--servers K] [--sorter NAME] [--profile PATH] [E1 .. E18 ...]"

let parse args =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("bench: " ^ msg);
        exit 2)
      fmt
  in
  let int_flag flag ~min v =
    match int_of_string_opt v with
    | Some k when k >= min -> k
    | _ -> fail "%s needs an integer >= %d (got %S)" flag min v
  in
  let ids = List.map (fun (p : Experiments.producer) -> p.id) Experiments.all in
  let rec go (set : H.settings) = function
    | [] -> set
    | "--json" :: rest -> go { set with json = true } rest
    | "--journal" :: rest -> go { set with journal = true } rest
    | "--backend" :: v :: rest ->
        if List.mem v Odex_obcheck.Registry.backend_names then go { set with backend = v } rest
        else
          fail "unknown backend %S (available: %s)" v
            (String.concat " " Odex_obcheck.Registry.backend_names)
    | "--shards" :: v :: rest -> go { set with shards = int_flag "--shards" ~min:1 v } rest
    | "--servers" :: v :: rest -> go { set with servers = int_flag "--servers" ~min:2 v } rest
    | "--cipher" :: v :: rest ->
        if v = "none" || v = "chacha20" then go { set with cipher = v } rest
        else fail "unknown cipher %S (available: none chacha20)" v
    | "--sorter" :: v :: rest ->
        if Odex_sortnet.Ext_sort.find v <> None then go { set with sorter = Some v } rest
        else
          fail
            "unknown sorter %S (available: batcher columnsort bucket bitonic bitonic-windowed \
             cache auto)"
            v
    | "--profile" :: v :: rest -> go { set with profile = Some v } rest
    | [ ("--backend" | "--shards" | "--servers" | "--cipher" | "--sorter" | "--profile") as flag ]
      ->
        fail "%s needs an argument; %s" flag usage
    | id :: rest ->
        if List.mem id ids then go { set with ids = id :: set.ids } rest
        else fail "unknown experiment or flag %S; %s" id usage
  in
  go
    {
      json = false;
      ids = [];
      backend = "mem";
      shards = 1;
      servers = 2;
      journal = false;
      cipher = "none";
      sorter = None;
      profile = None;
    }
    args

let () =
  let set = parse (List.tl (Array.to_list Sys.argv)) in
  let env = H.env set in
  let selected =
    List.filter (fun (p : Experiments.producer) -> set.ids = [] || List.mem p.id set.ids)
      Experiments.all
  in
  let pass journal =
    env.journal_pass <- journal;
    if journal && not set.json then print_string "\n#### journal on (every store journaled)\n";
    List.concat_map
      (fun (p : Experiments.producer) ->
        env.id <- p.id;
        let records = p.run env in
        if not set.json then p.table records;
        records)
      (List.filter (fun p -> not (journal && List.mem p.Experiments.id Experiments.journal_blind))
         selected)
  in
  (* With --journal the journal-off pass runs first, so the bare-backend
     records come first and the journal-on ones (backend "journaled")
     follow for the overhead comparison. *)
  let records =
    Fun.protect
      ~finally:(fun () -> H.release env)
      (fun () ->
        let off = pass false in
        if set.journal then off @ pass true else off)
  in
  Option.iter
    (fun path ->
      Odex_telemetry.Telemetry.write_chrome ~path (List.rev env.profiled);
      Printf.printf "wrote %s (%d profiled runs, Chrome trace-event JSON)\n" path
        (List.length env.profiled))
    set.profile;
  if set.json then begin
    H.write_json "BENCH_core.json" records;
    Printf.printf "wrote BENCH_core.json (%d records)\n" (List.length records)
  end
