(* What every experiment shares: the run settings, the one store factory,
   the one timer, and the odex-bench/10 record that both renderings — the
   text tables and BENCH_core.json — are drawn from. *)

open Odex_extmem
module Telemetry = Odex_telemetry.Telemetry

type settings = {
  json : bool;  (* write BENCH_core.json instead of printing the tables *)
  ids : string list;  (* experiments to run; [] = all *)
  backend : string;  (* mem | file | faulty, for every store the factory makes *)
  shards : int;  (* stripe every store across this many inner devices *)
  servers : int;  (* stripe width of E18's multi-server leg *)
  journal : bool;  (* run every experiment journal-off, then journal-on *)
  cipher : string;  (* none | chacha20: seal every store under a fixed key *)
  sorter : string option;  (* narrow E15's engine sweep to one engine *)
  profile : string option;  (* live telemetry; Chrome trace written here *)
}

type counts = {
  reads : int;
  writes : int;
  retries : int;
  trace_length : int;
  spans : int;
  bytes_moved : int;
  batched_ios : int;
}

let no_io =
  { reads = 0; writes = 0; retries = 0; trace_length = 0; spans = 0; bytes_moved = 0;
    batched_ios = 0 }

type record = {
  experiment : string;
  name : string;
  sorter : string;  (* "" unless the experiment sweeps sorting engines (E15) *)
  backend : string;  (* kind of the stores the run built; "none" if it built none *)
  shards : int;
  servers : int;  (* non-colluding servers of a multi-server protocol; 1 otherwise *)
  journal : bool;
  cipher : string;
  n_cells : int;
  b : int;
  m : int;
  io : counts;  (* summed over every store the run created *)
  wall_ms : float;
  seal_mb_per_s : float;  (* cipher keystream throughput; 0 unless measured (E16) *)
  ok : bool;
  phases : Telemetry.phase_stat list;  (* empty unless profiling *)
  extra : (string * string) list;  (* table-only measurements; not in the JSON *)
}

let total_ios r = r.io.reads + r.io.writes
let extra r key = try List.assoc key r.extra with Not_found -> "-"

(* MB (10^6 bytes) of sealed payload moved by counted I/Os per second. *)
let mb_per_s r =
  if r.io.bytes_moved = 0 || r.wall_ms <= 0. then 0.
  else Float.of_int r.io.bytes_moved /. 1e6 /. (r.wall_ms /. 1e3)

(* One run of the harness. Stores the factory makes are pending until
   the next [measure] (or [release]) sums their ledgers into a record and
   closes them, so a record covers every store its workload built —
   set-up included — and no store or temp file outlives its record. *)
type env = {
  set : settings;
  mutable id : string;  (* the experiment whose records are being made *)
  mutable journal_pass : bool;
  mutable stores : Storage.t list;
  mutable specs : Storage.backend_spec list;
  mutable released : counts;
  mutable released_kind : string option;
  mutable sinks : Telemetry.t list;
  mutable profiled : (string * Telemetry.t) list;
}

let env set =
  {
    set;
    id = "";
    journal_pass = false;
    stores = [];
    specs = [];
    released = no_io;
    released_kind = None;
    sinks = [];
    profiled = [];
  }

let bench_key = Odex_crypto.Cipher.key_of_int 0x0dec

(* A fresh backend spec for the run's backend, shard count and journal
   pass; its files go when the record it belongs to is taken. *)
let spec ?shards env =
  let shards = Option.value shards ~default:env.set.shards in
  let sp =
    Odex_obcheck.Registry.backend_spec ~shards ~journal:env.journal_pass env.set.backend
  in
  env.specs <- sp :: env.specs;
  sp

(* The store factory. Every store an experiment touches comes from here:
   the run's backend (or [spec]), its cipher (or [cipher]), a live sink
   when profiling (or [telemetry]), digest tracing. *)
let store ?spec:sp ?telemetry ?cipher env ~b =
  let sp = match sp with Some sp -> sp | None -> spec env in
  let telemetry =
    match telemetry with
    | Some t -> t
    | None -> if env.set.profile = None then Telemetry.disabled else Telemetry.create ()
  in
  let cipher =
    match cipher with
    | Some _ -> cipher
    | None -> if env.set.cipher = "chacha20" then Some bench_key else None
  in
  (* Zero backoff: a faulty leg's retries are counted, not slept
     through, so its wall times stay the algorithm's. *)
  let s =
    Storage.create ?cipher ~telemetry ~trace_mode:Trace.Digest ~backoff:(0., 0.) ~backend:sp
      ~block_size:b ()
  in
  (* Zero cost when disabled: a store handed the disabled sink must not
     carry a live one, or instrumentation leaked into the timed path. *)
  assert (Telemetry.enabled (Storage.telemetry s) = Telemetry.enabled telemetry);
  env.stores <- s :: env.stores;
  s

let counts_of s =
  let st = Storage.stats s and tr = Storage.trace s in
  {
    reads = Stats.reads st;
    writes = Stats.writes st;
    retries = Stats.retries st;
    trace_length = Trace.length tr;
    spans = List.length (Trace.spans tr);
    bytes_moved = Stats.bytes_moved st;
    batched_ios = Stats.batched_ios st;
  }

let add a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    retries = a.retries + b.retries;
    trace_length = a.trace_length + b.trace_length;
    spans = a.spans + b.spans;
    bytes_moved = a.bytes_moved + b.bytes_moved;
    batched_ios = a.batched_ios + b.batched_ios;
  }

(* Tally the pending stores, close them and delete their files. A
   workload that builds many stores (one per trial) calls this between
   trials to keep descriptors and temp files bounded. *)
let release env =
  List.iter
    (fun s ->
      env.released <- add env.released (counts_of s);
      env.released_kind <- Some (Storage.backend_kind s);
      let tel = Storage.telemetry s in
      if Telemetry.enabled tel && env.set.profile <> None then env.sinks <- tel :: env.sinks;
      Storage.close s)
    (List.rev env.stores);
  List.iter Storage.remove_spec_files env.specs;
  env.stores <- [];
  env.specs <- []

let timed f =
  let t0 = Telemetry.clock () in
  let r = f () in
  (r, Float.of_int (Telemetry.clock () - t0) /. 1e6)

(* Build a record from counts gathered elsewhere (a pair test's run). *)
let record ?(sorter = "") ?(servers = 1) ?(extra = []) env ~name ~n_cells ~b ~m ~backend
    ~wall_ms ~ok io =
  {
    experiment = env.id;
    name;
    sorter;
    backend;
    shards = env.set.shards;
    servers;
    journal = env.journal_pass;
    cipher = env.set.cipher;
    n_cells;
    b;
    m;
    io;
    wall_ms;
    seal_mb_per_s = 0.;
    ok;
    phases = [];
    extra;
  }

(* A record whose stores did not come from the factory, or that built
   none: the run's store flags do not apply to it. *)
let unflagged ?(journal = false) r = { r with shards = 1; journal; cipher = "none" }

(* Time [f] (its success flag and table-only measurements), then take
   the record of every store built since the last record. *)
let measure ?sorter ?servers env ~name ~n_cells ~b ~m f =
  let (ok, extra), wall_ms = timed f in
  release env;
  let sinks = List.rev env.sinks in
  let label = env.id ^ "/" ^ name in
  env.profiled <- List.rev_map (fun tel -> (label, tel)) sinks @ env.profiled;
  let r =
    record ?sorter ?servers ~extra env ~name ~n_cells ~b ~m
      ~backend:(Option.value env.released_kind ~default:"none")
      ~wall_ms ~ok env.released
  in
  let r = if env.released_kind = None then unflagged r else r in
  env.released <- no_io;
  env.released_kind <- None;
  env.sinks <- [];
  { r with phases = List.concat_map Telemetry.phase_stats sinks }

(* ---- BENCH_core.json ---- *)

let json_of_phase (ps : Telemetry.phase_stat) =
  let h = ps.phase_latency in
  let us p = Telemetry.hist_percentile h p /. 1e3 in
  Printf.sprintf
    "{\"label\":%S,\"count\":%d,\"total_ms\":%.3f,\"p50_us\":%.2f,\"p90_us\":%.2f,\"p99_us\":%.2f}"
    ps.phase_label ps.phase_count
    (Int64.to_float (Telemetry.hist_total_ns h) /. 1e6)
    (us 50.) (us 90.) (us 99.)

let json_of_record r =
  Printf.sprintf
    "{\"experiment\":%S,\"name\":%S,\"sorter\":%S,\"backend\":%S,\"shards\":%d,\"servers\":%d,\"journal\":%b,\"cipher\":%S,\"n_cells\":%d,\"b\":%d,\"m\":%d,\"reads\":%d,\"writes\":%d,\"total_ios\":%d,\"retries\":%d,\"trace_length\":%d,\"spans\":%d,\"wall_ms\":%.3f,\"bytes_moved\":%d,\"batched_ios\":%d,\"mb_per_s\":%.3f,\"seal_mb_per_s\":%.3f,\"ok\":%b,\"phases\":[%s]}"
    r.experiment r.name r.sorter r.backend r.shards r.servers r.journal r.cipher r.n_cells
    r.b r.m r.io.reads r.io.writes (total_ios r) r.io.retries r.io.trace_length r.io.spans
    r.wall_ms r.io.bytes_moved r.io.batched_ios (mb_per_s r) r.seal_mb_per_s r.ok
    (String.concat "," (List.map json_of_phase r.phases))

let write_json path records =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"odex-bench/10\",\n  \"records\": [\n";
  output_string oc
    (String.concat ",\n" (List.map (fun r -> "    " ^ json_of_record r) records));
  output_string oc "\n  ]\n}\n";
  close_out oc
