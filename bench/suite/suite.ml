(* The four workloads, the closed measurement loop that drives them, and
   the metrics computed from what the loop records.

   One client, one process, closed loop: each session runs its ops back
   to back and the next session starts only after the previous one is
   checked and torn down. Untraced sessions use the disabled telemetry
   sink, so the storage stack runs its uninstrumented path; every
   end-to-end metric comes from them. Traced sessions hand a live sink to
   the store and feed only the per-layer metrics. *)

open Odex_extmem
module Telemetry = Odex_telemetry.Telemetry
module Rng = Odex_crypto.Rng
module Cipher = Odex_crypto.Cipher
module Hier = Odex_oram.Hierarchical_oram

(* ---- output verifiers ----

   Each returns false on a wrong output; the selftest feeds each one a
   planted wrong output to prove it is not vacuous. *)

let sorted_input cells =
  let e = Array.copy cells in
  Array.stable_sort Cell.compare_keys e;
  e

(* [aux] is scratch the library may leave behind, so it is not compared. *)
let same_cell a b =
  match (a, b) with
  | Cell.Item x, Cell.Item y -> x.key = y.key && x.value = y.value && x.tag = y.tag
  | Cell.Empty, Cell.Empty -> true
  | _ -> false

(* [out] holds exactly the items of [input] in (key, tag) order, then
   empty cells. *)
let sorted_ok ~input out =
  let n = Array.length input in
  n > 0
  && Array.length out >= n
  &&
  let e = sorted_input input in
  let ok = ref true in
  Array.iteri (fun i c -> if not (same_cell c (if i < n then e.(i) else Cell.Empty)) then ok := false) out;
  !ok

(* The selection reports success and returns the [k]-th smallest item of
   [input] in (key, tag) order. *)
let selected_ok ~input ~k (r : Odex.Selection.result) =
  r.ok
  && k >= 1
  && k <= Array.length input
  &&
  match r.item with
  | Some it -> same_cell (Cell.Item it) (sorted_input input).(k - 1)
  | None -> false

let oram_read_ok ~shadow addr got = got = shadow.(addr)
let oram_healthy_ok o = Hier.healthy o

(* ---- workloads ---- *)

(* One session: [setup] builds the store and loads the input, then [ops]
   timed operations each followed by its [check], then [finish] checks
   the session as a whole. Only [setup] and [op] are timed. *)
type session = {
  setup : unit -> Storage.t;
  ops : int;
  op : int -> unit;
  check : int -> bool;
  finish : unit -> bool;
  rebuilds : unit -> int;
  records : int;  (** Items the session stores, for [space_amp]. *)
}

type workload = {
  name : string;
  block_size : int;
  sealed : bool;
  spec : unit -> Storage.backend_spec;
  oram : bool;
  fixed_io : bool;
      (** Whether the counted I/O of an op is independent of the input.
          Selection's is not: each recursion level sizes its sample and
          residue from the residue's private item count, so the count
          moves with the input (about 1.4% per input at N = 16384). *)
  make : rng:Rng.t -> new_store:(unit -> Storage.t) -> session;
}

(* The algorithms' coins are fixed per workload, so only the inputs
   follow --seed. *)
let sort_coins = 0x5011
let select_coins = 0x5e1ec7
let oram_coins = 0x0a11
let stripe_seed = 0x5712
let bench_key = Cipher.key_of_int 0x0dec

let uniform_cells rng n =
  Array.init n (fun i ->
      let k = Rng.int rng (4 * n) in
      Cell.item ~tag:i ~key:k ~value:(k * 3) ())

let no_rebuilds () = 0

let sort_session ~n ~b ~m ~rng ~new_store =
  let input = uniform_cells rng n in
  let sorter = Odex_sortnet.Ext_sort.bucket ~seed:sort_coins () in
  let arr = ref None in
  let get () = Option.get !arr in
  {
    setup =
      (fun () ->
        let s = new_store () in
        arr := Some (Ext_array.of_cells s ~block_size:b input);
        s);
    ops = 1;
    op =
      (fun _ ->
        Odex_sortnet.Ext_sort.run sorter ~m (get ());
        (* A durable store must reach the device before the sort counts
           as done; a no-op on memory. *)
        Storage.sync (Ext_array.storage (get ())));
    check = (fun _ -> sorted_ok ~input (Ext_array.to_cells (get ())));
    finish = (fun () -> true);
    rebuilds = no_rebuilds;
    records = n;
  }

let select_session ~n ~b ~m ~rng ~new_store =
  let input = uniform_cells rng n in
  let k = n / 2 in
  let arr = ref None and result = ref None in
  {
    setup =
      (fun () ->
        let s = new_store () in
        arr := Some (Ext_array.of_cells s ~block_size:b input);
        s);
    ops = 1;
    op =
      (fun _ ->
        result :=
          Some
            (Odex.Selection.select ~exponent:0.25 ~m
               ~rng:(Rng.create ~seed:select_coins)
               ~k (Option.get !arr)));
    check = (fun _ -> selected_ok ~input ~k (Option.get !result));
    finish = (fun () -> true);
    rebuilds = no_rebuilds;
    records = n;
  }

(* Reads and writes alternate at seeded uniform addresses. Every read is
   checked against the shadow array, which already holds the earlier
   writes, so a lost write fails a later read. *)
let oram_session ~words ~accesses ~m ~z ~rng ~new_store =
  let values = Array.init words (fun _ -> Rng.int rng 1_000_000) in
  let addrs = Array.init accesses (fun _ -> Rng.int rng words) in
  let fresh = Array.init accesses (fun _ -> Rng.int rng 1_000_000) in
  let shadow = Array.copy values in
  let oram = ref None and got = ref 0 in
  let o () = Option.get !oram in
  {
    setup =
      (fun () ->
        let s = new_store () in
        oram := Some (Hier.init ~bucket_size:z ~m ~rng:(Rng.create ~seed:oram_coins) s ~values);
        s);
    ops = accesses;
    op =
      (fun i ->
        if i mod 2 = 0 then got := Hier.read (o ()) addrs.(i)
        else Hier.write (o ()) addrs.(i) fresh.(i));
    check =
      (fun i ->
        if i mod 2 = 0 then oram_read_ok ~shadow addrs.(i) !got
        else begin
          shadow.(addrs.(i)) <- fresh.(i);
          true
        end);
    finish = (fun () -> oram_healthy_ok (o ()));
    rebuilds = (fun () -> Hier.rebuilds (o ()));
    records = words;
  }

let store_counter = ref 0

(* A fresh set of file paths for every store: sessions never share a
   device, and teardown removes each one. *)
let fresh_path suffix =
  incr store_counter;
  Filename.concat (Host.scratch_dir ()) (Printf.sprintf "store%d.%s" !store_counter suffix)

let mem_spec () = Storage.Mem

let file_spec () = Storage.File { path = fresh_path "dat" }
let stripe_spec () = Storage.Sharded { inner = file_spec (); shards = 2; seed = stripe_seed }

let journal_spec () =
  Storage.Journaled { inner = stripe_spec (); path = fresh_path "journal"; durable = true }

let workloads =
  [
    (* Bucket oblivious sort in memory: the merge-split kernels, the cell
       codec, Cache and Ext_array do nearly all the work; the backend is
       blits. *)
    {
      name = "sort-mem";
      block_size = 8;
      sealed = false;
      spec = mem_spec;
      oram = false;
      fixed_io = true;
      make = sort_session ~n:32768 ~b:8 ~m:128;
    };
    (* The same sorter on a durable journal over a 2-way file stripe,
       sealed with ChaCha20 on one domain. Its counted I/O per item
       matches sort-mem, so the gap between the two is the storage stack:
       pread/pwrite, fsync, journal append/commit, keystream and stripe
       hand-off. *)
    {
      name = "sort-sealed-stripe";
      block_size = 8;
      sealed = true;
      spec = journal_spec;
      oram = false;
      fixed_io = true;
      make = sort_session ~n:8192 ~b:8 ~m:128;
    };
    (* Oblivious median selection, the paper's O(N/B) family:
       consolidation, IBLT sparse compaction, thinning, butterfly
       compaction and recursion, all long batched scans. It barely
       touches the bucket-sort kernels. *)
    {
      name = "select-mem";
      block_size = 8;
      sealed = false;
      spec = mem_spec;
      oram = false;
      fixed_io = false;
      make = select_session ~n:16384 ~b:8 ~m:64;
    };
    (* Hierarchical ORAM: one op is one access. Single-block, unbatched
       storage calls, where per-call overhead dominates; rebuilds are
       small sorts. *)
    {
      name = "oram-mixed";
      block_size = 4;
      sealed = false;
      spec = mem_spec;
      oram = true;
      fixed_io = true;
      make = oram_session ~words:1024 ~accesses:256 ~m:64 ~z:36;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let create_store ?(telemetry = Telemetry.disabled) ?(sealed = false) w spec =
  Storage.create
    ?cipher:(if sealed then Some bench_key else None)
    ~cipher_engine:Cipher.Chacha20 ~telemetry ~backend:spec ~block_size:w.block_size ()

(* ---- what the loop records per op ---- *)

(* What a live sink has seen: backend and cipher time, backend calls and
   blocks, cache counters. [layer_totals] reads the running totals, with
   times in ns; a sample holds the difference around one op, with times
   in normalized ms. *)
type layers = {
  read_time : float;
  write_time : float;
  sync_time : float;
  calls : int;
  blocks : int;
  seal_time : float;
  unseal_time : float;
  hits : int;
  misses : int;
  flushes : int;
}

let layer_totals tel =
  let zero =
    {
      read_time = 0.;
      write_time = 0.;
      sync_time = 0.;
      calls = 0;
      blocks = 0;
      seal_time = 0.;
      unseal_time = 0.;
      hits = 0;
      misses = 0;
      flushes = 0;
    }
  in
  let acc =
    List.fold_left
      (fun a (st : Telemetry.op_stat) ->
        let ns = Int64.to_float (Telemetry.hist_total_ns st.latency) in
        if st.op_backend = "cipher" then
          match st.op with
          | Telemetry.Seal -> { a with seal_time = a.seal_time +. ns }
          | Telemetry.Unseal -> { a with unseal_time = a.unseal_time +. ns }
          | _ -> a
        else
          let a = { a with calls = a.calls + st.count; blocks = a.blocks + st.op_blocks } in
          match st.op with
          | Telemetry.Read | Telemetry.Read_run -> { a with read_time = a.read_time +. ns }
          | Telemetry.Write | Telemetry.Write_run -> { a with write_time = a.write_time +. ns }
          | Telemetry.Sync -> { a with sync_time = a.sync_time +. ns }
          | Telemetry.Seal | Telemetry.Unseal -> a)
      zero (Telemetry.op_stats tel)
  in
  let counter name = Option.value (List.assoc_opt name (Telemetry.counters tel)) ~default:0 in
  { acc with hits = counter "cache.hit"; misses = counter "cache.miss"; flushes = counter "cache.flush" }

type probe = {
  st : Stats.snapshot;
  gc : Gc.stat;
  shards : int array;
  commits : int;
  appends : int;
  layers : layers option;
}

let probe s tel =
  {
    st = Stats.snapshot (Storage.stats s);
    gc = Gc.quick_stat ();
    shards = Array.copy (Storage.shard_ios s);
    commits = Storage.journal_commits s;
    appends = List.length (Storage.journal_appends s);
    layers = (if Telemetry.enabled tel then Some (layer_totals tel) else None);
  }

type sample = {
  ms : float;  (** Normalized op time. *)
  raw_ms : float;
  reads : int;
  writes : int;
  bytes : int;
  batched : int;
  retries : int;
  minor : float;
  promoted : float;
  majors : int;
  shard_ops : int array;
  commits : int;
  appends : int;
  layers : layers option;
  mutable phases : (string * float * int) list;
      (** Top-level spans inside the op: (label, normalized ms, I/Os),
          including the op's own unspanned time and I/O under
          ["unattributed"]. Filled after a traced session ends. *)
}

let sample_of ~ms ~raw_ns (a : probe) (b : probe) =
  {
    ms = ms raw_ns;
    raw_ms = raw_ns /. 1e6;
    reads = b.st.reads - a.st.reads;
    writes = b.st.writes - a.st.writes;
    bytes = b.st.bytes_moved - a.st.bytes_moved;
    batched = b.st.batched_ios - a.st.batched_ios;
    retries = b.st.retries - a.st.retries;
    minor = b.gc.minor_words -. a.gc.minor_words;
    promoted = b.gc.promoted_words -. a.gc.promoted_words;
    majors = b.gc.major_collections - a.gc.major_collections;
    shard_ops = Array.mapi (fun i x -> x - a.shards.(i)) b.shards;
    commits = b.commits - a.commits;
    appends = b.appends - a.appends;
    layers =
      (match (a.layers, b.layers) with
      | Some x, Some y ->
          Some
            {
              read_time = ms (y.read_time -. x.read_time);
              write_time = ms (y.write_time -. x.write_time);
              sync_time = ms (y.sync_time -. x.sync_time);
              calls = y.calls - x.calls;
              blocks = y.blocks - x.blocks;
              seal_time = ms (y.seal_time -. x.seal_time);
              unseal_time = ms (y.unseal_time -. x.unseal_time);
              hits = y.hits - x.hits;
              misses = y.misses - x.misses;
              flushes = y.flushes - x.flushes;
            }
      | _ -> None);
    phases = [];
  }

(* Split a traced session's phase log into one entry per "bench.op"
   phase: its direct children (the algorithm's top-level spans) with
   inclusive I/Os, plus the op's own unspanned remainder. Phases arrive
   in completion order, so every phase's children complete before it. *)
let op_phases tel =
  let below = Hashtbl.create 8 in
  let get d = Option.value (Hashtbl.find_opt below d) ~default:0 in
  let children = ref [] and out = ref [] in
  List.iter
    (fun (p : Telemetry.phase) ->
      let incl = p.ios + get (p.depth + 1) in
      Hashtbl.replace below (p.depth + 1) 0;
      Hashtbl.replace below p.depth (get p.depth + incl);
      if p.depth = 1 then children := (p.label, Int64.to_float p.dur_ns, incl) :: !children;
      if p.depth = 0 then begin
        if p.label = "bench.op" then begin
          let kids = List.rev !children in
          let kid_ns = List.fold_left (fun a (_, ns, _) -> a +. ns) 0. kids in
          out := (kids, (Int64.to_float p.dur_ns -. kid_ns, p.ios)) :: !out
        end;
        children := [];
        Hashtbl.replace below 0 0
      end)
    (Telemetry.phases tel);
  Array.of_list (List.rev !out)

(* ---- the run ---- *)

type run = {
  mutable refs : float list;  (** Raw reference-kernel ms. *)
  mutable setups : float list;  (** Normalized set-up seconds. *)
  mutable untraced : sample list;
  mutable traced : sample list;
  mutable space : float list;
  mutable rebuild_counts : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable sessions : (string * Telemetry.t) list;  (** Traced sinks, for --trace-out. *)
}

let new_run () =
  {
    refs = [];
    setups = [];
    untraced = [];
    traced = [];
    space = [];
    rebuild_counts = [];
    attempted = 0;
    failed = 0;
    sessions = [];
  }

let log_failure w what e =
  Printf.eprintf "%s: %s raised %s\n%!" w.name what (Printexc.to_string e)

(* One session. [record = false] is the warm-up: its checks count, its
   timings do not. *)
let run_session r w ~rng ~traced ~record =
  let tel = if traced then Telemetry.create () else Telemetry.disabled in
  let specs = ref [] and store = ref None in
  let new_store () =
    let spec = w.spec () in
    specs := spec :: !specs;
    let s = create_store ~telemetry:tel ~sealed:w.sealed w spec in
    store := Some s;
    s
  in
  let sess = w.make ~rng ~new_store in
  let samples = ref [] in
  let teardown () =
    (try Option.iter Storage.close !store with e -> log_failure w "close" e);
    List.iter Storage.remove_spec_files !specs
  in
  Fun.protect ~finally:teardown (fun () ->
      let ref_ms = Host.ref_ms () in
      let ms ns = Summary.normalize ~ref_ms ns /. 1e6 in
      match Host.time (fun () -> Telemetry.with_phase tel "bench.setup" sess.setup) with
      | exception e ->
          r.attempted <- r.attempted + 1;
          r.failed <- r.failed + 1;
          log_failure w "setup" e
      | s, setup_ns ->
          let setup_s = Summary.normalize ~ref_ms setup_ns /. 1e9 in
          (try
             for i = 0 to sess.ops - 1 do
               let before = probe s tel in
               r.attempted <- r.attempted + 1;
               let (), ns = Host.time (fun () -> Telemetry.with_phase tel "bench.op" (fun () -> sess.op i)) in
               let after = probe s tel in
               samples := sample_of ~ms ~raw_ns:ns before after :: !samples;
               if not (Telemetry.with_phase tel "bench.check" (fun () -> sess.check i)) then begin
                 r.failed <- r.failed + 1;
                 Printf.eprintf "%s: op %d produced a wrong output\n%!" w.name i
               end
             done;
             if not (sess.finish ()) then begin
               r.failed <- r.failed + 1;
               Printf.eprintf "%s: session check failed\n%!" w.name
             end
           with e ->
             r.failed <- r.failed + 1;
             log_failure w "op" e);
          if record then begin
            let samples = List.rev !samples in
            if traced then begin
              let ph = op_phases tel in
              List.iteri
                (fun i (smp : sample) ->
                  if i < Array.length ph then begin
                    let kids, (own_ns, own_ios) = ph.(i) in
                    smp.phases <-
                      List.map (fun (l, ns, ios) -> (l, ms ns, ios)) kids
                      @ [ ("unattributed", ms own_ns, own_ios) ]
                  end)
                samples;
              r.traced <- samples @ r.traced;
              r.sessions <- (Printf.sprintf "%s/session%d" w.name (List.length r.sessions), tel) :: r.sessions
            end
            else begin
              r.untraced <- samples @ r.untraced;
              r.setups <- setup_s :: r.setups;
              r.refs <- ref_ms :: r.refs;
              let ios = List.fold_left (fun a (x : sample) -> a + x.reads + x.writes) 0 samples in
              let bytes = List.fold_left (fun a (x : sample) -> a + x.bytes) 0 samples in
              if ios > 0 then
                r.space <-
                  Float.of_int (Storage.capacity s * (bytes / ios))
                  /. Float.of_int (sess.records * 16)
                  :: r.space;
              r.rebuild_counts <- Float.of_int (sess.rebuilds ()) :: r.rebuild_counts
            end
          end)

(* ---- calibrations (traced runs only) ----

   Per-block costs of single layers, measured outside the workload on
   the same store configuration, as a median over rounds. *)

let per_block ~rounds ~blocks f =
  Summary.median (List.init rounds (fun _ -> snd (Host.time f) /. Float.of_int blocks))

let full_block b i = Array.init b (fun j -> Cell.item ~tag:j ~key:((i * b) + j) ~value:i ())

let with_store w ~spec ~sealed f =
  let spec = spec () in
  let s = create_store ~sealed w spec in
  Fun.protect
    ~finally:(fun () ->
      Storage.close s;
      Storage.remove_spec_files spec)
    (fun () -> f s)

let calib_blocks = 64

(* Single-block and batched storage calls on the workload's own store. *)
let calibrate_storage ~rounds w =
  with_store w ~spec:w.spec ~sealed:w.sealed (fun s ->
      let n = calib_blocks in
      let base = Storage.alloc s n in
      let blks = Array.init n (full_block w.block_size) in
      Storage.write_many s base blks;
      let per_block = per_block ~rounds ~blocks:n in
      let read = per_block (fun () -> for i = 0 to n - 1 do ignore (Storage.read s (base + i)) done) in
      let write = per_block (fun () -> for i = 0 to n - 1 do Storage.write s (base + i) blks.(i) done) in
      let read_many = per_block (fun () -> ignore (Storage.read_many s base n)) in
      let write_many = per_block (fun () -> Storage.write_many s base blks) in
      (read, write, read_many, write_many))

let calib_reps = 4096

let calibrate_codec ~rounds w =
  let blk = full_block w.block_size 1 in
  let buf = Odex_crypto.Bigbuf.create (Block.encoded_size w.block_size) in
  let per_block = per_block ~rounds ~blocks:calib_reps in
  let enc = per_block (fun () -> for _ = 1 to calib_reps do Block.encode_into_big blk buf 0 done) in
  let dec =
    per_block (fun () ->
        for _ = 1 to calib_reps do
          ignore (Sys.opaque_identity (Block.decode_from_big ~block_size:w.block_size buf 0))
        done)
  in
  (enc, dec)

let calibrate_xor ~rounds w =
  let st = Cipher.init Cipher.Chacha20 bench_key in
  let len = Block.encoded_size w.block_size in
  let buf = Odex_crypto.Bigbuf.create len in
  per_block ~rounds ~blocks:calib_reps (fun () ->
      for nonce = 1 to calib_reps do
        Cipher.xor_big st ~nonce buf ~off:0 ~len
      done)

(* Each rung of the storage ladder adds one decorator to the one below
   it; a rung's number is the ns per block it adds to a 64-block
   write_many + read_many, at the workload's block size. *)
let calibrate_ladder ~rounds w =
  let rung (spec, sealed) =
    with_store w ~spec ~sealed (fun s ->
        let n = calib_blocks in
        let base = Storage.alloc s n in
        let blks = Array.init n (full_block w.block_size) in
        per_block ~rounds ~blocks:n (fun () ->
            Storage.write_many s base blks;
            ignore (Storage.read_many s base n)))
  in
  let specs =
    [
      ("mem", (mem_spec, false));
      ("file", (file_spec, false));
      ("stripe", (stripe_spec, false));
      ("journal", (journal_spec, false));
      ("seal", (journal_spec, true));
    ]
  in
  let abs = List.map (fun (name, sp) -> (name, rung sp)) specs in
  List.mapi (fun i (name, v) -> (name, if i = 0 then v else v -. snd (List.nth abs (i - 1)))) abs

type calib = {
  read_ns : float;
  write_ns : float;
  read_many_ns : float;
  write_many_ns : float;
  encode_ns : float;
  decode_ns : float;
  xor_ns : float;
  ladder : (string * float) list;
}

(* Calibrations run after the sessions and are normalized by the run's
   median reference time. *)
let calibrate ~rounds ~ref_ms w =
  let norm x = Summary.normalize ~ref_ms x in
  let read, write, read_many, write_many = calibrate_storage ~rounds w in
  let enc, dec = calibrate_codec ~rounds w in
  {
    read_ns = norm read;
    write_ns = norm write;
    read_many_ns = norm read_many;
    write_many_ns = norm write_many;
    encode_ns = norm enc;
    decode_ns = norm dec;
    xor_ns = norm (calibrate_xor ~rounds w);
    ladder = List.map (fun (k, v) -> (k, norm v)) (calibrate_ladder ~rounds w);
  }

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit : string; samples : float list }

let selection_labels =
  [
    "selection.sample";
    "selection.compact-sample";
    "selection.sort-sample";
    "selection.grab-brackets";
    "selection.extremes";
    "selection.count";
    "selection.consolidate-range";
    "selection.compact-range";
    "selection.recurse";
  ]

let oram_labels = [ "hier-oram.rebuild"; "hier-oram.stash-scan"; "hier-oram.probe" ]
let phase_labels = selection_labels @ oram_labels

let fsum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let per_op total n = if n = 0 then 0. else total /. Float.of_int n
let ratio a b = if b = 0. then 0. else a /. b

let end_to_end r =
  let u = r.untraced in
  let n = List.length u in
  let op_ms = List.map (fun (x : sample) -> x.ms) u in
  let m name value unit samples = { name; value; unit; samples } in
  let ios = List.map (fun (x : sample) -> Float.of_int (x.reads + x.writes)) u in
  let bytes = List.map (fun (x : sample) -> Float.of_int x.bytes) u in
  [
    m "op_ms_p50" (Summary.median op_ms) "ms" op_ms;
    m "ops_per_s" (ratio (Float.of_int n) (fsum Fun.id op_ms /. 1e3)) "1/s" [];
    m "setup_s" (Summary.median r.setups) "s" r.setups;
    m "ios_per_op" (per_op (fsum Fun.id ios) n) "io/op" ios;
    m "bytes_per_op" (per_op (fsum Fun.id bytes) n) "B/op" bytes;
    m "space_amp" (Summary.median r.space) "ratio" r.space;
  ]

let host_metrics w r =
  let op_ms = List.map (fun (x : sample) -> x.ms) r.untraced in
  let raw = List.map (fun (x : sample) -> x.raw_ms) r.untraced in
  let m name value unit samples = { name; value; unit; samples } in
  [
    m "oram.rebuilds" (if w.oram then Summary.median r.rebuild_counts else 0.) "1/session" r.rebuild_counts;
    m "oram.access_ms_p99" (if w.oram then Summary.percentile op_ms 99. else 0.) "ms" [];
    m "host.ref_ms" (Summary.median r.refs) "ms" r.refs;
    m "host.ref_spread" (Summary.spread r.refs) "ratio" [];
    m "host.raw_op_ms_p50" (Summary.median raw) "ms" raw;
    m "host.op_ms_p90" (Summary.percentile op_ms 90.) "ms" [];
  ]

let per_layer w r ~calib =
  let u = r.untraced and t = r.traced in
  let nu = List.length u and nt = List.length t in
  let m name value unit = { name; value; unit; samples = [] } in
  let u_mean f = per_op (fsum f u) nu in
  let t_mean f = per_op (fsum f t) nt in
  let lay f (x : sample) = match x.layers with Some l -> f l | None -> 0. in
  let ilay f = lay (fun l -> Float.of_int (f l)) in
  let reads = u_mean (fun x -> Float.of_int x.reads) in
  let writes = u_mean (fun x -> Float.of_int x.writes) in
  let ios = fsum (fun x -> Float.of_int (x.reads + x.writes)) u in
  let codec_est = ((calib.encode_ns *. writes) +. (calib.decode_ns *. reads)) /. 1e6 in
  let be_read = t_mean (lay (fun l -> l.read_time)) in
  let be_write = t_mean (lay (fun l -> l.write_time)) in
  let be_sync = t_mean (lay (fun l -> l.sync_time)) in
  let seal = t_mean (lay (fun l -> l.seal_time)) in
  let unseal = t_mean (lay (fun l -> l.unseal_time)) in
  let calls = fsum (ilay (fun l -> l.calls)) t in
  let hits = fsum (ilay (fun l -> l.hits)) t and misses = fsum (ilay (fun l -> l.misses)) t in
  let traced_ms = List.map (fun (x : sample) -> x.ms) t in
  let untraced_ms = List.map (fun (x : sample) -> x.ms) u in
  (* On a sealed store the cipher timer brackets the codec too, so the
     codec estimate is subtracted only where no cipher runs. *)
  let residual =
    t_mean (fun x -> x.ms) -. be_read -. be_write -. be_sync -. seal -. unseal
    -. if w.sealed then 0. else codec_est
  in
  let shard_tot =
    List.fold_left
      (fun acc (x : sample) ->
        if acc = [||] then Array.copy x.shard_ops else Array.mapi (fun i v -> v + x.shard_ops.(i)) acc)
      [||] u
  in
  let skew =
    if Array.length shard_tot = 0 then 0.
    else
      let mx = Array.fold_left max 0 shard_tot and tot = Array.fold_left ( + ) 0 shard_tot in
      ratio (Float.of_int mx) (Float.of_int tot /. Float.of_int (Array.length shard_tot)) -. 1.
  in
  let phase_total label f =
    t_mean (fun x -> fsum (fun (l, ms, ios) -> if l = label then f ms ios else 0.) x.phases)
  in
  (* Top-level spans outside the reported label set fold into
     "unattributed", so the phase columns always add up to the op. *)
  let known l = List.mem l phase_labels in
  let other f = t_mean (fun x -> fsum (fun (l, ms, ios) -> if known l then 0. else f ms ios) x.phases) in
  let phases =
    List.concat_map
      (fun label ->
        [
          m (Printf.sprintf "phase.%s.ms" label) (phase_total label (fun ms _ -> ms)) "ms";
          m (Printf.sprintf "phase.%s.ios" label) (phase_total label (fun _ ios -> Float.of_int ios)) "io/op";
        ])
      phase_labels
    @ [
        m "phase.unattributed.ms" (other (fun ms _ -> ms)) "ms";
        m "phase.unattributed.ios" (other (fun _ ios -> Float.of_int ios)) "io/op";
      ]
  in
  let lad name = List.assoc name calib.ladder in
  [
    m "storage.reads" reads "io/op";
    m "storage.writes" writes "io/op";
    m "storage.batched_share" (ratio (fsum (fun x -> Float.of_int x.batched) u) ios) "ratio";
    m "storage.retries" (u_mean (fun x -> Float.of_int x.retries)) "1/op";
    m "storage.read_ns" calib.read_ns "ns";
    m "storage.write_ns" calib.write_ns "ns";
    m "storage.read_many_ns" calib.read_many_ns "ns";
    m "storage.write_many_ns" calib.write_many_ns "ns";
    m "codec.encode_ns" calib.encode_ns "ns";
    m "codec.decode_ns" calib.decode_ns "ns";
    m "codec.est_ms" codec_est "ms";
    m "cache.hits" (per_op hits nt) "1/op";
    m "cache.misses" (per_op misses nt) "1/op";
    m "cache.hit_rate" (ratio hits (hits +. misses)) "ratio";
    m "cache.flushes" (t_mean (ilay (fun l -> l.flushes))) "1/op";
    m "gc.minor_words_per_io" (ratio (fsum (fun x -> x.minor) u) ios) "words/io";
    m "gc.promoted_words_per_io" (ratio (fsum (fun x -> x.promoted) u) ios) "words/io";
    m "gc.major_collections" (u_mean (fun x -> Float.of_int x.majors)) "1/op";
    m "backend.read_ms" be_read "ms";
    m "backend.write_ms" be_write "ms";
    m "backend.sync_ms" be_sync "ms";
    m "backend.calls" (per_op calls nt) "1/op";
    m "backend.blocks_per_call" (ratio (fsum (ilay (fun l -> l.blocks)) t) calls) "blocks";
    m "ladder.mem_ns" (lad "mem") "ns";
    m "ladder.file_ns" (lad "file") "ns";
    m "ladder.stripe_ns" (lad "stripe") "ns";
    m "ladder.journal_ns" (lad "journal") "ns";
    m "ladder.seal_ns" (lad "seal") "ns";
    m "stripe.skew" skew "ratio";
    m "journal.commits" (u_mean (fun x -> Float.of_int x.commits)) "1/op";
    m "journal.appends" (u_mean (fun x -> Float.of_int x.appends)) "1/op";
    m "cipher.seal_ms" seal "ms";
    m "cipher.unseal_ms" unseal "ms";
    m "cipher.xor_ns" calib.xor_ns "ns";
  ]
  @ phases
  @ [
      m "algorithm.residual_ms" residual "ms";
      m "trace_overhead" (ratio (Summary.median traced_ms) (Summary.median untraced_ms)) "ratio";
    ]

(* ---- measurement ---- *)

type result = {
  workload : workload;
  run : run;
  e2e : metric list;
  layer : metric list;  (** Empty unless traced. *)
  host : metric list;
  correct : bool;
}

(* Untimed warm-up, as a share of the budget: the file-backed workload
   ran 20-30% slower for its first 2-4 s in a fresh process. *)
let warmup_share = 0.1

let measure ?(quick = false) w ~seed ~seconds ~trace =
  let r = new_run () in
  let rng = Rng.create ~seed in
  (* At least one session each, then more until [until] seconds since
     [t0] have passed. *)
  let loop ?(t0 = Host.now_ns ()) ~rng ~traced ~record ~until () =
    let first = ref true in
    while !first || Host.elapsed_ns t0 /. 1e9 < until do
      first := false;
      run_session r w ~rng ~traced ~record
    done
  in
  if not quick then
    loop ~rng:(Rng.split rng) ~traced:false ~record:false ~until:(warmup_share *. seconds) ();
  let t0 = Host.now_ns () in
  loop ~t0 ~rng ~traced:false ~record:true ~until:(if trace then seconds /. 2. else seconds) ();
  if trace then loop ~t0 ~rng ~traced:true ~record:true ~until:seconds ();
  let host = host_metrics w r in
  let layer =
    if not trace then []
    else
      let calib = calibrate ~rounds:(if quick then 2 else 16) ~ref_ms:(Summary.median r.refs) w in
      per_layer w r ~calib @ host
  in
  { workload = w; run = r; e2e = end_to_end r; layer; host; correct = r.failed = 0 && r.attempted > 0 }
