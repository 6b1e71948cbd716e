open Odex_extmem

type subject = {
  name : string;
  run : rng:Odex_crypto.Rng.t -> m:int -> Storage.t -> Ext_array.t -> unit;
}

type run_info = {
  trace_length : int;
  digest : int64;
  reads : int;
  writes : int;
  retries : int;
  span_count : int;
  bytes_moved : int;
  batched_ios : int;
  shard_ios : int array;
  shards : int option;
  shard_digests : (int * int64) array;
}

type outcome = {
  subject : string;
  n_cells : int;
  b : int;
  m : int;
  backend : string;
  oblivious : bool;
  combined_ok : bool;
  servers_ok : bool;
  diverging_span : string option;
  diverging_shard : (int * string) option;
  run_a : run_info;
  run_b : run_info;
}

(* A value-disjoint input pair: identical length and occupancy pattern
   (the public shape), but run A's keys and values live in [base, base +
   keyspan) with base = 0 and run B's with base = keyspan, drawn from
   independent streams — the two inputs share no key, no value, and no
   relative order. Anything Bob's trace reveals beyond the shape is a
   leak the digest comparison will catch. *)
let pair_inputs ~seed ~n =
  let shape_rng = Odex_crypto.Rng.create ~seed:(seed lxor 0x5117) in
  let occupied = Array.init n (fun _ -> Odex_crypto.Rng.int shape_rng 4 <> 0) in
  let keyspan = 4 * max 1 n in
  let fill ~rng ~base =
    Array.map
      (fun occ ->
        if occ then
          Cell.item
            ~key:(base + Odex_crypto.Rng.int rng keyspan)
            ~value:(base + Odex_crypto.Rng.int rng keyspan)
            ()
        else Cell.empty)
      occupied
  in
  let a = fill ~rng:(Odex_crypto.Rng.create ~seed:(seed lxor 0xA11CE)) ~base:0 in
  let b = fill ~rng:(Odex_crypto.Rng.create ~seed:(seed lxor 0xB0B00)) ~base:keyspan in
  (a, b)

(* A rank-isomorphic pair: same shape and same *relative order* (cell i
   of run A compares to cell j exactly as in run B), but every key and
   value is disjoint — A maps the shared rank r to 2r, B to 2r+1, both
   strictly monotone with interleaved (disjoint) images. This is the
   certificate for comparison-driven subjects whose schedule is a
   function of the rank sequence (e.g. the bucket sort's merge phase):
   trace equality here proves the trace reveals nothing beyond shape
   and ranks, and the statistical check (Statcheck.trace_distribution)
   separately proves the rank-dependence is whitened by the coins. *)
let pair_inputs_isomorphic ~seed ~n =
  let shape_rng = Odex_crypto.Rng.create ~seed:(seed lxor 0x5117) in
  let occupied = Array.init n (fun _ -> Odex_crypto.Rng.int shape_rng 4 <> 0) in
  let keyspan = 4 * max 1 n in
  let rank_rng = Odex_crypto.Rng.create ~seed:(seed lxor 0x4A11) in
  let ranks =
    Array.map (fun occ -> if occ then Odex_crypto.Rng.int rank_rng keyspan else 0) occupied
  in
  let fill ~parity =
    Array.mapi
      (fun i occ ->
        if occ then
          Cell.item ~key:((2 * ranks.(i)) + parity) ~value:((2 * ranks.(i)) + parity) ()
        else Cell.empty)
      occupied
  in
  (fill ~parity:0, fill ~parity:1)

(* One monitored run: fresh storage on the requested backend, the input
   laid out uncounted, the algorithm's coins fixed by [seed]. Returns the
   live trace (for span divergence) alongside the summary numbers. The
   storage is closed before returning so a file-backed pair can reuse one
   path for both runs. *)
let execute ?telemetry ?cipher ?cipher_engine subject ~backend ~b ~m ~seed cells =
  (* Zero backoff: the harness compares traces, not wall-clock, and a
     fuzzed faulty backend injects thousands of retries per run —
     sleeping through real (if tiny) delays would dominate the suite. *)
  let s =
    Storage.create ?telemetry ?cipher ?cipher_engine ~trace_mode:Trace.Digest ~backend
      ~backoff:(0., 0.) ~block_size:b ()
  in
  let kind = Storage.backend_kind s in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let arr = Ext_array.of_cells s ~block_size:b cells in
      let rng = Odex_crypto.Rng.create ~seed in
      subject.run ~rng ~m s arr;
      let tr = Storage.trace s and st = Storage.stats s in
      let shard_traces = Storage.shard_traces s in
      let info =
        {
          trace_length = Trace.length tr;
          digest = Trace.digest tr;
          reads = Stats.reads st;
          writes = Stats.writes st;
          retries = Stats.retries st;
          span_count = List.length (Trace.spans tr);
          bytes_moved = Stats.bytes_moved st;
          batched_ios = Stats.batched_ios st;
          shard_ios = Storage.shard_ios s;
          shards = Storage.shard_count s;
          shard_digests =
            Array.map (fun str -> (Trace.length str, Trace.digest str)) shard_traces;
        }
      in
      (tr, shard_traces, info, kind))

(* First shard whose per-server traces part ways, with the span label of
   the divergence — the multi-server analogue of [diverging_span]. *)
let shard_divergence strs_a strs_b =
  if Array.length strs_a <> Array.length strs_b then
    Some (-1, "per-server trace counts differ across the pair")
  else
    let rec find i =
      if i >= Array.length strs_a then None
      else if Trace.equal strs_a.(i) strs_b.(i) then find (i + 1)
      else
        Some
          (i, Option.value (Trace.diverging_label strs_a.(i) strs_b.(i)) ~default:"<unknown>")
    in
    find 0

let check ?(seed = 0x0b5e55) ?(backend = Storage.Mem) ?backend_b ?telemetry ?cipher
    ?cipher_engine ?(pair = `Disjoint) ?(multi_server = false) subject ~n_cells ~b ~m =
  let backend_b = Option.value backend_b ~default:backend in
  let cells_a, cells_b =
    match pair with
    | `Disjoint -> pair_inputs ~seed ~n:n_cells
    | `Isomorphic -> pair_inputs_isomorphic ~seed ~n:n_cells
  in
  (* The sink (if any) instruments run A only, while run B stays
     uninstrumented: [oblivious = true] then also certifies that enabling
     telemetry changed not a single trace op. *)
  let tr_a, strs_a, run_a, kind =
    execute ?telemetry ?cipher ?cipher_engine subject ~backend ~b ~m ~seed cells_a
  in
  let tr_b, strs_b, run_b, _ =
    execute ?cipher ?cipher_engine subject ~backend:backend_b ~b ~m ~seed cells_b
  in
  let combined_ok = Trace.equal tr_a tr_b in
  (* The per-server tier: each shard is its own adversary, so each
     shard's trace must be value-independent on its own — alongside the
     per-shard op counts (the coarse view) and the shard layout itself.
     [None] (no stripe) and [Some 1] (a degenerate one-shard stripe) are
     deliberately distinct layouts: a pair that runs one leg unsharded
     and one leg on a 1-stripe is flagged, never vacuously passed. *)
  let diverging_shard =
    if run_a.shards <> run_b.shards then Some (-1, "shard layouts differ across the pair")
    else shard_divergence strs_a strs_b
  in
  let servers_ok = diverging_shard = None && run_a.shard_ios = run_b.shard_ios in
  (* A [`Multi_server]-certified subject running on a real (k >= 2)
     stripe is allowed an occupancy-dependent combined trace — that is
     the model it exploits — but every individual server must still see
     a fixed sequence. Everywhere else the combined tier is required
     too. *)
  let combined_required =
    (not multi_server) || (match run_a.shards with Some k -> k < 2 | None -> true)
  in
  let oblivious = servers_ok && ((not combined_required) || combined_ok) in
  let diverging_span = if combined_ok then None else Trace.diverging_label tr_a tr_b in
  {
    subject = subject.name;
    n_cells;
    b;
    m;
    backend = kind;
    oblivious;
    combined_ok;
    servers_ok;
    diverging_span;
    diverging_shard;
    run_a;
    run_b;
  }

let pp_outcome ppf o =
  if o.oblivious then
    Format.fprintf ppf "%s[%s]: OBLIVIOUS (%d ops, digest %016Lx, %d spans%s%s)" o.subject
      o.backend o.run_a.trace_length o.run_a.digest o.run_a.span_count
      (if o.run_a.retries > 0 then Printf.sprintf ", %d retries" o.run_a.retries else "")
      (match o.run_a.shards with
      | Some k -> Printf.sprintf ", %d servers" k
      | None -> "")
  else if not o.servers_ok then
    let shard, where = Option.value o.diverging_shard ~default:(-1, "<unknown>") in
    Format.fprintf ppf "%s[%s]: PER-SERVER TRACES DIVERGE on shard %d in %s" o.subject
      o.backend shard where
  else
    Format.fprintf ppf "%s[%s]: TRACES DIVERGE in %s (A: %d ops %016Lx, B: %d ops %016Lx)"
      o.subject o.backend
      (Option.value o.diverging_span ~default:"<unknown>")
      o.run_a.trace_length o.run_a.digest o.run_b.trace_length o.run_b.digest
