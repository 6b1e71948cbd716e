(* Shared helpers for the test suites. *)

open Odex_extmem

let storage ?cipher ?(trace = Trace.Digest) ~b () =
  Storage.create ?cipher ~trace_mode:trace ~block_size:b ()

let cells_of_keys keys =
  Array.mapi (fun i k -> Cell.item ~tag:i ~key:k ~value:(k * 10) ()) keys

let random_keys rng n ~bound = Array.init n (fun _ -> Odex_crypto.Rng.int rng bound)

let keys_of_items items = List.map (fun (it : Cell.item) -> it.key) items

let is_sorted_list keys = List.sort compare keys = keys

let sorted_multiset_equal a b = List.sort compare a = List.sort compare b

(* Run [f] on a fresh storage seeded with [cells]; return (result, array). *)
let with_array ?cipher ?trace ~b cells f =
  let s = storage ?cipher ?trace ~b () in
  let a = Ext_array.of_cells s ~block_size:b cells in
  let r = f s a in
  (r, a)

let check_sorted_by_key msg a =
  let keys = keys_of_items (Ext_array.items a) in
  Alcotest.(check bool) (msg ^ ": keys sorted") true (is_sorted_list keys)

let check_multiset msg expected_keys a =
  let keys = keys_of_items (Ext_array.items a) in
  Alcotest.(check bool)
    (msg ^ ": multiset preserved")
    true
    (sorted_multiset_equal keys (Array.to_list expected_keys))

(* Run [f] on a fresh digest-traced storage holding [cells]; return the
   array, the whole run's trace digest and length, and the counted I/Os
   [f] itself issued. *)
let traced_run ~b cells f =
  let s = storage ~trace:Trace.Digest ~b () in
  let a = Ext_array.of_cells s ~block_size:b cells in
  let before = Stats.total (Storage.stats s) in
  f s a;
  ( a,
    Trace.digest (Storage.trace s),
    Trace.length (Storage.trace s),
    Stats.total (Storage.stats s) - before )

(* Trace digest of running [f] on data [cells] with a fixed-seed rng. *)
let trace_digest ~b ~seed cells f =
  let rng = Odex_crypto.Rng.create ~seed in
  let _, digest, length, _ = traced_run ~b cells (f rng) in
  (digest, length)

(* One suite-wide base seed. Every pseudo-random choice in the test
   suites — qcheck generator streams, per-case rngs, Monte-Carlo trial
   seeds — derives from it deterministically, so `dune runtest` is
   bit-reproducible run to run and machine to machine. *)
let base_seed = 0x0DE_5EED

(* The i-th seed of a named deterministic stream: distinct names give
   unrelated-looking streams (splitmix-style mixing), the same
   (name, i) always gives the same seed. Use this instead of ad-hoc
   seed arithmetic when a test needs many independent seeds. *)
let seed_stream name i =
  let h = ref (base_seed lxor (i * 0x9E3779B9)) in
  String.iter (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land 0x3FFFFFFF) name;
  let z = !h + 0x6D2B79F5 in
  let z = (z lxor (z lsr 15)) * 0x2C1B3C6D land 0x3FFFFFFFFFFF in
  let z = (z lxor (z lsr 12)) * 0x297A2D39 land 0x3FFFFFFFFFFF in
  z lxor (z lsr 15)

let rng_of name i = Odex_crypto.Rng.create ~seed:(seed_stream name i)

(* qcheck cases run under a pinned generator stream: the random state is
   derived from [base_seed] and the case name, never from the clock, so
   every run draws the same inputs (QCheck's default state is seeded
   from self_init unless QCHECK_SEED is set). *)
let qcheck_case ?(count = 100) ~name gen prop =
  let rand = Random.State.make [| base_seed; seed_stream name 0 |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)
