(* Shared helpers for the test suites. *)

open Odex_extmem

(* A [Bigbuf.t] is a char Bigarray, so tests copy bytes in and out of it
   directly. *)
let big_of_bytes b =
  let buf = Odex_crypto.Bigbuf.create (Bytes.length b) in
  Bytes.iteri (fun i c -> buf.{i} <- c) b;
  buf

let bytes_of_big buf = Bytes.init (Odex_crypto.Bigbuf.length buf) (fun i -> buf.{i})

(* Each order on decoded cells, written out independently of lib: the
   reference the image comparator and the sorters are checked against.
   Empties sort last and tie each other. *)
let order_reference (o : Order.t) c1 c2 =
  match (c1, c2) with
  | Cell.Empty, Cell.Empty -> 0
  | Cell.Empty, Cell.Item _ -> 1
  | Cell.Item _, Cell.Empty -> -1
  | Cell.Item x, Cell.Item y -> (
      match o with
      | Keys -> compare (x.key, x.tag) (y.key, y.tag)
      | By_tag -> compare (x.tag, x.key) (y.tag, y.key)
      | By_aux -> compare (x.aux, x.key, x.tag) (y.aux, y.key, y.tag)
      | Dedup -> compare (x.key, y.tag) (y.key, x.tag))

(* Whole-block [bytes] transfers: runs of one over the backend API. *)
let read_block (b : Backend.t) addr =
  let payload = b.payload_bytes in
  let buf = Odex_crypto.Bigbuf.create payload in
  b.read_run ~addr ~count:1 ~payload ~buf ~off:0;
  bytes_of_big buf

let write_block (b : Backend.t) addr bytes =
  b.write_run ~addr ~count:1 ~payload:(b.payload_bytes)
    ~buf:(big_of_bytes bytes) ~off:0

(* The registry entry, and its pair-test subject, labelled [name]. *)
let registry name =
  List.find
    (fun (e : Odex_obcheck.Registry.entry) -> e.subject.name = name)
    Odex_obcheck.Registry.all

let subject name = (registry name).subject

let storage ?cipher ?(trace = Trace.Digest) ~b () =
  Storage.create ?cipher ~trace_mode:trace ~block_size:b ()

let cells_of_keys keys =
  Array.mapi (fun i k -> Cell.item ~tag:i ~key:k ~value:(k * 10) ()) keys

(* Block [i] of an array through the store's decoded view: one counted
   read, as an algorithm would make it. *)
let read_at a i = Storage.read (Ext_array.storage a) (Ext_array.addr a i)

(* A decoded block's items, in block order. *)
let block_items (blk : Block.t) =
  List.filter_map (function Cell.Empty -> None | Cell.Item it -> Some it) (Array.to_list blk)

(* The array's blocks, read out of band (uncounted, untraced). *)
let peek_blocks a =
  List.init (Ext_array.blocks a) (fun i ->
      Storage.unchecked_peek (Ext_array.storage a) (Ext_array.addr a i))

let occupied_blocks a =
  List.length (List.filter (Array.exists Cell.is_item) (peek_blocks a))

(* Lemma 3's postcondition: every block is full or empty, except that the
   last non-empty block may be partial. *)
let occupied_prefix_property a =
  let count blk = List.length (block_items blk) in
  match List.rev (List.filter (( <> ) 0) (List.map count (peek_blocks a))) with
  | [] -> true
  | _ :: rest -> List.for_all (( = ) (Ext_array.block_size a)) rest

(* Every block's items share one color. *)
let monochromatic ~color_of a =
  List.for_all
    (fun blk -> List.length (List.sort_uniq compare (List.map color_of (block_items blk))) <= 1)
    (peek_blocks a)

(* The 1-indexed rank quantile [i] of [q] targets among [total] items:
   ⌈i·total/(q+1)⌉. *)
let quantile_rank ~total ~q i = max 1 (((i * total) + q) / (q + 1))

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
   from self_init unless QCHECK_SEED is set). [print] shows a failing
   case's shrunk counterexample. *)
let qcheck_case ?(count = 100) ?print ~name gen prop =
  let rand = Random.State.make [| base_seed; seed_stream name 0 |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ?print ~name gen prop)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [open_] (which closes whatever it opens) must raise [Invalid_argument]
   naming [cause], and leave every file in [paths] byte-identical: a
   refused store or journal is never migrated, replayed or truncated. *)
let check_refused ~what ~cause ~paths open_ =
  let before = List.map read_file paths in
  (match open_ () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what msg cause) true
        (contains msg cause)
  | () -> Alcotest.failf "%s: opened instead of being refused" what);
  List.iter2
    (fun path b ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s byte-identical" what path) true
        (String.equal b (read_file path)))
    paths before
