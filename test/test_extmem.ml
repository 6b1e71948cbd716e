open Odex_extmem
module Bigbuf = Odex_crypto.Bigbuf

let cell_t = Alcotest.testable Cell.pp Cell.equal

(* The one cell codec, [Cell.encode_big]/[decode_big], round-trips at
   the start of a buffer and at an interior offset. *)
let test_cell_roundtrip () =
  let buf = Bigbuf.create (3 * Cell.encoded_size) in
  let samples =
    [
      Cell.empty;
      Cell.item ~key:7 ~value:(-3) ();
      Cell.item ~tag:99 ~aux:(-1) ~key:min_int ~value:max_int ();
    ]
  in
  List.iter
    (fun off ->
      List.iter
        (fun c ->
          Cell.encode_big buf off c;
          Alcotest.check cell_t (Printf.sprintf "roundtrip at %d" off) c (Cell.decode_big buf off))
        samples)
    [ 0; 13; 2 * Cell.encoded_size ]

(* The bucket kernels zero tail cells rather than encoding [Empty]: an
   all-zero image must decode to [Empty], and [Empty] must encode to
   all zeros. *)
let test_zero_image_is_empty () =
  let b = 5 in
  let zeros = Bigbuf.create (Block.encoded_size b) in
  Array.iteri
    (fun i c -> Alcotest.check cell_t (Printf.sprintf "zero image cell %d" i) Cell.empty c)
    (Block.decode_from_big ~block_size:b zeros 0);
  let buf = Bigbuf.create Cell.encoded_size in
  Bigbuf.fill buf '\xff';
  Cell.encode_big buf 0 Cell.empty;
  Alcotest.(check string) "empty encodes to zeros" (String.make Cell.encoded_size '\000')
    (Bigbuf.sub_string buf 0 Cell.encoded_size);
  let flat = Flat.create ~block_size:b ~blocks:2 in
  let off = Flat.cell_offset flat ~block:1 ~slot:3 in
  Flat.set_cell flat off (Cell.item ~key:1 ~value:2 ());
  Flat.clear_cell flat off;
  Alcotest.check cell_t "cleared image decodes to empty" Cell.empty
    (Cell.decode_big (Flat.buffer flat) off)

(* A constructor word other than 0 (empty) or 1 (item) is corrupt — a
   wrong key or a torn block — and must raise, never decode. *)
let test_bad_constructor_word () =
  let b = 2 in
  let buf = Bigbuf.create (Block.encoded_size b) in
  Block.encode_into_big [| Cell.item ~key:1 ~value:1 (); Cell.empty |] buf 0;
  Bigbuf.set64_le buf Cell.encoded_size 2L;
  Alcotest.check_raises "cell decode"
    (Invalid_argument "Cell.decode_big: bad constructor word 2") (fun () ->
      ignore (Cell.decode_big buf Cell.encoded_size));
  Alcotest.check_raises "block decode"
    (Invalid_argument "Cell.decode_big: bad constructor word 2") (fun () ->
      ignore (Block.decode_from_big ~block_size:b buf 0))

let test_cell_ordering () =
  let a = Cell.item ~key:1 ~value:0 () in
  let b = Cell.item ~key:2 ~value:0 () in
  Alcotest.(check bool) "1 < 2" true (Cell.compare_keys a b < 0);
  Alcotest.(check bool) "empty last" true (Cell.compare_keys a Cell.empty < 0);
  Alcotest.(check bool) "empty = empty" true (Cell.compare_keys Cell.empty Cell.empty = 0);
  let t1 = Cell.item ~tag:1 ~key:5 ~value:0 () in
  let t2 = Cell.item ~tag:2 ~key:5 ~value:0 () in
  Alcotest.(check bool) "tag breaks key ties" true (Cell.compare_keys t1 t2 < 0);
  Alcotest.(check bool) "compare_by_tag orders by tag" true
    (Cell.compare_by_tag t2 (Cell.item ~tag:3 ~key:0 ~value:0 ()) < 0)

let test_cell_accessors () =
  let c = Cell.item ~tag:4 ~key:1 ~value:2 () in
  Alcotest.(check int) "key" 1 (Cell.key_exn c);
  Alcotest.(check int) "value" 2 (Cell.value_exn c);
  Alcotest.(check int) "tag" 4 (Cell.tag_exn c);
  Alcotest.check cell_t "with_tag" (Cell.item ~tag:9 ~key:1 ~value:2 ()) (Cell.with_tag c 9);
  Alcotest.check cell_t "with_tag empty" Cell.empty (Cell.with_tag Cell.empty 9);
  Alcotest.check_raises "get empty" (Invalid_argument "Cell.get: empty cell") (fun () ->
      ignore (Cell.get Cell.empty))

let test_block_basics () =
  let blk = Block.make 4 in
  Alcotest.(check int) "empty count" 0 (Block.count_items blk);
  Alcotest.(check bool) "is_empty" true (Block.is_empty blk);
  let items = [ { Cell.key = 1; value = 10; tag = 0; aux = 0 }; { Cell.key = 2; value = 20; tag = 0; aux = 0 } ] in
  let blk = Block.of_items 4 items in
  Alcotest.(check int) "count" 2 (Block.count_items blk);
  Alcotest.(check bool) "not full" false (Block.is_full blk);
  Alcotest.(check (list int)) "items order" [ 1; 2 ]
    (List.map (fun (it : Cell.item) -> it.key) (Block.items blk));
  let off = 8 in
  let buf = Bigbuf.create (off + Block.encoded_size 4) in
  Block.encode_into_big blk buf off;
  let decoded = Block.decode_from_big ~block_size:4 buf off in
  Array.iteri (fun i c -> Alcotest.check cell_t "encode roundtrip" blk.(i) c) decoded;
  Alcotest.check_raises "encode past the end"
    (Invalid_argument "Block.encode_into_big: region out of bounds") (fun () ->
      Block.encode_into_big blk buf (off + 1));
  Alcotest.check_raises "decode past the end"
    (Invalid_argument "Block.decode_from_big: region out of bounds") (fun () ->
      ignore (Block.decode_from_big ~block_size:4 buf (off + 1)))

let test_block_sort () =
  let blk =
    [| Cell.item ~key:3 ~value:0 (); Cell.empty; Cell.item ~key:1 ~value:0 (); Cell.item ~key:2 ~value:0 () |]
  in
  Block.sort_in_place Cell.compare_keys blk;
  Alcotest.(check (list int)) "sorted, empties last" [ 1; 2; 3 ]
    (List.map (fun (it : Cell.item) -> it.key) (Block.items blk));
  Alcotest.(check bool) "last is empty" true (Cell.is_empty blk.(3))

let test_storage_roundtrip () =
  let s = Util.storage ~b:4 () in
  let base = Storage.alloc s 3 in
  Alcotest.(check int) "capacity" 3 (Storage.capacity s);
  let blk = Block.make 4 in
  blk.(1) <- Cell.item ~key:42 ~value:1 ();
  Storage.write s (base + 1) blk;
  (* Mutating our buffer after the write must not affect the stored copy. *)
  blk.(1) <- Cell.empty;
  let got = Storage.read s (base + 1) in
  Alcotest.check cell_t "stored copy isolated" (Cell.item ~key:42 ~value:1 ()) got.(1);
  (* Mutating what read returned must not affect storage either. *)
  got.(1) <- Cell.empty;
  let again = Storage.read s (base + 1) in
  Alcotest.check cell_t "read returns copies" (Cell.item ~key:42 ~value:1 ()) again.(1)

let test_storage_accounting () =
  let s = Util.storage ~b:2 () in
  let base = Storage.alloc s 2 in
  Alcotest.(check int) "alloc costs no IO" 0 (Stats.total (Storage.stats s));
  ignore (Storage.read s base);
  Storage.write s base (Block.make 2);
  ignore (Storage.read s (base + 1));
  Alcotest.(check int) "reads" 2 (Stats.reads (Storage.stats s));
  Alcotest.(check int) "writes" 1 (Stats.writes (Storage.stats s));
  Alcotest.(check int) "trace length" 3 (Trace.length (Storage.trace s))

let test_storage_bounds () =
  let s = Util.storage ~b:2 () in
  ignore (Storage.alloc s 1);
  Alcotest.(check bool) "oob read raises" true
    (try
       ignore (Storage.read s 5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong block size raises" true
    (try
       Storage.write s 0 (Block.make 3);
       false
     with Invalid_argument _ -> true)

let test_storage_encrypted () =
  let key = Odex_crypto.Cipher.key_of_int 123 in
  let s = Util.storage ~cipher:key ~b:4 () in
  let base = Storage.alloc s 2 in
  let blk = Block.make 4 in
  blk.(0) <- Cell.item ~key:7 ~value:70 ();
  Storage.write s base blk;
  let got = Storage.read s base in
  Alcotest.check cell_t "encrypted roundtrip" blk.(0) got.(0);
  let fresh = Storage.read s (base + 1) in
  Alcotest.(check bool) "alloc'd block decrypts to empties" true (Block.is_empty fresh)

let test_trace_modes () =
  let t = Trace.create Trace.Full in
  Trace.record t (Trace.Read 3);
  Trace.record t (Trace.Write 4);
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check bool) "ops" true (Trace.ops t = [ Trace.Read 3; Trace.Write 4 ]);
  let d = Trace.create Trace.Digest in
  Trace.record d (Trace.Read 3);
  Trace.record d (Trace.Write 4);
  Alcotest.(check bool) "digest matches full" true (Trace.equal t d);
  let d2 = Trace.create Trace.Digest in
  Trace.record d2 (Trace.Write 4);
  Trace.record d2 (Trace.Read 3);
  Alcotest.(check bool) "order matters" false (Trace.equal d d2);
  let off = Trace.create Trace.Off in
  Trace.record off (Trace.Read 1);
  Alcotest.(check int) "off records nothing" 0 (Trace.length off)

let test_ext_array () =
  let s = Util.storage ~b:3 () in
  let cells = Util.cells_of_keys [| 5; 4; 3; 2; 1; 0; 9 |] in
  let a = Ext_array.of_cells s ~block_size:3 cells in
  Alcotest.(check int) "blocks" 3 (Ext_array.blocks a);
  Alcotest.(check int) "cells" 9 (Ext_array.cells a);
  Alcotest.(check int) "setup costs no IO" 0 (Stats.total (Storage.stats s));
  let back = Ext_array.to_cells a in
  Array.iteri (fun i c -> Alcotest.check cell_t "roundtrip" c back.(i)) cells;
  Alcotest.(check (list int)) "items" [ 5; 4; 3; 2; 1; 0; 9 ]
    (Util.keys_of_items (Ext_array.items a));
  let sub = Ext_array.sub a ~off:1 ~len:2 in
  Alcotest.(check int) "sub blocks" 2 (Ext_array.blocks sub);
  Alcotest.(check int) "sub addr" (Ext_array.addr a 1) (Ext_array.addr sub 0);
  let blk = Ext_array.read_block a 0 in
  Alcotest.check cell_t "read_block" cells.(0) blk.(0);
  Alcotest.(check int) "read counted" 1 (Stats.reads (Storage.stats s))

let test_ext_array_concat () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.create s ~blocks:2 in
  let b = Ext_array.create s ~blocks:3 in
  (match Ext_array.concat_views a b with
  | Some c ->
      Alcotest.(check int) "concat blocks" 5 (Ext_array.blocks c);
      Alcotest.(check int) "concat base" (Ext_array.base a) (Ext_array.base c)
  | None -> Alcotest.fail "adjacent views should concat");
  Alcotest.(check bool) "non-adjacent refuses" true (Ext_array.concat_views b a = None)

let test_cache_accounting () =
  let s = Util.storage ~b:2 () in
  let base = Storage.alloc s 5 in
  let c = Cache.create s ~capacity:3 in
  ignore (Cache.load c base);
  ignore (Cache.load c (base + 1));
  ignore (Cache.load c base);
  Alcotest.(check int) "resident" 2 (Cache.resident c);
  Alcotest.(check int) "only two read IOs" 2 (Stats.reads (Storage.stats s));
  let blk = Cache.borrow c base in
  blk.(0) <- Cell.item ~key:1 ~value:1 ();
  Cache.flush c base;
  Alcotest.(check int) "flush writes" 1 (Stats.writes (Storage.stats s));
  Alcotest.(check bool) "evicted" false (Cache.is_resident c base);
  let got = Storage.read s base in
  Alcotest.check cell_t "mutation persisted" (Cell.item ~key:1 ~value:1 ()) got.(0)

let test_cache_copy_boundary () =
  let s = Util.storage ~b:2 () in
  let base = Storage.alloc s 1 in
  let c = Cache.create s ~capacity:2 in
  (* [load] hands out a caller-owned copy: mutating it must not reach
     the resident block, so the flush writes the originals back. *)
  let copy = Cache.load c base in
  copy.(0) <- Cell.item ~key:9 ~value:9 ();
  Cache.flush c base;
  Alcotest.(check bool) "mutated load copy not flushed" true
    (Block.is_empty (Storage.read s base));
  (* [get] on a resident block is a copy too. *)
  ignore (Cache.load c base);
  let got = Cache.get c base in
  got.(0) <- Cell.item ~key:8 ~value:8 ();
  Cache.flush c base;
  Alcotest.(check bool) "mutated get copy not flushed" true
    (Block.is_empty (Storage.read s base));
  (* [put] stores a copy of the caller's buffer. *)
  let mine = Block.make 2 in
  mine.(0) <- Cell.item ~key:1 ~value:1 ();
  Cache.put c base mine;
  mine.(0) <- Cell.item ~key:2 ~value:2 ();
  Cache.flush c base;
  Alcotest.check cell_t "put copied the buffer" (Cell.item ~key:1 ~value:1 ())
    (Storage.read s base).(0);
  (* [borrow] is the one sharing entry point: in-place mutation sticks. *)
  ignore (Cache.load c base);
  let shared = Cache.borrow c base in
  shared.(0) <- Cell.item ~key:3 ~value:3 ();
  Cache.flush c base;
  Alcotest.check cell_t "borrow shares the resident block" (Cell.item ~key:3 ~value:3 ())
    (Storage.read s base).(0)

let test_cache_overflow () =
  let s = Util.storage ~b:2 () in
  let base = Storage.alloc s 5 in
  let c = Cache.create s ~capacity:2 in
  ignore (Cache.load c base);
  ignore (Cache.load c (base + 1));
  Alcotest.(check bool) "third load overflows" true
    (try
       ignore (Cache.load c (base + 2));
       false
     with Cache.Overflow _ -> true);
  Cache.drop c base;
  ignore (Cache.load c (base + 3));
  (* The refused load never became resident, so the peak is the capacity. *)
  Alcotest.(check int) "peak tracked" 2 (Cache.peak c)

let test_cache_flush_all_order () =
  let s = Util.storage ~b:2 () in
  let base = Storage.alloc s 4 in
  let c = Cache.create s ~capacity:4 in
  ignore (Cache.load c (base + 2));
  ignore (Cache.load c base);
  ignore (Cache.load c (base + 3));
  let t0 = Trace.length (Storage.trace s) in
  Cache.flush_all c;
  let ops = Trace.ops (Storage.trace s) in
  ignore t0;
  (* Digest mode: verify only counts; address order is covered by the
     deterministic-trace tests at the algorithm level. *)
  Alcotest.(check int) "all flushed" 0 (Cache.resident c);
  Alcotest.(check int) "three writes" 3 (Stats.writes (Storage.stats s));
  ignore ops

(* A [Full] trace dump keeps only the first and last [pp_keep] ops; a
   multi-million-op trace must never flood a failing test's output. *)
let test_trace_pp_truncation () =
  let tr = Trace.create Trace.Full in
  for i = 0 to 199 do
    Trace.record tr (Trace.Read i)
  done;
  let out = Format.asprintf "%a" Trace.pp tr in
  Alcotest.(check bool) "head kept" true (Util.contains out "R0");
  Alcotest.(check bool) "tail kept" true (Util.contains out "R199");
  Alcotest.(check bool) "middle elided" false (Util.contains out "R100");
  Alcotest.(check bool) "elision marker" true (Util.contains out "(136 ops elided)");
  let short = Trace.create Trace.Full in
  for i = 0 to 9 do
    Trace.record short (Trace.Write i)
  done;
  let out = Format.asprintf "%a" Trace.pp short in
  Alcotest.(check bool) "short trace printed whole" false (Util.contains out "elided");
  Alcotest.(check bool) "short trace has every op" true (Util.contains out "W9")

let test_emodel () =
  Alcotest.(check int) "ceil_div" 3 (Emodel.ceil_div 7 3);
  Alcotest.(check int) "ceil_div exact" 2 (Emodel.ceil_div 6 3);
  Alcotest.(check int) "ilog2_floor 1" 0 (Emodel.ilog2_floor 1);
  Alcotest.(check int) "ilog2_floor 9" 3 (Emodel.ilog2_floor 9);
  Alcotest.(check int) "ilog2_ceil 9" 4 (Emodel.ilog2_ceil 9);
  Alcotest.(check int) "ilog2_ceil 8" 3 (Emodel.ilog2_ceil 8);
  Alcotest.(check int) "log_star 2^16" 4 (Emodel.log_star 65536);
  Alcotest.(check int) "log_star 16" 3 (Emodel.log_star 16);
  Alcotest.(check int) "log_star 2" 1 (Emodel.log_star 2);
  Alcotest.(check int) "tower 1" 4 (Emodel.tower_of_twos 1);
  Alcotest.(check int) "tower 2" 16 (Emodel.tower_of_twos 2);
  Alcotest.(check int) "tower 3" 65536 (Emodel.tower_of_twos 3);
  Alcotest.(check int) "tower 4 saturates" max_int (Emodel.tower_of_twos 4);
  Alcotest.(check bool) "wide block holds" true (Emodel.wide_block_ok ~n_blocks:256 ~block_size:8);
  Alcotest.(check bool) "wide block fails" false (Emodel.wide_block_ok ~n_blocks:(1 lsl 20) ~block_size:4);
  Alcotest.(check bool) "tall cache holds" true (Emodel.tall_cache_ok ~block_size:8 64);
  Alcotest.(check bool) "tall cache fails" false (Emodel.tall_cache_ok ~block_size:64 100)

let gen_cell =
  QCheck2.Gen.(
    oneof
      [
        pure Cell.empty;
        map
          (fun (key, value, tag, aux) -> Cell.item ~tag ~aux ~key ~value ())
          (quad int int int int);
      ])

let prop_cell_roundtrip =
  Util.qcheck_case ~name:"cell encode/decode roundtrip"
    QCheck2.Gen.(pair gen_cell (int_range 0 64))
    (fun (c, off) ->
      let buf = Bigbuf.create (off + Cell.encoded_size) in
      Cell.encode_big buf off c;
      Cell.equal c (Cell.decode_big buf off))

(* decode ∘ encode = id at any slot of a [Flat] run, and the encode
   touches no other cell image of the run. *)
let prop_cell_roundtrip_flat_slot =
  Util.qcheck_case ~name:"cell codec at random flat slots"
    QCheck2.Gen.(quad (int_range 1 8) (int_range 1 6) nat gen_cell)
    (fun (b, blocks, pick, c) ->
      let flat = Flat.create ~block_size:b ~blocks in
      let buf = Flat.buffer flat in
      let offs =
        List.init (b * blocks) (fun i -> Flat.cell_offset flat ~block:(i / b) ~slot:(i mod b))
      in
      List.iteri (fun i off -> Cell.encode_big buf off (Cell.item ~key:i ~value:(-i) ())) offs;
      let target = pick mod (b * blocks) in
      Cell.encode_big buf (List.nth offs target) c;
      List.for_all Fun.id
        (List.mapi
           (fun i off ->
             let want = if i = target then c else Cell.item ~key:i ~value:(-i) () in
             Cell.equal want (Cell.decode_big buf off))
           offs))

let prop_storage_roundtrip_encrypted =
  Util.qcheck_case ~name:"encrypted storage write/read roundtrip" ~count:50
    QCheck2.Gen.(pair (list_size (int_range 1 8) int) int)
    (fun (keys, seed) ->
      let key = Odex_crypto.Cipher.key_of_int seed in
      let s = Util.storage ~cipher:key ~b:8 () in
      let base = Storage.alloc s 1 in
      let blk = Block.make 8 in
      List.iteri (fun i k -> if i < 8 then blk.(i) <- Cell.item ~key:k ~value:(-k) ()) keys;
      Storage.write s base blk;
      let got = Storage.read s base in
      Array.for_all2 Cell.equal blk got)

let suite =
  [
    ("cell encode roundtrip", `Quick, test_cell_roundtrip);
    ("cell zero image is empty", `Quick, test_zero_image_is_empty);
    ("cell bad constructor word", `Quick, test_bad_constructor_word);
    ("cell ordering", `Quick, test_cell_ordering);
    ("cell accessors", `Quick, test_cell_accessors);
    ("block basics", `Quick, test_block_basics);
    ("block sort", `Quick, test_block_sort);
    ("storage roundtrip/copies", `Quick, test_storage_roundtrip);
    ("storage accounting", `Quick, test_storage_accounting);
    ("storage bounds", `Quick, test_storage_bounds);
    ("storage encrypted", `Quick, test_storage_encrypted);
    ("trace modes", `Quick, test_trace_modes);
    ("trace pp truncates long dumps", `Quick, test_trace_pp_truncation);
    ("ext_array", `Quick, test_ext_array);
    ("ext_array concat", `Quick, test_ext_array_concat);
    ("cache accounting", `Quick, test_cache_accounting);
    ("cache copy-at-boundary", `Quick, test_cache_copy_boundary);
    ("cache overflow", `Quick, test_cache_overflow);
    ("cache flush_all", `Quick, test_cache_flush_all_order);
    ("emodel arithmetic", `Quick, test_emodel);
    prop_cell_roundtrip;
    prop_cell_roundtrip_flat_slot;
    prop_storage_roundtrip_encrypted;
  ]
