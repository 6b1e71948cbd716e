open Odex_extmem
module Bigbuf = Odex_crypto.Bigbuf

let cell_t =
  Alcotest.testable
    (fun ppf -> function
      | Cell.Empty -> Format.fprintf ppf "_"
      | Cell.Item { key; value; tag; aux } -> Format.fprintf ppf "%d:%d@@%d.%d" key value tag aux)
    ( = )

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
  Bigarray.Array1.fill buf '\xff';
  Cell.encode_big buf 0 Cell.empty;
  Alcotest.(check string) "empty encodes to zeros" (String.make Cell.encoded_size '\000')
    (Bytes.sub_string (Util.bytes_of_big buf) 0 Cell.encoded_size);
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
  Alcotest.(check bool) "tag breaks key ties" true (Cell.compare_keys t1 t2 < 0)

let test_cell_accessors () =
  let c = Cell.item ~tag:4 ~key:1 ~value:2 () in
  Alcotest.(check int) "key" 1 (Cell.key_exn c);
  Alcotest.(check (pair int int)) "value, tag" (2, 4) ((Cell.get c).value, (Cell.get c).tag);
  (* The same words read and rewritten in place on an image. *)
  let f = Flat.create ~block_size:1 ~blocks:1 in
  let off = Flat.cell_offset f ~block:0 ~slot:0 in
  Flat.set_cell f off c;
  Alcotest.(check (list int)) "image key, value, tag, aux" [ 1; 2; 4; 0 ]
    [ Flat.key f off; Flat.value f off; Flat.tag f off; Flat.aux f off ];
  Flat.set_tag f off 9;
  Alcotest.check cell_t "set_tag" (Cell.item ~tag:9 ~key:1 ~value:2 ()) (Flat.get_cell f off);
  Flat.set_item f off ~key:3 ~value:5 ~tag:7 ~aux:11;
  Alcotest.check cell_t "set_item"
    (Cell.item ~tag:7 ~aux:11 ~key:3 ~value:5 ())
    (Flat.get_cell f off);
  Alcotest.check_raises "get empty" (Invalid_argument "Cell.get: empty cell") (fun () ->
      ignore (Cell.get Cell.empty))

let test_block_basics () =
  let blk = Block.make 4 in
  let flat = Flat.create ~block_size:4 ~blocks:1 in
  Alcotest.(check int) "empty count" 0 (Flat.count_items flat 0);
  Alcotest.(check int) "no first item" (-1) (Flat.first_item flat 0);
  blk.(1) <- Cell.item ~key:1 ~value:10 ();
  blk.(2) <- Cell.item ~key:2 ~value:20 ();
  Flat.set_block flat 0 blk;
  Alcotest.(check int) "count" 2 (Flat.count_items flat 0);
  Alcotest.(check int) "first item"
    (Flat.cell_offset flat ~block:0 ~slot:1)
    (Flat.first_item flat 0);
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
  let flat = Flat.create ~block_size:4 ~blocks:1 in
  Flat.set_block flat 0 blk;
  let offs = Array.init 4 (fun slot -> Flat.cell_offset flat ~block:0 ~slot) in
  Order.sort_images Order.Keys (Flat.buffer flat) offs;
  let sorted = Array.map (Flat.get_cell flat) offs in
  Alcotest.(check (list int)) "sorted, empties last" [ 1; 2; 3 ]
    (List.map (fun (it : Cell.item) -> it.key) (Util.block_items sorted));
  Alcotest.(check bool) "last is empty" true (sorted.(3) = Cell.empty)

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
  Alcotest.(check bool) "alloc'd block decrypts to empties" false (Array.exists Cell.is_item fresh)

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
  let f = Flat.create ~block_size:3 ~blocks:1 in
  Ext_array.read_flat a 0 ~count:1 f;
  Alcotest.check cell_t "read_flat" cells.(0)
    (Flat.get_cell f (Flat.cell_offset f ~block:0 ~slot:0));
  Alcotest.(check int) "read counted" 1 (Stats.reads (Storage.stats s))

(* Two adjacent windows tile their parent: the right one starts where
   the left one ends, and a write through either lands in the parent at
   the matching offset. *)
let test_ext_array_adjacent_windows () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.create s ~blocks:9 in
  let left = Ext_array.sub a ~off:0 ~len:4 and right = Ext_array.sub a ~off:4 ~len:5 in
  Alcotest.(check int) "right starts where left ends"
    (Ext_array.base left + Ext_array.blocks left)
    (Ext_array.base right);
  let blk key =
    let f = Flat.create ~block_size:2 ~blocks:1 in
    Flat.set_item f (Flat.cell_offset f ~block:0 ~slot:0) ~key ~value:0 ~tag:0 ~aux:0;
    f
  in
  Ext_array.write_flat left 3 ~count:1 (blk 30);
  Ext_array.write_flat right 0 ~count:1 (blk 40);
  Alcotest.(check (list int)) "parent sees both writes" [ 30; 40 ]
    (List.map (fun i -> Cell.key_exn (Util.read_at a i).(0)) [ 3; 4 ])

(* [Full] keeps every op in recording order well past its first buffer
   growths, and the per-I/O fast paths [record_read]/[record_write] fold
   the same digest in [Full] as [record] does in [Digest]. *)
let test_trace_long_sequence () =
  let full = Trace.create Trace.Full and dig = Trace.create Trace.Digest in
  let op i =
    match i mod 4 with
    | 0 -> Trace.Read i
    | 1 -> Trace.Write i
    | 2 -> Trace.Retry_read i
    | _ -> Trace.Retry_write i
  in
  let n = 200 in
  for i = 0 to n - 1 do
    (match op i with
    | Trace.Read a -> Trace.record_read full a
    | Trace.Write a -> Trace.record_write full a
    | o -> Trace.record full o);
    Trace.record dig (op i)
  done;
  Alcotest.(check int) "length" n (Trace.length full);
  Alcotest.(check bool) "every op, in order" true (Trace.ops full = List.init n op);
  Alcotest.(check int64) "fast paths fold the same digest" (Trace.digest dig) (Trace.digest full);
  let retried = Trace.create Trace.Digest and plain = Trace.create Trace.Digest in
  Trace.record retried (Trace.Retry_read 5);
  Trace.record plain (Trace.Read 5);
  Alcotest.(check bool) "a retry is not a read" false (Trace.equal retried plain)

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
  Alcotest.(check int) "tower 4 saturates" max_int (Emodel.tower_of_twos 4)

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
      ( = ) c (Cell.decode_big buf off))

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
             ( = ) want (Cell.decode_big buf off))
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
      Array.for_all2 ( = ) blk got)

(* ---------------- orders as data ---------------- *)

let orders = Order.[| Keys; By_tag; By_aux; Dedup |]

(* Cells with empties, duplicate and negative words and the extreme
   filler keys; the value tells tied cells apart. *)
let gen_cells =
  let open QCheck2.Gen in
  let word = frequency [ (6, int_range (-3) 3); (1, pure max_int); (1, pure min_int); (1, int) ] in
  let cell =
    frequency
      [
        (1, pure Cell.empty);
        (5, triple word word word >|= fun (key, tag, aux) -> Cell.item ~tag ~aux ~key ~value:0 ());
      ]
  in
  list_size (int_range 0 40) cell
  >|= List.mapi (fun i -> function
        | Cell.Empty -> Cell.Empty
        | Cell.Item it -> Cell.Item { it with value = i })

let gen_order_cells =
  let open QCheck2.Gen in
  int_range 0 (Array.length orders - 1) >>= fun o ->
  map (fun cells -> (o, Array.of_list cells)) gen_cells

(* The cells as images in one flat slot, with their offsets. *)
let images cells =
  let n = Array.length cells in
  let flat = Flat.create ~block_size:(max 1 n) ~blocks:1 in
  let offs = Array.init n (fun slot -> Flat.cell_offset flat ~block:0 ~slot) in
  Array.iteri (fun i c -> Flat.set_cell flat offs.(i) c) cells;
  (flat, offs)

let prop_compare_images_agrees =
  Util.qcheck_case ~name:"compare_images agrees in sign with compare, every order" ~count:300
    gen_order_cells (fun (o, cells) ->
      let order = orders.(o) in
      let flat, offs = images cells in
      let buf = Flat.buffer flat in
      let n = Array.length cells in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let want = Int.compare (Util.order_reference order cells.(i) cells.(j)) 0 in
          let got = Int.compare (Order.compare_images order buf offs.(i) buf offs.(j)) 0 in
          if want <> got then ok := false
        done
      done;
      !ok)

let prop_sort_images_is_array_sort =
  Util.qcheck_case ~name:"sort_images gives Array.sort's permutation, ties included" ~count:300
    gen_order_cells (fun (o, cells) ->
      let order = orders.(o) in
      let flat, offs = images cells in
      Order.sort_images order (Flat.buffer flat) offs;
      let want = Array.copy cells in
      Array.sort (Util.order_reference order) want;
      Array.map (Flat.get_cell flat) offs = want)

let suite =
  [
    ("cell encode roundtrip", `Quick, test_cell_roundtrip);
    ("cell zero image is empty", `Quick, test_zero_image_is_empty);
    ("cell bad constructor word", `Quick, test_bad_constructor_word);
    ("cell ordering", `Quick, test_cell_ordering);
    prop_compare_images_agrees;
    prop_sort_images_is_array_sort;
    ("cell accessors", `Quick, test_cell_accessors);
    ("block basics", `Quick, test_block_basics);
    ("block sort", `Quick, test_block_sort);
    ("storage roundtrip/copies", `Quick, test_storage_roundtrip);
    ("storage accounting", `Quick, test_storage_accounting);
    ("storage bounds", `Quick, test_storage_bounds);
    ("storage encrypted", `Quick, test_storage_encrypted);
    ("trace modes", `Quick, test_trace_modes);
    ("ext_array", `Quick, test_ext_array);
    ("ext_array adjacent windows", `Quick, test_ext_array_adjacent_windows);
    ("trace keeps long sequences whole", `Quick, test_trace_long_sequence);
    ("emodel arithmetic", `Quick, test_emodel);
    prop_cell_roundtrip;
    prop_cell_roundtrip_flat_slot;
    prop_storage_roundtrip_encrypted;
  ]
