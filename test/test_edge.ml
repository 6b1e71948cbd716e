(* Edge cases and failure-injection tests across the stack. *)

open Odex_extmem
open Odex

(* ---------------- storage / arrays ---------------- *)

let test_storage_growth () =
  let s = Util.storage ~b:2 () in
  (* Force several growth steps of the backing array. *)
  let bases = List.init 10 (fun i -> Storage.alloc s (i + 1)) in
  Alcotest.(check int) "capacity" 55 (Storage.capacity s);
  (* Early allocations stay intact across growth. *)
  let blk = Block.make 2 in
  blk.(0) <- Cell.item ~key:99 ~value:0 ();
  Storage.write s (List.hd bases) blk;
  ignore (Storage.alloc s 100);
  Alcotest.(check int) "data survives growth" 99
    (Cell.key_exn (Storage.read s (List.hd bases)).(0))

let test_ext_array_views () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.create s ~blocks:10 in
  Alcotest.(check bool) "sub out of bounds" true
    (try
       ignore (Ext_array.sub a ~off:8 ~len:3);
       false
     with Invalid_argument _ -> true);
  let sub = Ext_array.sub a ~off:2 ~len:5 in
  let subsub = Ext_array.sub sub ~off:1 ~len:2 in
  Alcotest.(check int) "nested views" (Ext_array.addr a 3) (Ext_array.addr subsub 0)

let test_ext_array_window_edges () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.create s ~blocks:10 in
  (* Zero-length windows are legal anywhere in [0, blocks], including
     the far boundary. *)
  List.iter
    (fun off ->
      let z = Ext_array.sub a ~off ~len:0 in
      Alcotest.(check int) (Printf.sprintf "empty window at %d" off) 0 (Ext_array.blocks z))
    [ 0; 5; 10 ];
  (* off + len landing exactly on the boundary is in; one past is out. *)
  let tail = Ext_array.sub a ~off:7 ~len:3 in
  Alcotest.(check int) "boundary window kept" (Ext_array.addr a 7) (Ext_array.addr tail 0);
  List.iter
    (fun (off, len) ->
      Alcotest.(check bool) (Printf.sprintf "sub ~off:%d ~len:%d rejected" off len) true
        (try
           ignore (Ext_array.sub a ~off ~len);
           false
         with Invalid_argument _ -> true))
    [ (7, 4); (11, 0); (-1, 2); (2, -1) ]

(* Two arrays allocated from one storage never share a block, and a
   [view] over an array's own range reads and writes the same blocks. *)
let test_arrays_never_alias () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.create s ~blocks:4 and b = Ext_array.create s ~blocks:4 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      if Ext_array.addr a i = Ext_array.addr b j then
        Alcotest.failf "block %d of a aliases block %d of b" i j
    done
  done;
  let blk key =
    let x = Block.make 2 in
    x.(0) <- Cell.item ~key ~value:0 ();
    x
  in
  for i = 0 to 3 do
    Storage.write s (Ext_array.addr a i) (blk i);
    Storage.write s (Ext_array.addr b i) (blk (100 + i))
  done;
  let v = Ext_array.view s ~base:(Ext_array.base a) ~blocks:4 in
  Storage.write s (Ext_array.addr v 2) (blk 42);
  let keys arr = List.init 4 (fun i -> Cell.key_exn (Util.read_at arr i).(0)) in
  Alcotest.(check (list int)) "a, written through its view" [ 0; 1; 42; 3 ] (keys a);
  Alcotest.(check (list int)) "b untouched" [ 100; 101; 102; 103 ] (keys b)

(* Regression: the out-of-band accessors must never disturb the
   adversary's view or the I/O accounting — tests and harnesses rely on
   peeking mid-run without perturbing the trace under test. *)
let test_unchecked_ops_leave_accounting_alone () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys [| 4; 7; 1; 9 |]) in
  ignore (Util.read_at a 0);
  Storage.write s (Ext_array.addr a 1) (Util.read_at a 1);
  let st = Storage.stats s and tr = Storage.trace s in
  let reads0 = Stats.reads st and writes0 = Stats.writes st in
  let len0 = Trace.length tr and dig0 = Trace.digest tr in
  let blk = Storage.unchecked_peek s (Ext_array.addr a 0) in
  Storage.unchecked_poke s (Ext_array.addr a 1) blk;
  ignore (Ext_array.to_cells a);
  ignore (Ext_array.items a);
  Alcotest.(check int) "reads unchanged" reads0 (Stats.reads st);
  Alcotest.(check int) "writes unchanged" writes0 (Stats.writes st);
  Alcotest.(check int) "retries unchanged" 0 (Stats.retries st);
  Alcotest.(check int) "trace length unchanged" len0 (Trace.length tr);
  Alcotest.(check int64) "trace digest unchanged" dig0 (Trace.digest tr)

let test_alloc_zero_and_negative () =
  let s = Util.storage ~b:2 () in
  (* alloc 0 is a defined no-op: returns the frontier, allocates
     nothing — including on a completely fresh store. *)
  Alcotest.(check int) "frontier of empty store" 0 (Storage.alloc s 0);
  Alcotest.(check int) "still empty" 0 (Storage.capacity s);
  let base = Storage.alloc s 5 in
  Alcotest.(check int) "frontier after real alloc" (base + 5) (Storage.alloc s 0);
  Alcotest.(check int) "capacity untouched" 5 (Storage.capacity s);
  Alcotest.(check int) "no I/O accounted" 0 (Stats.total (Storage.stats s));
  Alcotest.check_raises "negative alloc rejected"
    (Invalid_argument "Storage.alloc: negative size") (fun () -> ignore (Storage.alloc s (-1)))

let test_empty_and_single_arrays () =
  let s = Util.storage ~b:4 () in
  (* Zero-item inputs through each algorithm. *)
  let a = Ext_array.of_cells s ~block_size:4 [||] in
  let rng = Odex_crypto.Rng.create ~seed:1 in
  let o = Sort.run ~m:8 ~rng a in
  Alcotest.(check bool) "sort of empty ok" true o.Sort.ok;
  let d = Consolidation.run ~into:None a in
  Alcotest.(check int) "consolidation of empty" 0 (List.length (Ext_array.items d));
  let r = Butterfly.compact ~m:4 d in
  Alcotest.(check int) "butterfly of empty" 0 r;
  (* Single item. *)
  let a1 = Ext_array.of_cells s ~block_size:4 [| Cell.item ~key:5 ~value:1 () |] in
  let o1 = Sort.run ~m:8 ~rng a1 in
  Alcotest.(check bool) "sort of singleton" true o1.Sort.ok;
  Alcotest.(check (list int)) "singleton kept" [ 5 ] (Util.keys_of_items (Ext_array.items a1))

(* ---------------- algorithm parameter edges ---------------- *)

let test_quantiles_q_exceeds_m () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys (Array.init 50 (fun i -> i))) in
  let rng = Odex_crypto.Rng.create ~seed:2 in
  Alcotest.(check bool) "q > m rejected" true
    (try
       ignore (Quantiles.run ~m:4 ~rng ~q:5 a);
       false
     with Invalid_argument _ -> true)

let test_selection_extreme_ranks () =
  let rng0 = Odex_crypto.Rng.create ~seed:3 in
  let keys = Util.random_keys rng0 600 ~bound:100 in
  let sorted = List.sort compare (Array.to_list keys) in
  List.iter
    (fun k ->
      let s = Util.storage ~b:4 () in
      let a = Ext_array.of_cells s ~block_size:4 (Util.cells_of_keys keys) in
      let rng = Odex_crypto.Rng.create ~seed:(100 + k) in
      let r = Selection.select ~m:16 ~rng ~k a in
      match r.Selection.item with
      | Some it -> Alcotest.(check int) (Printf.sprintf "k=%d" k) (List.nth sorted (k - 1)) it.key
      | None -> Alcotest.failf "k=%d returned nothing" k)
    [ 1; 2; 599; 600 ]

let test_sort_tiny_cache () =
  (* m = 3 is the minimum for the butterfly; the sort must still work by
     falling back to its deterministic substrate. *)
  let keys = Util.random_keys (Odex_crypto.Rng.create ~seed:4) 300 ~bound:50 in
  let s = Util.storage ~b:2 () in
  let a = Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys keys) in
  let rng = Odex_crypto.Rng.create ~seed:5 in
  let o = Sort.run ~m:3 ~rng a in
  Alcotest.(check bool) "ok at m=3" true o.Sort.ok;
  Util.check_sorted_by_key "m=3" a;
  Util.check_multiset "m=3" keys a

let test_butterfly_full_array () =
  (* Every block occupied: compaction is the identity. *)
  let s = Util.storage ~b:2 () in
  let a = Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys (Array.init 32 (fun i -> i))) in
  let r = Butterfly.compact ~m:4 a in
  Alcotest.(check int) "all occupied" 16 r;
  Alcotest.(check (list int)) "identity" (List.init 32 (fun i -> i))
    (Util.keys_of_items (Ext_array.items a))

let test_loose_compaction_zero_capacity () =
  let s = Util.storage ~b:2 () in
  let a = Ext_array.create s ~blocks:16 in
  let rng = Odex_crypto.Rng.create ~seed:6 in
  let out = Loose_compaction.run ~m:8 ~rng ~capacity:0 a in
  Alcotest.(check int) "empty dest" 0 (Ext_array.blocks out.Loose_compaction.dest);
  Alcotest.(check bool) "ok" true out.Loose_compaction.ok

(* ---------------- hierarchical ORAM internals ---------------- *)

let test_hier_rebuild_schedule () =
  let s = Util.storage ~b:4 () in
  let rng = Odex_crypto.Rng.create ~seed:7 in
  let t = Odex_oram.Hierarchical_oram.init ~m:32 ~rng s ~values:(Array.make 30 1) in
  let z = Odex_oram.Hierarchical_oram.bucket_size t in
  (* After exactly k*z accesses there have been k rebuilds. *)
  for _ = 1 to 3 * z do
    ignore (Odex_oram.Hierarchical_oram.read t 0)
  done;
  Alcotest.(check int) "binary-counter schedule" 3 (Odex_oram.Hierarchical_oram.rebuilds t);
  Alcotest.(check bool) "healthy" true (Odex_oram.Hierarchical_oram.healthy t)

let test_hier_bucket_size_override () =
  let s = Util.storage ~b:4 () in
  let rng = Odex_crypto.Rng.create ~seed:8 in
  let t =
    Odex_oram.Hierarchical_oram.init ~bucket_size:9 ~m:32 ~rng s ~values:(Array.make 20 0)
  in
  Alcotest.(check int) "bucket size" 9 (Odex_oram.Hierarchical_oram.bucket_size t)

(* ---------------- trace/digest robustness ---------------- *)

let test_digest_collision_resistance_smoke () =
  (* Distinct short traces should essentially never collide. *)
  let digest ops =
    let t = Trace.create Trace.Digest in
    List.iter (Trace.record t) ops;
    Trace.digest t
  in
  let by_digest = Hashtbl.create 64 in
  let by_ops = Hashtbl.create 64 in
  let rng = Odex_crypto.Rng.create ~seed:9 in
  for _ = 1 to 2_000 do
    let ops =
      List.init
        (1 + Odex_crypto.Rng.int rng 6)
        (fun _ ->
          let addr = Odex_crypto.Rng.int rng 64 in
          if Odex_crypto.Rng.bool rng then Trace.Read addr else Trace.Write addr)
    in
    (* Trace equality compares (digest, length) — test the same pair. *)
    Hashtbl.replace by_digest (digest ops, List.length ops) ();
    Hashtbl.replace by_ops ops ()
  done;
  Alcotest.(check int) "no (digest, length) collisions" (Hashtbl.length by_ops)
    (Hashtbl.length by_digest)

let test_sweep_mixed_sizes () =
  (* The dummy-sort sweep accepts subarrays of different sizes. *)
  let s = Util.storage ~b:2 () in
  let mk n lo =
    Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys (Array.init n (fun i -> lo + n - i)))
  in
  let arrays = [| mk 10 0; mk 30 100; mk 6 1000 |] in
  let ok = Failure_sweep.sweep ~m:8 arrays [| false; false; false |] in
  Alcotest.(check bool) "ok" true ok;
  Array.iter (fun a -> Util.check_sorted_by_key "swept" a) arrays

let suite =
  [
    ("storage growth", `Quick, test_storage_growth);
    ("ext_array views", `Quick, test_ext_array_views);
    ("ext_array window edges", `Quick, test_ext_array_window_edges);
    ("arrays never alias", `Quick, test_arrays_never_alias);
    ("unchecked ops leave accounting alone", `Quick, test_unchecked_ops_leave_accounting_alone);
    ("alloc zero and negative", `Quick, test_alloc_zero_and_negative);
    ("empty and singleton inputs", `Quick, test_empty_and_single_arrays);
    ("quantiles q > m", `Quick, test_quantiles_q_exceeds_m);
    ("selection extreme ranks", `Quick, test_selection_extreme_ranks);
    ("sort at m = 3", `Quick, test_sort_tiny_cache);
    ("butterfly full array", `Quick, test_butterfly_full_array);
    ("loose compaction capacity 0", `Quick, test_loose_compaction_zero_capacity);
    ("hier ORAM rebuild schedule", `Quick, test_hier_rebuild_schedule);
    ("hier ORAM bucket override", `Quick, test_hier_bucket_size_override);
    ("trace digest smoke", `Quick, test_digest_collision_resistance_smoke);
    ("sweep mixed sizes", `Quick, test_sweep_mixed_sizes);
  ]
