open Odex_extmem
open Odex

(* Build a consolidated-style array directly: a list of (position,
   payload-seed) pairs for occupied blocks in an n-block array. *)
let consolidated_array ?(b = 4) ~n occupied =
  let s = Util.storage ~b () in
  let a = Ext_array.create s ~blocks:n in
  List.iter
    (fun (pos, seed) ->
      let blk =
        Array.init b (fun j -> Cell.item ~tag:((pos * b) + j) ~key:((seed * 100) + j) ~value:seed ())
      in
      Storage.unchecked_poke s (Ext_array.addr a pos) blk)
    occupied;
  (s, a)

let occupied_positions a =
  let s = Ext_array.storage a in
  List.filter
    (fun i -> not (Block.is_empty (Storage.unchecked_peek s (Ext_array.addr a i))))
    (List.init (Ext_array.blocks a) (fun i -> i))

let block_seed a i =
  match Block.items (Storage.unchecked_peek (Ext_array.storage a) (Ext_array.addr a i)) with
  | it :: _ -> it.value
  | [] -> -1

(* ---------------- consolidation (Lemma 3) ---------------- *)

let test_consolidation_basic () =
  let keys = [| 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5 |] in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:3 () in
  let a = Ext_array.of_cells s ~block_size:3 cells in
  let even (it : Cell.item) = it.key mod 2 = 0 in
  let d = Consolidation.run ~distinguished:even ~into:None a in
  Alcotest.(check bool) "postcondition" true (Util.occupied_prefix_property d);
  Alcotest.(check (list int)) "even keys in order" [ 4; 2; 6 ]
    (Util.keys_of_items (Ext_array.items d));
  (* exactly n reads + n writes *)
  Alcotest.(check int) "I/O count" (2 * Ext_array.blocks a) (Stats.total (Storage.stats s))

let test_consolidation_all_distinguished () =
  let keys = Array.init 23 (fun i -> i) in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let d = Consolidation.run ~into:None a in
  Alcotest.(check bool) "postcondition" true (Util.occupied_prefix_property d);
  Util.check_multiset "consolidation" keys d

let test_consolidation_sparse_input () =
  (* Items scattered among empties. *)
  let cells =
    Array.init 40 (fun i -> if i mod 7 = 0 then Cell.item ~tag:i ~key:i ~value:i () else Cell.empty)
  in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let d = Consolidation.run ~into:None a in
  Alcotest.(check bool) "postcondition" true (Util.occupied_prefix_property d);
  Alcotest.(check (list int)) "order kept" [ 0; 7; 14; 21; 28; 35 ]
    (Util.keys_of_items (Ext_array.items d))

let test_consolidation_oblivious () =
  let t1 =
    Util.trace_digest ~b:4 ~seed:0 (Util.cells_of_keys (Array.init 30 (fun i -> i)))
      (fun _ _ a -> ignore (Consolidation.run ~into:None a))
  in
  let t2 =
    Util.trace_digest ~b:4 ~seed:0 (Array.make 30 Cell.empty) (fun _ _ a ->
        ignore (Consolidation.run ~into:None a))
  in
  Alcotest.(check bool) "trace independent of occupancy" true (t1 = t2)

(* ---------------- butterfly (Figure 1 / Lemma 5 / Theorem 6) -------- *)

let test_butterfly_figure1 () =
  (* The instance of Figure 1: n = 16, occupied cells at positions
     2,4,5,9,12,13,15 carrying initial distance labels 2,3,3,6,8,8,9. *)
  let _, a =
    consolidated_array ~n:16 (List.map (fun p -> (p, p + 1)) [ 2; 4; 5; 9; 12; 13; 15 ])
  in
  let levels = Butterfly.naive_levels a in
  let occupied_labels row = List.filter (fun d -> d >= 0) row in
  let expect =
    [
      [ 2; 3; 3; 6; 8; 8; 9 ];
      [ 2; 2; 2; 6; 8; 8; 8 ];
      [ 0; 0; 0; 4; 8; 8; 8 ];
      [ 0; 0; 0; 0; 8; 8; 8 ];
      [ 0; 0; 0; 0; 0; 0; 0 ];
    ]
  in
  Alcotest.(check int) "level count" 5 (List.length levels);
  List.iteri
    (fun i (row, want) ->
      Alcotest.(check (list int)) (Printf.sprintf "level %d labels" i) want (occupied_labels row))
    (List.combine levels expect)

let test_butterfly_compacts () =
  let occupied = [ (2, 1); (4, 2); (5, 3); (9, 4); (12, 5); (13, 6); (15, 7) ] in
  let _, a = consolidated_array ~n:16 occupied in
  let r = Butterfly.compact ~m:4 a in
  Alcotest.(check int) "count" 7 r;
  Alcotest.(check (list int)) "compact prefix" [ 0; 1; 2; 3; 4; 5; 6 ] (occupied_positions a);
  (* order preserved: seeds 1..7 in sequence *)
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map (block_seed a) [ 0; 1; 2; 3; 4; 5; 6 ])

let test_butterfly_random () =
  let rng = Odex_crypto.Rng.create ~seed:11 in
  for trial = 1 to 30 do
    let n = 1 + Odex_crypto.Rng.int rng 60 in
    let m = 3 + Odex_crypto.Rng.int rng 10 in
    let occupied =
      List.filteri (fun _ _ -> Odex_crypto.Rng.bool rng) (List.init n (fun i -> i))
    in
    let _, a = consolidated_array ~n (List.mapi (fun j p -> (p, j + 1)) occupied) in
    let r = Butterfly.compact ~m a in
    if r <> List.length occupied then Alcotest.failf "trial %d: wrong count" trial;
    let expect_prefix = List.init r (fun i -> i) in
    if occupied_positions a <> expect_prefix then Alcotest.failf "trial %d: not compact" trial;
    let seeds = List.map (block_seed a) expect_prefix in
    if seeds <> List.init r (fun i -> i + 1) then Alcotest.failf "trial %d: order broken" trial
  done

let test_butterfly_aux_cleared_tags_kept () =
  let _, a = consolidated_array ~n:8 [ (3, 1); (6, 2) ] in
  ignore (Butterfly.compact ~m:4 a);
  List.iter
    (fun (it : Cell.item) ->
      Alcotest.(check int) "aux cleared" 0 it.aux;
      Alcotest.(check bool) "tag kept" true (it.tag >= 0))
    (Ext_array.items a)

let test_butterfly_oblivious () =
  let trace occupied =
    let s = Util.storage ~b:2 () in
    let a = Ext_array.create s ~blocks:32 in
    List.iter
      (fun pos ->
        Storage.unchecked_poke s (Ext_array.addr a pos)
          [| Cell.item ~key:pos ~value:0 (); Cell.item ~key:pos ~value:1 () |])
      occupied;
    ignore (Butterfly.compact ~m:5 a);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let t1 = trace [ 0; 1; 2 ] in
  let t2 = trace [ 29; 30; 31 ] in
  let t3 = trace [] in
  Alcotest.(check bool) "occupancy-independent trace" true (t1 = t2 && t2 = t3)

let test_butterfly_expand_roundtrip () =
  let occupied = [ (1, 1); (4, 2); (7, 3); (8, 4); (13, 5) ] in
  let _, a = consolidated_array ~n:16 occupied in
  let r = Butterfly.compact ~m:4 a in
  Alcotest.(check int) "compacted" 5 r;
  (* Send them back to their original slots. *)
  let original = Array.of_list (List.map fst occupied) in
  Butterfly.expand ~m:4 a (fun i -> original.(i) - i);
  Alcotest.(check (list int)) "restored positions" (Array.to_list original) (occupied_positions a);
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 3; 4; 5 ]
    (List.map (block_seed a) (Array.to_list original))

let test_butterfly_m3_minimum () =
  let _, a = consolidated_array ~n:9 [ (2, 1); (5, 2); (8, 3) ] in
  let r = Butterfly.compact ~m:3 a in
  Alcotest.(check int) "works at m=3" 3 r;
  Alcotest.(check (list int)) "prefix" [ 0; 1; 2 ] (occupied_positions a);
  let _, a2 = consolidated_array ~n:4 [ (1, 1) ] in
  Alcotest.(check bool) "m=2 rejected" true
    (try
       ignore (Butterfly.compact ~m:2 a2);
       false
     with Invalid_argument _ -> true)

let test_butterfly_expand_invalid_factor () =
  let _, a = consolidated_array ~n:8 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "oob factor rejected" true
    (try
       Butterfly.expand ~m:4 a (fun _ -> 100);
       false
     with Invalid_argument _ -> true)

(* A planted collision: destinations 4 and 5 increase, but the factors
   {4, 1} decrease, which butterfly.mli says may collide. Expansion's
   high-bit phase moves the block at 0 onto position 4 while the block
   there still waits for its low bit; the router must refuse it with the
   level and position of the clash. *)
let test_butterfly_planted_collision () =
  let _, a = consolidated_array ~n:8 [ (0, 1); (4, 2) ] in
  match Butterfly.expand ~m:3 a (fun i -> if i = 0 then 4 else 1) with
  | () -> Alcotest.fail "routed two blocks onto one position"
  | exception Butterfly.Collision { level; position } ->
      Alcotest.(check (pair int int)) "level and position" (2, 4) (level, position)

(* The documented guarantee: every placement of k blocks among n ≤ 7
   positions and every destination set whose factors are non-decreasing
   in rank expands without a collision, onto exactly the destinations. *)
let test_butterfly_expand_monotone_exhaustive () =
  let rec subsets i n k =
    if k = 0 then [ [] ]
    else if i >= n then []
    else List.map (List.cons i) (subsets (i + 1) n (k - 1)) @ subsets (i + 1) n k
  in
  let rec non_decreasing = function
    | x :: (y :: _ as t) -> x <= y && non_decreasing t
    | _ -> true
  in
  for n = 1 to 7 do
    for k = 1 to n do
      let sets = subsets 0 n k in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              let factors = List.map2 ( - ) dst src in
              if List.for_all (fun f -> f >= 0) factors && non_decreasing factors then begin
                let _, a = consolidated_array ~b:2 ~n (List.map (fun p -> (p, p + 1)) src) in
                let f = Array.of_list factors in
                Butterfly.expand ~m:3 a (fun i -> f.(i));
                Alcotest.(check (list int)) "destinations" dst (occupied_positions a)
              end)
            sets)
        sets
    done
  done

(* ---------------- sparse compaction (Theorem 4) ---------------- *)

let test_sparse_compaction () =
  let occupied = [ (3, 1); (10, 2); (17, 3); (25, 4) ] in
  let _, a = consolidated_array ~b:4 ~n:30 occupied in
  let key = Odex_crypto.Prf.key_of_int 5 in
  let out = Sparse_compaction.run ~m:64 ~key ~capacity:6 a in
  Alcotest.(check bool) "complete" true out.complete;
  Alcotest.(check int) "recovered" 4 out.recovered;
  Alcotest.(check int) "dest size" 6 (Ext_array.blocks out.dest);
  Alcotest.(check (list int)) "prefix occupied, order preserved" [ 1; 2; 3; 4 ]
    (List.map (block_seed out.dest) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int)) "rest empty" [ 0; 1; 2; 3 ] (occupied_positions out.dest)

let test_sparse_compaction_oblivious () =
  let trace occupied =
    let _, a = consolidated_array ~b:4 ~n:24 occupied in
    let s = Ext_array.storage a in
    let key = Odex_crypto.Prf.key_of_int 6 in
    ignore (Sparse_compaction.run ~m:64 ~key ~capacity:5 a);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let t1 = trace [ (0, 1); (1, 2); (2, 3) ] in
  let t2 = trace [ (20, 9); (23, 8) ] in
  let t3 = trace [] in
  Alcotest.(check bool) "trace depends only on n and capacity" true (t1 = t2 && t2 = t3)

let test_sparse_compaction_table_too_big () =
  let _, a = consolidated_array ~b:4 ~n:10 [ (0, 1) ] in
  Alcotest.(check bool) "cache too small rejected" true
    (try
       ignore
         (Sparse_compaction.run ~m:2 ~key:(Odex_crypto.Prf.key_of_int 7) ~capacity:5 a);
       false
     with Invalid_argument _ -> true)

let test_sparse_compaction_over_capacity () =
  (* Violating "at most R distinguished" must not abort or change the
     trace; it degrades to an incomplete outcome. *)
  let _, a = consolidated_array ~b:4 ~n:10 [ (0, 1); (1, 2); (2, 3) ] in
  let out = Sparse_compaction.run ~m:64 ~key:(Odex_crypto.Prf.key_of_int 8) ~capacity:2 a in
  Alcotest.(check bool) "flagged incomplete" false out.Sparse_compaction.complete;
  Alcotest.(check int) "dest still sized to capacity" 2
    (Ext_array.blocks out.Sparse_compaction.dest)

(* ---------------- thinning + loose compaction (Theorem 8) ------------ *)

let test_thinning_pass () =
  let occupied = List.init 8 (fun i -> (i * 3, i + 1)) in
  let _, a = consolidated_array ~b:2 ~n:24 occupied in
  let s = Ext_array.storage a in
  let c = Ext_array.create s ~blocks:32 in
  let rng = Odex_crypto.Rng.create ~seed:3 in
  let before = Stats.total (Storage.stats s) in
  Thinning.pass ~rng ~src:a ~dst:c;
  Alcotest.(check int) "4n I/Os" (4 * 24) (Stats.total (Storage.stats s) - before);
  let moved = Util.occupied_blocks c in
  let left = Util.occupied_blocks a in
  Alcotest.(check int) "nothing lost" 8 (moved + left);
  (* More passes empty the source (32 slots for 8 blocks: quick). *)
  for _ = 1 to 20 do
    Thinning.pass ~rng ~src:a ~dst:c
  done;
  Alcotest.(check int) "source drained" 0 (Util.occupied_blocks a);
  Alcotest.(check int) "all in C" 8 (Util.occupied_blocks c)

let test_loose_compaction () =
  let n = 256 in
  let occupied = List.init 50 (fun i -> (i * 5, i + 1)) in
  let _, a = consolidated_array ~b:2 ~n occupied in
  let rng = Odex_crypto.Rng.create ~seed:4 in
  let out = Loose_compaction.run ~m:40 ~rng ~capacity:64 a in
  Alcotest.(check bool) "ok" true out.Loose_compaction.ok;
  Alcotest.(check int) "dest size 5r" (5 * 64) (Ext_array.blocks out.Loose_compaction.dest);
  (* Every payload present exactly once (loose: order not preserved). *)
  let seeds =
    List.sort compare
      (List.filter (fun s -> s >= 0)
         (List.map (block_seed out.Loose_compaction.dest)
            (List.init (Ext_array.blocks out.Loose_compaction.dest) (fun i -> i))))
  in
  ignore seeds;
  let items = Ext_array.items out.Loose_compaction.dest in
  Alcotest.(check int) "all items present" (50 * 2) (List.length items)

let test_loose_compaction_oblivious () =
  let trace occupied =
    let _, a = consolidated_array ~b:2 ~n:128 occupied in
    let s = Ext_array.storage a in
    let rng = Odex_crypto.Rng.create ~seed:9 in
    ignore (Loose_compaction.run ~m:40 ~rng ~capacity:32 a);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let t1 = trace (List.init 20 (fun i -> (i, i + 1))) in
  let t2 = trace (List.init 20 (fun i -> (127 - (i * 6), i + 1))) in
  let t3 = trace [] in
  Alcotest.(check bool) "fixed-seed trace equality" true (t1 = t2 && t2 = t3)

let test_loose_compaction_io_linear () =
  (* Doubling n should roughly double the I/Os (geometric halving). *)
  let io n =
    let occupied = List.init (n / 8) (fun i -> (i * 4, i + 1)) in
    let _, a = consolidated_array ~b:2 ~n occupied in
    let s = Ext_array.storage a in
    let rng = Odex_crypto.Rng.create ~seed:5 in
    ignore (Loose_compaction.run ~m:64 ~rng ~capacity:(n / 4) a);
    Stats.total (Storage.stats s)
  in
  let a = io 512 and b = io 1024 in
  let ratio = Float.of_int b /. Float.of_int a in
  if ratio > 2.6 then Alcotest.failf "loose compaction not linear: ratio %.2f" ratio

(* ---------------- facade ---------------- *)

let test_loose_compaction_overflow () =
  (* Every block occupied with capacity 2: the Theorem 8 failure event
     is certain. The run must flag it ([ok] = false) and truncate the
     scatter rather than raise or silently claim success. *)
  let n = 64 in
  let occupied = List.init n (fun i -> (i, i + 1)) in
  let _, a = consolidated_array ~b:4 ~n occupied in
  let before = List.length (Ext_array.items a) in
  let rng = Odex_crypto.Rng.create ~seed:9 in
  let out = Loose_compaction.run ~m:32 ~rng ~capacity:2 a in
  Alcotest.(check bool) "overflow flagged" false out.Loose_compaction.ok;
  let survivors = Ext_array.items out.Loose_compaction.dest in
  Alcotest.(check bool) "scatter truncated: items dropped" true
    (List.length survivors < before);
  List.iter
    (fun (it : Cell.item) ->
      if it.value < 1 || it.value > n then
        Alcotest.failf "survivor value %d not from the input" it.value)
    survivors

let test_facade_tight_dispatch () =
  let occupied = [ (5, 1); (9, 2) ] in
  (* Big cache: IBLT engine. *)
  let _, a1 = consolidated_array ~b:4 ~n:20 occupied in
  let o1 = Compaction.tight ~m:64 ~capacity_blocks:4 a1 in
  Alcotest.(check int) "sparse occupied" 2 o1.Compaction.occupied;
  Alcotest.(check int) "sparse dest blocks" 4 (Ext_array.blocks o1.Compaction.dest);
  (* Tiny cache: butterfly fallback. *)
  let _, a2 = consolidated_array ~b:4 ~n:20 occupied in
  let o2 = Compaction.tight ~m:4 ~capacity_blocks:4 a2 in
  Alcotest.(check int) "butterfly occupied" 2 o2.Compaction.occupied;
  List.iter
    (fun o ->
      Alcotest.(check (list int)) "payload order" [ 1; 2 ]
        (List.map (block_seed o.Compaction.dest) [ 0; 1 ]))
    [ o1; o2 ]

let suite =
  [
    ("consolidation basic", `Quick, test_consolidation_basic);
    ("consolidation all distinguished", `Quick, test_consolidation_all_distinguished);
    ("consolidation sparse", `Quick, test_consolidation_sparse_input);
    ("consolidation oblivious", `Quick, test_consolidation_oblivious);
    ("butterfly: Figure 1 instance", `Quick, test_butterfly_figure1);
    ("butterfly compacts", `Quick, test_butterfly_compacts);
    ("butterfly random instances", `Quick, test_butterfly_random);
    ("butterfly aux/tag handling", `Quick, test_butterfly_aux_cleared_tags_kept);
    ("butterfly oblivious", `Quick, test_butterfly_oblivious);
    ("butterfly expand roundtrip", `Quick, test_butterfly_expand_roundtrip);
    ("butterfly m=3 minimum", `Quick, test_butterfly_m3_minimum);
    ("butterfly invalid expansion", `Quick, test_butterfly_expand_invalid_factor);
    ("butterfly planted collision", `Quick, test_butterfly_planted_collision);
    ("butterfly expand monotone factors", `Quick, test_butterfly_expand_monotone_exhaustive);
    ("sparse compaction", `Quick, test_sparse_compaction);
    ("sparse compaction oblivious", `Quick, test_sparse_compaction_oblivious);
    ("sparse compaction table too big", `Quick, test_sparse_compaction_table_too_big);
    ("sparse compaction over capacity", `Quick, test_sparse_compaction_over_capacity);
    ("thinning pass", `Quick, test_thinning_pass);
    ("loose compaction", `Quick, test_loose_compaction);
    ("loose compaction oblivious", `Quick, test_loose_compaction_oblivious);
    ("loose compaction linear I/O", `Quick, test_loose_compaction_io_linear);
    ("loose compaction overflow flagged", `Quick, test_loose_compaction_overflow);
    ("facade dispatch", `Quick, test_facade_tight_dispatch);
  ]
