open Odex_extmem
open Odex_iblt

let prf_key = Odex_crypto.Prf.key_of_int

let test_delete_roundtrip () =
  let t = Iblt.create ~size:50 (prf_key 2) in
  List.iter (fun x -> Iblt.insert t ~key:x ~value:(2 * x)) [ 1; 2; 3; 4; 5 ];
  List.iter (fun x -> Iblt.delete t ~key:x ~value:(2 * x)) [ 2; 4 ];
  let pairs, complete = Iblt.list_entries t in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check (list (pair int int)))
    "survivors"
    [ (1, 2); (3, 6); (5, 10) ]
    (List.sort compare pairs)

(* Inserting and deleting the same pairs cancels exactly: the table
   decodes to nothing, and is complete, like a fresh one. *)
let test_cancelled_pairs_leave_empty () =
  let t = Iblt.create ~size:60 (prf_key 1) in
  Alcotest.(check (pair (list (pair int int)) bool)) "fresh" ([], true) (Iblt.list_entries t);
  for x = 0 to 9 do
    Iblt.insert t ~key:x ~value:(x * x)
  done;
  for x = 9 downto 0 do
    Iblt.delete t ~key:x ~value:(x * x)
  done;
  Alcotest.(check (pair (list (pair int int)) bool)) "all cancelled" ([], true)
    (Iblt.list_entries t)

(* Deleting a pair that was never inserted leaves count -1 cells: the
   decode must report itself incomplete and never list the ghost. *)
let test_ghost_deletion_not_listed () =
  let t = Iblt.create ~size:60 (prf_key 7) in
  Iblt.insert t ~key:5 ~value:50;
  Iblt.delete t ~key:123456 ~value:7;
  let pairs, complete = Iblt.list_entries t in
  Alcotest.(check bool) "incomplete" false complete;
  Alcotest.(check bool) "ghost not listed" false (List.mem_assoc 123456 pairs);
  List.iter (fun (k, v) -> if (k, v) <> (5, 50) then Alcotest.failf "phantom (%d, %d)" k v) pairs

let test_list_entries_complete () =
  let rng = Odex_crypto.Rng.create ~seed:3 in
  let n = 100 in
  let t = Iblt.create ~size:(6 * n) (Odex_crypto.Prf.fresh_key rng) in
  let expected = List.init n (fun x -> (x * 7, x)) in
  List.iter (fun (key, value) -> Iblt.insert t ~key ~value) expected;
  let pairs, complete = Iblt.list_entries t in
  Alcotest.(check bool) "complete at load 1/6" true complete;
  Alcotest.(check (list (pair int int))) "all pairs" expected (List.sort compare pairs);
  (* list_entries is non-destructive *)
  let pairs2, _ = Iblt.list_entries t in
  Alcotest.(check int) "second decode identical" (List.length pairs) (List.length pairs2)

let test_overload_incomplete () =
  (* n far above m: the decode must report incompleteness, not lie. *)
  let t = Iblt.create ~size:9 (prf_key 4) in
  for x = 0 to 99 do
    Iblt.insert t ~key:x ~value:x
  done;
  let pairs, complete = Iblt.list_entries t in
  Alcotest.(check bool) "incomplete" false complete;
  Alcotest.(check bool) "recovers fewer than all" true (List.length pairs < 100)

let test_insert_beyond_capacity_then_delete () =
  (* Paper §2: inserts/deletes work regardless of capacity; decoding
     succeeds once n is back under m. *)
  let t = Iblt.create ~size:30 (prf_key 5) in
  for x = 0 to 199 do
    Iblt.insert t ~key:x ~value:x
  done;
  for x = 0 to 195 do
    Iblt.delete t ~key:x ~value:x
  done;
  let pairs, complete = Iblt.list_entries t in
  Alcotest.(check bool) "complete after deletions" true complete;
  Alcotest.(check (list int)) "the four survivors" [ 196; 197; 198; 199 ]
    (List.sort compare (List.map fst pairs))

let test_success_rate_at_recommended_load () =
  (* Lemma 1: m = δkn with δ >= 2, k = 3 gives failure prob <= 1/n^c. *)
  let n = 50 in
  let trials = 200 in
  let failures = ref 0 in
  for trial = 1 to trials do
    let t = Iblt.create ~k:3 ~size:(2 * 3 * n) (prf_key (1000 + trial)) in
    for x = 0 to n - 1 do
      Iblt.insert t ~key:x ~value:x
    done;
    let _, complete = Iblt.list_entries t in
    if not complete then incr failures
  done;
  if !failures > trials / 20 then
    Alcotest.failf "decode failed %d/%d times at the Lemma 1 load" !failures trials

(* ---------------- external-memory IBLT ---------------- *)

let mk_block b seed =
  Array.init b (fun i ->
      if (seed + i) mod 3 = 0 then Cell.empty
      else Cell.item ~tag:i ~key:(seed + i) ~value:(seed * i) ())

let test_ext_iblt_roundtrip () =
  let s = Util.storage ~b:4 () in
  let t = Ext_iblt.create s ~cells:40 (prf_key 8) in
  Alcotest.(check int) "blocks per cell" 2 (Ext_iblt.blocks_per_cell t);
  let payloads = List.init 6 (fun i -> (i * 3, mk_block 4 (i + 1))) in
  List.iter (fun (index, blk) -> Ext_iblt.insert t ~index blk) payloads;
  let got, complete = Ext_iblt.decode_in_cache t ~m:128 in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check int) "count" 6 (List.length got);
  List.iter
    (fun (index, blk) ->
      let blk' = List.assoc index got in
      if not (Array.for_all2 ( = ) blk blk') then
        Alcotest.failf "payload mismatch at index %d" index)
    payloads

let test_ext_iblt_oblivious_trace () =
  (* insert and touch on the same key: identical adversary views. *)
  let run use_insert =
    let s = Util.storage ~b:4 () in
    let t = Ext_iblt.create s ~cells:30 (prf_key 9) in
    for index = 0 to 9 do
      if use_insert then Ext_iblt.insert t ~index (mk_block 4 index)
      else Ext_iblt.touch t ~index
    done;
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  Alcotest.(check bool) "insert/touch traces equal" true (run true = run false)

let test_ext_iblt_empty_payloads () =
  let s = Util.storage ~b:3 () in
  let t = Ext_iblt.create s ~cells:30 (prf_key 10) in
  Ext_iblt.insert t ~index:4 (Block.make 3);
  let got, complete = Ext_iblt.decode_in_cache t ~m:128 in
  Alcotest.(check bool) "complete" true complete;
  (match got with
  | [ (4, blk) ] -> Alcotest.(check bool) "empty payload survives" true (Block.is_empty blk)
  | _ -> Alcotest.fail "expected exactly one entry")

let test_ext_iblt_io_cost () =
  (* Each insert costs exactly k * blocks_per_cell reads and writes. *)
  let s = Util.storage ~b:4 () in
  let t = Ext_iblt.create s ~cells:30 (prf_key 11) in
  let before = Stats.total (Storage.stats s) in
  Ext_iblt.insert t ~index:0 (mk_block 4 0);
  let cost = Stats.total (Storage.stats s) - before in
  Alcotest.(check int) "insert I/O cost" (2 * Ext_iblt.k t * Ext_iblt.blocks_per_cell t) cost

let prop_ram_iblt_decodes =
  Util.qcheck_case ~name:"RAM IBLT decodes distinct keys at low load" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 0 40) (int_range 0 1_000_000)) int)
    (fun (keys, seed) ->
      let keys = List.sort_uniq compare keys in
      let n = max 1 (List.length keys) in
      let t = Iblt.create ~k:3 ~size:(8 * 3 * n) (prf_key seed) in
      List.iter (fun key -> Iblt.insert t ~key ~value:(key + 1)) keys;
      let pairs, complete = Iblt.list_entries t in
      (* At load 1/24, decode should essentially always succeed; accept
         incomplete only if it owns up to it. *)
      (not complete)
      || List.sort compare pairs = List.map (fun k -> (k, k + 1)) keys)

let suite =
  [
    ("delete roundtrip", `Quick, test_delete_roundtrip);
    ("cancelled pairs leave it empty", `Quick, test_cancelled_pairs_leave_empty);
    ("ghost deletion never listed", `Quick, test_ghost_deletion_not_listed);
    ("list_entries complete", `Quick, test_list_entries_complete);
    ("overload reports incomplete", `Quick, test_overload_incomplete);
    ("overfill then delete", `Quick, test_insert_beyond_capacity_then_delete);
    ("Lemma 1 load success rate", `Slow, test_success_rate_at_recommended_load);
    ("ext-IBLT roundtrip", `Quick, test_ext_iblt_roundtrip);
    ("ext-IBLT oblivious insert/touch", `Quick, test_ext_iblt_oblivious_trace);
    ("ext-IBLT empty payload", `Quick, test_ext_iblt_empty_payloads);
    ("ext-IBLT insert I/O cost", `Quick, test_ext_iblt_io_cost);
    prop_ram_iblt_decodes;
  ]
