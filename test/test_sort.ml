open Odex_extmem
open Odex

(* ---------------- quantiles ---------------- *)

let reference_quantiles keys q =
  let sorted = List.sort compare (Array.to_list keys) in
  let arr = Array.of_list sorted in
  let total = Array.length arr in
  Array.init q (fun i -> arr.(Util.quantile_rank ~total ~q (i + 1) - 1))

let run_quantiles ~b ~m ~seed ~q keys =
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b () in
  let a = Ext_array.of_cells s ~block_size:b cells in
  let rng = Odex_crypto.Rng.create ~seed in
  Quantiles.run ~m ~rng ~q a

let test_quantiles_in_cache () =
  let keys = Array.init 40 (fun i -> 39 - i) in
  let r = run_quantiles ~b:4 ~m:32 ~seed:0 ~q:3 keys in
  Alcotest.(check bool) "ok" true r.Quantiles.ok;
  Alcotest.(check (list int)) "quartiles" [ 9; 19; 29 ]
    (Array.to_list (Array.map (fun (it : Cell.item) -> it.key) r.Quantiles.quantiles))

let test_quantiles_by_sorting () =
  (* n_blocks > m but m^4 >= n: the easy case. *)
  let rng = Odex_crypto.Rng.create ~seed:1 in
  let keys = Util.random_keys rng 400 ~bound:100_000 in
  let r = run_quantiles ~b:4 ~m:8 ~seed:2 ~q:4 keys in
  Alcotest.(check bool) "ok" true r.Quantiles.ok;
  Alcotest.(check (list int)) "matches reference"
    (Array.to_list (reference_quantiles keys 4))
    (Array.to_list (Array.map (fun (it : Cell.item) -> it.key) r.Quantiles.quantiles))

let test_quantiles_sampled_path () =
  (* Force the sampling path: m^4 < n_blocks requires tiny m; use m = 3,
     n_blocks = 100 > 81. *)
  let rng = Odex_crypto.Rng.create ~seed:3 in
  let keys = Util.random_keys rng 300 ~bound:1_000 in
  let r = run_quantiles ~b:3 ~m:3 ~seed:4 ~q:2 keys in
  (* The sampled path at this scale may reject; when it accepts it must
     match the reference. *)
  if r.Quantiles.ok then
    Alcotest.(check (list int)) "matches reference"
      (Array.to_list (reference_quantiles keys 2))
      (Array.to_list (Array.map (fun (it : Cell.item) -> it.key) r.Quantiles.quantiles))

let test_quantiles_duplicates () =
  let keys = Array.make 200 5 in
  let r = run_quantiles ~b:4 ~m:8 ~seed:5 ~q:3 keys in
  Alcotest.(check bool) "ok" true r.Quantiles.ok;
  Array.iter
    (fun (it : Cell.item) -> Alcotest.(check int) "all fives" 5 it.key)
    r.Quantiles.quantiles

let test_quantiles_validation () =
  let keys = Array.init 10 (fun i -> i) in
  Alcotest.(check bool) "q=0 rejected" true
    (try
       ignore (run_quantiles ~b:2 ~m:4 ~seed:6 ~q:0 keys);
       false
     with Invalid_argument _ -> true)

(* ---------------- multiway consolidation ---------------- *)

let color_mod3 (it : Cell.item) = it.key mod 3

let test_multiway () =
  let rng = Odex_crypto.Rng.create ~seed:7 in
  let keys = Util.random_keys rng 100 ~bound:1000 in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let d = Multiway.consolidate ~colors:3 ~color_of:color_mod3 a in
  Alcotest.(check int) "output size" (Ext_array.blocks a + Multiway.tail_blocks 3)
    (Ext_array.blocks d);
  Alcotest.(check bool) "monochromatic" true (Util.monochromatic ~color_of:color_mod3 d);
  Util.check_multiset "multiway" keys d;
  (* Per-color relative order is preserved. *)
  let per_color c arr =
    List.filter_map
      (fun (it : Cell.item) -> if color_mod3 it = c then Some it.tag else None)
      arr
  in
  let input_items = Array.to_list (Array.map Cell.get cells) in
  for c = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "color %d order" c)
      (per_color c input_items)
      (per_color c (Ext_array.items d))
  done

let test_multiway_skewed () =
  (* All one color: the hoarding worst case for the tail flush. *)
  let keys = Array.make 97 3 in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let d = Multiway.consolidate ~colors:5 ~color_of:(fun _ -> 4) a in
  Util.check_multiset "skewed multiway" keys d;
  Alcotest.(check bool) "monochromatic" true (Util.monochromatic ~color_of:(fun _ -> 4) d)

let test_multiway_oblivious () =
  let trace keys =
    let cells = Util.cells_of_keys keys in
    let s = Util.storage ~b:4 () in
    let a = Ext_array.of_cells s ~block_size:4 cells in
    ignore (Multiway.consolidate ~colors:3 ~color_of:color_mod3 a);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let t1 = trace (Array.init 60 (fun i -> i)) in
  let t2 = trace (Array.make 60 0) in
  Alcotest.(check bool) "trace fixed" true (t1 = t2)

(* ---------------- shuffle and deal ---------------- *)

let test_shuffle_preserves () =
  let keys = Array.init 64 (fun i -> i) in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let rng = Odex_crypto.Rng.create ~seed:8 in
  Shuffle_deal.shuffle ~rng a;
  Util.check_multiset "shuffle" keys a;
  (* With 16 blocks, the identity permutation has probability 1/16!. *)
  Alcotest.(check bool) "actually shuffled" true
    (Util.keys_of_items (Ext_array.items a) <> Array.to_list keys)

let test_deal () =
  let keys = Array.init 120 (fun i -> i) in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let color_of (it : Cell.item) = if it.key < 60 then 0 else 1 in
  let mono = Multiway.consolidate ~colors:2 ~color_of a in
  let rng = Odex_crypto.Rng.create ~seed:9 in
  Shuffle_deal.shuffle ~rng mono;
  let { Shuffle_deal.outputs; ok } =
    Shuffle_deal.deal ~colors:2 ~color_of ~window:8 ~quota:9 ~carry_budget:16 mono
  in
  Alcotest.(check bool) "deal ok" true ok;
  Alcotest.(check int) "two outputs" 2 (Array.length outputs);
  let keys_of arr = List.sort compare (Util.keys_of_items (Ext_array.items arr)) in
  Alcotest.(check (list int)) "color 0 complete" (List.init 60 (fun i -> i)) (keys_of outputs.(0));
  Alcotest.(check (list int)) "color 1 complete" (List.init 60 (fun i -> i + 60))
    (keys_of outputs.(1))

let test_deal_carry_overflow_flagged () =
  (* quota 1 with a tiny carry budget must overflow and say so. *)
  let keys = Array.init 80 (fun i -> i) in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let mono = Multiway.consolidate ~colors:2 ~color_of:(fun _ -> 0) a in
  let { Shuffle_deal.ok; _ } =
    Shuffle_deal.deal ~colors:2 ~color_of:(fun _ -> 0) ~window:8 ~quota:1 ~carry_budget:0 mono
  in
  Alcotest.(check bool) "overflow reported" false ok

(* ---------------- the full sort ---------------- *)

let run_sort ~b ~m ~seed keys =
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b () in
  let a = Ext_array.of_cells s ~block_size:b cells in
  let rng = Odex_crypto.Rng.create ~seed in
  let outcome = Sort.run ~m ~rng a in
  (outcome, a, s)

let check_sort ~b ~m ~seed keys =
  let outcome, a, _ = run_sort ~b ~m ~seed keys in
  Alcotest.(check bool) "ok" true outcome.Sort.ok;
  Util.check_sorted_by_key "sort" a;
  Util.check_multiset "sort" keys a

let test_sort_small () = check_sort ~b:4 ~m:8 ~seed:10 (Util.random_keys (Odex_crypto.Rng.create ~seed:0) 50 ~bound:100)

let test_sort_medium () =
  check_sort ~b:4 ~m:16 ~seed:11 (Util.random_keys (Odex_crypto.Rng.create ~seed:1) 2_000 ~bound:10_000)

let test_sort_shapes () =
  let n = 1_200 in
  check_sort ~b:4 ~m:16 ~seed:12 (Array.init n (fun i -> i));
  check_sort ~b:4 ~m:16 ~seed:13 (Array.init n (fun i -> n - i));
  check_sort ~b:4 ~m:16 ~seed:14 (Array.make n 42);
  check_sort ~b:4 ~m:16 ~seed:15 (Array.init n (fun i -> i mod 7))

let test_sort_values_ride () =
  let keys = Util.random_keys (Odex_crypto.Rng.create ~seed:2) 500 ~bound:50 in
  let _, a, _ = run_sort ~b:4 ~m:16 ~seed:16 keys in
  List.iter
    (fun (it : Cell.item) -> Alcotest.(check int) "payload" (it.key * 10) it.value)
    (Ext_array.items a)

let test_sort_oblivious () =
  let trace keys =
    let cells = Util.cells_of_keys keys in
    let s = Util.storage ~b:4 () in
    let a = Ext_array.of_cells s ~block_size:4 cells in
    let rng = Odex_crypto.Rng.create ~seed:17 in
    ignore (Sort.run ~m:16 ~rng a);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let n = 800 in
  let t1 = trace (Array.init n (fun i -> i)) in
  let t2 = trace (Array.init n (fun i -> n - i)) in
  let t3 = trace (Array.make n 9) in
  let t4 = trace (Util.random_keys (Odex_crypto.Rng.create ~seed:3) n ~bound:1000) in
  Alcotest.(check bool) "sort trace is data-independent" true (t1 = t2 && t2 = t3 && t3 = t4)

let test_sort_padded () =
  let keys = Util.random_keys (Odex_crypto.Rng.create ~seed:4) 700 ~bound:300 in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let rng = Odex_crypto.Rng.create ~seed:18 in
  let padded, ok = Sort.sort_padded_with_injection ~m:16 ~rng ~inject_failure:(fun _ -> false) a in
  Alcotest.(check bool) "ok" true ok;
  Util.check_sorted_by_key "padded" padded;
  Util.check_multiset "padded" keys padded

let test_sort_with_empties () =
  let cells =
    Array.init 900 (fun i ->
        if i mod 4 = 0 then Cell.empty else Cell.item ~tag:i ~key:(i * 13 mod 257) ~value:i ())
  in
  let keys =
    List.filter_map
      (fun c -> match c with Cell.Empty -> None | Cell.Item it -> Some it.key)
      (Array.to_list cells)
  in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let rng = Odex_crypto.Rng.create ~seed:19 in
  let outcome = Sort.run ~m:16 ~rng a in
  Alcotest.(check bool) "ok" true outcome.Sort.ok;
  Util.check_sorted_by_key "with empties" a;
  Alcotest.(check bool) "multiset" true
    (Util.sorted_multiset_equal (Util.keys_of_items (Ext_array.items a)) keys);
  (* Dense: items at the front. *)
  let out = Ext_array.to_cells a in
  let item_count = List.length keys in
  Array.iteri
    (fun i c ->
      if i < item_count && c = Cell.empty then Alcotest.fail "hole in dense output";
      if i >= item_count && Cell.is_item c then Alcotest.fail "item past the dense prefix")
    out

(* ---------------- failure sweeping ---------------- *)

let test_failure_sweep_direct () =
  (* Three equal bucket arrays, the middle one scrambled and flagged. *)
  let s = Util.storage ~b:4 () in
  let mk lo =
    let keys = Array.init 32 (fun i -> lo + i) in
    Ext_array.of_cells s ~block_size:4 (Util.cells_of_keys keys)
  in
  let arrays = [| mk 0; mk 32; mk 64 |] in
  (* Sort buckets 0 and 2; scramble bucket 1 (reverse order = unsorted). *)
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.cache_sort ~m:64 arrays.(0);
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.cache_sort ~m:64 arrays.(2);
  let scrambled = Util.cells_of_keys (Array.init 32 (fun i -> 63 - i)) in
  Array.iteri
    (fun i c -> ignore i; ignore c)
    scrambled;
  let blocks = Ext_array.blocks arrays.(1) in
  for i = 0 to blocks - 1 do
    let blk = Array.init 4 (fun j -> scrambled.((i * 4) + j)) in
    Storage.unchecked_poke s (Ext_array.addr arrays.(1) i) blk
  done;
  let ok = Failure_sweep.sweep ~m:16 arrays [| true; false; true |] in
  Alcotest.(check bool) "sweep ok" true ok;
  (* Bucket 1 now sorted, buckets 0 and 2 untouched. *)
  let keys_of arr = Util.keys_of_items (Ext_array.items arr) in
  Alcotest.(check (list int)) "bucket 1 repaired" (List.init 32 (fun i -> 32 + i))
    (keys_of arrays.(1));
  Alcotest.(check (list int)) "bucket 0 intact" (List.init 32 (fun i -> i)) (keys_of arrays.(0));
  Alcotest.(check (list int)) "bucket 2 intact" (List.init 32 (fun i -> 64 + i))
    (keys_of arrays.(2))

let test_failure_sweep_no_failures_harmless () =
  let s = Util.storage ~b:2 () in
  let mk lo =
    let a = Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys (Array.init 10 (fun i -> lo + i))) in
    Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.cache_sort ~m:64 a;
    a
  in
  let arrays = [| mk 0; mk 10 |] in
  let ok = Failure_sweep.sweep ~m:8 arrays [| true; true |] in
  Alcotest.(check bool) "ok" true ok;
  Alcotest.(check (list int)) "untouched" (List.init 10 (fun i -> i))
    (Util.keys_of_items (Ext_array.items arrays.(0)))

let test_failure_sweep_trace_independent_of_flags () =
  let run flags =
    let s = Util.storage ~b:2 () in
    let mk lo =
      let a =
        Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys (Array.init 16 (fun i -> lo + i)))
      in
      a
    in
    let arrays = [| mk 0; mk 16; mk 32; mk 48 |] in
    ignore (Failure_sweep.sweep ~m:8 arrays flags);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let t1 = run [| true; true; true; true |] in
  let t2 = run [| true; false; true; true |] in
  let t3 = run [| false; true; true; false |] in
  Alcotest.(check bool) "sweep trace independent of which failed" true (t1 = t2 && t2 = t3)

let test_sort_heals_injected_failures () =
  let keys = Util.random_keys (Odex_crypto.Rng.create ~seed:5) 1_500 ~bound:5_000 in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Ext_array.of_cells s ~block_size:4 cells in
  let rng = Odex_crypto.Rng.create ~seed:20 in
  (* Fail the second top-level bucket's sub-sort. *)
  let padded, ok =
    Sort.sort_padded_with_injection ~m:16 ~rng ~inject_failure:(fun path -> path = 2) a
  in
  Alcotest.(check bool) "healed" true ok;
  Util.check_sorted_by_key "healed sort" padded;
  Util.check_multiset "healed sort" keys padded

let prop_sort_random =
  Util.qcheck_case ~name:"Sort.run sorts arbitrary arrays" ~count:15
    QCheck2.Gen.(pair (list_size (int_range 0 600) (int_range (-100) 100)) int)
    (fun (keys, seed) ->
      let keys = Array.of_list keys in
      let outcome, a, _ = run_sort ~b:3 ~m:12 ~seed keys in
      (not outcome.Sort.ok)
      || Util.keys_of_items (Odex_extmem.Ext_array.items a)
         = List.sort compare (Array.to_list keys))

let suite =
  [
    ("quantiles in cache", `Quick, test_quantiles_in_cache);
    ("quantiles by sorting", `Quick, test_quantiles_by_sorting);
    ("quantiles sampled path", `Quick, test_quantiles_sampled_path);
    ("quantiles duplicates", `Quick, test_quantiles_duplicates);
    ("quantiles validation", `Quick, test_quantiles_validation);
    ("multiway consolidation", `Quick, test_multiway);
    ("multiway skewed colors", `Quick, test_multiway_skewed);
    ("multiway oblivious", `Quick, test_multiway_oblivious);
    ("shuffle preserves blocks", `Quick, test_shuffle_preserves);
    ("deal distributes", `Quick, test_deal);
    ("deal overflow flagged", `Quick, test_deal_carry_overflow_flagged);
    ("sort small", `Quick, test_sort_small);
    ("sort medium", `Quick, test_sort_medium);
    ("sort adversarial shapes", `Quick, test_sort_shapes);
    ("sort payload integrity", `Quick, test_sort_values_ride);
    ("sort oblivious", `Quick, test_sort_oblivious);
    ("sort padded API", `Quick, test_sort_padded);
    ("sort with empties", `Quick, test_sort_with_empties);
    ("failure sweep repairs", `Quick, test_failure_sweep_direct);
    ("failure sweep no-op", `Quick, test_failure_sweep_no_failures_harmless);
    ("failure sweep trace", `Quick, test_failure_sweep_trace_independent_of_flags);
    ("sort heals injected failures", `Quick, test_sort_heals_injected_failures);
    prop_sort_random;
  ]
