open Odex_extmem
open Odex_sortnet

(* The 0-1 principle on the engines that run: a comparator network
   sorts every input iff it sorts every 0-1 input. At B = 1 the
   block-level network is the item-level one, so exhausting all 2^n 0-1
   inputs of each width n <= 12 (other widths than powers of two pad
   with empty blocks, which sort last) certifies the circuit the engine
   executes, not a model of it. m = 4 makes the windowed engine fuse two
   levels per pass, m = 8 three, and m = 16 a whole stage. At B = 2 every
   comparator is a merge-split of two blocks, after the per-block
   pre-sort, and odd widths leave a partly empty last block. *)
let check_zero_one ?(b = 1) ?(m = 4) sorter () =
  for n = 1 to 12 do
    for bits = 0 to (1 lsl n) - 1 do
      let keys = Array.init n (fun i -> (bits lsr i) land 1) in
      let (), a = Util.with_array ~b (Util.cells_of_keys keys) (fun _s a -> Ext_sort.run sorter ~m a) in
      let got = Util.keys_of_items (Ext_array.items a) in
      let ones = List.fold_left ( + ) 0 got in
      let want = Array.fold_left ( + ) 0 keys in
      if List.length got <> n || ones <> want || not (Util.is_sorted_list got) then
        Alcotest.failf "%s (B = %d, m = %d) fails the 0-1 input %#x of width %d"
          (Ext_sort.name sorter) b m bits n
    done
  done

(* Two blocks as slots 0 and 1 of one flat run, for the comparator. *)
let flat_pair u v =
  let f = Flat.create ~block_size:(Array.length u) ~blocks:2 in
  Flat.set_block f 0 u;
  Flat.set_block f 1 v;
  f

let test_merge_split () =
  let mk keys = Array.map (fun k -> if k < 0 then Cell.empty else Cell.item ~key:k ~value:k ()) keys in
  let keys f i = List.map (fun (it : Cell.item) -> it.key) (Util.block_items (Flat.get_block f i)) in
  let f = flat_pair (mk [| 1; 5; 9 |]) (mk [| 2; 3; -1 |]) in
  Ext_sort.merge_split ~order:Order.Keys ~ascending:true f 0 1;
  Alcotest.(check (list int)) "low half" [ 1; 2; 3 ] (keys f 0);
  Alcotest.(check (list int)) "high half" [ 5; 9 ] (keys f 1);
  let f = flat_pair (mk [| 1; 5; 9 |]) (mk [| 2; 3; -1 |]) in
  Ext_sort.merge_split ~order:Order.Keys ~ascending:false f 0 1;
  Alcotest.(check (list int)) "descending: high half first" [ 5; 9 ] (keys f 0)

(* The orders lib sorts under, each beside the reference comparator on
   decoded cells, including the ORAM dedup sort's key-then-newest-tag
   order. *)
let merge_orders =
  Array.map (fun o -> (o, Util.order_reference o)) Order.[| Keys; By_tag; By_aux; Dedup |]

(* Internally sorted block pairs with ties (few distinct keys, tags and
   aux words; the value tells tied cells apart) and empties: the merge
   must equal a stable sort of u @ v split at B. *)
let prop_merge_split_stable =
  let open QCheck2.Gen in
  let cell =
    frequency
      [
        (1, pure Cell.empty);
        ( 4,
          map
            (fun (k, t, x, v) -> Cell.item ~tag:t ~aux:x ~key:k ~value:v ())
            (quad (int_range 0 3) (int_range 0 3) (int_range 0 3) (int_range 0 999)) );
      ]
  in
  let gen =
    oneofl [ 1; 2; 3; 8 ] >>= fun b ->
    quad (int_range 0 (Array.length merge_orders - 1)) bool (array_repeat b cell)
      (array_repeat b cell)
  in
  Util.qcheck_case ~name:"merge-split is a stable sort of u @ v split at B" ~count:500 gen
    (fun (o, ascending, u, v) ->
      let order, cmp = merge_orders.(o) in
      let b = Array.length u in
      let sorted blk = Array.of_list (List.stable_sort cmp (Array.to_list blk)) in
      let u = sorted u and v = sorted v in
      let want = Array.of_list (List.stable_sort cmp (Array.to_list u @ Array.to_list v)) in
      let f = flat_pair u v in
      Ext_sort.merge_split ~order ~ascending f 0 1;
      let lo, hi = if ascending then (0, 1) else (1, 0) in
      let same got off = Array.for_all2 ( = ) (Flat.get_block f got) (Array.sub want off b) in
      same lo 0 && same hi b)

let run_sort_case sorter ~b ~m keys =
  let cells = Util.cells_of_keys keys in
  let (), a =
    Util.with_array ~b cells (fun _s a ->
        Ext_sort.run sorter ~m a)
  in
  Util.check_sorted_by_key (Ext_sort.name sorter) a;
  Util.check_multiset (Ext_sort.name sorter) keys a

let test_sorters_correct () =
  let rng = Odex_crypto.Rng.create ~seed:5 in
  List.iter
    (fun sorter ->
      (* duplicates, negatives, various shapes *)
      run_sort_case sorter ~b:4 ~m:4 [| 5; 5; 5; 5 |];
      run_sort_case sorter ~b:4 ~m:4 [| 9; 8; 7; 6; 5; 4; 3; 2; 1 |];
      run_sort_case sorter ~b:3 ~m:4 (Util.random_keys rng 50 ~bound:20);
      run_sort_case sorter ~b:1 ~m:4 (Util.random_keys rng 17 ~bound:1000);
      run_sort_case sorter ~b:8 ~m:4 [||])
    [ Ext_sort.bitonic; Ext_sort.bitonic_windowed; Ext_sort.auto ]

let test_cache_sort_correct () =
  let rng = Odex_crypto.Rng.create ~seed:6 in
  run_sort_case Ext_sort.cache_sort ~b:4 ~m:32 (Util.random_keys rng 100 ~bound:30);
  run_sort_case Ext_sort.cache_sort ~b:4 ~m:1 [| 3; 1; 2 |]

let test_cache_sort_overflow () =
  let cells = Util.cells_of_keys [| 4; 3; 2; 1 |] in
  Alcotest.(check bool) "overflow raised" true
    (try
       ignore
         (Util.with_array ~b:1 cells (fun _s a -> Ext_sort.run Ext_sort.cache_sort ~m:2 a));
       false
     with Residency.Overflow _ -> true)

let test_sort_preserves_payload () =
  let keys = [| 4; 2; 7; 2; 0; 9; 4 |] in
  let cells = Util.cells_of_keys keys in
  let (), a = Util.with_array ~b:2 cells (fun _s a -> Ext_sort.run Ext_sort.bitonic ~m:2 a) in
  List.iter
    (fun (it : Cell.item) ->
      Alcotest.(check int) "value rides along" (it.key * 10) it.value)
    (Ext_array.items a)

let test_sort_custom_cmp () =
  (* Sort by tag: used by the order-restoring step of compaction. *)
  let cells =
    Array.init 10 (fun i -> Cell.item ~tag:(9 - i) ~key:i ~value:0 ())
  in
  let (), a =
    Util.with_array ~b:2 cells (fun _s a ->
        Ext_sort.run Ext_sort.bitonic_windowed ~order:Order.By_tag ~m:4 a)
  in
  let tags = List.map (fun (it : Cell.item) -> it.tag) (Ext_array.items a) in
  Alcotest.(check (list int)) "tags ascending" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] tags

let test_sort_empties_interleaved () =
  (* Empty cells scattered through the input must all sort to the end. *)
  let cells =
    [|
      Cell.item ~key:3 ~value:0 (); Cell.empty; Cell.item ~key:1 ~value:0 ();
      Cell.empty; Cell.item ~key:2 ~value:0 (); Cell.empty;
    |]
  in
  let (), a = Util.with_array ~b:2 cells (fun _s a -> Ext_sort.run Ext_sort.bitonic ~m:2 a) in
  let out = Ext_array.to_cells a in
  Alcotest.(check (list int)) "items first, sorted" [ 1; 2; 3 ]
    (Util.keys_of_items (Ext_array.items a));
  Alcotest.(check bool) "tail all empty" true
    (Array.for_all (( = ) Cell.empty) (Array.sub out 3 3))

let sorter_trace sorter ~b ~m keys =
  Util.trace_digest ~b ~seed:0 (Util.cells_of_keys keys) (fun _rng _s a ->
      Ext_sort.run sorter ~m a)

let test_sorters_oblivious () =
  (* Same shape (N, B, m), wildly different data: identical traces. *)
  (* m = 16 so that cache_sort also fits every shape. *)
  let shapes = [ (31, 4, 16); (64, 8, 16); (10, 1, 16) ] in
  List.iter
    (fun sorter ->
      List.iter
        (fun (n, b, m) ->
          let t1 = sorter_trace sorter ~b ~m (Array.init n (fun i -> i)) in
          let t2 = sorter_trace sorter ~b ~m (Array.init n (fun i -> n - i)) in
          let t3 = sorter_trace sorter ~b ~m (Array.make n 7) in
          if not (t1 = t2 && t2 = t3) then
            Alcotest.failf "%s trace depends on data at n=%d" (Ext_sort.name sorter) n)
        shapes)
    Ext_sort.all

let test_windowed_fewer_ios () =
  let keys = Array.init 512 (fun i -> 1000 - i) in
  let io_of sorter =
    let cells = Util.cells_of_keys keys in
    let s = Util.storage ~b:4 () in
    let a = Ext_array.of_cells s ~block_size:4 cells in
    Ext_sort.run sorter ~m:16 a;
    Stats.total (Storage.stats s)
  in
  let naive = io_of Ext_sort.bitonic in
  let windowed = io_of Ext_sort.bitonic_windowed in
  if windowed * 2 > naive then
    Alcotest.failf "windowed (%d IOs) should be well under naive (%d IOs)" windowed naive

(* ---------------- columnsort ---------------- *)

(* Virtual padding: shapes whose planned matrix runs past the array —
   the last column partly virtual, or (10 blocks at B = 8, m = 8;
   51 at B = 8, m = 16; 148 at B = 4, m = 32) one or more wholly
   virtual columns — with inputs that stress the empties the
   untranspose drops: all empty, all one key, few distinct keys. *)
let padded_shapes = [ (15, 2, 16); (47, 4, 16); (10, 8, 8); (51, 8, 16); (148, 4, 32); (899, 8, 64) ]

let test_columnsort_plan () =
  (match Columnsort.plan ~n_cells:8192 ~b:8 ~m:256 with
  | Some (r, s) ->
      Alcotest.(check bool) "r multiple of b*s" true (r mod (8 * s) = 0);
      Alcotest.(check bool) "Leighton condition" true (r >= 2 * (s - 1) * (s - 1));
      Alcotest.(check bool) "covers n" true (r * s >= 8192)
  | None -> Alcotest.fail "plan should exist");
  Alcotest.(check bool) "oversized input refused" true
    (Columnsort.plan ~n_cells:10_000_000 ~b:8 ~m:64 = None);
  (* The least padding, then the fewest columns: 252 blocks at B = 4,
     m = 64 take s = 6 with none, not s = 5 over 275 blocks. *)
  Alcotest.(check (option (pair int int))) "least padding" (Some (168, 6))
    (Columnsort.plan ~n_cells:1008 ~b:4 ~m:64)

let test_columnsort_correct () =
  let rng = Odex_crypto.Rng.create ~seed:21 in
  List.iter
    (fun (n, b, m) ->
      run_sort_case Ext_sort.columnsort ~b ~m (Util.random_keys rng n ~bound:(4 * n)))
    [ (50, 3, 16); (500, 4, 32); (3000, 8, 64); (200, 4, 32) ];
  run_sort_case Ext_sort.columnsort ~b:4 ~m:16 [| 5; 5; 5; 5; 5; 5; 5; 5; 5 |];
  run_sort_case Ext_sort.columnsort ~b:4 ~m:16 (Array.init 100 (fun i -> 100 - i))

let test_columnsort_oblivious () =
  let n = 400 in
  let t keys = sorter_trace Ext_sort.columnsort ~b:4 ~m:32 keys in
  let t1 = t (Array.init n (fun i -> i)) in
  let t2 = t (Array.init n (fun i -> n - i)) in
  let t3 = t (Array.make n 7) in
  Alcotest.(check bool) "columnsort trace is data-independent" true (t1 = t2 && t2 = t3)

let test_columnsort_dummy_pass () =
  let keys = Array.init 300 (fun i -> 300 - i) in
  let cells = Util.cells_of_keys keys in
  let s = Util.storage ~b:4 () in
  let a = Odex_extmem.Ext_array.of_cells s ~block_size:4 cells in
  Ext_sort.run_selective Ext_sort.columnsort ~real:false ~m:32 a;
  (* Data untouched... *)
  Alcotest.(check (list int)) "dummy pass preserves data" (Array.to_list keys)
    (Util.keys_of_items (Odex_extmem.Ext_array.items a));
  (* ...and the trace equals the real pass's. *)
  let digest real =
    let s = Util.storage ~b:4 () in
    let a = Odex_extmem.Ext_array.of_cells s ~block_size:4 (Util.cells_of_keys keys) in
    Ext_sort.run_selective Ext_sort.columnsort ~real ~m:32 a;
    ( Odex_extmem.Trace.digest (Odex_extmem.Storage.trace s),
      Odex_extmem.Trace.length (Odex_extmem.Storage.trace s) )
  in
  Alcotest.(check bool) "dummy trace = real trace" true (digest true = digest false);
  (* At padded shapes too, every cell stays where it was. *)
  List.iter
    (fun (blocks, b, m) ->
      let cells =
        Array.init (blocks * b) (fun i ->
            if i mod 5 = 1 then Cell.empty else Cell.item ~tag:(i mod 3) ~key:(i * 7 mod 11) ~value:i ())
      in
      let (), a =
        Util.with_array ~b cells (fun _s a -> Ext_sort.run_selective Ext_sort.columnsort ~real:false ~m a)
      in
      if Ext_array.to_cells a <> cells then
        Alcotest.failf "dummy columnsort moved a cell at %d/%d/%d" blocks b m)
    padded_shapes

let test_columnsort_linear_ios () =
  (* Columnsort is O(n) passes: I/Os per block must stay ~flat. *)
  let per_block n =
    let keys = Array.init n (fun i -> (i * 7919) mod n) in
    let cells = Util.cells_of_keys keys in
    let s = Util.storage ~b:8 () in
    let a = Odex_extmem.Ext_array.of_cells s ~block_size:8 cells in
    Ext_sort.run Ext_sort.columnsort ~m:256 a;
    Float.of_int (Odex_extmem.Stats.total (Odex_extmem.Storage.stats s))
    /. Float.of_int (n / 8)
  in
  let small = per_block 4096 and big = per_block 32768 in
  if big > small *. 1.6 then
    Alcotest.failf "columnsort not linear: %.1f -> %.1f I/Os per block" small big

let test_columnsort_capacity_raises () =
  let cells = Util.cells_of_keys (Array.init 4000 (fun i -> i)) in
  let s = Util.storage ~b:2 () in
  let a = Odex_extmem.Ext_array.of_cells s ~block_size:2 cells in
  Alcotest.(check bool) "beyond capacity raises" true
    (try
       Ext_sort.run Ext_sort.columnsort ~m:8 a;
       false
     with Invalid_argument _ -> true)

let prop_columnsort_sorts =
  Util.qcheck_case ~name:"columnsort sorts arbitrary keys" ~count:40
    QCheck2.Gen.(pair (list_size (int_range 0 600) (int_range (-100) 100)) (int_range 4 8))
    (fun (keys, b) ->
      let keys = Array.of_list keys in
      let cells = Util.cells_of_keys keys in
      let (), a =
        Util.with_array ~b cells (fun _s a -> Ext_sort.run Ext_sort.columnsort ~m:64 a)
      in
      let got = Util.keys_of_items (Odex_extmem.Ext_array.items a) in
      got = List.sort compare (Array.to_list keys))

let test_columnsort_virtual_padding () =
  List.iter
    (fun (blocks, b, m) ->
      let r, s = Option.get (Columnsort.plan ~n_cells:(blocks * b) ~b ~m) in
      if r * s <= blocks * b then Alcotest.failf "shape %d/%d/%d is not padded" blocks b m;
      let n = blocks * b in
      let rng = Odex_crypto.Rng.create ~seed:(blocks + m) in
      List.iter
        (fun (what, cells) ->
          let (), a = Util.with_array ~b cells (fun _s a -> Ext_sort.run Ext_sort.columnsort ~m a) in
          let want =
            List.sort compare
              (List.filter_map (function Cell.Item (it : Cell.item) -> Some it.key | Cell.Empty -> None)
                 (Array.to_list cells))
          in
          let got = Util.keys_of_items (Ext_array.items a) in
          if got <> want then Alcotest.failf "columnsort %s at %d/%d/%d" what blocks b m;
          (* Empties last: the items form a prefix. *)
          let out = Ext_array.to_cells a in
          let k = List.length want in
          if not (Array.for_all (fun c -> c <> Cell.empty) (Array.sub out 0 k)) then
            Alcotest.failf "columnsort %s at %d/%d/%d: empties before items" what blocks b m)
        [
          ("all empty", Array.make n Cell.empty);
          ("all equal", Util.cells_of_keys (Array.make n 9));
          ("duplicates", Util.cells_of_keys (Util.random_keys rng n ~bound:3));
          ("half empty", Array.init n (fun i -> if i mod 2 = 0 then Cell.empty else Cell.item ~key:(n - i) ~value:i ()));
        ])
    padded_shapes;
  (* 51 blocks at B = 8, m = 16: columns of 12 blocks, the sixth
     starting at block 60. *)
  Alcotest.(check (option (pair int int))) "a wholly virtual last column" (Some (96, 6))
    (Columnsort.plan ~n_cells:(51 * 8) ~b:8 ~m:16)

(* [cost] against the store: a run's counted I/Os and the capacity it
   allocates equal the closed form, and a refused shape raises. *)
let measured sorter ~blocks ~b ~m =
  let s = Util.storage ~trace:Trace.Off ~b () in
  let a = Ext_array.create s ~blocks in
  let cap = Storage.capacity s and ios = Stats.total (Storage.stats s) in
  match Ext_sort.run sorter ~m a with
  | () ->
      Some
        { Ext_sort.ios = Stats.total (Storage.stats s) - ios; scratch_blocks = Storage.capacity s - cap }
  | exception (Invalid_argument _ | Residency.Overflow _) -> None

let fixed_circuit = [ Ext_sort.cache_sort; Ext_sort.bitonic; Ext_sort.bitonic_windowed; Ext_sort.columnsort; Ext_sort.auto ]

let prop_cost_exact =
  Util.qcheck_case ~name:"cost is the counted I/Os and scratch of every fixed-circuit engine"
    ~count:60
    (* Powers of two too: there the network pads nothing, so auto must
       not take an engine that allocates. *)
    QCheck2.Gen.(
      triple
        (frequency [ (3, int_range 1 2000); (1, map (fun k -> 1 lsl k) (int_range 0 10)) ])
        (oneofl [ 2; 4; 8 ]) (int_range 8 256))
    (fun (blocks, b, m) ->
      let cost e = Ext_sort.cost e ~blocks ~m ~b in
      List.iter
        (fun e ->
          let want = cost e and got = measured e ~blocks ~b ~m in
          if want <> got then
            let show = function
              | None -> "refused"
              | Some { Ext_sort.ios; scratch_blocks } -> Printf.sprintf "%d I/Os, %d scratch" ios scratch_blocks
            in
            QCheck2.Test.fail_reportf "%s at %d blocks, B = %d, m = %d: cost %s, measured %s"
              (Ext_sort.name e) blocks b m (show want) (show got))
        fixed_circuit;
      match (cost Ext_sort.auto, cost Ext_sort.bitonic_windowed) with
      | Some a, Some w -> a.ios <= w.ios && a.scratch_blocks <= w.scratch_blocks
      | _ -> false)

(* The sort rows of bench/records.pin whose engine has a closed form:
   each pinned count is the engine's cost at the row's shape. *)
let test_cost_matches_pins () =
  let engine_of exp name =
    match (exp, name) with
    | "E9", "sort-bitonic" -> Some Ext_sort.bitonic
    | "E9", "sort-bitonic-win" -> Some Ext_sort.bitonic_windowed
    | "E9", "sort-columnsort" -> Some Ext_sort.columnsort
    | "E15", _ -> (
        match String.split_on_char '-' name with
        | [ "sort"; engine; _ ] when engine <> "bucket" -> Ext_sort.find engine
        | _ -> None)
    | _ -> None
  in
  let rows =
    (* From the repo root (dune exec) or the test's build directory. *)
    let pin = "bench/records.pin" in
    In_channel.with_open_text (if Sys.file_exists pin then pin else "../" ^ pin) In_channel.input_lines
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ exp; name; n; b; m; _; _; total ] -> (
               match engine_of exp name with
               | Some e -> Some (exp ^ " " ^ name, e, int_of_string n, int_of_string b, int_of_string m, int_of_string total)
               | None -> None)
           | _ -> None)
  in
  if List.length rows < 20 then Alcotest.failf "only %d sort rows found" (List.length rows);
  List.iter
    (fun (row, e, n, b, m, total) ->
      match Ext_sort.cost e ~blocks:(n / b) ~m ~b with
      | Some c -> Alcotest.(check int) (Printf.sprintf "%s %d" row n) total c.Ext_sort.ios
      | None -> Alcotest.failf "%s %d: cost refuses a pinned shape" row n)
    rows

let prop_bitonic_sorts =
  Util.qcheck_case ~name:"bitonic-windowed sorts arbitrary keys" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 0 120) (int_range (-50) 50)) (int_range 1 4))
    (fun (keys, b) ->
      let keys = Array.of_list keys in
      let cells = Util.cells_of_keys keys in
      let (), a =
        Util.with_array ~b cells (fun _s a -> Ext_sort.run Ext_sort.bitonic_windowed ~m:4 a)
      in
      let got = Util.keys_of_items (Ext_array.items a) in
      got = List.sort compare (Array.to_list keys))

(* ---------------- bucket oblivious sort / oblivious permutation ------- *)

let test_bucket_plan () =
  let plan = Bucket_sort.make_plan ~b:4 ~z_cells:210 ~n_cells:2048 in
  Alcotest.(check bool) "zb even" true (plan.Bucket_sort.zb mod 2 = 0);
  Alcotest.(check bool) "zb >= 4" true (plan.Bucket_sort.zb >= 4);
  Alcotest.(check int) "z = zb*b" (plan.Bucket_sort.zb * 4) plan.Bucket_sort.z;
  Alcotest.(check bool) "beta power of two" true
    (plan.Bucket_sort.beta land (plan.Bucket_sort.beta - 1) = 0);
  Alcotest.(check int) "levels = log2 beta" plan.Bucket_sort.beta
    (1 lsl plan.Bucket_sort.levels);
  Alcotest.(check bool) "half-fill covers n" true
    (plan.Bucket_sort.beta * plan.Bucket_sort.half >= 2048);
  (* 210 = 144 + 6·⌈log₂ 2048⌉ is the default Z at this size, which the
     registry's shape (m = 256) admits. *)
  Alcotest.(check bool) "registry shape takes the default plan" true
    (Bucket_sort.plan_for ~b:4 ~m:256 ~n_cells:2048 = Some plan);
  Alcotest.(check bool) "overflow bound tiny at default Z" true
    (Bucket_sort.overflow_bound plan < 1e-9);
  (* The sorter's plan_for refuses rather than shrinking Z (a shrunk Z
     turns the 2^-Omega(Z) failure bound into a DoS); the permutation
     shrinks Z, down to its m >= 18 floor. *)
  Alcotest.(check bool) "plan_for refuses tiny m" true
    (Bucket_sort.plan_for ~b:4 ~m:32 ~n_cells:2048 = None);
  let permute ~m =
    let cells = Util.cells_of_keys (Array.init 2048 Fun.id) in
    let a = Ext_array.of_cells (Util.storage ~b:4 ()) ~block_size:4 cells in
    Bucket_sort.permute ~rng:(Odex_crypto.Rng.create ~seed:3) ~m a
  in
  ignore (permute ~m:32);
  Alcotest.check_raises "permute refuses m < 18"
    (Invalid_argument "Bucket_sort.permute: need m >= 18 blocks") (fun () -> ignore (permute ~m:17))

let test_bucket_sort_correct () =
  let rng = Odex_crypto.Rng.create ~seed:31 in
  (* Pipeline scale: 512 blocks of 4 cells against m = 256 — the
     butterfly, run formation, and merge passes all engage. 1900 is the
     deliberately non-power-of-two shape. *)
  run_sort_case (Ext_sort.bucket ()) ~b:4 ~m:256 (Util.random_keys rng 2048 ~bound:4096);
  run_sort_case (Ext_sort.bucket ()) ~b:4 ~m:256 (Util.random_keys rng 1900 ~bound:50);
  run_sort_case (Ext_sort.bucket ()) ~b:4 ~m:256 (Array.init 2048 (fun i -> 2048 - i));
  run_sort_case (Ext_sort.bucket ()) ~b:4 ~m:256 (Array.make 1500 7);
  (* In-cache inputs dispatch to the cache sorter (public condition). *)
  run_sort_case (Ext_sort.bucket ()) ~b:4 ~m:64 (Util.random_keys rng 100 ~bound:50)

let test_bucket_custom_cmp () =
  let cells = Array.init 2048 (fun i -> Cell.item ~tag:(2047 - i) ~key:i ~value:0 ()) in
  let (), a =
    Util.with_array ~b:4 cells (fun _s a ->
        Ext_sort.run (Ext_sort.bucket ()) ~order:Order.By_tag ~m:256 a)
  in
  let tags = List.map (fun (it : Cell.item) -> it.tag) (Ext_array.items a) in
  Alcotest.(check bool) "tags ascending" true (Util.is_sorted_list tags)

let test_bucket_sort_oblivious_isomorphic () =
  (* The bucket sorter's merge reads are rank-driven, so its certificate
     is trace equality across rank-isomorphic inputs (same relative
     order, disjoint values) — the registry pairs it with the
     `Isomorphic cert for the same reason. *)
  let n = 2048 in
  let t keys = sorter_trace (Ext_sort.bucket ()) ~b:4 ~m:256 keys in
  let t1 = t (Array.init n (fun i -> 2 * i)) in
  let t2 = t (Array.init n (fun i -> (4 * i) + 1)) in
  Alcotest.(check bool) "isomorphic inputs, identical traces" true (t1 = t2)

let test_bucket_dummy_pass () =
  let keys = Array.init 2048 (fun i -> (i * 7919) mod 2048) in
  let digest real =
    let s = Util.storage ~b:4 () in
    let a = Ext_array.of_cells s ~block_size:4 (Util.cells_of_keys keys) in
    Ext_sort.run_selective (Ext_sort.bucket ()) ~real ~m:256 a;
    let d = (Trace.digest (Storage.trace s), Trace.length (Storage.trace s)) in
    (d, Util.keys_of_items (Ext_array.items a))
  in
  let d_real, keys_real = digest true in
  let d_dummy, keys_dummy = digest false in
  Alcotest.(check bool) "dummy trace = real trace" true (d_real = d_dummy);
  Alcotest.(check (list int)) "dummy pass preserves data" (Array.to_list keys) keys_dummy;
  Alcotest.(check bool) "real pass sorted" true (Util.is_sorted_list keys_real)

let test_bucket_overflow_raises () =
  (* Undersized Z: at z_cells = 8 the Chernoff exponent is gone and the
     routing all but surely overflows. The sort must complete its full
     I/O schedule, raise, and leave the input untouched. *)
  let plan = Bucket_sort.make_plan ~b:2 ~z_cells:8 ~n_cells:160 in
  let master =
    let rec find c =
      if c > 500 then Alcotest.fail "no overflowing master found (Z=8!?)"
      else if Bucket_sort.simulate_overflow plan ~master:c ~b:2 ~n_blocks:80 then c
      else find (c + 1)
    in
    find 0
  in
  let keys = Array.init 160 (fun i -> 160 - i) in
  let cells = Util.cells_of_keys keys in
  let (), a =
    Util.with_array ~b:2 cells (fun _s a ->
        Alcotest.(check bool) "Overflow raised" true
          (try
             Bucket_sort.sort ~plan ~master ~real:true ~order:Order.Keys ~m:64 a;
             false
           with Bucket_sort.Overflow _ -> true))
  in
  Alcotest.(check (list int)) "input untouched after overflow" (Array.to_list keys)
    (Util.keys_of_items (Ext_array.items a))

let test_bucket_simulate_matches_run () =
  (* simulate_overflow replays exactly the coins the pipeline draws:
     its verdict and the real run's outcome must agree, master by
     master. Z = 12 sits on the fence, so both outcomes appear. *)
  let plan = Bucket_sort.make_plan ~b:2 ~z_cells:12 ~n_cells:120 in
  let seen_ok = ref false and seen_ov = ref false in
  for master = 0 to 19 do
    let predicted = Bucket_sort.simulate_overflow plan ~master ~b:2 ~n_blocks:60 in
    let keys = Array.init 120 (fun i -> (i * 31) mod 120) in
    let (), a =
      Util.with_array ~b:2 (Util.cells_of_keys keys) (fun _s a ->
          let raised =
            try
              Bucket_sort.sort ~plan ~master ~real:true ~order:Order.Keys ~m:64 a;
              false
            with Bucket_sort.Overflow _ -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "master %d: simulation predicts the run" master)
            predicted raised)
    in
    if predicted then seen_ov := true
    else begin
      seen_ok := false;
      Util.check_sorted_by_key "fence sort" a;
      seen_ok := true
    end
  done;
  Alcotest.(check bool) "fence exercises both outcomes" true (!seen_ok && !seen_ov)

let test_permute_correct () =
  let rng = Odex_crypto.Rng.create ~seed:41 in
  let keys = Util.random_keys rng 512 ~bound:100_000 in
  let outcome = ref { Bucket_sort.ok = false } in
  let (), a =
    Util.with_array ~b:4 (Util.cells_of_keys keys) (fun _s a ->
        let rng = Odex_crypto.Rng.create ~seed:42 in
        outcome := Bucket_sort.permute ~rng ~m:66 a)
  in
  Alcotest.(check bool) "no overflow at Z=64" true !outcome.Bucket_sort.ok;
  Util.check_multiset "permute" keys a;
  (* A uniformly random arrangement of 512 cells is a fixed point with
     probability 1/512! — inequality here is deterministic (fixed seed). *)
  Alcotest.(check bool) "actually displaced" true
    (Util.keys_of_items (Ext_array.items a) <> Array.to_list keys)

let test_permute_fixed_trace () =
  (* The permutation never consumes ranks: its trace is exact — a
     function of (shape, coins) alone, whatever the data. *)
  let t keys =
    Util.trace_digest ~b:4 ~seed:7 (Util.cells_of_keys keys) (fun rng _s a ->
        ignore (Bucket_sort.permute ~rng ~m:66 a))
  in
  let n = 512 in
  let t1 = t (Array.init n (fun i -> i)) in
  let t2 = t (Array.init n (fun i -> n - i)) in
  let t3 = t (Array.make n 7) in
  Alcotest.(check bool) "permutation trace is data-independent" true (t1 = t2 && t2 = t3)

let test_permute_blocks_correct () =
  let rng = Odex_crypto.Rng.create ~seed:43 in
  let keys = Util.random_keys rng 512 ~bound:100_000 in
  let (), a =
    Util.with_array ~b:4 (Util.cells_of_keys keys) (fun _s a ->
        let rng = Odex_crypto.Rng.create ~seed:44 in
        Alcotest.(check bool) "block permute ok" true
          (Bucket_sort.permute_blocks ~rng ~m:66 a).Bucket_sort.ok)
  in
  Util.check_multiset "permute blocks" keys a;
  (* Block granularity: each original block's cells must still be
     contiguous (blocks travel unopened). *)
  let original = Array.init 128 (fun i -> Array.to_list (Array.sub keys (i * 4) 4)) in
  for i = 0 to 127 do
    let blk = Util.read_at a i in
    let got = Util.keys_of_items (Util.block_items blk) in
    Alcotest.(check bool)
      (Printf.sprintf "output block %d is an input block" i)
      true
      (Array.exists (fun o -> o = got) original)
  done

(* ---------------- pinned bucket-sort merge and permutation ----------- *)

(* Order-sensitive fingerprint of an array's full cell sequence
   (empties included): pins the output order, not just the multiset. *)
let cells_fingerprint a =
  Array.fold_left
    (fun h c ->
      let w =
        match c with
        | Cell.Empty -> 0x5EED
        | Cell.Item it -> (it.key * 1_000_003) + (it.tag * 8191) + it.value
      in
      ((h * 31) + w) land 0x3FFF_FFFF_FFFF)
    17 (Ext_array.to_cells a)

let check_pins msg (_, digest, length, ios) (exp_digest, exp_length, exp_ios) =
  Alcotest.(check int64) (msg ^ ": trace digest") exp_digest digest;
  Alcotest.(check int) (msg ^ ": trace length") exp_length length;
  Alcotest.(check int) (msg ^ ": counted I/Os") exp_ios ios

(* Items in non-decreasing [Cell.compare_keys] order, every empty after
   every item. *)
let check_cells_sorted msg a =
  let cells = Ext_array.to_cells a in
  let ok = ref true in
  for i = 1 to Array.length cells - 1 do
    if Cell.compare_keys cells.(i - 1) cells.(i) > 0 then ok := false
  done;
  Alcotest.(check bool) (msg ^ ": cells sorted, empties last") true !ok

let check_items_multiset msg cells a =
  let triples l =
    List.sort compare (List.map (fun (it : Cell.item) -> (it.key, it.tag, it.value)) l)
  in
  let expected =
    triples (List.filter_map (function Cell.Item it -> Some it | Cell.Empty -> None)
               (Array.to_list cells))
  in
  Alcotest.(check bool) (msg ^ ": item multiset preserved") true
    (triples (Ext_array.items a) = expected)

(* A hand-made plan whose run count exceeds the merge fan-in: b = 4,
   Z = 16 cells (zb = 4) over 1 024 cells gives β = 128 buckets; at
   m = 18 two buckets form a run, so 64 runs meet a fan-in of 17 and
   the merge takes two passes (fan-in 17, then 4). *)
let multipass_b = 4
let multipass_m = 18
let multipass_plan = Bucket_sort.make_plan ~b:multipass_b ~z_cells:16 ~n_cells:1024

let test_bucket_multipass_shape () =
  let plan = multipass_plan and m = multipass_m in
  Alcotest.(check bool) "plan feasible" true ((4 * plan.Bucket_sort.zb) + 2 <= m);
  let gpr = max 1 (m / (2 * plan.Bucket_sort.zb)) in
  let nruns = Emodel.ceil_div plan.Bucket_sort.beta gpr in
  let fan = max 2 (min nruns (m - 1)) in
  Alcotest.(check bool) "runs exceed one pass's fan-in" true (nruns > m - 1);
  Alcotest.(check bool) "first pass fan-in above 2" true (fan > 2);
  Alcotest.(check bool) "second pass fan-in above 2" true (Emodel.ceil_div nruns fan > 2);
  Alcotest.(check bool) "two passes suffice" true (Emodel.ceil_div nruns fan <= fan)

(* The smallest master whose coins route [n_blocks] without overflow. *)
let clean_master plan ~b ~n_blocks =
  let rec find c =
    if c > 1000 then Alcotest.fail "no overflow-free master below 1000"
    else if Bucket_sort.simulate_overflow plan ~master:c ~b ~n_blocks then find (c + 1)
    else c
  in
  find 0

let multipass_case msg cells pins =
  let b = multipass_b in
  let n_blocks = Array.length cells / b in
  Alcotest.(check bool) (msg ^ ": out of cache") true (n_blocks > multipass_m);
  let master = clean_master multipass_plan ~b ~n_blocks in
  let ((a, _, _, _) as run) =
    Util.traced_run ~b cells (fun _s a ->
        Bucket_sort.sort ~plan:multipass_plan ~master ~real:true ~order:Order.Keys
          ~m:multipass_m a)
  in
  check_cells_sorted msg a;
  check_items_multiset msg cells a;
  check_pins msg run pins;
  a

let test_bucket_multipass_distinct () =
  let cells = Util.cells_of_keys (Array.init 1024 (fun i -> (i * 7919) mod 1024)) in
  ignore (multipass_case "distinct" cells (-987544881994723714L, 7116, 7116))

let test_bucket_multipass_ties () =
  (* At most 5 distinct keys, tags cycling mod 3 (so (key, tag) repeats
     and [cmp] reports true ties), and every 7th cell empty. *)
  let cells =
    Array.init 1024 (fun i ->
        if i mod 7 = 3 then Cell.empty
        else Cell.item ~tag:(i mod 3) ~key:((i * 37) mod 5) ~value:i ())
  in
  let a = multipass_case "ties" cells (7336876293027833161L, 7116, 7116) in
  (* True ties leave the output order to the merge's tie-break: pin it. *)
  Alcotest.(check int) "ties: output order" 49977057520366 (cells_fingerprint a)

let test_bucket_sort_mem_shape_pinned () =
  (* The sort-mem benchmark shape (N = 32 768, B = 8, m = 128): the
     default-Z plan gives 256 runs, merged at fan-in 127, then 3. *)
  let rng = Odex_crypto.Rng.create ~seed:0x50_47 in
  let cells = Util.cells_of_keys (Util.random_keys rng 32768 ~bound:1_000_000) in
  let ((a, _, _, _) as run) =
    Util.traced_run ~b:8 cells (fun _s a -> Ext_sort.run (Ext_sort.bucket ~seed:0xB0C4E7 ()) ~m:128 a)
  in
  check_cells_sorted "sort-mem shape" a;
  check_items_multiset "sort-mem shape" cells a;
  check_pins "sort-mem shape" run (5268692118454413327L, 121760, 121760)

let test_permute_pinned_order () =
  (* The permutation's output order on one fixed seed, cell and block
     granularity — and its schedule: trace digest, trace length and
     counted I/Os, then each server's view on a ChaCha20-sealed
     two-way stripe (the same logical run, so the same order). *)
  let keys = Array.init 512 (fun i -> i) in
  let cell_run _s a =
    ignore (Bucket_sort.permute ~rng:(Odex_crypto.Rng.create ~seed:42) ~m:66 a)
  in
  let block_run _s a =
    ignore (Bucket_sort.permute_blocks ~rng:(Odex_crypto.Rng.create ~seed:44) ~m:66 a)
  in
  let ((a, _, _, _) as run) = Util.traced_run ~b:4 (Util.cells_of_keys keys) cell_run in
  Alcotest.(check int) "cell permutation order" 5973043412041 (cells_fingerprint a);
  check_pins "cell permutation" run (-3544769562572975318L, 1584, 1584);
  let ((a, _, _, _) as run) = Util.traced_run ~b:4 (Util.cells_of_keys keys) block_run in
  Alcotest.(check int) "block permutation order" 58671120780305 (cells_fingerprint a);
  check_pins "block permutation" run (-5718788556132618115L, 1536, 1536);
  let sealed_stripe name f order shard_pins =
    let s =
      Storage.create ~cipher:(Odex_crypto.Cipher.key_of_int 0xC4A7)
        ~cipher_engine:Odex_crypto.Cipher.Chacha20
        ~backend:(Storage.Sharded { inner = Storage.Mem; shards = 2; seed = 0x5A4D })
        ~block_size:4 ()
    in
    let a = Ext_array.of_cells s ~block_size:4 (Util.cells_of_keys keys) in
    f s a;
    Alcotest.(check int) (name ^ ": order") order (cells_fingerprint a);
    List.iteri
      (fun i (digest, length) ->
        let tr = (Storage.shard_traces s).(i) in
        Alcotest.(check int64) (Printf.sprintf "%s: shard %d digest" name i) digest
          (Trace.digest tr);
        Alcotest.(check int) (Printf.sprintf "%s: shard %d length" name i) length
          (Trace.length tr))
      shard_pins
  in
  sealed_stripe "sealed stripe cell permutation" cell_run 5973043412041
    [ (1544366203036147320L, 790); (7218438756269332093L, 794) ];
  sealed_stripe "sealed stripe block permutation" block_run 58671120780305
    [ (-2476665712003767653L, 772); (-1072625813182661474L, 764) ]

(* ---------------- output pins ---------------- *)

(* What every engine returns, pinned: an MD5 of each output cell in
   order (constructor, key, tag, aux, value). The inputs make the tie
   rules visible — (key, tag) pairs repeated and told apart only by the
   value, all-equal cells, mostly-empty blocks — and the sorters are not
   stable, so a kernel that keeps every trace but breaks ties another way
   moves a pin here. Each engine runs all three inputs at a shape that
   reaches the path named; one digest covers the three outputs. *)
let pin_inputs n =
  [
    Array.init n (fun i ->
        if i mod 7 = 3 then Cell.empty
        else Cell.item ~tag:(i mod 3) ~key:((i * 37) mod 5) ~value:i ());
    Array.init n (fun i -> Cell.item ~tag:0 ~key:5 ~value:i ());
    Array.init n (fun i ->
        if i mod 5 = 0 || (i >= 8 && i < 24) then
          Cell.item ~tag:1 ~aux:(i mod 4) ~key:(i mod 3) ~value:i ()
        else Cell.empty);
  ]

let output_digest ~b ~n run =
  let out = Buffer.create 4096 in
  List.iter
    (fun cells ->
      let (), a = Util.with_array ~b cells (fun _s a -> run a) in
      Array.iter
        (function
          | Cell.Empty -> Buffer.add_string out "E;"
          | Cell.Item (it : Cell.item) ->
              Printf.bprintf out "%d,%d,%d,%d;" it.key it.tag it.aux it.value)
        (Ext_array.to_cells a);
      Buffer.add_char out '|')
    (pin_inputs n);
  Digest.to_hex (Digest.string (Buffer.contents out))

let test_output_pins () =
  let sorter name ~m a = Ext_sort.run (Option.get (Ext_sort.find name)) ~m a in
  let rng () = Odex_crypto.Rng.create ~seed:45 in
  let cells ~m a = ignore (Bucket_sort.permute ~rng:(rng ()) ~m a) in
  let blocks ~m a = ignore (Bucket_sort.permute_blocks ~rng:(rng ()) ~m a) in
  (* name, B, cells, run, digest recorded before the kernels staged images *)
  let pins =
    [
      ("cache", 4, 100, sorter "cache" ~m:32, "cf410416f0cfa5cccd8a7f0229bdc06c");
      ("bitonic", 4, 100, sorter "bitonic" ~m:4, "bdf903c10d0af192f88dde7f7adfb0ba");
      ("bitonic-windowed", 4, 100, sorter "bitonic-windowed" ~m:8, "bdf903c10d0af192f88dde7f7adfb0ba");
      ("columnsort (s = 3)", 4, 100, sorter "columnsort" ~m:16, "de8bddc53e35c1abf21a7b9b0b843cfa");
      ("bucket, in cache", 4, 100, sorter "bucket" ~m:32, "cf410416f0cfa5cccd8a7f0229bdc06c");
      ("bucket, routed", 16, 4000, sorter "bucket" ~m:64, "63934b082d0bf861d33ac8e48a0c6307");
      ("auto, in cache", 4, 100, sorter "auto" ~m:32, "cf410416f0cfa5cccd8a7f0229bdc06c");
      ("auto, windowed", 4, 100, sorter "auto" ~m:8, "bdf903c10d0af192f88dde7f7adfb0ba");
      ("permute, in cache", 4, 100, cells ~m:32, "135fc7cede315463d0947d988de760b5");
      ("permute, routed", 4, 512, cells ~m:66, "ec1fd17e4f8e4e37f2f5ba56c967acaa");
      ("permute_blocks, in cache", 4, 100, blocks ~m:32, "e3a655bd259b4a67dc27c6219723f647");
      ("permute_blocks, routed", 4, 512, blocks ~m:66, "c43df6b706d49ee28725e2d96734fdd4");
    ]
  in
  List.iter
    (fun (name, b, n, run, want) ->
      Alcotest.(check string) (name ^ ": output digest") want (output_digest ~b ~n run))
    pins

let test_sorter_edge_sizes () =
  (* Every registered sorter through the Ext_sort.run dispatch at the
     degenerate and non-power-of-two sizes: N in {0,1,2,3} plus awkward
     odd shapes. m = 128 keeps the cache sorter (and the in-cache
     dispatch of the others) within capacity at every shape. *)
  let rng = Odex_crypto.Rng.create ~seed:51 in
  List.iter
    (fun sorter ->
      List.iter
        (fun n ->
          List.iter
            (fun b ->
              run_sort_case sorter ~b ~m:128 (Util.random_keys rng n ~bound:(max 1 (2 * n))))
            [ 1; 4 ])
        [ 0; 1; 2; 3; 37; 100 ])
    (Ext_sort.auto :: Ext_sort.all)

let prop_sorters_agree =
  Util.qcheck_case ~name:"all sorters agree on arbitrary keys" ~count:40
    QCheck2.Gen.(pair (list_size (int_range 0 120) (int_range (-50) 50)) (int_range 1 4))
    (fun (keys, b) ->
      let keys = Array.of_list keys in
      let expected = List.sort compare (Array.to_list keys) in
      List.for_all
        (fun sorter ->
          let (), a =
            Util.with_array ~b (Util.cells_of_keys keys) (fun _s a ->
                Ext_sort.run sorter ~m:128 a)
          in
          Util.keys_of_items (Ext_array.items a) = expected)
        (Ext_sort.auto :: Ext_sort.all))

let prop_bucket_pipeline_sorts =
  Util.qcheck_case ~name:"bucket sort (pipeline scale) sorts arbitrary keys" ~count:8
    QCheck2.Gen.(list_size (int_range 1100 2600) (int_range (-1000) 1000))
    (fun keys ->
      let keys = Array.of_list keys in
      let (), a =
        Util.with_array ~b:4 (Util.cells_of_keys keys) (fun _s a ->
            Ext_sort.run (Ext_sort.bucket ()) ~m:256 a)
      in
      Util.keys_of_items (Ext_array.items a) = List.sort compare (Array.to_list keys))

let suite =
  [
    ("bitonic 0-1 principle", `Slow, check_zero_one Ext_sort.bitonic);
    ("bitonic-windowed 0-1 principle", `Slow, check_zero_one Ext_sort.bitonic_windowed);
    ("bitonic-windowed 0-1 principle, m = 8", `Slow, check_zero_one ~m:8 Ext_sort.bitonic_windowed);
    ("bitonic-windowed 0-1 principle, m = 16", `Slow, check_zero_one ~m:16 Ext_sort.bitonic_windowed);
    ("bitonic 0-1 principle, B = 2", `Slow, check_zero_one ~b:2 Ext_sort.bitonic);
    ("bitonic-windowed 0-1 principle, B = 2", `Slow, check_zero_one ~b:2 Ext_sort.bitonic_windowed);
    ("auto 0-1 principle", `Slow, check_zero_one Ext_sort.auto);
    ("merge-split halves", `Quick, test_merge_split);
    ("external sorters correct", `Quick, test_sorters_correct);
    ("cache sort correct", `Quick, test_cache_sort_correct);
    ("cache sort overflow", `Quick, test_cache_sort_overflow);
    ("sort preserves payload", `Quick, test_sort_preserves_payload);
    ("sort by custom comparator", `Quick, test_sort_custom_cmp);
    ("interleaved empties", `Quick, test_sort_empties_interleaved);
    ("sorters are data-oblivious", `Quick, test_sorters_oblivious);
    ("windowing reduces I/Os", `Quick, test_windowed_fewer_ios);
    ("columnsort plan", `Quick, test_columnsort_plan);
    ("columnsort correct", `Quick, test_columnsort_correct);
    ("columnsort oblivious", `Quick, test_columnsort_oblivious);
    ("columnsort dummy pass", `Quick, test_columnsort_dummy_pass);
    ("columnsort linear I/Os", `Quick, test_columnsort_linear_ios);
    ("columnsort capacity", `Quick, test_columnsort_capacity_raises);
    ("columnsort virtual padding", `Quick, test_columnsort_virtual_padding);
    ("cost matches the pinned sort rows", `Quick, test_cost_matches_pins);
    prop_cost_exact;
    prop_columnsort_sorts;
    prop_bitonic_sorts;
    ("bucket plan geometry", `Quick, test_bucket_plan);
    ("bucket sort correct", `Quick, test_bucket_sort_correct);
    ("bucket sort custom comparator", `Quick, test_bucket_custom_cmp);
    ("bucket sort rank-isomorphic traces", `Quick, test_bucket_sort_oblivious_isomorphic);
    ("bucket dummy pass", `Quick, test_bucket_dummy_pass);
    ("bucket undersized-Z overflow", `Quick, test_bucket_overflow_raises);
    ("bucket simulation matches run", `Quick, test_bucket_simulate_matches_run);
    ("oblivious permutation correct", `Quick, test_permute_correct);
    ("oblivious permutation fixed trace", `Quick, test_permute_fixed_trace);
    ("oblivious block permutation", `Quick, test_permute_blocks_correct);
    ("bucket multi-pass plan shape", `Quick, test_bucket_multipass_shape);
    ("bucket multi-pass merge pinned (distinct)", `Quick, test_bucket_multipass_distinct);
    ("bucket multi-pass merge pinned (ties)", `Quick, test_bucket_multipass_ties);
    ("bucket sort-mem shape pinned", `Quick, test_bucket_sort_mem_shape_pinned);
    ("oblivious permutation pinned order", `Quick, test_permute_pinned_order);
    ("engine output pins", `Quick, test_output_pins);
    ("sorter edge sizes", `Quick, test_sorter_edge_sizes);
    prop_sorters_agree;
    prop_bucket_pipeline_sorts;
    prop_merge_split_stable;
  ]
