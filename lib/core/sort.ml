open Odex_extmem

type outcome = { ok : bool }

(* The paper's q = (M/B)^{1/4} presumes the tall-cache regime where m is
   enormous; at feasible cache sizes that gives only 2-5 buckets and a
   recursion that barely shrinks. We keep the m^{1/4} floor but let the
   bucket count grow with the cache, capped at m/8 and at 32 (Alice's
   consolidation and deal buffers). When a level must *compact* its
   buckets (deep recursion), the count is further capped at sqrt(M)/4 so
   the sampled pivots' rank error (± bucket·colors/sqrt(M)) stays inside
   the 30% capacity slack; the one-level-from-base regime skips
   compaction and needs no capacity, so it takes the generous count. *)
let bucket_count ~m ~b =
  ignore b;
  let q = Float.to_int (Float.pow (Float.of_int m) 0.25) in
  let scaled = min 32 (m / 8) in
  max 2 (min ((m / 3) - 1) (max (q + 1) scaled))

let bucket_count_deep ~m ~b =
  let q = Float.to_int (Float.pow (Float.of_int m) 0.25) in
  let precision = Float.to_int (Float.sqrt (Float.of_int (m * b)) /. 4.) in
  let scaled = min precision (min 32 (m / 8)) in
  max 2 (min ((m / 3) - 1) (max (q + 1) scaled))

(* Bucket index of an item given the sorted pivots: the number of pivots
   <= it. Pivots are few (q <= m^{1/4}); a linear pass is fine. *)
let color_of_pivots pivots (it : Cell.item) =
  let c = ref 0 in
  Array.iter (fun p -> if Order.compare_items Keys p it <= 0 then incr c) pivots;
  !c

(* Approximate pivots from a memory-bounded private sample: one scan, a
   coin per cell (fixed consumption), the sample sorted in Alice's
   memory. Rank error per pivot is O(N/sqrt(sample)), well within the
   slack the recursion tolerates; the exact Theorem 17 quantiles remain
   available through {!Quantiles} (and are measured in E8) but would
   cost a full extra sort pass per recursion level here. *)
let sample_pivots ~m ~rng ~q a =
  let b = Ext_array.block_size a in
  let budget = max (8 * (q + 1) * (q + 1)) (m * b * 3 / 4) in
  let total_cells = Ext_array.cells a in
  let p = Float.min 1. (Float.of_int budget /. Float.of_int (max 1 total_cells)) in
  let sample = ref [] in
  let count = ref 0 in
  let buf = Flat.create ~block_size:b ~blocks:1 in
  for i = 0 to Ext_array.blocks a - 1 do
    Ext_array.read_flat a i ~count:1 buf;
    for slot = 0 to b - 1 do
      let coin = Odex_crypto.Rng.bernoulli rng p in
      let off = Flat.cell_offset buf ~block:0 ~slot in
      if coin && Flat.is_item buf off && !count < 2 * budget then begin
        sample := Cell.get (Flat.get_cell buf off) :: !sample;
        incr count
      end
    done
  done;
  let sorted = Array.of_list (List.sort (Order.compare_items Keys) !sample) in
  let len = Array.length sorted in
  if len = 0 then [||]
  else Array.init q (fun i -> sorted.(min (len - 1) ((i + 1) * len / (q + 1))))

(* [damage] records unrecoverable (data-lossy) events — dropped blocks in
   the deal carry, loose-compaction region overflow — which failure
   sweeping must NOT be allowed to mask: sweeping restores sortedness,
   not lost items. The per-node boolean tracks repairable unsortedness. *)
let rec sort_padded_rec ~m ~rng ~inject_failure ~sweep ~bucket_engine ~shuffle_engine ~damage ~depth ~path a =
  let n = Ext_array.blocks a in
  let b_sz = Ext_array.block_size a in
  (* Regime selection is public (n, m, B only). *)
  let skip_colors = bucket_count ~m ~b:b_sz in
  let one_level_from_base = n <= 2 * m * skip_colors in
  let colors = if one_level_from_base then skip_colors else bucket_count_deep ~m ~b:b_sz in
  let fallback_threshold = max (2 * m) (8 * (colors + 4)) in
  (* Injected failures (test hook) skip the work entirely, leaving the
     subarray unsorted — the genuine failure mode sweeping must repair. *)
  if n <= m then begin
    let fail = inject_failure path in
    if not fail then Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.cache_sort ~m a;
    (a, not fail)
  end
  else if n <= fallback_threshold then begin
    (* Too small for the pipeline to make progress: deterministic
       oblivious sort (Lemma 2 substrate). *)
    let fail = inject_failure path in
    if not fail then Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m a;
    (a, not fail)
  end
  else begin
    let b = Ext_array.block_size a in
    let storage = Ext_array.storage a in
    let ok = ref (not (inject_failure path)) in
    (* 1. Bucket pivots from a one-scan private sample. *)
    let q = colors - 1 in
    let pivots = Ext_array.with_span a "sort.pivots" (fun () -> sample_pivots ~m ~rng ~q a) in
    let color_of = color_of_pivots pivots in
    (* 2. Monochromatic consolidation. *)
    let consolidated =
      Ext_array.with_span a "sort.consolidate" (fun () ->
          Multiway.consolidate ~colors ~color_of a)
    in
    (* 3. Shuffle and deal. *)
    let shuffled =
      Ext_array.with_span a "sort.shuffle" (fun () ->
          Shuffle_deal.shuffle_with ~engine:shuffle_engine ~m ~rng consolidated)
    in
    if not shuffled then begin ok := false; damage := true end;
    let window = max (2 * colors) (m / 2) in
    let per_color = Emodel.ceil_div window colors in
    (* Quota just above the mean rate; bursts ride in the carry buffer
       (overflow is flagged as damage). *)
    let quota =
      per_color + max 2 (Float.to_int (Float.ceil (Float.sqrt (Float.of_int per_color))))
    in
    let { Shuffle_deal.outputs; ok = deal_ok } =
      Ext_array.with_span a "sort.deal" (fun () ->
          Shuffle_deal.deal ~colors ~color_of ~window ~quota ~carry_budget:(m / 2)
            consolidated)
    in
    if not deal_ok then begin ok := false; damage := true end;
    (* 4. Compact each bucket — or don't. The deal output is only ~2x
       the bucket's true size, so with enough buckets the recursion
       shrinks even without compaction; skipping it (`Skip, the default)
       saves the dominant per-level cost. `Loose is the paper's
       Theorem 8 structure and `Butterfly the exact Theorem 6 variant —
       both measured as ablations in E9. The choice is public. *)
    (* 30% slack over the ideal n/colors; the bucket count is capped so
       the sampled pivots' rank error stays within it. *)
    let bucket_capacity = Emodel.ceil_div (13 * n) (10 * colors) + colors + 8 in
    (* `Auto: skipping leaves ~2x padding per level, which compounds, so
       it is only free when the buckets will hit the base case next
       level; otherwise compact exactly. The test uses n, m, colors
       only. *)
    let engine =
      match bucket_engine with
      | `Auto -> if one_level_from_base then `Skip else `Butterfly
      | (`Skip | `Loose | `Butterfly) as e -> e
    in
    let compact_bucket c_arr =
      match engine with
      | `Skip -> { Compaction.dest = c_arr; occupied = -1; ok = true }
      | `Loose when colors >= 8 && bucket_capacity * 4 <= Ext_array.blocks c_arr ->
          Compaction.loose ~m ~rng ~capacity_blocks:bucket_capacity c_arr
      | `Loose | `Butterfly ->
          let occupied = Butterfly.compact ~m c_arr in
          let len = min (Ext_array.blocks c_arr) bucket_capacity in
          if occupied > len then { Compaction.dest = c_arr; occupied; ok = false }
          else { Compaction.dest = Ext_array.sub c_arr ~off:0 ~len; occupied; ok = true }
    in
    let buckets =
      Ext_array.with_span a "sort.compact-buckets" (fun () ->
          Array.map
            (fun c_arr ->
              let out = compact_bucket c_arr in
              if not out.Compaction.ok then begin ok := false; damage := true end;
              out.Compaction.dest)
            outputs)
    in
    (* Progress guard: if compaction failed to shrink, finish this level
       deterministically instead of recursing forever. *)
    if Array.exists (fun d -> Ext_array.blocks d >= n) buckets then begin
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m a;
      (a, !ok)
    end
    else begin
      (* 5. Recurse per bucket. *)
      let sorted =
        Array.mapi
          (fun i d ->
            sort_padded_rec ~m ~rng ~inject_failure ~sweep ~bucket_engine ~shuffle_engine
              ~damage
              ~depth:(depth + 1)
              ~path:((path * 64) + i + 1)
              d)
          buckets
      in
      let sub_ok = Array.map snd sorted in
      let sorted = Array.map fst sorted in
      (* 6. Failure sweeping (Theorem 21's data-oblivious failure
         recovery): deterministically re-sort the failed buckets without
         revealing which ones failed. As in the paper, it runs once, at
         the level where the recursive calls return to the top. *)
      if depth = 0 && sweep then begin
        let swept_ok =
          Ext_array.with_span a "sort.sweep" (fun () -> Failure_sweep.sweep ~m sorted sub_ok)
        in
        if not swept_ok then ok := false
      end
      else if Array.exists not sub_ok then ok := false;
      (* 7. Concatenate the padded sorted buckets. *)
      let total = Array.fold_left (fun acc s -> acc + Ext_array.blocks s) 0 sorted in
      let out = Ext_array.create storage ~blocks:total in
      let one = Flat.create ~block_size:b ~blocks:1 in
      let cursor = ref 0 in
      Array.iter
        (fun s ->
          for i = 0 to Ext_array.blocks s - 1 do
            Ext_array.read_flat s i ~count:1 one;
            Ext_array.write_flat out !cursor ~count:1 one;
            incr cursor
          done)
        sorted;
      (out, !ok)
    end
  end

let sort_padded ?(sweep = true) ?(bucket_engine = `Auto) ?(shuffle = `Knuth) ~m ~rng a =
  let damage = ref false in
  let arr, ok =
    sort_padded_rec ~m ~rng ~inject_failure:(fun _ -> false) ~sweep ~bucket_engine
      ~shuffle_engine:shuffle ~damage ~depth:0 ~path:0 a
  in
  (arr, ok && not !damage)

let sort_padded_with_injection ?(sweep = true) ?(bucket_engine = `Auto) ?(shuffle = `Knuth)
    ~m ~rng ~inject_failure a =
  let damage = ref false in
  let arr, ok =
    sort_padded_rec ~m ~rng ~inject_failure ~sweep ~bucket_engine ~shuffle_engine:shuffle
      ~damage ~depth:0 ~path:0 a
  in
  (arr, ok && not !damage)

let run ?sweep ?bucket_engine ?shuffle ~m ~rng a =
  let n = Ext_array.blocks a in
  let storage = Ext_array.storage a in
  (* Work on a copy so [a]'s final state is exactly the dense sorted
     output regardless of how much padding the pipeline accumulates. *)
  let work = Ext_array.create storage ~blocks:n in
  let one = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:1 in
  for i = 0 to n - 1 do
    Ext_array.read_flat a i ~count:1 one;
    Ext_array.write_flat work i ~count:1 one
  done;
  let padded, ok = sort_padded ?sweep ?bucket_engine ?shuffle ~m ~rng work in
  (* Final pass (paper: "we perform a tight order-preserving compaction
     for all of A using Theorem 6"): consolidate cells into full blocks
     in sorted order, compact the blocks to the front, copy back. *)
  Ext_array.with_span a "sort.finalize" @@ fun () ->
  let consolidated = Consolidation.run ~into:None padded in
  let occupied = Butterfly.compact ~m consolidated in
  let ok = ok && occupied <= n in
  for i = 0 to n - 1 do
    if i < Ext_array.blocks consolidated then Ext_array.read_flat consolidated i ~count:1 one
    else Flat.clear_blocks one 0 1;
    Ext_array.write_flat a i ~count:1 one
  done;
  { ok }
