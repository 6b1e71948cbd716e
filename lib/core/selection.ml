open Odex_extmem

type result = { item : Cell.item option; ok : bool }

(* Every comparison below goes through the caller's [order] (as in
   Ext_sort): mixing orders between the private sorts,
   the oblivious sorts and the bracketing scans would silently select
   the wrong rank. *)
let min_item order a b = if Order.compare_items order a b <= 0 then a else b
let max_item order a b = if Order.compare_items order a b >= 0 then a else b

(* Blocks per batched transfer in the scans below; transport granularity
   only, see Consolidation. *)
let scan_chunk = 32

let staging a = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:scan_chunk

(* Count of items in [a]; one scan. *)
let count_items a =
  let total = ref 0 in
  Ext_array.scan_items a (staging a) (fun _ -> incr total);
  !total

let item_at buf off = Cell.get (Flat.get_cell buf off)

(* Scan a sorted compacted array and privately grab the items at the two
   given 1-indexed ranks (among items). *)
let grab_ranks a r1 r2 =
  let seen = ref 0 in
  let g1 = ref None and g2 = ref None in
  let buf = staging a in
  Ext_array.scan_items a buf (fun off ->
      incr seen;
      if !seen = r1 then g1 := Some (item_at buf off);
      if !seen = r2 then g2 := Some (item_at buf off));
  (!g1, !g2)

let extremes ~order a buf marks ~lo ~hi =
  let cmp off mk = Order.compare_images order (Flat.buffer buf) off (Flat.buffer marks) mk in
  let seen = ref false in
  Ext_array.scan_items a buf (fun off ->
      if (not !seen) || cmp off lo < 0 then Flat.copy_cell buf off marks lo;
      if (not !seen) || cmp off hi > 0 then Flat.copy_cell buf off marks hi;
      seen := true);
  assert !seen

(* The items of an array that fits in Alice's memory, read as one run
   (refused before any I/O when it does not fit), in reverse scan
   order. *)
let items_in_cache ~m a =
  let n = Ext_array.blocks a in
  Residency.check ~m n;
  let buf = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:(max 1 n) in
  let items = ref [] in
  Ext_array.scan_items a buf (fun off -> items := item_at buf off :: !items);
  !items

(* Base case: the whole array fits in cache; trace is one batched
   scan. *)
let select_in_cache ~order ~m ~k a =
  let sorted = List.sort (Order.compare_items order) (items_in_cache ~m a) in
  match List.nth_opt sorted (k - 1) with
  | Some it -> { item = Some it; ok = true }
  | None -> { item = None; ok = false }

(* Degenerate regime (the in-range capacity is not smaller than the
   array): sort everything obliviously and scan for the rank. *)
let select_by_sorting ~order ~m ~k a =
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.auto ~order ~m a;
  let got, _ = grab_ranks a k (-1) in
  { item = got; ok = got <> None }

let rec go ?key ~order ~m ~rng ~exponent ~delta ~k a =
  let n_blocks = Ext_array.blocks a in
  if n_blocks <= m then select_in_cache ~order ~m ~k a
  else begin
    let b = Ext_array.block_size a in
    let total = count_items a in
    if k < 1 || k > total then invalid_arg "Selection.select: k out of range";
    let nf = Float.of_int total in
    (* Sampling rate N^{-e}: the paper's Theorem 12 uses e = 1/2; the
       quantile-style e = 1/4 shrinks the bracketed residue much faster
       at feasible N (EXPERIMENTS.md E7 measures both). *)
    let p = Float.pow nf (-.exponent) in
    let s0 = nf *. p in
    (* The default rank slack s0^{3/4} reproduces the paper's N^{3/8}
       at e = 1/2; callers may tighten it. *)
    let d = match delta with Some f -> f s0 | None -> Float.pow s0 0.75 in
    let d = Float.max 1. d in
    let cap_in_cells = min total (Float.to_int (4. *. d /. p) + 1) in
    if cap_in_cells >= total then select_by_sorting ~order ~m ~k a
    else begin
      let ok = ref true in
      (* 1. Sample w.p. N^{-e} and consolidate. *)
      let sample, sampled =
        Ext_array.with_span a "selection.sample" (fun () -> Consolidation.sample ~rng ~p a)
      in
      let cap_sample_cells = min total (Float.to_int (s0 +. d) + 1) in
      let cap_sample_blocks = Emodel.ceil_div cap_sample_cells b + 1 in
      if Float.of_int sampled > s0 +. d || Float.of_int sampled < Float.max 1. (s0 -. d) then
        ok := false;
      (* 2. Tight-compact the sample (Theorem 4 regime) and sort it. *)
      let c_out =
        Ext_array.with_span a "selection.compact-sample" (fun () ->
            Compaction.tight ?key ~m ~capacity_blocks:cap_sample_blocks sample)
      in
      if not c_out.ok then ok := false;
      let c_arr = c_out.dest in
      Ext_array.with_span a "selection.sort-sample" (fun () ->
          Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.auto ~order ~m c_arr);
      (* 3. Bracket ranks (Lemma 11). *)
      let s = sampled in
      let ix = Float.to_int (Float.ceil ((Float.of_int k *. p) -. d)) in
      let iy =
        s - Float.to_int (Float.ceil ((Float.of_int (total - k) *. p) -. (2. *. d)))
      in
      let want r = if r >= 1 && r <= s then r else -1 in
      let x_opt, y_opt =
        Ext_array.with_span a "selection.grab-brackets" (fun () ->
            grab_ranks c_arr (want ix) (want iy))
      in
      (* 4. Global min and max, then the bracket [x, y]. Alice keeps the
         four as images in [marks] and compares the scans' images
         against them in place. *)
      let marks = Flat.create ~block_size:1 ~blocks:4 in
      let mark k = Flat.cell_offset marks ~block:k ~slot:0 in
      let x_off = mark 0 and y_off = mark 1 and lo_off = mark 2 and hi_off = mark 3 in
      let cmp buf off mk =
        Order.compare_images order (Flat.buffer buf) off (Flat.buffer marks) mk
      in
      let buf = staging a in
      Ext_array.with_span a "selection.extremes" (fun () ->
          extremes ~order a buf marks ~lo:lo_off ~hi:hi_off);
      let lo = item_at marks lo_off and hi = item_at marks hi_off in
      let x = match x_opt with Some x' -> max_item order x' lo | None -> lo in
      let y = match y_opt with Some y' -> min_item order y' hi | None -> hi in
      let set off (it : Cell.item) =
        Flat.set_item marks off ~key:it.key ~value:it.value ~tag:it.tag ~aux:it.aux
      in
      set x_off x;
      set y_off y;
      let in_range buf off = cmp buf off x_off >= 0 && cmp buf off y_off <= 0 in
      (* 5. Count below x and in range; one scan. *)
      let c_lt = ref 0 and c_in = ref 0 in
      Ext_array.with_span a "selection.count" (fun () ->
          Ext_array.scan_items a buf (fun off ->
              if cmp buf off x_off < 0 then incr c_lt;
              if in_range buf off then incr c_in));
      let cap_in_blocks = Emodel.ceil_div cap_in_cells b + 1 in
      if !c_in > cap_in_cells || k <= !c_lt || k > !c_lt + !c_in then ok := false;
      (* 6. Consolidate the in-range items and tightly compact them (the
         facade picks the cheaper of Theorem 4 and Theorem 6 from public
         parameters). *)
      let t_arr =
        Ext_array.with_span a "selection.consolidate-range" (fun () ->
            Consolidation.run ~distinguished:in_range ~into:None a)
      in
      let d_out =
        Ext_array.with_span a "selection.compact-range" (fun () ->
            Compaction.tight ?key ~m ~capacity_blocks:cap_in_blocks t_arr)
      in
      if not d_out.ok then ok := false;
      let d_arr = d_out.dest in
      (* 7. Recurse on the bracketed residue (it fits in cache after
         O(1) levels; the paper sorts it instead — same result, and the
         recursion keeps the total I/O linear at practical sizes). *)
      if !ok then begin
        let sub =
          Ext_array.with_span a "selection.recurse" (fun () ->
              go ?key ~order ~m ~rng ~exponent ~delta ~k:(k - !c_lt) d_arr)
        in
        { item = sub.item; ok = sub.ok }
      end
      else begin
        (* Keep the trace shape: run the recursion anyway, but report
           failure. Rank clamped to the residue's item count. *)
        let residue_items = count_items d_arr in
        if residue_items = 0 then { item = None; ok = false }
        else
          let k' = max 1 (min residue_items (k - !c_lt)) in
          let sub =
            Ext_array.with_span a "selection.recurse" (fun () ->
                go ?key ~order ~m ~rng ~exponent ~delta ~k:k' d_arr)
          in
          { item = sub.item; ok = false }
      end
    end
  end

let select ?key ?(order = Order.Keys) ?(exponent = 0.5) ~m ~rng ~k a =
  go ?key ~order ~m ~rng ~exponent ~delta:None ~k a

let select_with_delta ?key ?(order = Order.Keys) ?(exponent = 0.5) ~m ~rng ~delta ~k a =
  go ?key ~order ~m ~rng ~exponent ~delta:(Some delta) ~k a
