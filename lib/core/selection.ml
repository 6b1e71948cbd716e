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

(* Count of items in [a]; one scan. *)
let count_items a =
  let total = ref 0 in
  Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
      Array.iter (fun blk -> total := !total + Block.count_items blk) blks);
  !total

(* Consolidating sample pass: Lemma 3's scan, with a Bernoulli coin drawn
   for every cell (occupied or not) so coin consumption is fixed. *)
let consolidate_sample ~rng ~p a =
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let dst = Ext_array.create (Ext_array.storage a) ~blocks:n in
  let pending = Queue.create () in
  let sampled = ref 0 in
  let take_in blk =
    Array.iter
      (fun c ->
        let coin = Odex_crypto.Rng.bernoulli rng p in
        match c with
        | Cell.Empty -> ()
        | Cell.Item it ->
            if coin then begin
              Queue.add it pending;
              incr sampled
            end)
      blk
  in
  let emit () =
    let blk = Block.make b in
    let count = min b (Queue.length pending) in
    for slot = 0 to count - 1 do
      blk.(slot) <- Cell.Item (Queue.pop pending)
    done;
    blk
  in
  if n > 0 then begin
    (* Batched like Consolidation.run; the coins are drawn per cell in
       scan order inside [take_in], so the coin stream is exactly the
       per-block scan's. *)
    let out_buf = ref [] and out_len = ref 0 and out_base = ref 0 in
    let flush_out () =
      if !out_len > 0 then begin
        Ext_array.write_blocks dst !out_base (Array.of_list (List.rev !out_buf));
        out_base := !out_base + !out_len;
        out_buf := [];
        out_len := 0
      end
    in
    let push_out blk =
      out_buf := blk :: !out_buf;
      incr out_len;
      if !out_len >= scan_chunk then flush_out ()
    in
    Ext_array.iter_runs a ~chunk:scan_chunk (fun base blks ->
        Array.iteri
          (fun j blk ->
            take_in blk;
            if base + j > 0 then
              push_out (if Queue.length pending >= b then emit () else Block.make b))
          blks);
    push_out (emit ());
    flush_out ()
  end;
  (dst, !sampled)

(* Scan a sorted compacted array and privately grab the items at the two
   given 1-indexed ranks (among items). *)
let grab_ranks a r1 r2 =
  let seen = ref 0 in
  let g1 = ref None and g2 = ref None in
  Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
      Array.iter
        (Array.iter (fun c ->
             match c with
             | Cell.Empty -> ()
             | Cell.Item it ->
                 incr seen;
                 if !seen = r1 then g1 := Some it;
                 if !seen = r2 then g2 := Some it))
        blks);
  (!g1, !g2)

(* Base case: the whole array fits in cache (the caller guarantees
   n <= m, which [load_run]'s capacity check re-verifies); trace is one
   batched scan. *)
let select_in_cache ~order ~m ~k a =
  let n = Ext_array.blocks a in
  let cache = Cache.create (Ext_array.storage a) ~capacity:m in
  Cache.load_run cache (Ext_array.base a) ~count:n;
  let items = ref [] in
  for i = 0 to n - 1 do
    let blk = Cache.borrow cache (Ext_array.addr a i) in
    Array.iter (fun c -> match c with Cell.Empty -> () | Cell.Item it -> items := it :: !items) blk;
    Cache.drop cache (Ext_array.addr a i)
  done;
  let sorted = List.sort (Order.compare_items order) !items in
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
        Ext_array.with_span a "selection.sample" (fun () -> consolidate_sample ~rng ~p a)
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
      (* 4. Global min and max; combine. *)
      let lo = ref None and hi = ref None in
      Ext_array.with_span a "selection.extremes" (fun () ->
          Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
              Array.iter
                (Array.iter (fun c ->
                     match c with
                     | Cell.Empty -> ()
                     | Cell.Item it ->
                         lo := Some (match !lo with None -> it | Some v -> min_item order v it);
                         hi := Some (match !hi with None -> it | Some v -> max_item order v it)))
                blks));
      let x =
        match (x_opt, !lo) with
        | Some x', Some x'' -> max_item order x' x''
        | None, Some x'' -> x''
        | _, None -> assert false
      in
      let y =
        match (y_opt, !hi) with
        | Some y', Some y'' -> min_item order y' y''
        | None, Some y'' -> y''
        | _, None -> assert false
      in
      let in_range it = Order.compare_items order x it <= 0 && Order.compare_items order it y <= 0 in
      (* 5. Count below x and in range; one scan. *)
      let c_lt = ref 0 and c_in = ref 0 in
      Ext_array.with_span a "selection.count" (fun () ->
          Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
              Array.iter
                (Array.iter (fun c ->
                     match c with
                     | Cell.Empty -> ()
                     | Cell.Item it ->
                         if Order.compare_items order it x < 0 then incr c_lt;
                         if in_range it then incr c_in))
                blks));
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
