open Odex_extmem

type result = { quantiles : Cell.item array; ok : bool }

(* As in Selection: one caller-supplied [order] drives every
   comparison — private sorts, oblivious sorts and interval tests. *)
let rank_of_quantile ~total ~q i =
  if i < 1 || i > q then invalid_arg "Quantiles.rank_of_quantile: bad index";
  max 1 (Emodel.ceil_div (i * total) (q + 1))

let dummy_item = { Cell.key = 0; value = 0; tag = 0; aux = 0 }

(* Blocks per batched transfer in the scans below; transport granularity
   only, see Consolidation. *)
let scan_chunk = 32

(* Scan [a]; grab the item of 1-indexed rank [ranks.(i)] (among items, in
   scan order) for every i. Ranks need not be sorted or distinct. *)
let grab_many a ranks out =
  let seen = ref 0 in
  Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
      Array.iter
        (Array.iter (fun c ->
             match c with
             | Cell.Empty -> ()
             | Cell.Item it ->
                 incr seen;
                 Array.iteri (fun j r -> if r = !seen then out.(j) <- Some it) ranks))
        blks)

let private_quantiles ~order ~q items =
  let sorted = List.sort (Order.compare_items order) items in
  let arr = Array.of_list sorted in
  let total = Array.length arr in
  if total = 0 then { quantiles = Array.make q dummy_item; ok = false }
  else
    {
      quantiles = Array.init q (fun i -> arr.(rank_of_quantile ~total ~q (i + 1) - 1));
      ok = true;
    }

(* Base case: array fits in cache (n <= m, re-verified by [load_run]'s
   capacity check); one batched scan. *)
let in_cache ~order ~m ~q a =
  let n = Ext_array.blocks a in
  let cache = Cache.create (Ext_array.storage a) ~capacity:m in
  Cache.load_run cache (Ext_array.base a) ~count:n;
  let items = ref [] in
  for i = 0 to n - 1 do
    let blk = Cache.borrow cache (Ext_array.addr a i) in
    Array.iter (fun c -> match c with Cell.Empty -> () | Cell.Item it -> items := it :: !items) blk;
    Cache.drop cache (Ext_array.addr a i)
  done;
  private_quantiles ~order ~q !items

(* Easy case (M/B)^4 >= N/B: sort a copy deterministically, scan. *)
let by_sorting ~order ~m ~q a =
  let n = Ext_array.blocks a in
  let storage = Ext_array.storage a in
  let copy = Ext_array.create storage ~blocks:n in
  let total = ref 0 in
  Ext_array.iter_runs a ~chunk:scan_chunk (fun base blks ->
      Array.iter (fun blk -> total := !total + Block.count_items blk) blks;
      Ext_array.write_blocks copy base blks);
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.auto ~order ~m copy;
  if !total = 0 then { quantiles = Array.make q dummy_item; ok = false }
  else begin
    let ranks = Array.init q (fun i -> rank_of_quantile ~total:!total ~q (i + 1)) in
    let out = Array.make q None in
    grab_many copy ranks out;
    let ok = Array.for_all Option.is_some out in
    {
      quantiles = Array.map (function Some it -> it | None -> dummy_item) out;
      ok;
    }
  end

let run ?key ?(order = Order.Keys) ?delta ~m ~rng ~q a =
  if q < 1 then invalid_arg "Quantiles.run: q must be >= 1";
  if q > m then invalid_arg "Quantiles.run: q must be <= m (Alice's counters)";
  let n_blocks = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  if n_blocks <= m then in_cache ~order ~m ~q a
  else if
    (* (M/B)^4 >= N/B, guarding against overflow for big m. *)
    m >= 256 || m * m * m * m >= n_blocks
  then by_sorting ~order ~m ~q a
  else begin
    let ok = ref true in
    (* Count items; one batched scan. *)
    let total = ref 0 in
    Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
        Array.iter (fun blk -> total := !total + Block.count_items blk) blks);
    let total = !total in
    if total = 0 then { quantiles = Array.make q dummy_item; ok = false }
    else begin
      let nf = Float.of_int total in
      let p = Float.pow nf (-0.25) in
      (* 1. Sample and consolidate (per-cell coins). *)
      let sample, sampled =
        Ext_array.with_span a "quantiles.sample" (fun () ->
            Selection.consolidate_sample ~rng ~p a)
      in
      let expect = Float.pow nf 0.75 in
      let cap_sample_cells = min total (Float.to_int (expect +. Float.sqrt nf) + 1) in
      if
        Float.of_int sampled > expect +. Float.sqrt nf
        || Float.of_int sampled < Float.max 1. (expect -. Float.sqrt nf)
      then ok := false;
      let cap_sample_blocks = Emodel.ceil_div cap_sample_cells b + 1 in
      let c_out =
        Ext_array.with_span a "quantiles.compact-sample" (fun () ->
            Compaction.tight ?key ~m ~capacity_blocks:cap_sample_blocks sample)
      in
      if not c_out.ok then ok := false;
      let c_arr = c_out.dest in
      Ext_array.with_span a "quantiles.sort-sample" (fun () ->
          Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.auto ~order ~m c_arr);
      let s = sampled in
      let sf = Float.of_int (max 1 s) in
      let d = match delta with Some f -> f sf | None -> 3. *. Float.sqrt sf in
      let d = Float.max 1. d in
      (* 2. Bracket each quantile between two sample ranks. *)
      let lo_rank = Array.make q (-1) and hi_rank = Array.make q (-1) in
      for i = 0 to q - 1 do
        let ri = Float.of_int (i + 1) *. sf /. Float.of_int (q + 1) in
        let l = Float.to_int (Float.floor (ri -. d)) in
        let h = Float.to_int (Float.ceil (ri +. d)) in
        lo_rank.(i) <- (if l >= 1 && l <= s then l else -1);
        hi_rank.(i) <- (if h >= 1 && h <= s then h else -1)
      done;
      let lo_grab = Array.make q None and hi_grab = Array.make q None in
      Ext_array.with_span a "quantiles.grab-brackets" (fun () ->
          grab_many c_arr lo_rank lo_grab;
          grab_many c_arr hi_rank hi_grab);
      (* Global extremes for unbounded interval ends. *)
      let gmin = ref None and gmax = ref None in
      Ext_array.with_span a "quantiles.extremes" (fun () ->
          Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
              Array.iter
                (Array.iter (fun c ->
                     match c with
                     | Cell.Empty -> ()
                     | Cell.Item it ->
                         gmin := Some (match !gmin with None -> it | Some v -> if Order.compare_items order it v < 0 then it else v);
                         gmax := Some (match !gmax with None -> it | Some v -> if Order.compare_items order it v > 0 then it else v)))
                blks));
      let gmin = Option.get !gmin and gmax = Option.get !gmax in
      let x = Array.init q (fun i -> Option.value lo_grab.(i) ~default:gmin) in
      let y = Array.init q (fun i -> Option.value hi_grab.(i) ~default:gmax) in
      let in_interval i it = Order.compare_items order x.(i) it <= 0 && Order.compare_items order it y.(i) <= 0 in
      let in_union it =
        let rec any i = i < q && (in_interval i it || any (i + 1)) in
        any 0
      in
      (* 3. Counting scan: per quantile, items below x_i, items below x_i
         that are in the union, and items inside [x_i, y_i]. *)
      let c_lt = Array.make q 0 and u_lt = Array.make q 0 and c_in = Array.make q 0 in
      let u_total = ref 0 in
      Ext_array.with_span a "quantiles.count" (fun () ->
          Ext_array.iter_runs a ~chunk:scan_chunk (fun _ blks ->
              Array.iter
                (Array.iter (fun c ->
                     match c with
                     | Cell.Empty -> ()
                     | Cell.Item it ->
                         let u = in_union it in
                         if u then incr u_total;
                         for i = 0 to q - 1 do
                           if Order.compare_items order it x.(i) < 0 then begin
                             c_lt.(i) <- c_lt.(i) + 1;
                             if u then u_lt.(i) <- u_lt.(i) + 1
                           end;
                           if in_interval i it then c_in.(i) <- c_in.(i) + 1
                         done))
                blks));
      (* Capacity for the union of intervals. *)
      let per_interval = Float.to_int (((4. *. d) +. 4.) *. nf /. sf) + 1 in
      let cap_u_cells = min total (q * per_interval) in
      if !u_total > cap_u_cells then ok := false;
      (* 4. Rank consistency (Lemma 16's event, checked exactly). *)
      let ranks = Array.init q (fun i -> rank_of_quantile ~total ~q (i + 1)) in
      for i = 0 to q - 1 do
        if not (ranks.(i) > c_lt.(i) && ranks.(i) <= c_lt.(i) + c_in.(i)) then ok := false
      done;
      (* 5. Consolidate the union, compact it loosely, sort it. *)
      let t_arr =
        Ext_array.with_span a "quantiles.consolidate-union" (fun () ->
            Consolidation.run ~distinguished:in_union ~into:None a)
      in
      let cap_u_blocks = Emodel.ceil_div cap_u_cells b + 1 in
      let d_out =
        Ext_array.with_span a "quantiles.compact-union" (fun () ->
            Compaction.loose ~m ~rng ~capacity_blocks:cap_u_blocks t_arr)
      in
      if not d_out.ok then ok := false;
      let d_arr = d_out.dest in
      Ext_array.with_span a "quantiles.sort-union" (fun () ->
          Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.auto ~order ~m d_arr);
      (* 6. One scan of the sorted union: quantile i is the item of rank
         ranks_i - (c_lt_i - u_lt_i) within the union. *)
      let local = Array.init q (fun i -> ranks.(i) - (c_lt.(i) - u_lt.(i))) in
      let out = Array.make q None in
      Ext_array.with_span a "quantiles.grab-final" (fun () -> grab_many d_arr local out);
      let got = Array.map (function Some it -> it | None -> dummy_item) out in
      if not (Array.for_all Option.is_some out) then ok := false;
      (* Verified bracket membership. *)
      Array.iteri (fun i it -> if not (in_interval i it) then ok := false) got;
      { quantiles = got; ok = !ok }
    end
  end
