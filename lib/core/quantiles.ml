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

let item_at buf off = Cell.get (Flat.get_cell buf off)

let staging a = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:scan_chunk

(* Scan [a]; grab the item of 1-indexed rank [ranks.(i)] (among items, in
   scan order) for every i. Ranks need not be sorted or distinct. *)
let grab_many a ranks out =
  let seen = ref 0 in
  let buf = staging a in
  Ext_array.scan_items a buf (fun off ->
      incr seen;
      Array.iteri (fun j r -> if r = !seen then out.(j) <- Some (item_at buf off)) ranks)

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

(* Base case: array fits in cache; one batched scan. *)
let in_cache ~order ~m ~q a = private_quantiles ~order ~q (Selection.items_in_cache ~m a)

(* Easy case (M/B)^4 >= N/B: sort a copy deterministically, scan. *)
let by_sorting ~order ~m ~q a =
  let n = Ext_array.blocks a in
  let storage = Ext_array.storage a in
  let copy = Ext_array.create storage ~blocks:n in
  let total = ref 0 in
  let buf = staging a in
  Ext_array.scan_flat a buf (fun base count ->
      for j = 0 to count - 1 do
        total := !total + Flat.count_items buf j
      done;
      Ext_array.write_flat copy base ~count buf);
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
    let total = Selection.count_items a in
    if total = 0 then { quantiles = Array.make q dummy_item; ok = false }
    else begin
      let nf = Float.of_int total in
      let p = Float.pow nf (-0.25) in
      (* 1. Sample and consolidate (per-cell coins). *)
      let sample, sampled =
        Ext_array.with_span a "quantiles.sample" (fun () ->
            Consolidation.sample ~rng ~p a)
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
      (* Global extremes for unbounded interval ends. Alice keeps them
         and every interval end as images in [marks] — slot 2i is x_i,
         2i + 1 is y_i, 2q and 2q + 1 the extremes — and compares the
         scans' images against them in place. *)
      let marks = Flat.create ~block_size:1 ~blocks:((2 * q) + 2) in
      let mark k = Flat.cell_offset marks ~block:k ~slot:0 in
      let cmp buf off mk =
        Order.compare_images order (Flat.buffer buf) off (Flat.buffer marks) mk
      in
      let min_off = mark (2 * q) and max_off = mark ((2 * q) + 1) in
      let buf = staging a in
      Ext_array.with_span a "quantiles.extremes" (fun () ->
          Selection.extremes ~order a buf marks ~lo:min_off ~hi:max_off);
      let gmin = item_at marks min_off and gmax = item_at marks max_off in
      let x = Array.init q (fun i -> Option.value lo_grab.(i) ~default:gmin) in
      let y = Array.init q (fun i -> Option.value hi_grab.(i) ~default:gmax) in
      let set off (it : Cell.item) =
        Flat.set_item marks off ~key:it.key ~value:it.value ~tag:it.tag ~aux:it.aux
      in
      for i = 0 to q - 1 do
        set (mark (2 * i)) x.(i);
        set (mark ((2 * i) + 1)) y.(i)
      done;
      let in_interval i it = Order.compare_items order x.(i) it <= 0 && Order.compare_items order it y.(i) <= 0 in
      let in_image i buf off =
        cmp buf off (mark (2 * i)) >= 0 && cmp buf off (mark ((2 * i) + 1)) <= 0
      in
      let in_union buf off =
        let rec any i = i < q && (in_image i buf off || any (i + 1)) in
        any 0
      in
      (* 3. Counting scan: per quantile, items below x_i, items below x_i
         that are in the union, and items inside [x_i, y_i]. *)
      let c_lt = Array.make q 0 and u_lt = Array.make q 0 and c_in = Array.make q 0 in
      let u_total = ref 0 in
      Ext_array.with_span a "quantiles.count" (fun () ->
          Ext_array.scan_items a buf (fun off ->
              let u = in_union buf off in
              if u then incr u_total;
              for i = 0 to q - 1 do
                if cmp buf off (mark (2 * i)) < 0 then begin
                  c_lt.(i) <- c_lt.(i) + 1;
                  if u then u_lt.(i) <- u_lt.(i) + 1
                end;
                if in_image i buf off then c_in.(i) <- c_in.(i) + 1
              done));
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
