open Odex_extmem

(* Blocks per batched transfer in the scans below. A pure transport
   granularity: the trace and I/O counts are those of the per-block
   scan (one op per block, address order), only the number of backend
   round-trips changes. *)
let scan_chunk = 64

(* Lemma 3's scan of [a] into [dst]: [keep buf off] is asked for every
   cell image in scan order, empty or not, and the items it keeps join
   Alice's pending queue. Returns the number kept. *)
let consolidate ~keep a dst =
  let b = Ext_array.block_size a in
  (* Alice's pending queue never holds 2B or more items: each step adds
     at most B and drains B whenever it reaches B. The bound makes it a
     fixed ring of 2B cell images. *)
  let cap = 2 * b in
  let ring = Flat.create ~block_size:b ~blocks:2 in
  let ring_cell p = Flat.cell_offset ring ~block:(p / b) ~slot:(p mod b) in
  let head = ref 0 and pending = ref 0 and kept = ref 0 in
  let input = Flat.create ~block_size:b ~blocks:scan_chunk in
  let take_in j =
    for slot = 0 to b - 1 do
      let off = Flat.cell_offset input ~block:j ~slot in
      if keep input off then begin
        Flat.copy_cell input off ring (ring_cell ((!head + !pending) mod cap));
        incr pending;
        incr kept
      end
    done
  in
  (* Both scans move in batched runs: reads via [scan_flat], writes
     accumulated into a [scan_chunk]-block output run. *)
  let out = Flat.create ~block_size:b ~blocks:scan_chunk in
  let out_len = ref 0 and out_base = ref 0 in
  let flush_out () =
    if !out_len > 0 then begin
      Ext_array.write_flat dst !out_base ~count:!out_len out;
      out_base := !out_base + !out_len;
      out_len := 0
    end
  in
  (* Emit the next [count] pending images as one output block, padded
     with empties. *)
  let emit count =
    Flat.clear_blocks out !out_len 1;
    for slot = 0 to count - 1 do
      Flat.copy_cell ring (ring_cell !head) out (Flat.cell_offset out ~block:!out_len ~slot);
      head := (!head + 1) mod cap
    done;
    pending := !pending - count;
    incr out_len;
    if !out_len >= scan_chunk then flush_out ()
  in
  Ext_array.scan_flat a input (fun base count ->
      for j = 0 to count - 1 do
        take_in j;
        if base + j > 0 then emit (if !pending >= b then b else 0)
      done);
  (* After every scan step at most one block's worth is pending, and
     the final emit drains it entirely. *)
  assert (!pending <= b);
  emit !pending;
  flush_out ();
  !kept

let run ?distinguished ~into a =
  let n = Ext_array.blocks a in
  let dst =
    match into with
    | Some d ->
        if Ext_array.blocks d <> n then invalid_arg "Consolidation.run: size mismatch";
        d
    | None -> Ext_array.create (Ext_array.storage a) ~blocks:n
  in
  let keep buf off =
    Flat.is_item buf off && match distinguished with None -> true | Some f -> f buf off
  in
  if n > 0 then
    ignore (Ext_array.with_span a "consolidation" (fun () -> consolidate ~keep a dst));
  dst

let sample ~rng ~p a =
  let n = Ext_array.blocks a in
  let dst = Ext_array.create (Ext_array.storage a) ~blocks:n in
  (* The coin is drawn before the occupancy test, so consumption is one
     coin per cell whatever the data. *)
  let keep buf off = Odex_crypto.Rng.bernoulli rng p && Flat.is_item buf off in
  let sampled = if n > 0 then consolidate ~keep a dst else 0 in
  (dst, sampled)
