open Odex_extmem

(* Blocks per batched transfer in the scans below. A pure transport
   granularity: the trace and I/O counts are those of the per-block
   scan (one op per block, address order), only the number of backend
   round-trips changes. *)
let scan_chunk = 64

let run ?(distinguished = fun (_ : Cell.item) -> true) ~into a =
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let dst =
    match into with
    | Some d ->
        if Ext_array.blocks d <> n then invalid_arg "Consolidation.run: size mismatch";
        d
    | None -> Ext_array.create (Ext_array.storage a) ~blocks:n
  in
  if n > 0 then
    Ext_array.with_span a "consolidation" (fun () ->
    (* Alice's pending queue never holds 2B or more items: each step adds
       at most B and drains B whenever it reaches B. The bound makes it a
       fixed ring over the already-boxed cells — no per-item allocation
       on the scan's hot path. *)
    let cap = 2 * b in
    let ring = Array.make cap Cell.empty in
    let head = ref 0 in
    let pending = ref 0 in
    let take_in blk =
      Array.iter
        (fun c ->
          match c with
          | Cell.Empty -> ()
          | Cell.Item it ->
              if distinguished it then begin
                ring.((!head + !pending) mod cap) <- c;
                incr pending
              end)
        blk
    in
    let emit_block () =
      let blk = Block.make b in
      let count = min b !pending in
      for slot = 0 to count - 1 do
        blk.(slot) <- ring.(!head);
        head := (!head + 1) mod cap
      done;
      pending := !pending - count;
      blk
    in
    (* Both scans move in batched runs: reads via [iter_runs], writes
       accumulated into a reused [scan_chunk]-block output window. *)
    let out_win = Array.make scan_chunk [||] in
    let out_len = ref 0 and out_base = ref 0 in
    let flush_out () =
      if !out_len > 0 then begin
        Ext_array.write_blocks dst !out_base
          (if !out_len = scan_chunk then out_win else Array.sub out_win 0 !out_len);
        out_base := !out_base + !out_len;
        out_len := 0
      end
    in
    let push_out blk =
      out_win.(!out_len) <- blk;
      incr out_len;
      if !out_len >= scan_chunk then flush_out ()
    in
    Ext_array.iter_runs a ~chunk:scan_chunk (fun base blks ->
        Array.iteri
          (fun j blk ->
            take_in blk;
            if base + j > 0 then
              push_out (if !pending >= b then emit_block () else Block.make b))
          blks);
    (* After every scan step at most one block's worth is pending, and
       the final emit drains it entirely. *)
    assert (!pending <= b);
    push_out (emit_block ());
    flush_out ());
  dst
