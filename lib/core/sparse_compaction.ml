open Odex_extmem

type outcome = { dest : Ext_array.t; recovered : int; complete : bool }

let run ?(k = 3) ?(multiplier = 3) ~m ~key ~capacity a =
  if capacity < 0 then invalid_arg "Sparse_compaction.run: negative capacity";
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let storage = Ext_array.storage a in
  let cells = max (k + 1) (multiplier * capacity) in
  let table = Odex_iblt.Ext_iblt.create storage ~k ~cells key in
  if Odex_iblt.Ext_iblt.table_blocks table > m then
    invalid_arg
      (Printf.sprintf
         "Sparse_compaction.run: IBLT table (%d blocks) exceeds cache (m = %d); use the \
          ORAM-backed decode"
         (Odex_iblt.Ext_iblt.table_blocks table)
         m);
  (* Insertion phase: one read of A'[i] plus k cell read-modify-writes
     per index, occupied or not — the Theorem 4 oblivious trace. *)
  let occupied = ref 0 in
  let one = Flat.create ~block_size:b ~blocks:1 in
  for i = 0 to n - 1 do
    Ext_array.read_flat a i ~count:1 one;
    if Flat.first_item one 0 < 0 then Odex_iblt.Ext_iblt.touch table ~index:i
    else begin
      incr occupied;
      Odex_iblt.Ext_iblt.insert table ~index:i one
    end
  done;
  (* Over-capacity inputs violate the problem statement ("at most R
     distinguished"); we must not branch on it (the trace would leak),
     so it degrades into an incomplete outcome below. *)
  (* Decode privately (table fits in cache), restore original order with
     a private sort on the block indices, and write out exactly
     [capacity] blocks. *)
  let indices, payloads, complete = Odex_iblt.Ext_iblt.decode_in_cache table ~m in
  let order = Array.init (Array.length indices) Fun.id in
  Array.stable_sort (fun r r' -> compare indices.(r) indices.(r')) order;
  let dest = Ext_array.create storage ~blocks:capacity in
  for slot = 0 to capacity - 1 do
    if slot < Array.length order then Flat.copy_block payloads order.(slot) one 0
    else Flat.clear_blocks one 0 1;
    Ext_array.write_flat dest slot ~count:1 one
  done;
  let written = min capacity (Array.length indices) in
  { dest; recovered = written; complete = complete && written = !occupied }
