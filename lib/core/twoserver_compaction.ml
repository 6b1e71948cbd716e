open Odex_extmem

type outcome = { dest : Ext_array.t; occupied : int; ok : bool }

(* Server roles. Any store with at least two shards supports the
   protocol: shard 0 plays server A (the staging server), shard 1 plays
   server B (the output server); further shards only serve the striped
   input and destination like any single-server store would. *)
let server_a = 0
let server_b = 1

(* A region of [rows] whole stripe rows, aligned so every row holds
   exactly one address per shard: slot [i] of a role server is the
   logical address of that server's block in row [row0 + i]. Alignment
   padding and the unused other-server slots cost address space only —
   allocation is the servers' uncounted zero-fill, and the protocol
   never touches them. *)
let scratch_rows s ~k ~rows =
  let pad = (k - (Storage.capacity s mod k)) mod k in
  if pad > 0 then ignore (Storage.alloc s pad);
  Storage.alloc s (rows * k) / k

let slot s ~row0 ~server ~index = Storage.shard_addr s ~shard:server ~index:(row0 + index)

(* The two-server protocol. Every server individually sees a fixed,
   data-independent op sequence:

   - "ts-stage": the input (striped publicly) is read in address order
     and written to A's staging slots in slot order — every shard's
     subsequence is a fixed function of (n, k).
   - "ts-route": A's slots are read back in slot order; each occupied
     block is forwarded to B's next output slot, and after the scan the
     remaining output slots are padded with empties. A sees exactly [n]
     ascending reads; B sees exactly [capacity] ascending writes. The
     data-dependent part — {e when} each B-write fires relative to the
     A-reads — is split across the two non-colluding servers, so neither
     view contains it. The {e combined} trace does: this phase is where
     the protocol is strictly weaker than single-server oblivious, and
     why its certificate is [`Multi_server], not [`Exact].
   - "ts-deliver": B's output slots are copied back to a fresh striped
     destination, both sides in fixed order.

   3·(N/B) + 3·capacity block I/Os in total — below the butterfly's
   2·(N/B)·(1 + phases) ≥ 4·(N/B) at every feasible shape, because the
   data-dependent routing that costs the single-server engine its
   log-depth passes is free when split across two adversaries. *)
let two_server ~m ~capacity_blocks:cap ~k s a =
  let n = Ext_array.blocks a in
  let arow = scratch_rows s ~k ~rows:n in
  let brow = scratch_rows s ~k ~rows:cap in
  let dest = Ext_array.create s ~blocks:cap in
  let b = Storage.block_size s in
  let run = Flat.create ~block_size:b ~blocks:(max 1 m) in
  let one = Flat.create ~block_size:b ~blocks:1 in
  Storage.with_span s "ts-stage" (fun () ->
      Ext_array.scan_flat a run (fun i count ->
          for j = 0 to count - 1 do
            Flat.copy_block run j one 0;
            Storage.write_flat s (slot s ~row0:arow ~server:server_a ~index:(i + j)) 1 one
          done));
  let occupied = ref 0 in
  let forwarded = ref 0 in
  Storage.with_span s "ts-route" (fun () ->
      for g = 0 to n - 1 do
        Storage.read_flat s (slot s ~row0:arow ~server:server_a ~index:g) 1 one;
        if Flat.first_item one 0 >= 0 then begin
          incr occupied;
          if !forwarded < cap then begin
            Storage.write_flat s (slot s ~row0:brow ~server:server_b ~index:!forwarded) 1 one;
            incr forwarded
          end
        end
      done;
      Flat.clear_blocks one 0 1;
      while !forwarded < cap do
        Storage.write_flat s (slot s ~row0:brow ~server:server_b ~index:!forwarded) 1 one;
        incr forwarded
      done);
  if !occupied > cap then
    invalid_arg
      (Printf.sprintf "Twoserver_compaction.run: %d occupied blocks exceed capacity %d"
         !occupied cap);
  Storage.with_span s "ts-deliver" (fun () ->
      for j = 0 to cap - 1 do
        Storage.read_flat s (slot s ~row0:brow ~server:server_b ~index:j) 1 one;
        Ext_array.write_flat dest j ~count:1 one
      done);
  { dest; occupied = !occupied; ok = true }

let run ~m ~capacity_blocks a =
  if capacity_blocks < 0 then invalid_arg "Twoserver_compaction.run: negative capacity";
  let s = Ext_array.storage a in
  match Storage.shard_count s with
  | Some k when k >= 2 -> two_server ~m ~capacity_blocks ~k s a
  | _ ->
      (* Fewer than two servers: the non-colluding model the protocol
         exploits is absent, so dispatch — publicly, on backend shape
         alone — to the classical single-server engine. *)
      let { Compaction.dest; occupied; ok } = Compaction.tight ~m ~capacity_blocks a in
      { dest; occupied; ok }
