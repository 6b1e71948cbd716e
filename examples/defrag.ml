(* Outsourced-filesystem defragmentation — the paper's §3 motivation:
   "this is the fundamental operation done during disk defragmentation
   ... a natural operation that one would want to do in an outsourced
   file system, since users of such systems are charged for the space
   they use."

   A year of file creations and deletions has left live file blocks
   scattered through a rented volume. Alice compacts the live blocks to
   the front — order-preserved, so files stay contiguous — and shrinks
   her bill, without Bob learning which blocks were live.

   Run with: dune exec examples/defrag.exe *)

open Odex_extmem

let () =
  let b = 16 in
  let server = Storage.create ~trace_mode:Trace.Digest ~block_size:b () in
  let volume_blocks = 2048 in
  let volume = Ext_array.create server ~blocks:volume_blocks in

  (* Simulate a fragmented volume: 30% of blocks are live file data. *)
  let rng = Odex_crypto.Rng.create ~seed:7 in
  let live = ref 0 in
  for pos = 0 to volume_blocks - 1 do
    if Odex_crypto.Rng.bernoulli rng 0.3 then begin
      incr live;
      let file_id = !live in
      let blk =
        Array.init b (fun j -> Cell.item ~tag:((pos * b) + j) ~key:file_id ~value:j ())
      in
      Storage.unchecked_poke server (Ext_array.addr volume pos) blk
    end
  done;
  Printf.printf "volume: %d blocks, %d live (%.0f%% fragmented free space)\n" volume_blocks
    !live
    (100. *. (1. -. (Float.of_int !live /. Float.of_int volume_blocks)));

  (* Defragment: one butterfly-network compaction (Theorem 6). *)
  let occupied = Odex.Butterfly.compact ~m:64 volume in
  Printf.printf "defragmented: %d live blocks now at the front; volume can shrink to %d blocks\n"
    occupied occupied;
  Printf.printf "server saw %d I/Os — the same trace for any liveness pattern\n"
    (Trace.length (Storage.trace server));

  (* Verify: live blocks form a prefix, in their original order. *)
  let ok = ref true in
  let last_file = ref 0 in
  for pos = 0 to volume_blocks - 1 do
    let blk = Storage.unchecked_peek server (Ext_array.addr volume pos) in
    match Array.find_opt Cell.is_item blk with
    | None -> if pos < occupied then ok := false
    | Some c ->
        if pos >= occupied then ok := false;
        if Cell.key_exn c < !last_file then ok := false;
        last_file := Cell.key_exn c
  done;
  Printf.printf "prefix property and file order preserved: %b\n" !ok
