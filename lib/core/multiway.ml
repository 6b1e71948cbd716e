open Odex_extmem

(* Pending-size invariant: after each read-emit step the total number of
   buffered items is at most (colors)(B-1) + B — whenever it exceeds
   colors·(B-1), some group holds a full block and the step drains it.
   The tail therefore fits in 2·colors + 4 blocks even when one color
   hoards the whole budget (monochromatic fragmentation costs at most
   one partial block per color plus ceil(budget/B) for the hoarder). *)
let tail_blocks colors = (2 * colors) + 4

let consolidate ~colors ~color_of a =
  if colors < 1 then invalid_arg "Multiway.consolidate: colors must be >= 1";
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let dst = Ext_array.create (Ext_array.storage a) ~blocks:(n + tail_blocks colors) in
  let groups = Array.init colors (fun _ -> Queue.create ()) in
  let take_in blk =
    Array.iter
      (fun c ->
        match c with
        | Cell.Empty -> ()
        | Cell.Item it ->
            let color = color_of it in
            if color < 0 || color >= colors then
              invalid_arg "Multiway.consolidate: color out of range";
            Queue.add it groups.(color))
      blk
  in
  (* Emit a full block of the first color that has one, else an empty
     block; the choice is Alice-private and the write happens either
     way. *)
  let emit_full () =
    let blk = Block.make b in
    let rec find color =
      if color >= colors then ()
      else if Queue.length groups.(color) >= b then
        for slot = 0 to b - 1 do
          blk.(slot) <- Cell.Item (Queue.pop groups.(color))
        done
      else find (color + 1)
    in
    find 0;
    blk
  in
  (* Tail: drain the largest group, at most one block's worth per write. *)
  let emit_tail () =
    let blk = Block.make b in
    let largest = ref 0 in
    Array.iteri
      (fun c g -> if Queue.length g > Queue.length groups.(!largest) then largest := c)
      groups;
    let g = groups.(!largest) in
    let count = min b (Queue.length g) in
    for slot = 0 to count - 1 do
      blk.(slot) <- Cell.Item (Queue.pop g)
    done;
    blk
  in
  for i = 0 to n - 1 do
    take_in (Ext_array.read_block a i);
    Ext_array.write_block dst i (emit_full ())
  done;
  for t = 0 to tail_blocks colors - 1 do
    Ext_array.write_block dst (n + t) (emit_tail ())
  done;
  assert (Array.for_all Queue.is_empty groups);
  dst
