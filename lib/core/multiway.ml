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
  let input = Flat.create ~block_size:b ~blocks:1 and out = Flat.create ~block_size:b ~blocks:1 in
  let take_in () =
    for slot = 0 to b - 1 do
      match Flat.get_cell input (Flat.cell_offset input ~block:0 ~slot) with
      | Cell.Empty -> ()
      | Cell.Item it ->
          let color = color_of it in
          if color < 0 || color >= colors then
            invalid_arg "Multiway.consolidate: color out of range";
          Queue.add it groups.(color)
    done
  in
  (* Fill [out] with [count] items popped from [g], padded with
     empties. *)
  let fill g count =
    Flat.clear_blocks out 0 1;
    for slot = 0 to count - 1 do
      let it : Cell.item = Queue.pop g in
      Flat.set_item out (Flat.cell_offset out ~block:0 ~slot) ~key:it.key ~value:it.value
        ~tag:it.tag ~aux:it.aux
    done
  in
  (* Emit a full block of the first color that has one, else an empty
     block; the choice is Alice-private and the write happens either
     way. *)
  let emit_full () =
    let rec find color =
      if color >= colors then fill groups.(0) 0
      else if Queue.length groups.(color) >= b then fill groups.(color) b
      else find (color + 1)
    in
    find 0
  in
  (* Tail: drain the largest group, at most one block's worth per write. *)
  let emit_tail () =
    let largest = ref 0 in
    Array.iteri
      (fun c g -> if Queue.length g > Queue.length groups.(!largest) then largest := c)
      groups;
    let g = groups.(!largest) in
    fill g (min b (Queue.length g))
  in
  for i = 0 to n - 1 do
    Ext_array.read_flat a i ~count:1 input;
    take_in ();
    emit_full ();
    Ext_array.write_flat dst i ~count:1 out
  done;
  for t = 0 to tail_blocks colors - 1 do
    emit_tail ();
    Ext_array.write_flat dst (n + t) ~count:1 out
  done;
  assert (Array.for_all Queue.is_empty groups);
  dst
