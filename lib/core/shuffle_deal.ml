open Odex_extmem

let shuffle ~rng a =
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let bi = Flat.create ~block_size:b ~blocks:1 and bj = Flat.create ~block_size:b ~blocks:1 in
  Array.iter
    (fun (i, j) ->
      (* Read both, write both, even when i = j: the swap transcript is
         the canonical Fisher–Yates I/O pattern. *)
      Ext_array.read_flat a i ~count:1 bi;
      Ext_array.read_flat a j ~count:1 bj;
      Ext_array.write_flat a i ~count:1 bj;
      Ext_array.write_flat a j ~count:1 bi)
    (Odex_crypto.Permutation.swap_sequence rng n)

type engine = [ `Knuth | `Bucket ]

let shuffle_with ~engine ~m ~rng a =
  match engine with
  | `Knuth ->
      shuffle ~rng a;
      true
  | `Bucket ->
      if Ext_array.blocks a > m && m < 18 then begin
        shuffle ~rng a;
        true
      end
      else (Odex_sortnet.Bucket_sort.permute_blocks ~rng ~m a).ok

type deal = { outputs : Ext_array.t array; ok : bool }

(* The color of a block: that of its first item, [None] when empty. *)
let flat_color ~color_of buf =
  let off = Flat.first_item buf 0 in
  if off < 0 then None else Some (color_of (Cell.get (Flat.get_cell buf off)))

let deal ~colors ~color_of ~window ~quota ~carry_budget a =
  if colors < 1 || window < 1 || quota < 1 then invalid_arg "Shuffle_deal.deal: bad parameters";
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let storage = Ext_array.storage a in
  let scan_windows = Emodel.ceil_div (max 1 n) window in
  (* One extra all-padding round flushes the final carry. *)
  let rounds = scan_windows + 1 in
  let out_blocks = rounds * quota in
  let outputs = Array.init colors (fun _ -> Ext_array.create storage ~blocks:out_blocks) in
  (* Alice's stash: [window + carry_budget] block slots, a free list and
     one queue of slots per color. *)
  let cap = window + carry_budget in
  let pool = Flat.create ~block_size:b ~blocks:cap in
  let free = Stack.create () in
  for k = cap - 1 downto 0 do
    Stack.push k free
  done;
  let stash = Array.init colors (fun _ -> Queue.create ()) in
  let stashed = ref 0 in
  let one = Flat.create ~block_size:b ~blocks:1 in
  let ok = ref true in
  for w = 0 to rounds - 1 do
    let lo = w * window in
    let len = if w < scan_windows then min window (n - lo) else 0 in
    for i = lo to lo + len - 1 do
      Ext_array.read_flat a i ~count:1 one;
      match flat_color ~color_of one with
      | None -> ()
      | Some color ->
          if !stashed < cap then begin
            let k = Stack.pop free in
            Flat.copy_block one 0 pool k;
            Queue.add k stash.(color);
            incr stashed
          end
          else ok := false (* carry budget exhausted: drop, flag *)
    done;
    (* Fixed quota of writes per color: full blocks first, then padding. *)
    for color = 0 to colors - 1 do
      for slot = 0 to quota - 1 do
        if Queue.is_empty stash.(color) then Flat.clear_blocks one 0 1
        else begin
          decr stashed;
          let k = Queue.pop stash.(color) in
          Flat.copy_block pool k one 0;
          Stack.push k free
        end;
        Ext_array.write_flat outputs.(color) ((w * quota) + slot) ~count:1 one
      done
    done
  done;
  if !stashed > 0 then ok := false;
  { outputs; ok = !ok }

let window_color_counts ~colors ~color_of ~window a =
  let n = Ext_array.blocks a in
  let s = Ext_array.storage a in
  let windows = Emodel.ceil_div (max 1 n) window in
  Array.init windows (fun w ->
      let counts = Array.make colors 0 in
      let lo = w * window in
      for i = lo to min n (lo + window) - 1 do
        match Array.find_opt Cell.is_item (Storage.unchecked_peek s (Ext_array.addr a i)) with
        | None -> ()
        | Some cell ->
            let color = color_of (Cell.get cell) in
            counts.(color) <- counts.(color) + 1
      done;
      counts)
