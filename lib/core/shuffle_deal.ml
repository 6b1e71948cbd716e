open Odex_extmem

let shuffle ~rng a =
  let n = Ext_array.blocks a in
  Array.iter
    (fun (i, j) ->
      (* Read both, write both, even when i = j: the swap transcript is
         the canonical Fisher–Yates I/O pattern. *)
      let bi = Ext_array.read_block a i in
      let bj = Ext_array.read_block a j in
      Ext_array.write_block a i bj;
      Ext_array.write_block a j bi)
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

let block_color ~color_of blk =
  match Block.items blk with [] -> None | it :: _ -> Some (color_of it)

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
  let stash = Array.init colors (fun _ -> Queue.create ()) in
  let stashed = ref 0 in
  let ok = ref true in
  for w = 0 to rounds - 1 do
    let lo = w * window in
    let len = if w < scan_windows then min window (n - lo) else 0 in
    for i = lo to lo + len - 1 do
      let blk = Ext_array.read_block a i in
      match block_color ~color_of blk with
      | None -> ()
      | Some color ->
          if !stashed < window + carry_budget then begin
            Queue.add blk stash.(color);
            incr stashed
          end
          else ok := false (* carry budget exhausted: drop, flag *)
    done;
    (* Fixed quota of writes per color: full blocks first, then padding. *)
    for color = 0 to colors - 1 do
      for slot = 0 to quota - 1 do
        let blk =
          if Queue.is_empty stash.(color) then Block.make b
          else begin
            decr stashed;
            Queue.pop stash.(color)
          end
        in
        Ext_array.write_block outputs.(color) ((w * quota) + slot) blk
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
        match block_color ~color_of (Storage.unchecked_peek s (Ext_array.addr a i)) with
        | None -> ()
        | Some c -> counts.(c) <- counts.(c) + 1
      done;
      counts)
