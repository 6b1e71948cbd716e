type t = { storage : Storage.t; base : int; blocks : int }

let create storage ~blocks =
  let base = Storage.alloc storage blocks in
  { storage; base; blocks }

let view storage ~base ~blocks =
  if base < 0 || blocks < 0 || base + blocks > Storage.capacity storage then
    invalid_arg "Ext_array.view: window out of bounds";
  { storage; base; blocks }

let storage t = t.storage
let base t = t.base
let blocks t = t.blocks
let block_size t = Storage.block_size t.storage
let cells t = t.blocks * block_size t

let addr t i =
  if i < 0 || i >= t.blocks then
    invalid_arg (Printf.sprintf "Ext_array.addr: block %d out of bounds (%d blocks)" i t.blocks);
  t.base + i

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.blocks then
    invalid_arg "Ext_array.sub: window out of bounds";
  { t with base = t.base + off; blocks = len }

let read_block t i = Storage.read t.storage (addr t i)
let write_block t i blk = Storage.write t.storage (addr t i) blk

let check_run t ~who i count =
  if count < 0 then invalid_arg (Printf.sprintf "Ext_array.%s: negative count" who);
  if i < 0 || i + count > t.blocks then
    invalid_arg
      (Printf.sprintf "Ext_array.%s: run [%d, %d) out of bounds (%d blocks)" who i (i + count)
         t.blocks)

let read_blocks t i ~count =
  check_run t ~who:"read_blocks" i count;
  Storage.read_many t.storage (t.base + i) count

let write_blocks t i blks =
  check_run t ~who:"write_blocks" i (Array.length blks);
  Storage.write_many t.storage (t.base + i) blks

let read_flat t i ~count buf =
  check_run t ~who:"read_flat" i count;
  Storage.read_flat t.storage (t.base + i) count buf

let write_flat t i ~count buf =
  check_run t ~who:"write_flat" i count;
  Storage.write_flat t.storage (t.base + i) count buf

let iter_runs t ~chunk f =
  if chunk < 1 then invalid_arg "Ext_array.iter_runs: chunk must be >= 1";
  let i = ref 0 in
  while !i < t.blocks do
    let c = min chunk (t.blocks - !i) in
    f !i (read_blocks t !i ~count:c);
    i := !i + c
  done

let with_span t label f = Storage.with_span t.storage label f

let of_cells storage ~block_size:b cells =
  let n_blocks = max 1 ((Array.length cells + b - 1) / b) in
  let t = create storage ~blocks:n_blocks in
  for i = 0 to n_blocks - 1 do
    let blk = Block.make b in
    for j = 0 to b - 1 do
      let idx = (i * b) + j in
      if idx < Array.length cells then blk.(j) <- cells.(idx)
    done;
    Storage.unchecked_poke storage (t.base + i) blk
  done;
  t

let to_cells t =
  let b = block_size t in
  let out = Array.make (cells t) Cell.empty in
  for i = 0 to t.blocks - 1 do
    let blk = Storage.unchecked_peek t.storage (t.base + i) in
    Array.blit blk 0 out (i * b) b
  done;
  out

let items t =
  Array.fold_right
    (fun c acc -> if Cell.is_item c then Cell.get c :: acc else acc)
    (to_cells t) []
