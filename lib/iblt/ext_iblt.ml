open Odex_extmem

type t = {
  storage : Storage.t;
  fam : Odex_crypto.Hash_family.t;
  region : Ext_array.t;
  cells : int;
  blocks_per_cell : int;
  vec_len : int;
  staged : Flat.t; (* one cell's blocks, as Alice holds them *)
}

(* Cell vector layout: [count; keySum; (present, key, value, tag, aux) × B].
   Vectors are packed four ints per storage cell (every slot an Item, so
   the stored shape carries no information). *)

let vec_len_of b = 2 + (5 * b)

let blocks_per_cell_of b = Emodel.ceil_div (vec_len_of b) (4 * b)

let create storage ?(k = 3) ~cells key =
  if cells < k then invalid_arg "Ext_iblt.create: cells must be >= k";
  let b = Storage.block_size storage in
  let blocks_per_cell = blocks_per_cell_of b in
  let region = Ext_array.create storage ~blocks:(cells * blocks_per_cell) in
  {
    storage;
    fam = Odex_crypto.Hash_family.create ~k ~size:cells key;
    region;
    cells;
    blocks_per_cell;
    vec_len = vec_len_of b;
    staged = Flat.create ~block_size:b ~blocks:blocks_per_cell;
  }

let k t = Odex_crypto.Hash_family.k t.fam
let blocks_per_cell t = t.blocks_per_cell
let table_blocks t = t.cells * t.blocks_per_cell

let block_size t = Storage.block_size t.storage

(* --- int-vector <-> block image codecs ----------------------------- *)

let cell_at buf ~b k = Flat.cell_offset buf ~block:(k / b) ~slot:(k mod b)

(* Slots [first, first + blocks_per_cell) of [buf] are the images of one
   table cell: storage cell k of the run holds vector words 4k .. 4k + 3
   as (key, value, tag, aux), every slot an item. *)
let pack_vec t vec buf =
  let b = block_size t in
  for k = 0 to (t.blocks_per_cell * b) - 1 do
    let at ofs = if (4 * k) + ofs < t.vec_len then vec.((4 * k) + ofs) else 0 in
    Flat.set_item buf (cell_at buf ~b k) ~key:(at 0) ~value:(at 1) ~tag:(at 2) ~aux:(at 3)
  done

let unpack_into t vec buf ~first =
  let b = block_size t in
  for k = 0 to (t.blocks_per_cell * b) - 1 do
    let off = cell_at buf ~b ((first * b) + k) in
    (* Freshly allocated table blocks are all-Empty; an empty slot
       decodes as zero components. *)
    if Flat.is_item buf off then begin
      let base = 4 * k in
      if base < t.vec_len then vec.(base) <- Flat.key buf off;
      if base + 1 < t.vec_len then vec.(base + 1) <- Flat.value buf off;
      if base + 2 < t.vec_len then vec.(base + 2) <- Flat.tag buf off;
      if base + 3 < t.vec_len then vec.(base + 3) <- Flat.aux buf off
    end
  done

(* Componentwise encoding of a payload block (slot [i] of [buf]) as the
   value part of a cell vector: (present, key, value, tag, aux) per
   position. *)
let payload_vec buf i =
  let b = Flat.block_size buf in
  let vec = Array.make (5 * b) 0 in
  for slot = 0 to b - 1 do
    let off = Flat.cell_offset buf ~block:i ~slot in
    if Flat.is_item buf off then begin
      vec.(5 * slot) <- 1;
      vec.((5 * slot) + 1) <- Flat.key buf off;
      vec.((5 * slot) + 2) <- Flat.value buf off;
      vec.((5 * slot) + 3) <- Flat.tag buf off;
      vec.((5 * slot) + 4) <- Flat.aux buf off
    end
  done;
  vec

(* Decode the payload at [vec.(off ..)] into slot [i] of [buf]; false
   when a presence word is neither 0 nor 1. *)
let payload_of_vec vec off buf i =
  let ok = ref true in
  for slot = 0 to Flat.block_size buf - 1 do
    let c = Flat.cell_offset buf ~block:i ~slot in
    let w j = vec.(off + (5 * slot) + j) in
    match w 0 with
    | 0 -> Flat.clear_cell buf c
    | 1 -> Flat.set_item buf c ~key:(w 1) ~value:(w 2) ~tag:(w 3) ~aux:(w 4)
    | _ ->
        ok := false;
        Flat.clear_cell buf c
  done;
  !ok

(* --- counted cell I/O -------------------------------------------------- *)

let read_cell t cell =
  let vec = Array.make t.vec_len 0 in
  Ext_array.read_flat t.region (cell * t.blocks_per_cell) ~count:t.blocks_per_cell t.staged;
  unpack_into t vec t.staged ~first:0;
  vec

let write_cell t cell vec =
  pack_vec t vec t.staged;
  Ext_array.write_flat t.region (cell * t.blocks_per_cell) ~count:t.blocks_per_cell t.staged

(* --- operations -------------------------------------------------------- *)

let apply t ~index payload =
  (* One read–modify–write per hash cell; [payload = None] is the dummy
     pass with the identical trace. *)
  Array.iter
    (fun cell ->
      let vec = read_cell t cell in
      (match payload with
      | None -> ()
      | Some delta ->
          vec.(0) <- vec.(0) + 1;
          vec.(1) <- vec.(1) + index;
          Array.iteri (fun i d -> vec.(2 + i) <- vec.(2 + i) + d) delta);
      write_cell t cell vec)
    (Odex_crypto.Hash_family.hashes t.fam index)

let insert t ~index payload =
  if Flat.block_size payload <> block_size t then invalid_arg "Ext_iblt.insert: bad block size";
  apply t ~index (Some (payload_vec payload 0))

let touch t ~index = apply t ~index None

(* --- decode ------------------------------------------------------------ *)

let decode_in_cache t ~m =
  let b = block_size t in
  let blocks = table_blocks t in
  (* The whole table is resident at once: refuse before any I/O. *)
  Residency.check ~m blocks;
  (* One linear scan of the table: the trace is fixed. *)
  let table = Flat.create ~block_size:b ~blocks in
  Ext_array.read_flat t.region 0 ~count:blocks table;
  let vecs =
    Array.init t.cells (fun cell ->
        let vec = Array.make t.vec_len 0 in
        unpack_into t vec table ~first:(cell * t.blocks_per_cell);
        vec)
  in
  (* Private peeling, as in the RAM structure. *)
  let queue = Queue.create () in
  Array.iteri (fun c vec -> if vec.(0) = 1 then Queue.add c queue) vecs;
  let out = ref [] in
  let bad = ref false in
  let one = Flat.create ~block_size:b ~blocks:1 in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    let vec = vecs.(c) in
    if vec.(0) = 1 then begin
      let index = vec.(1) in
      let hs = Odex_crypto.Hash_family.hashes t.fam index in
      if index >= 0 && Array.exists (fun c' -> c' = c) hs then begin
        if not (payload_of_vec vec 2 one 0) then bad := true
        else begin
          let delta = payload_vec one 0 in
          out := (index, delta) :: !out;
          Array.iter
            (fun c' ->
              let v' = vecs.(c') in
              v'.(0) <- v'.(0) - 1;
              v'.(1) <- v'.(1) - index;
              Array.iteri (fun i d -> v'.(2 + i) <- v'.(2 + i) - d) delta;
              if v'.(0) = 1 then Queue.add c' queue)
            hs
        end
      end
    end
  done;
  let complete = (not !bad) && Array.for_all (fun vec -> vec.(0) = 0) vecs in
  let pairs = Array.of_list (List.rev !out) in
  let payloads = Flat.create ~block_size:b ~blocks:(Array.length pairs) in
  Array.iteri (fun r (_, delta) -> ignore (payload_of_vec delta 0 payloads r)) pairs;
  (Array.map fst pairs, payloads, complete)
