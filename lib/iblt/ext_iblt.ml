open Odex_extmem

type t = {
  storage : Storage.t;
  fam : Odex_crypto.Hash_family.t;
  region : Ext_array.t;
  cells : int;
  blocks_per_cell : int;
  vec_len : int;
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
  }

let k t = Odex_crypto.Hash_family.k t.fam
let blocks_per_cell t = t.blocks_per_cell
let table_blocks t = t.cells * t.blocks_per_cell

let block_size t = Storage.block_size t.storage

(* --- int-vector <-> storage-block codecs ------------------------------ *)

let pack_vec t vec =
  let b = block_size t in
  Array.init t.blocks_per_cell (fun blk_i ->
      Array.init b (fun slot ->
          let base = ((blk_i * b) + slot) * 4 in
          let at ofs = if base + ofs < t.vec_len then vec.(base + ofs) else 0 in
          Cell.item ~key:(at 0) ~value:(at 1) ~tag:(at 2) ~aux:(at 3) ()))

let unpack_into t vec blk_i (blk : Block.t) =
  let b = block_size t in
  Array.iteri
    (fun slot c ->
      (* Freshly allocated table blocks are all-Empty; an empty slot
         decodes as three zero components. *)
      match c with
      | Cell.Empty -> ()
      | Cell.Item it ->
          let base = ((blk_i * b) + slot) * 4 in
          if base < t.vec_len then vec.(base) <- it.key;
          if base + 1 < t.vec_len then vec.(base + 1) <- it.value;
          if base + 2 < t.vec_len then vec.(base + 2) <- it.tag;
          if base + 3 < t.vec_len then vec.(base + 3) <- it.aux)
    blk

(* Componentwise encoding of a payload block as the value part of a cell
   vector: (present, key, value, tag) per position. *)
let payload_vec b (blk : Block.t) =
  let vec = Array.make (5 * b) 0 in
  Array.iteri
    (fun i c ->
      match c with
      | Cell.Empty -> ()
      | Cell.Item it ->
          vec.(5 * i) <- 1;
          vec.((5 * i) + 1) <- it.key;
          vec.((5 * i) + 2) <- it.value;
          vec.((5 * i) + 3) <- it.tag;
          vec.((5 * i) + 4) <- it.aux)
    blk;
  vec

let payload_of_vec b vec off =
  let ok = ref true in
  let blk =
    Array.init b (fun i ->
        match vec.(off + (5 * i)) with
        | 0 -> Cell.empty
        | 1 ->
            Cell.item
              ~key:vec.(off + (5 * i) + 1)
              ~value:vec.(off + (5 * i) + 2)
              ~tag:vec.(off + (5 * i) + 3)
              ~aux:vec.(off + (5 * i) + 4)
              ()
        | _ ->
            ok := false;
            Cell.empty)
  in
  if !ok then Some blk else None

(* --- counted cell I/O -------------------------------------------------- *)

let read_cell t cell =
  let vec = Array.make t.vec_len 0 in
  for blk_i = 0 to t.blocks_per_cell - 1 do
    let blk = Ext_array.read_block t.region ((cell * t.blocks_per_cell) + blk_i) in
    unpack_into t vec blk_i blk
  done;
  vec

let write_cell t cell vec =
  Array.iteri
    (fun blk_i blk ->
      Ext_array.write_block t.region ((cell * t.blocks_per_cell) + blk_i) blk)
    (pack_vec t vec)

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

let insert t ~index blk =
  if Array.length blk <> block_size t then invalid_arg "Ext_iblt.insert: bad block size";
  apply t ~index (Some (payload_vec (block_size t) blk))

let touch t ~index = apply t ~index None

(* --- decode ------------------------------------------------------------ *)

let decode_in_cache t ~m =
  let b = block_size t in
  let cache = Cache.create t.storage ~capacity:m in
  (* One linear scan of the table: the trace is fixed. *)
  let vecs =
    Array.init t.cells (fun cell ->
        let vec = Array.make t.vec_len 0 in
        for blk_i = 0 to t.blocks_per_cell - 1 do
          let addr = Ext_array.addr t.region ((cell * t.blocks_per_cell) + blk_i) in
          unpack_into t vec blk_i (Cache.load cache addr)
        done;
        vec)
  in
  Cache.drop_all cache;
  (* Private peeling, as in the RAM structure. *)
  let queue = Queue.create () in
  Array.iteri (fun c vec -> if vec.(0) = 1 then Queue.add c queue) vecs;
  let out = ref [] in
  let bad = ref false in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    let vec = vecs.(c) in
    if vec.(0) = 1 then begin
      let index = vec.(1) in
      let hs = Odex_crypto.Hash_family.hashes t.fam index in
      if index >= 0 && Array.exists (fun c' -> c' = c) hs then begin
        match payload_of_vec b vec 2 with
        | None -> bad := true
        | Some blk ->
            out := (index, blk) :: !out;
            let delta = payload_vec b blk in
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
  done;
  let complete = (not !bad) && Array.for_all (fun vec -> vec.(0) = 0) vecs in
  (List.rev !out, complete)
