open Odex_extmem

type t = {
  storage : Storage.t;
  sorter : Odex_sortnet.Ext_sort.t;
  m : int;
  rng : Odex_crypto.Rng.t;
  n : int;
  sqrt_n : int;
  main : Ext_array.t; (* n + sqrt_n permuted blocks, one word each *)
  shelter : Ext_array.t; (* sqrt_n blocks *)
  scratch : Ext_array.t; (* n + 2·sqrt_n blocks for reshuffles *)
  mutable prp : Odex_crypto.Prp.t;
  mutable step : int; (* accesses in the current epoch *)
  mutable dummy_cursor : int;
  mutable epochs : int;
}

let isqrt n =
  let rec go s = if s * s >= n then s else go (s + 1) in
  go 1

let word ~addr ~value = Cell.item ~key:addr ~value ()

(* One virtual word per block, replicated across all B cells: the epoch
   reshuffles sort at cell granularity, and B identical cells per word
   keep every word block-aligned through the sorts. *)
let full_block t cell = Array.make (Storage.block_size t.storage) cell

let put_word t arr i cell = Ext_array.write_block arr i (full_block t cell)

let init ?(sorter = Odex_sortnet.Ext_sort.auto) ~m ~rng storage ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Sqrt_oram.init: empty";
  let sqrt_n = isqrt n in
  let main = Ext_array.create storage ~blocks:(n + sqrt_n) in
  let shelter = Ext_array.create storage ~blocks:sqrt_n in
  let scratch = Ext_array.create storage ~blocks:(n + (2 * sqrt_n)) in
  let prp = Odex_crypto.Prp.create ~domain:(n + sqrt_n) (Odex_crypto.Prf.fresh_key rng) in
  let t =
    {
      storage;
      sorter;
      m;
      rng;
      n;
      sqrt_n;
      main;
      shelter;
      scratch;
      prp;
      step = 0;
      dummy_cursor = 0;
      epochs = 0;
    }
  in
  (* Initial placement: position p holds the word π⁻¹(p); dummies are the
     virtual addresses n … n+√n−1. Setup writes are uncounted, like the
     problem inputs elsewhere. *)
  let b = Storage.block_size storage in
  for p = 0 to n + sqrt_n - 1 do
    let addr = Odex_crypto.Prp.inverse prp p in
    let value = if addr < n then values.(addr) else 0 in
    Storage.unchecked_poke storage (Ext_array.addr main p) (Array.make b (word ~addr ~value))
  done;
  t

(* End of epoch: merge main and shelter into scratch with version tags,
   sort (address, newest-first), deduplicate with one rewriting scan,
   re-permute under a fresh π, copy back, clear the shelter. *)
let reshuffle t =
  Ext_array.with_span t.main "sqrt-oram.reshuffle" @@ fun () ->
  t.epochs <- t.epochs + 1;
  let total = t.n + (2 * t.sqrt_n) in
  for p = 0 to t.n + t.sqrt_n - 1 do
    let blk = Ext_array.read_block t.main p in
    put_word t t.scratch p (Cell.with_tag blk.(0) 0)
  done;
  for j = 0 to t.sqrt_n - 1 do
    let blk = Ext_array.read_block t.shelter j in
    (* Newest versions first after the sort: tag = -(j+1). *)
    put_word t t.scratch (t.n + t.sqrt_n + j) (Cell.with_tag blk.(0) (-(j + 1)))
  done;
  Odex_sortnet.Ext_sort.run t.sorter ~m:t.m t.scratch;
  (* Deduplicating scan: keep the first (newest) copy of each address,
     labelled with its place π'(address) under a fresh permutation. *)
  let prp' = Odex_crypto.Prp.create ~domain:(t.n + t.sqrt_n) (Odex_crypto.Prf.fresh_key t.rng) in
  let prev = ref min_int in
  for p = 0 to total - 1 do
    let blk = Ext_array.read_block t.scratch p in
    let out =
      match blk.(0) with
      | Cell.Empty -> blk
      | Cell.Item it ->
          if it.key = !prev then full_block t Cell.Empty
          else begin
            prev := it.key;
            full_block t (Cell.Item { it with tag = 0; aux = Odex_crypto.Prp.apply prp' it.key })
          end
    in
    Ext_array.write_block t.scratch p out
  done;
  (* Sort by π'(address), empties last: the addresses are distinct now,
     so the label alone decides every pair. *)
  Odex_sortnet.Ext_sort.run t.sorter ~order:Order.By_aux ~m:t.m t.scratch;
  for p = 0 to t.n + t.sqrt_n - 1 do
    let blk = Ext_array.read_block t.scratch p in
    Ext_array.write_block t.main p blk
  done;
  let b = Storage.block_size t.storage in
  for j = 0 to t.sqrt_n - 1 do
    Ext_array.write_block t.shelter j (Block.make b)
  done;
  t.prp <- prp';
  t.step <- 0;
  t.dummy_cursor <- 0

let access t addr ~update =
  if addr < 0 || addr >= t.n then invalid_arg "Sqrt_oram: address out of range";
  (* 1. Scan the shelter (newest wins). *)
  let sheltered = ref None in
  Ext_array.with_span t.shelter "sqrt-oram.shelter-scan" (fun () ->
      for j = 0 to t.sqrt_n - 1 do
        let blk = Ext_array.read_block t.shelter j in
        match blk.(0) with
        | Cell.Item it when it.key = addr -> sheltered := Some it.value
        | _ -> ()
      done);
  (* 2. Probe main: the real position, or a fresh dummy if sheltered. *)
  let probe_addr =
    match !sheltered with
    | Some _ ->
        let d = t.n + t.dummy_cursor in
        t.dummy_cursor <- t.dummy_cursor + 1;
        d
    | None -> addr
  in
  let pos = Odex_crypto.Prp.apply t.prp probe_addr in
  let from_main =
    Ext_array.with_span t.main "sqrt-oram.probe" (fun () ->
        let blk = Ext_array.read_block t.main pos in
        let found =
          match blk.(0) with Cell.Item it when it.key = addr -> Some it.value | _ -> None
        in
        Ext_array.write_block t.main pos blk;
        found)
  in
  let current =
    match (!sheltered, from_main) with
    | Some v, _ -> v
    | None, Some v -> v
    | None, None -> invalid_arg "Sqrt_oram: word not found (corrupted state)"
  in
  let stored = match update with None -> current | Some v -> v in
  (* 3. Append to the shelter. *)
  put_word t t.shelter t.step (word ~addr ~value:stored);
  t.step <- t.step + 1;
  if t.step >= t.sqrt_n then reshuffle t;
  current

let read t addr = access t addr ~update:None
let write t addr v = ignore (access t addr ~update:(Some v))

let epochs t = t.epochs
