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
  word : Flat.t; (* Alice's one-block staging for every word I/O *)
}

let isqrt n =
  let rec go s = if s * s >= n then s else go (s + 1) in
  go 1

let word ~addr ~value = Cell.item ~key:addr ~value ()

(* One virtual word per block, its B cells identical copies of one item
   (or all empty): the sorts work at cell granularity, and the copies
   keep every word block-aligned through them. A word I/O stages the
   block in [t.word], one reused buffer, and the word is tested and
   rewritten in place through its first cell. *)
let w0 t = Flat.cell_offset t.word ~block:0 ~slot:0

let get_word t arr i = Ext_array.read_flat arr i ~count:1 t.word
let put_word t arr i = Ext_array.write_flat arr i ~count:1 t.word

let spread t =
  for slot = 1 to Flat.block_size t.word - 1 do
    Flat.copy_cell t.word (w0 t) t.word (Flat.cell_offset t.word ~block:0 ~slot)
  done

let set_word t ~key ~value ~tag ~aux =
  Flat.set_item t.word (w0 t) ~key ~value ~tag ~aux;
  spread t

(* Give the staged item that tag; an empty word stays empty. *)
let retag t tag =
  if Flat.is_item t.word (w0 t) then Flat.set_tag t.word (w0 t) tag;
  spread t

let clear_word t = Flat.clear_blocks t.word 0 1

(* Whether the staged word is the item at [addr]. *)
let holds t addr = Flat.is_item t.word (w0 t) && Flat.key t.word (w0 t) = addr

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
      word = Flat.create ~block_size:(Storage.block_size storage) ~blocks:1;
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
    get_word t t.main p;
    retag t 0;
    put_word t t.scratch p
  done;
  for j = 0 to t.sqrt_n - 1 do
    get_word t t.shelter j;
    (* Newest versions first after the sort: tag = -(j+1). *)
    retag t (-(j + 1));
    put_word t t.scratch (t.n + t.sqrt_n + j)
  done;
  Odex_sortnet.Ext_sort.run t.sorter ~m:t.m t.scratch;
  (* Deduplicating scan: keep the first (newest) copy of each address,
     labelled with its place π'(address) under a fresh permutation. *)
  let prp' = Odex_crypto.Prp.create ~domain:(t.n + t.sqrt_n) (Odex_crypto.Prf.fresh_key t.rng) in
  let prev = ref min_int in
  for p = 0 to total - 1 do
    get_word t t.scratch p;
    if Flat.is_item t.word (w0 t) then begin
      let key = Flat.key t.word (w0 t) in
      if key = !prev then clear_word t
      else begin
        prev := key;
        set_word t ~key ~value:(Flat.value t.word (w0 t)) ~tag:0
          ~aux:(Odex_crypto.Prp.apply prp' key)
      end
    end;
    put_word t t.scratch p
  done;
  (* Sort by π'(address), empties last: the addresses are distinct now,
     so the label alone decides every pair. *)
  Odex_sortnet.Ext_sort.run t.sorter ~order:Order.By_aux ~m:t.m t.scratch;
  for p = 0 to t.n + t.sqrt_n - 1 do
    get_word t t.scratch p;
    put_word t t.main p
  done;
  clear_word t;
  for j = 0 to t.sqrt_n - 1 do
    put_word t t.shelter j
  done;
  t.prp <- prp';
  t.step <- 0;
  t.dummy_cursor <- 0

let access t addr ~update =
  if addr < 0 || addr >= t.n then invalid_arg "Sqrt_oram: address out of range";
  (* 1. Scan the shelter (newest wins). *)
  let found = ref false and current = ref 0 in
  Ext_array.with_span t.shelter "sqrt-oram.shelter-scan" (fun () ->
      for j = 0 to t.sqrt_n - 1 do
        get_word t t.shelter j;
        if holds t addr then begin
          found := true;
          current := Flat.value t.word (w0 t)
        end
      done);
  (* 2. Probe main: the real position, or a fresh dummy if sheltered. *)
  let probe_addr =
    if !found then begin
      let d = t.n + t.dummy_cursor in
      t.dummy_cursor <- t.dummy_cursor + 1;
      d
    end
    else addr
  in
  let pos = Odex_crypto.Prp.apply t.prp probe_addr in
  Ext_array.with_span t.main "sqrt-oram.probe" (fun () ->
      get_word t t.main pos;
      if (not !found) && holds t addr then begin
        found := true;
        current := Flat.value t.word (w0 t)
      end;
      put_word t t.main pos);
  if not !found then invalid_arg "Sqrt_oram: word not found (corrupted state)";
  let current = !current in
  let stored = match update with None -> current | Some v -> v in
  (* 3. Append to the shelter. *)
  set_word t ~key:addr ~value:stored ~tag:0 ~aux:0;
  put_word t t.shelter t.step;
  t.step <- t.step + 1;
  if t.step >= t.sqrt_n then reshuffle t;
  current

let read t addr = access t addr ~update:None
let write t addr v = ignore (access t addr ~update:(Some v))

let epochs t = t.epochs
