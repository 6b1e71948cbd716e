open Odex_extmem
open Odex

type cert = [ `Exact | `Isomorphic | `Multi_server ]

type entry = {
  subject : Pairtest.subject;
  n_cells : int;
  b : int;
  m : int;
  cert : cert;
}

let sub name run = { Pairtest.name; run }

(* Core algorithms. Capacity and rank parameters are derived only from
   the public shape (cell count, block count, item count — the pair
   generator gives both runs identical shapes), never from key values. *)

let consolidation =
  sub "consolidation" (fun ~rng:_ ~m:_ _s a -> ignore (Consolidation.run ~into:None a))

let butterfly = sub "butterfly" (fun ~rng:_ ~m _s a -> ignore (Butterfly.compact ~m a))

let tight_compaction =
  sub "compaction-tight" (fun ~rng:_ ~m _s a ->
      ignore (Compaction.tight ~m ~capacity_blocks:(Ext_array.blocks a) a))

let loose_compaction =
  sub "loose-compaction" (fun ~rng ~m _s a ->
      ignore (Loose_compaction.run ~m ~rng ~capacity:(max 1 (Ext_array.blocks a / 8)) a))

(* The two-server protocol (DESIGN.md §14): on a k >= 2 stripe each
   server individually sees a fixed sequence while the combined trace is
   occupancy-dependent — hence the [`Multi_server] certificate; on
   single-server backends it publicly falls back to [Compaction.tight]
   and behaves [`Exact]. *)
let twoserver_compaction =
  sub "twoserver-compaction" (fun ~rng:_ ~m _s a ->
      ignore (Twoserver_compaction.run ~m ~capacity_blocks:(Ext_array.blocks a) a))

let logstar_compaction =
  sub "logstar-compaction" (fun ~rng ~m _s a ->
      ignore (Logstar_compaction.run ~m ~rng ~capacity:(max 1 (Ext_array.blocks a / 8)) a))

let item_count a =
  let n = ref 0 in
  Array.iter (fun c -> if Cell.is_item c then incr n) (Ext_array.to_cells a);
  !n

let selection =
  sub "selection" (fun ~rng ~m _s a ->
      let total = item_count a in
      if total > 0 then ignore (Selection.select ~m ~rng ~k:(max 1 (total / 2)) a))

let quantiles =
  sub "quantiles" (fun ~rng ~m _s a ->
      if item_count a > 0 then ignore (Quantiles.run ~m ~rng ~q:3 a))

let sort = sub "sort" (fun ~rng ~m _s a -> ignore (Sort.run ~m ~rng a))

(* Bucket oblivious sort + its routing-only permutation (DESIGN.md §12).
   The permutation's trace is a pure function of (shape, coins) —
   exact-certified; the sorter's merge phase reads runs in rank order,
   so it is certified rank-isomorphically (plus the statistical
   distribution check in Statcheck). Shapes are the smallest that push
   the default bucket geometry through the real pipeline:
   n = 512 blocks > m = 256 >= 4·zb + 2 with zb = 54. *)

let bucket_sort =
  sub "bucket-sort" (fun ~rng ~m _s a ->
      Odex_sortnet.Ext_sort.run (Odex_sortnet.Ext_sort.bucket_rng rng) ~m a)

let oblivious_permutation =
  sub "oblivious-permutation" (fun ~rng ~m _s a ->
      ignore (Odex_sortnet.Bucket_sort.permute ~rng ~m a))

(* ORAM subjects: the input array only supplies the value payloads (its
   item count is shape, hence equal across a pair); the access sequence
   is a fixed function of the store's size. *)

let oram_values a =
  match Array.of_list (List.map (fun (it : Cell.item) -> it.value) (Ext_array.items a)) with
  | [||] -> [| 1 |]
  | vals -> vals

let access_pattern size = List.init (2 * size) (fun i -> ((i * 7) + 3) mod size)

let drive ~read ~write o size =
  List.iter
    (fun addr -> if addr mod 3 = 0 then write o addr (addr * 5) else ignore (read o addr))
    (access_pattern size)

let linear_oram =
  sub "linear-oram" (fun ~rng:_ ~m:_ s a ->
      let values = oram_values a in
      let o = Odex_oram.Linear_oram.init s ~values in
      drive ~read:Odex_oram.Linear_oram.read ~write:Odex_oram.Linear_oram.write o
        (Array.length values))

let sqrt_oram =
  sub "sqrt-oram" (fun ~rng ~m s a ->
      let values = oram_values a in
      let o = Odex_oram.Sqrt_oram.init ~m ~rng s ~values in
      drive ~read:Odex_oram.Sqrt_oram.read ~write:Odex_oram.Sqrt_oram.write o
        (Array.length values))

let hierarchical_oram =
  sub "hier-oram" (fun ~rng ~m s a ->
      let values = oram_values a in
      let o = Odex_oram.Hierarchical_oram.init ~m ~rng s ~values in
      drive ~read:Odex_oram.Hierarchical_oram.read ~write:Odex_oram.Hierarchical_oram.write o
        (Array.length values))

(* Default shapes: big enough that every subject leaves its in-cache
   base case (selection/quantiles need N/B > m), small enough for a
   test-suite smoke run. *)
let all =
  [
    { subject = consolidation; n_cells = 512; b = 4; m = 8; cert = `Exact };
    { subject = butterfly; n_cells = 512; b = 4; m = 8; cert = `Exact };
    { subject = tight_compaction; n_cells = 512; b = 4; m = 8; cert = `Exact };
    { subject = loose_compaction; n_cells = 1024; b = 4; m = 32; cert = `Exact };
    { subject = logstar_compaction; n_cells = 512; b = 4; m = 16; cert = `Exact };
    { subject = twoserver_compaction; n_cells = 512; b = 4; m = 8; cert = `Multi_server };
    { subject = selection; n_cells = 1024; b = 4; m = 16; cert = `Exact };
    { subject = quantiles; n_cells = 1024; b = 4; m = 16; cert = `Exact };
    { subject = sort; n_cells = 768; b = 4; m = 16; cert = `Exact };
    { subject = bucket_sort; n_cells = 2048; b = 4; m = 256; cert = `Isomorphic };
    { subject = oblivious_permutation; n_cells = 2048; b = 4; m = 256; cert = `Exact };
    { subject = linear_oram; n_cells = 96; b = 4; m = 8; cert = `Exact };
    { subject = sqrt_oram; n_cells = 96; b = 4; m = 16; cert = `Exact };
    { subject = hierarchical_oram; n_cells = 96; b = 4; m = 16; cert = `Exact };
  ]

let pair_mode e =
  match e.cert with `Exact | `Multi_server -> `Disjoint | `Isomorphic -> `Isomorphic

let multi_server e = e.cert = `Multi_server

(* Backends the obliviousness suite runs against. Each call returns a
   fresh spec: a file store gets its own temp path (remove it with
   [Storage.remove_spec_files] when done), and the faulty decorator gets
   a fixed seed and a genuinely nonzero failure rate so retries really
   appear in the traces under test. [max_burst] stays below
   [Storage.create]'s default retry budget, so a fault can never turn
   permanent. *)
let backend_names = [ "mem"; "file"; "faulty" ]

let backend_spec ?(seed = 0xFA17) ?(failure_rate = 0.05) ?(shards = 1) ?(journal = false) name
    =
  if shards < 1 then invalid_arg "Registry.backend_spec: shards must be >= 1";
  (* [shards > 1] stripes the spec across K inner devices. The faulty
     decorator composes OUTSIDE the stripe: its access counter then
     ticks per logical block exactly as over an unsharded store, so the
     fault (and retry) schedule — hence the whole trace — is identical
     at every K. *)
  let stripe inner =
    if shards = 1 then inner else Storage.Sharded { inner; shards; seed = 0x5A4D }
  in
  (* [journal] wraps the finished spec in the write-ahead journal — the
     outermost decorator, so the log records exactly what the algorithm
     issued. The journal file rides with the spec ([remove_spec_files]
     cleans it up alongside any inner store). *)
  let journaled inner =
    if not journal then inner
    else
      Storage.Journaled
        { inner; path = Filename.temp_file "odex_obcheck" ".journal"; durable = true }
  in
  journaled
    (match name with
    | "mem" -> stripe Storage.Mem
    | "file" -> stripe (Storage.File { path = Filename.temp_file "odex_obcheck" ".store" })
    | "faulty" ->
        Storage.Faulty { inner = stripe Storage.Mem; seed; failure_rate; max_burst = 2 }
    | other -> invalid_arg (Printf.sprintf "Registry.backend_spec: unknown backend %S" other))
