(* One producer per experiment of the DESIGN.md index (E1–E18). [run]
   measures the experiment's workloads once and returns odex-bench/10
   records; [table] renders those records as the tables EXPERIMENTS.md
   records. BENCH_core.json is the other rendering of the same records. *)

open Odex_extmem
open Odex
module H = Harness

let rng_of seed = Odex_crypto.Rng.create ~seed

type producer = { id : string; run : H.env -> H.record list; table : H.record list -> unit }

let fint = Table.fint
let per r d = Float.of_int (H.total_ios r) /. d
let blocks (r : H.record) = r.n_cells / r.b
let named prefix = List.filter (fun (r : H.record) -> String.starts_with ~prefix r.name)
let get rs name = List.find (fun (r : H.record) -> r.name = name) rs
let at rs n name = List.find (fun (r : H.record) -> r.n_cells = n && r.name = name) rs
let suffix prefix (r : H.record) = String.sub r.name prefix (String.length r.name - prefix)

(* The distinct values of [key] over [rs], in first-seen order. *)
let keys_of key rs =
  List.fold_left (fun acc r -> if List.mem (key r) acc then acc else acc @ [ key r ]) [] rs

(* A table with one row per record, from (header, cell) columns. *)
let rows ~title cols rs =
  Table.print ~title ~header:(List.map fst cols)
    (List.map (fun r -> List.map (fun (_, cell) -> cell r) cols) rs)

(* A cell the run measured (its [extra] under the header's name). *)
let col key = (key, fun r -> H.extra r key)
let ios = ("I/Os", fun r -> fint (H.total_ios r))
let ok = ("ok", fun (r : H.record) -> Table.fbool r.ok)
let n_cells = ("N cells", fun (r : H.record) -> fint r.n_cells)
let n_blocks = ("n blocks", fun r -> fint (blocks r))
let b_col = ("B", fun (r : H.record) -> fint r.b)
let m_col = ("m", fun (r : H.record) -> fint r.m)
let per_block = ("I/Os per block", fun r -> Table.ffloat (per r (Float.of_int (blocks r))))

(* Records whose table has nothing beyond the ledger. *)
let summary ~title =
  rows ~title
    [
      ("record", fun (r : H.record) -> r.name); ("N", fun r -> fint r.n_cells); b_col; m_col;
      ("reads", fun r -> fint r.io.reads); ("writes", fun r -> fint r.io.writes); ios; ok;
      ("ms", fun r -> Table.ffloat r.wall_ms);
    ]

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the butterfly compaction network. *)

let e1 env =
  (* The exact instance of the paper's Figure 1. *)
  let s = H.store env ~b:2 in
  let a = Ext_array.create s ~blocks:16 in
  List.iter
    (fun p ->
      Storage.unchecked_poke s (Ext_array.addr a p)
        [| Cell.item ~key:p ~value:p (); Cell.item ~key:p ~value:1 () |])
    [ 2; 4; 5; 9; 12; 13; 15 ];
  let figure =
    H.measure env ~name:"figure1-labels" ~n_cells:32 ~b:2 ~m:0 (fun () ->
        let label d = if d < 0 then "." else string_of_int d in
        let level i row = (string_of_int i, String.concat " " (List.map label row)) in
        (true, List.mapi level (Butterfly.naive_levels a)))
  in
  (* Lemma 5 on random instances: the router raises on any collision. *)
  let trials = 200 in
  let lemma5 =
    H.measure env ~name:"lemma5-routings" ~n_cells:trials ~b:2 ~m:5 (fun () ->
        let rng = rng_of 11 in
        let collisions = ref 0 in
        for _ = 1 to trials do
          let n = 2 + Odex_crypto.Rng.int rng 120 in
          let occ = List.filter (fun _ -> Odex_crypto.Rng.bool rng) (List.init n (fun i -> i)) in
          let arr = Workloads.consolidated_blocks env ~b:2 ~n ~occupied:0 in
          List.iteri
            (fun j p ->
              Storage.unchecked_poke (Ext_array.storage arr) (Ext_array.addr arr p)
                [| Cell.item ~key:j ~value:j (); Cell.empty |])
            occ;
          (try ignore (Butterfly.compact ~m:5 arr) with Butterfly.Collision _ -> incr collisions);
          H.release env
        done;
        (!collisions = 0, [ ("collisions", string_of_int !collisions) ]))
  in
  [ figure; lemma5 ]

let e1_table rs =
  let lemma5 = get rs "lemma5-routings" in
  Table.print ~title:"E1 Figure 1: butterfly network, remaining-distance labels per level"
    ~header:("level" :: List.init 16 (fun i -> Printf.sprintf "c%d" i))
    (List.map
       (fun (level, labels) -> level :: String.split_on_char ' ' labels)
       (get rs "figure1-labels").extra);
  Table.note
    "  occupied-label rows must read 2 3 3 6 8 8 9 / 2 2 2 6 8 8 8 / 0 0 0 4 8 8 8 /\n\
    \  0 0 0 0 8 8 8 / 0 0 0 0 0 0 0  (the figure's numbers)\n";
  Table.note "  Lemma 5 check: %s collisions in %d random routings (must be 0)\n"
    (H.extra lemma5 "collisions") lemma5.n_cells

(* ------------------------------------------------------------------ *)
(* E2 — Lemma 3: consolidation costs exactly 2·(N/B) I/Os, flat in R.
   The 100% rows (every item distinguished) are named "consolidation";
   the CI throughput floor reads the one at 16384 cells. *)

let e2 env =
  let b = 8 in
  List.concat_map
    (fun n ->
      List.map
        (fun density ->
          let _, a = Workloads.array env ~rng:(rng_of 2) ~b ~n Workloads.Uniform in
          let distinguished buf off = Flat.key buf off mod 100 < density in
          let name =
            if density = 100 then "consolidation" else Printf.sprintf "consolidation-r%d" density
          in
          H.measure env ~name ~n_cells:n ~b ~m:2 (fun () ->
              ignore (Consolidation.run ~distinguished ~into:None a);
              (true, [ ("R/N", Printf.sprintf "%d%%" density) ])))
        [ 1; 25; 50; 100 ])
    [ 4096; 16384; 65536 ]

let e2_table =
  rows ~title:"E2 Lemma 3: consolidation I/Os (must equal 2*ceil(N/B), flat in R)"
    [ n_cells; col "R/N"; ios; ("2*N/B", fun r -> fint (2 * Emodel.ceil_div r.n_cells r.b)) ]

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 4: sparse IBLT compaction. *)

let e3 env =
  let b = 8 in
  let n = 512 in
  let sparse r =
    let a = Workloads.consolidated_blocks env ~b ~n ~occupied:r in
    H.measure env ~name:(Printf.sprintf "sparse-compaction-r%d" r) ~n_cells:(n * b) ~b ~m:4096
      (fun () ->
        let key = Odex_crypto.Prf.key_of_int r in
        let out = Sparse_compaction.run ~m:4096 ~key ~capacity:(r + 2) a in
        (out.Sparse_compaction.complete, [ ("r occupied", fint r) ]))
  in
  (* Decode success vs table multiplier delta (Lemma 1's threshold). *)
  let trials = 60 in
  let threshold mult =
    H.measure env ~name:(Printf.sprintf "iblt-decode-x%d" mult) ~n_cells:(256 * b) ~b ~m:8192
      (fun () ->
        let fails = ref 0 in
        for t = 1 to trials do
          let a = Workloads.consolidated_blocks env ~b ~n:256 ~occupied:24 in
          let key = Odex_crypto.Prf.key_of_int ((mult * 1000) + t) in
          let out = Sparse_compaction.run ~multiplier:mult ~m:8192 ~key ~capacity:26 a in
          if not out.Sparse_compaction.complete then incr fails;
          H.release env
        done;
        let decodes = Printf.sprintf "%d/%d" (trials - !fails) trials in
        (true, [ ("multiplier", fint mult); ("decodes", decodes) ]))
  in
  List.map sparse [ 4; 8; 16; 32; 64 ] @ List.map threshold [ 1; 2; 3; 4 ]

let e3_table rs =
  rows ~title:"E3 Theorem 4: IBLT sparse compaction (I/Os linear in n, small slope in r)"
    [ n_blocks; col "r occupied"; ios; ("complete", snd ok) ]
    (named "sparse" rs);
  rows ~title:"E3b Lemma 1 threshold: decode success vs table multiplier (k = 3)"
    [ col "multiplier"; col "decodes" ] (named "iblt" rs)

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 6: butterfly compaction, the log m speedup, and the same
   network run in reverse: each expand record sends a compacted prefix
   back to the slots of the matching compact record's input and is ok
   only when every block lands where it started. The last shape (B = 8,
   300 of 1024 blocks occupied) is the CI-tracked point. *)

let e4 env =
  let butterfly ~b ~n ~occupied ~m =
    let a = Workloads.consolidated_blocks env ~b ~n ~occupied in
    H.measure env ~name:"butterfly-compact" ~n_cells:(n * b) ~b ~m (fun () ->
        ignore (Butterfly.compact ~m a);
        (true, [ ("r", fint occupied) ]))
  in
  let expand ~b ~n ~occupied ~m =
    let a = Workloads.consolidated_blocks env ~b ~n ~occupied in
    let s = Ext_array.storage a in
    let peek a j = Storage.unchecked_peek s (Ext_array.addr a j) in
    let all = List.init n Fun.id in
    let slots = Array.of_list (List.filter (fun j -> Array.exists Cell.is_item (peek a j)) all) in
    let c = Ext_array.create s ~blocks:n in
    Array.iteri (fun i j -> Storage.unchecked_poke s (Ext_array.addr c i) (peek a j)) slots;
    H.measure env ~name:"butterfly-expand" ~n_cells:(n * b) ~b ~m (fun () ->
        Butterfly.expand ~m c (fun i -> slots.(i) - i);
        (List.for_all (fun j -> peek c j = peek a j) all, [ ("r", fint occupied) ]))
  in
  List.concat_map
    (fun (b, n, occupied, m) -> [ butterfly ~b ~n ~occupied ~m; expand ~b ~n ~occupied ~m ])
    (List.concat_map
       (fun n -> List.map (fun m -> (4, n, n / 3, m)) [ 3; 16; 64; 256 ])
       [ 1024; 4096; 16384 ]
    @ [ (8, 1024, 300, 64) ])

let e4_table rs =
  let speedup r =
    let n = blocks r in
    Table.fratio (Float.of_int (n * Emodel.ilog2_ceil n) /. Float.of_int (H.total_ios r))
  in
  rows ~title:"E4 Theorem 6: butterfly compaction I/Os; speedup vs n*log2(n) grows with log m"
    [ n_blocks; b_col; col "r"; m_col; ios; ("n*lg n / I/Os", speedup) ]
    (named "butterfly-compact" rs);
  rows ~title:"E4b Theorem 6 in reverse: butterfly expansion of the compacted prefix back to its slots"
    [ n_blocks; b_col; col "r"; m_col; ios; ok ]
    (named "butterfly-expand" rs)

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 8: loose compaction is linear. *)

let e5 env =
  let loose ~b n =
    let r = n / 8 in
    let a = Workloads.consolidated_blocks env ~b ~n ~occupied:r in
    let rng = rng_of 5 in
    H.measure env ~name:"loose-compaction" ~n_cells:(n * b) ~b ~m:64 (fun () ->
        let out = Loose_compaction.run ~m:64 ~rng ~capacity:(n / 4) a in
        (out.Loose_compaction.ok, [ ("r", fint r) ]))
  in
  List.map (loose ~b:4) [ 512; 1024; 2048; 4096; 8192 ] @ [ loose ~b:8 2048 ]

let e5_table =
  rows ~title:"E5 Theorem 8: loose compaction (I/Os per block must stay ~constant)"
    [ n_blocks; b_col; col "r"; ios; per_block; ok ]

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 9: log* compaction. *)

let e6 env =
  let logstar ?sparse_threshold ~b ~m ~capacity n =
    let r = n / 8 in
    let a = Workloads.consolidated_blocks env ~b ~n ~occupied:r in
    let rng = rng_of 6 in
    let mode = if sparse_threshold = None then "default" else "forced" in
    let name = if mode = "default" then "logstar-compaction" else "logstar-compaction-forced" in
    H.measure env ~name ~n_cells:(n * b) ~b ~m (fun () ->
        let out = Logstar_compaction.run ?sparse_threshold ~m ~rng ~capacity a in
        ( out.Logstar_compaction.ok,
          [
            ("r", fint r); ("capacity", fint capacity); ("mode", mode);
            ("phases", fint out.Logstar_compaction.phases);
          ] ))
  in
  List.map (fun n -> logstar ~b:2 ~m:32 ~capacity:(n / 4) n) [ 512; 1024; 2048; 4096 ]
  @ List.map (fun n -> logstar ~sparse_threshold:0 ~b:2 ~m:32 ~capacity:(n / 4) n) [ 2048; 4096 ]
  @ [ logstar ~b:8 ~m:64 ~capacity:128 1024 ]

let e6_table =
  rows
    ~title:
      "E6 Theorem 9: log* compaction. The tower constants put every feasible n in the\n\
      \   zero-phase regime (the paper's asymptotics start at log n > 32); 'forced' rows\n\
      \   drive the phase machinery with the threshold overridden to 0."
    [
      n_blocks; b_col; m_col; col "r"; col "capacity"; col "mode"; ios; per_block; col "phases";
      ("log* n", fun r -> fint (Emodel.log_star (blocks r))); ok;
    ]

(* ------------------------------------------------------------------ *)
(* E7 — Theorems 12/13: selection. *)

(* A deliberately NON-oblivious baseline: external-memory quickselect.
   Linear I/Os, but the trace depends on the data. *)
(* Where quickselect's partition pass writes one side: blocks are
   appended to [out] as they fill. *)
type sink = {
  out : Ext_array.t;
  mutable blk : Block.t;
  mutable fill : int;
  mutable cursor : int;
  mutable count : int;
}

let leaky_quickselect ~rng s a k =
  let b = Ext_array.block_size a in
  let scan arr f =
    for i = 0 to Ext_array.blocks arr - 1 do
      Array.iter
        (function Cell.Empty -> () | Cell.Item it -> f it)
        (Storage.read s (Ext_array.addr arr i))
    done
  in
  let flush w =
    Storage.write s (Ext_array.addr w.out w.cursor) w.blk;
    w.cursor <- w.cursor + 1;
    w.blk <- Block.make b;
    w.fill <- 0
  in
  let push w it =
    w.blk.(w.fill) <- Cell.Item it;
    w.fill <- w.fill + 1;
    w.count <- w.count + 1;
    if w.fill = b then flush w
  in
  let rec go (arr : Ext_array.t) count k =
    if count * 2 <= Ext_array.cells arr || Ext_array.blocks arr <= 4 then begin
      (* small enough: read everything, pick privately *)
      let items = ref [] in
      scan arr (fun it -> items := it :: !items);
      let order (x : Cell.item) (y : Cell.item) = compare (x.key, x.tag) (y.key, y.tag) in
      List.nth (List.sort order !items) (k - 1)
    end
    else begin
      (* pick a pivot, partition into two fresh arrays *)
      let pos = Odex_crypto.Rng.int rng count in
      let pivot = ref None and seen = ref 0 in
      scan arr (fun it ->
          if !seen = pos then pivot := Some it;
          incr seen);
      let p = Option.get !pivot in
      let sink () =
        let out = Ext_array.create s ~blocks:(Ext_array.blocks arr) in
        { out; blk = Block.make b; fill = 0; cursor = 0; count = 0 }
      in
      let lo = sink () in
      let hi = sink () in
      scan arr (fun it ->
          push (if compare (it.key, it.tag) (p.key, p.tag) <= 0 then lo else hi) it);
      List.iter (fun w -> if w.fill > 0 then flush w) [ lo; hi ];
      let side w k = go (Ext_array.sub w.out ~off:0 ~len:(max 1 w.cursor)) w.count k in
      if k <= lo.count then side lo k else side hi (k - lo.count)
    end
  in
  let count = ref 0 in
  for i = 0 to Ext_array.blocks a - 1 do
    Array.iter (fun c -> if Cell.is_item c then incr count) (Storage.read s (Ext_array.addr a i))
  done;
  go a !count k

let e7 env =
  let b = 8 in
  let m = 64 in
  List.concat_map
    (fun n ->
      let k = n / 2 in
      let run name f =
        let rng = rng_of 7 in
        let s, a = Workloads.array env ~rng ~b ~n Workloads.Uniform in
        H.measure env ~name ~n_cells:n ~b ~m (fun () -> (f rng s a, []))
      in
      [
        run "selection" (fun rng _ a -> (Selection.select ~m ~rng ~k a).Selection.ok);
        run "selection-exp0.25" (fun rng _ a ->
            let delta s0 = 3. *. Float.sqrt s0 in
            (Selection.select_with_delta ~exponent:0.25 ~m ~rng ~delta ~k a).Selection.ok);
        run "sort-scan" (fun _ _ a ->
            Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m a;
            for i = 0 to Ext_array.blocks a - 1 do
              ignore (Storage.read (Ext_array.storage a) (Ext_array.addr a i))
            done;
            true);
        run "leaky-quickselect" (fun rng s a ->
            ignore (leaky_quickselect ~rng s a k);
            true);
      ])
    [ 4096; 8192; 16384; 65536; 262144 ]

let e7_table rs =
  let total n name = H.total_ios (at rs n name) in
  let io n name = fint (total n name) in
  let select n name = io n name ^ if (at rs n name).ok then "" else "*" in
  Table.print
    ~title:"E7 Theorems 12/13: selection I/Os vs oblivious sort-then-scan and leaky quickselect"
    ~header:[ "N cells"; "select e=1/2"; "select e=1/4"; "sort+scan"; "leaky qsel"; "win" ]
    (List.map
       (fun n ->
         [
           fint n; select n "selection"; select n "selection-exp0.25"; io n "sort-scan";
           io n "leaky-quickselect";
           Table.fratio
             (Float.of_int (total n "sort-scan") /. Float.of_int (total n "selection-exp0.25"));
         ])
       (keys_of (fun (r : H.record) -> r.n_cells) rs));
  Table.note "  (* = a randomized bound tripped; the trace is unchanged)\n"

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 17: quantiles. *)

let e8 env =
  let b = 8 in
  (* m = 64 exercises the paper's easy case ((M/B)^4 >= N/B: sort a
     copy); m = 8 with N/B > 4096 forces the sampling path. *)
  List.concat_map
    (fun (n, m) ->
      List.map
        (fun q ->
          let rng = rng_of 8 in
          let _, a = Workloads.array env ~rng ~b ~n Workloads.Uniform in
          H.measure env ~name:(Printf.sprintf "quantiles-q%d" q) ~n_cells:n ~b ~m (fun () ->
              ((Quantiles.run ~m ~rng ~q a).Quantiles.ok, [ ("q", fint q) ])))
        [ 2; 4; 8 ])
    [ (8192, 64); (32768, 64); (65536, 8) ]

let e8_table =
  let path (r : H.record) = if r.m * r.m * r.m * r.m >= blocks r then "sort" else "sample" in
  rows ~title:"E8 Theorem 17: quantiles (I/Os per block roughly flat in N and q)"
    [ n_cells; m_col; ("path", path); col "q"; ios; per_block; ok ]

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 21: sorting, the headline. *)

let sorters =
  let network eng _ ~m a =
    Odex_sortnet.Ext_sort.run eng ~m a;
    true
  in
  [
    ("thm21", fun rng ~m a -> (Sort.run ~sweep:false ~m ~rng a).Sort.ok);
    ( "thm21-paper",
      fun rng ~m a -> (Sort.run ~sweep:false ~bucket_engine:`Loose ~m ~rng a).Sort.ok );
    ("thm21+sweep", fun rng ~m a -> (Sort.run ~sweep:true ~m ~rng a).Sort.ok);
    ("bitonic", network Odex_sortnet.Ext_sort.bitonic);
    ("bitonic-win", network Odex_sortnet.Ext_sort.bitonic_windowed);
    ("columnsort", network Odex_sortnet.Ext_sort.columnsort);
  ]

let e9 env =
  let b = 8 in
  let sort n m (name, sort) =
    if name = "columnsort" && Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m = None then None
    else
      let rng = rng_of 9 in
      let _, a = Workloads.array env ~rng ~b ~n Workloads.Uniform in
      Some (H.measure env ~name:("sort-" ^ name) ~n_cells:n ~b ~m (fun () -> (sort rng ~m a, [])))
  in
  let sweep =
    List.concat_map
      (fun n -> List.concat_map (fun m -> List.filter_map (sort n m) sorters) [ 64; 256; 1024 ])
      [ 8192; 32768; 131072 ]
  in
  (* Input-shape independence: same coins, different data. *)
  let shape shape =
    let s, a = Workloads.array env ~rng:(rng_of 9) ~b ~n:16384 shape in
    let rng = rng_of 99 in
    H.measure env ~name:("shape-" ^ Workloads.shape_name shape) ~n_cells:16384 ~b ~m:64 (fun () ->
        let ok = (Sort.run ~sweep:false ~m:64 ~rng a).Sort.ok in
        (ok, [ ("trace digest", Printf.sprintf "%016Lx" (Trace.digest (Storage.trace s))) ]))
  in
  sweep @ List.map shape Workloads.[ Uniform; Ascending; Descending; All_equal; Few_distinct ]

let e9_table rs =
  let sweep = named "sort-" rs in
  Table.print
    ~title:"E9 Theorem 21: sorting I/Os vs deterministic baselines (win = bitonic-win / thm21)"
    ~header:(("N cells" :: "m" :: List.map fst sorters) @ [ "AV bound"; "win" ])
    (List.map
       (fun (n, m) ->
         let at = List.filter (fun (r : H.record) -> r.n_cells = n && r.m = m) sweep in
         let ios name = H.total_ios (get at ("sort-" ^ name)) in
         let cell (name, _) = try fint (ios name) with Not_found -> "n/a" in
         let bound = Emodel.sort_io_bound ~n_blocks:(n / 8) ~m_blocks:m in
         (fint n :: fint m :: List.map cell sorters)
         @ [
             fint (Float.to_int bound);
             Table.fratio (Float.of_int (ios "bitonic-win") /. Float.of_int (ios "thm21"));
           ])
       (keys_of (fun (r : H.record) -> (r.n_cells, r.m)) sweep));
  rows ~title:"E9b shape-independence: same coins, different data => identical traces"
    [ ("input shape", suffix 6); ios; col "trace digest" ]
    (named "shape-" rs)

(* ------------------------------------------------------------------ *)
(* E10 — the ORAM corollary: better sorting => cheaper ORAM epochs. *)

let e10 env =
  let b = 4 in
  (* One ORAM session on a fresh store; [f] returns the accesses made.
     Returns the record and its I/Os per access. *)
  let session ~name ~n ~m f =
    let s = H.store env ~b in
    let accesses = ref 0 in
    let r = H.measure env ~name ~n_cells:n ~b ~m (fun () -> (accesses := f s; (true, []))) in
    let cost = per r (Float.of_int !accesses) in
    let extra = [ ("accesses", fint !accesses); ("I/Os per access", Table.ffloat cost) ] in
    ({ r with extra }, cost)
  in
  let linear n =
    session ~name:"linear-oram" ~n ~m:0 (fun s ->
        let t = Odex_oram.Linear_oram.init s ~values:(Array.make n 0) in
        for i = 1 to 32 do
          ignore (Odex_oram.Linear_oram.read t (i mod n))
        done;
        32)
  in
  let sqrt ?sorter ~name ~seed ~epochs n =
    session ~name ~n ~m:64 (fun s ->
        let rng = rng_of seed in
        let t = Odex_oram.Sqrt_oram.init ?sorter ~m:64 ~rng s ~values:(Array.make n 0) in
        let ops = ref 0 in
        while Odex_oram.Sqrt_oram.epochs t < epochs do
          ignore (Odex_oram.Sqrt_oram.read t (!ops * 13 mod n));
          incr ops
        done;
        !ops)
  in
  (* Hierarchical ORAM: amortized over one full bottom-rebuild cycle
     (capped at 4096 accesses) unless [accesses] fixes the count. *)
  let hier ?sorter ?accesses ~name ~stride n =
    session ~name ~n ~m:64 (fun s ->
        let module Hier = Odex_oram.Hierarchical_oram in
        let t = Hier.init ?sorter ~m:64 ~rng:(rng_of 10) s ~values:(Array.make n 0) in
        let cycle = Hier.bucket_size t * (1 lsl (Hier.levels t - 1)) in
        let ops = Option.value accesses ~default:(min 4096 cycle) in
        for i = 1 to ops do
          ignore (Hier.read t (i * stride mod n))
        done;
        ops)
  in
  let naive = Odex_sortnet.Ext_sort.bitonic and win = Odex_sortnet.Ext_sort.bitonic_windowed in
  (* A naive/windowed pair; the windowed record carries their cost ratio. *)
  let versus (a, cost_a) ((b : H.record), cost_b) =
    [ a; { b with extra = ("ratio", Table.fratio (cost_a /. cost_b)) :: b.extra } ]
  in
  List.concat_map
    (fun n ->
      fst (linear n)
      :: versus
           (sqrt ~sorter:naive ~name:"sqrt-naive" ~seed:10 ~epochs:2 n)
           (sqrt ~sorter:win ~name:"sqrt-win" ~seed:10 ~epochs:2 n)
      @ versus
          (hier ~sorter:naive ~name:"hier-naive" ~stride:13 n)
          (hier ~sorter:win ~name:"hier-win" ~stride:13 n))
    [ 1024; 4096; 16384 ]
  (* Single sessions with the default sorter, timed. *)
  @ List.map fst
      [
        hier ~accesses:64 ~name:"hier-oram-64-accesses" ~stride:1 1024;
        sqrt ~name:"sqrt-oram-epoch" ~seed:6 ~epochs:1 1024;
      ]

let e10_table rs =
  Table.print
    ~title:
      "E10 ORAM corollary: amortized I/Os per access by reshuffle/rebuild sorter\n\
      \   (the naive/windowed ratios are the paper's log-factor ORAM improvement)"
    ~header:
      [ "n words"; "linear"; "sqrt naive"; "sqrt win"; "sqrt ratio"; "hier naive"; "hier win";
        "hier ratio" ]
    (List.map
       (fun n ->
         let cell name = H.extra (at rs n name) "I/Os per access" in
         let ratio oram = H.extra (at rs n (oram ^ "-win")) "ratio" in
         [
           fint n; cell "linear-oram"; cell "sqrt-naive"; cell "sqrt-win"; ratio "sqrt";
           cell "hier-naive"; cell "hier-win"; ratio "hier";
         ])
       (keys_of (fun (r : H.record) -> r.n_cells) rs));
  rows ~title:"E10b single sessions, default sorter (timed)"
    [
      ("record", fun (r : H.record) -> r.name); ("n words", fun r -> fint r.n_cells);
      col "accesses"; ios; col "I/Os per access";
      ("ms", fun r -> Table.ffloat r.wall_ms);
    ]
    [ get rs "hier-oram-64-accesses"; get rs "sqrt-oram-epoch" ]

(* ------------------------------------------------------------------ *)
(* E11 — the obliviousness audit across all algorithms, then the
   Odex_obcheck pair tests of every registry entry. *)

let e11 env =
  let rng = rng_of 11 in
  let inputs = Oblivious.input_classes ~rng ~n:960 in
  let compacted f rng _ a = f rng (Consolidation.run ~into:None a) in
  let subject name run = { Oblivious.name; run } in
  let subjects =
    [
      subject "consolidation" (fun _ _ a -> ignore (Consolidation.run ~into:None a));
      subject "butterfly" (compacted (fun _ d -> ignore (Butterfly.compact ~m:8 d)));
      subject "sparse-compaction"
        (compacted (fun _ d ->
             let key = Odex_crypto.Prf.key_of_int 1 in
             ignore (Sparse_compaction.run ~m:4096 ~key ~capacity:(Ext_array.blocks d) d)));
      subject "loose-compaction"
        (compacted (fun rng d ->
             ignore (Loose_compaction.run ~m:64 ~rng ~capacity:(Ext_array.blocks d / 4) d)));
      subject "logstar-compaction"
        (compacted (fun rng d ->
             ignore (Logstar_compaction.run ~m:64 ~rng ~capacity:(Ext_array.blocks d / 4) d)));
      subject "selection" (fun rng _ a -> ignore (Selection.select ~m:16 ~rng ~k:100 a));
      subject "quantiles" (fun rng _ a -> ignore (Quantiles.run ~m:16 ~rng ~q:3 a));
      subject "sort-thm21" (fun rng _ a -> ignore (Sort.run ~m:16 ~rng a));
      subject "sort-bitonic" (fun _ _ a ->
          Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:16 a);
      (* A leaky baseline that must FAIL the audit. *)
      subject "leaky-quickselect-baseline" (fun rng s a -> ignore (leaky_quickselect ~rng s a 100));
    ]
  in
  (* The audit runs each input on its own plain in-memory store, outside
     the factory and its flags; the record's ledger is the first input
     class's store. *)
  let audit subj =
    let first = ref None in
    let counted rng s a =
      subj.Oblivious.run rng s a;
      if !first = None then first := Some (H.counts_of s)
    in
    let report, wall_ms =
      H.timed (fun () -> Oblivious.audit ~b:4 ~inputs { subj with Oblivious.run = counted })
    in
    let lengths = List.map (fun o -> o.Oblivious.length) report.Oblivious.observations in
    H.unflagged
      (H.record env ~name:("audit-" ^ subj.Oblivious.name) ~n_cells:960 ~b:4 ~m:0 ~backend:"mem"
         ~wall_ms ~ok:report.Oblivious.oblivious
         ~extra:[ ("I/Os per input class", String.concat "/" (List.map string_of_int lengths)) ]
         (Option.get !first))
  in
  (* Pair tests: run A's counters plus the verdict. *)
  let pair (e : Odex_obcheck.Registry.entry) =
    let spec = H.spec env in
    let (o : Odex_obcheck.Pairtest.outcome), wall_ms =
      H.timed (fun () ->
          Odex_obcheck.Pairtest.check ~backend:spec ~pair:(Odex_obcheck.Registry.pair_mode e)
            ~multi_server:(Odex_obcheck.Registry.multi_server e) e.subject ~n_cells:e.n_cells
            ~b:e.b ~m:e.m)
    in
    H.release env;
    let a = o.run_a in
    H.record env ~name:("pair-" ^ e.subject.Odex_obcheck.Pairtest.name) ~n_cells:e.n_cells ~b:e.b
      ~m:e.m ~backend:o.backend ~wall_ms ~ok:o.oblivious
      {
        reads = a.reads;
        writes = a.writes;
        retries = a.retries;
        trace_length = a.trace_length;
        spans = a.span_count;
        bytes_moved = a.bytes_moved;
        batched_ios = a.batched_ios;
      }
  in
  (* The journal-on pass repeats only the pair tests: the audit ignores it. *)
  (if env.H.journal_pass then [] else List.map audit subjects)
  @ List.map pair Odex_obcheck.Registry.all

let e11_table rs =
  rows ~title:"E11 obliviousness audit: fixed coins, 5 contrasting inputs (960 cells)"
    [
      ("algorithm", suffix 6); col "I/Os per input class";
      ("verdict", fun (r : H.record) -> if r.ok then "OBLIVIOUS" else "LEAKS");
    ]
    (named "audit-" rs);
  summary ~title:"E11b pair tests (Odex_obcheck registry): run A's ledger, ok = oblivious"
    (named "pair-" rs)

(* ------------------------------------------------------------------ *)
(* E12 — Lemma 1: IBLT decode success vs load. *)

let e12 env =
  let n = 60 in
  let trials = 120 in
  let rate k load_pct =
    (* m = n / load *)
    let size = max k (n * 100 / load_pct) in
    H.measure env ~name:(Printf.sprintf "iblt-k%d-load%d" k load_pct) ~n_cells:n ~b:1 ~m:size
      (fun () ->
        let ok = ref 0 in
        for t = 1 to trials do
          let tbl = Odex_iblt.Iblt.create ~k ~size (Odex_crypto.Prf.key_of_int ((k * 10000) + t)) in
          for x = 0 to n - 1 do
            Odex_iblt.Iblt.insert tbl ~key:x ~value:x
          done;
          if snd (Odex_iblt.Iblt.list_entries tbl) then incr ok
        done;
        let success = Table.fprob (Float.of_int !ok /. Float.of_int trials) in
        let load = Printf.sprintf "%d%%" load_pct in
        (true, [ ("k", fint k); ("load n/m", load); ("success", success) ]))
  in
  let insert =
    H.measure env ~name:"iblt-insert-1k" ~n_cells:1000 ~b:1 ~m:8192 (fun () ->
        let t = Odex_iblt.Iblt.create ~size:8192 (Odex_crypto.Prf.key_of_int 5) in
        for x = 0 to 999 do
          Odex_iblt.Iblt.insert t ~key:x ~value:x
        done;
        (true, []))
  in
  List.concat_map (fun k -> List.map (rate k) [ 20; 40; 60; 80; 90; 95 ]) [ 3; 4; 5 ] @ [ insert ]

let e12_table rs =
  rows
    ~title:
      "E12 Lemma 1: IBLT listEntries success rate vs load n/m (sharp threshold near 81%%/77%%/70%% for k=3/4/5)"
    [ col "k"; col "load n/m"; ("m cells", fun r -> fint r.m); col "success" ]
    (named "iblt-k" rs);
  let insert = get rs "iblt-insert-1k" in
  Table.note "  %d inserts into an IBLT of %d cells: %.3f ms\n" insert.n_cells insert.m
    insert.wall_ms

(* ------------------------------------------------------------------ *)
(* E13 — Lemmas 22/23: Chernoff calculators vs Monte-Carlo. *)

let e13 env =
  let rng = rng_of 13 in
  let trials = 20000 in
  (* The tail frequency of a sum of [n] draws above [threshold]; the
     record's ok is "the bound dominates it". *)
  let tail ~lemma ~label ~n ~bound ~threshold draw =
    let dashed = String.map (fun c -> if c = ' ' then '-' else c) label in
    let name = Printf.sprintf "lemma%d-%s" lemma dashed in
    H.measure env ~name ~n_cells:n ~b:1 ~m:0 (fun () ->
        let hits = ref 0 in
        for _ = 1 to trials do
          let x = ref 0 in
          for _ = 1 to n do
            x := !x + draw ()
          done;
          if Float.of_int !x > threshold then incr hits
        done;
        let emp = Float.of_int !hits /. Float.of_int trials in
        ( bound >= emp,
          [ ("parameters", label); ("empirical", Table.fprob emp); ("bound", Table.fprob bound) ] ))
  in
  (* Lemma 22: binomial tail. Both lemmas draw from one stream, in order. *)
  let lemma22 =
    List.map
      (fun (n, p, gamma) ->
        let mu = Float.of_int n *. p in
        tail ~lemma:22 ~label:(Printf.sprintf "n=%d p=%.2f g=%.1f" n p gamma) ~n
          ~bound:(Bounds.binomial_tail_lemma22 ~gamma ~mu) ~threshold:(gamma *. mu) (fun () ->
            Bool.to_int (Odex_crypto.Rng.bernoulli rng p)))
      [ (200, 0.05, 6.0); (500, 0.02, 8.0); (1000, 0.01, 10.0) ]
  in
  (* Lemma 23: negative binomial tail. *)
  let lemma23 =
    List.map
      (fun (n, p, t) ->
        tail ~lemma:23 ~label:(Printf.sprintf "n=%d p=%.2f t=%.1f" n p t) ~n
          ~bound:(Bounds.negative_binomial_tail_lemma23 ~n ~p ~t)
          ~threshold:(((1. /. p) +. t) *. Float.of_int n)
          (fun () -> Odex_crypto.Rng.geometric rng p))
      [ (100, 0.5, 0.5); (100, 0.25, 2.0); (50, 0.1, 12.0) ]
  in
  lemma22 @ lemma23

let e13_table rs =
  let cols = [ col "parameters"; col "empirical"; col "bound"; ("bound>=emp", snd ok) ] in
  rows ~title:"E13 Lemma 22: analytic bound vs Monte-Carlo tail (bound must dominate)" cols
    (named "lemma22" rs);
  rows ~title:"E13b Lemma 23: negative-binomial tail bound vs Monte-Carlo" cols
    (named "lemma23" rs)

(* ------------------------------------------------------------------ *)
(* E14 — Lemma 18 / Cor. 19: shuffle-and-deal color balance. *)

let shuffle_colors = 8

let e14 env =
  let b = 4 in
  let n = 4096 in
  let colors = shuffle_colors in
  let window = 64 in
  let trials = 30 in
  let quota = (2 * Emodel.ceil_div window colors) + 1 in
  let color_of (it : Cell.item) = it.key * colors / n in
  [
    H.measure env ~name:"shuffle-deal" ~n_cells:n ~b ~m:window (fun () ->
      let max_count = ref 0 in
      let over_quota = ref 0 in
      for t = 1 to trials do
        let rng = rng_of (140 + t) in
        let _, a = Workloads.array env ~rng ~b ~n Workloads.Ascending in
        let mono = Multiway.consolidate ~colors ~color_of a in
        Shuffle_deal.shuffle ~rng mono;
        Array.iter
          (Array.iter (fun c ->
               if c > !max_count then max_count := c;
               if c > quota then incr over_quota))
          (Shuffle_deal.window_color_counts ~colors ~color_of ~window mono);
        H.release env
      done;
      let per_trial = Emodel.ceil_div ((n / b) + Multiway.tail_blocks colors) window in
      let windows = trials * colors * per_trial in
      ( true,
        [
          ("window", fint window); ("colors", fint colors); ("quota", fint quota);
          ("max count seen", fint !max_count);
          ("over-quota rate", Printf.sprintf "%d/%d" !over_quota windows);
        ] ));
  ]

let e14_table rs =
  rows ~title:"E14 Lemma 18: post-shuffle color counts per deal window (ascending input!)"
    (List.map col [ "window"; "colors"; "quota"; "max count seen"; "over-quota rate" ])
    rs;
  let r = get rs "shuffle-deal" in
  Table.note
    "  expected per window per color = %d; the shuffle keeps the worst window near it even\n\
    \  though the input was fully color-sorted.\n"
    (r.m / shuffle_colors)

(* ------------------------------------------------------------------ *)
(* E15 — DESIGN.md §12: bucket oblivious sort vs the deterministic
   engines on one uniform workload (seed 13), counted I/Os at a cache
   where every engine's geometry is feasible: m = 128 clears the
   default-Z bucket geometry's 4*zb + 2 = 114 blocks at B = 8. Columnsort's
   one-level geometry caps N at ~M^{3/2}; sizes past the cap are skipped
   for that engine (the cap is public geometry, not a sorting defect).
   `auto` is the default dispatch every lib caller sorts with: the
   cheapest fixed-circuit engine at each size. `--sorter NAME` narrows
   the sweep to one engine. *)

let e15 env =
  let b = 8 and m = 128 in
  (* Uncounted sortedness check: [Ext_array.items] peeks without
     touching the benched I/O counters or trace. *)
  let sorted a =
    let keys = List.map (fun (it : Cell.item) -> it.key) (Ext_array.items a) in
    keys = List.sort compare keys
  in
  let sort name n =
    if name = "columnsort" && Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m = None then None
    else begin
      let _, a = Workloads.array env ~rng:(rng_of 13) ~b ~n Workloads.Uniform in
      let eng = Option.get (Odex_sortnet.Ext_sort.find name) in
      (* Where no bucket plan fits m, the engine publicly runs the
         windowed-bitonic network instead. *)
      let fallback = name = "bucket" && Odex_sortnet.Bucket_sort.plan_for ~b ~m ~n_cells:n = None in
      Some
        (H.measure ~sorter:name env ~name:(Printf.sprintf "sort-%s-%d" name n) ~n_cells:n ~b ~m
           (fun () ->
             match Odex_sortnet.Ext_sort.run eng ~m a with
             | () -> (sorted a, if fallback then [ ("fallback", "*") ] else [])
             | exception Odex_sortnet.Bucket_sort.Overflow _ -> (false, [])))
    end
  in
  (* 1280 cells = 160 blocks is the smallest out-of-core point at m = 128:
     it brackets the engines' crossover from below. *)
  let sizes = [ 1280; 2048; 8192; 32768; 131072 ] in
  List.concat_map
    (fun name -> List.filter_map (sort name) sizes)
    (match env.H.set.sorter with
    | Some engine -> [ engine ]
    | None -> [ "batcher"; "columnsort"; "bucket"; "auto" ])

let e15_table rs =
  let engines = keys_of (fun (r : H.record) -> r.sorter) rs in
  let cell n e =
    match List.find_opt (fun (r : H.record) -> r.sorter = e && r.n_cells = n) rs with
    | None -> "n/a"
    | Some r -> fint (H.total_ios r) ^ Option.value (List.assoc_opt "fallback" r.extra) ~default:""
  in
  Table.print ~title:"E15 DESIGN.md 12: sorting-engine head-to-head, counted I/Os (B = 8, m = 128)"
    ~header:("N cells" :: engines)
    (List.map (fun n -> fint n :: List.map (cell n) engines)
       (keys_of (fun (r : H.record) -> r.n_cells) rs));
  Table.note
    "  (* = no bucket plan fits m: the engine ran its windowed-bitonic fallback)\n\
    \  bucket stays below batcher at every out-of-core N it plans; columnsort leads inside\n\
    \  its one-level capacity (~18.9k cells here) and is n/a beyond it. auto takes columnsort\n\
    \  where its scratch fits the windowed network's padding (not at a power-of-two N/B, which\n\
    \  the network sorts in place), else the network. EXPERIMENTS.md E15 records the crossovers.\n"

(* ------------------------------------------------------------------ *)
(* E16: seal/unseal throughput. A mem-backed store (so the device is not
   the bottleneck) streams runs through write_many/read_many while a
   private live telemetry sink times the Seal/Unseal ops Storage reports
   under the "cipher" pseudo backend. [seal_mb_per_s] is keystream
   throughput — plaintext bytes per second of in-cipher wall time — the
   number a keystream change actually moves; [mb_per_s] stays the
   end-to-end transfer rate. The store ignores --backend, --shards,
   --journal and --cipher, and the record says so. *)

let e16 env =
  let module Tel = Odex_telemetry.Telemetry in
  let b = 8 and run_blocks = 256 and rounds = 24 in
  let engine = Odex_crypto.Cipher.(engine_name Chacha20) in
  let tel = Tel.create () in
  let cipher = Odex_crypto.Cipher.key_of_int 0x5ea1 in
  let s = H.store ~spec:Storage.Mem ~telemetry:tel ~cipher env ~b in
  let base = Storage.alloc s run_blocks in
  let blks =
    Array.init run_blocks (fun i ->
        Array.init b (fun j -> Cell.item ~tag:j ~key:((i * b) + j) ~value:i ()))
  in
  let r =
    H.measure env ~name:("seal-roundtrip-" ^ engine) ~n_cells:(run_blocks * b) ~b ~m:2 (fun () ->
        for _ = 1 to rounds do
          Storage.write_many s base blks;
          ignore (Storage.read_many s base run_blocks)
        done;
        (true, []))
  in
  (* Plaintext bytes over in-cipher nanoseconds, seal and unseal pooled. *)
  let cipher_bytes, cipher_ns =
    List.fold_left
      (fun (bts, ns) (st : Tel.op_stat) ->
        match st.op with
        | (Seal | Unseal) when st.op_backend = "cipher" ->
            (bts + st.op_bytes, Int64.add ns (Tel.hist_total_ns st.latency))
        | _ -> (bts, ns))
      (0, 0L) (Tel.op_stats tel)
  in
  let seal_mb_per_s =
    if cipher_bytes = 0 || cipher_ns = 0L then 0.
    else Float.of_int cipher_bytes /. 1e6 /. (Int64.to_float cipher_ns /. 1e9)
  in
  [ { r with shards = 1; journal = false; cipher = engine; seal_mb_per_s } ]

let e16_table =
  rows ~title:"E16 seal/unseal round trips through the run path (mem store)"
    [
      ("record", fun (r : H.record) -> r.name); n_cells; ios;
      ("MB/s", fun r -> Table.ffloat (H.mb_per_s r));
      ("seal MB/s", fun r -> Table.ffloat r.seal_mb_per_s);
    ]

(* ------------------------------------------------------------------ *)
(* E17 — DESIGN.md §10: crash-recovery cost against the journal's
   auto-commit threshold. The pending tail is bounded by
   [auto_commit_bytes], so that knob caps the redo-replay of a
   committed-but-unapplied group. An unmarked group is staged in memory
   only, so the discard leg's reopen scans an empty tail. We fill the
   tail right up to the threshold, crash, and time the [replay:true]
   reopen. Both legs run on their own file store and journal, whatever
   --backend says. *)

let e17 env =
  let payload_size = 256 in
  let record_bytes = 32 + payload_size in
  (* Largest group that fits under the threshold without tripping an
     auto-commit mid-fill. *)
  let group_of acb = acb / record_bytes in
  let fill j n =
    let b = Journal.backend j in
    let buf = Odex_crypto.Bigbuf.create payload_size in
    b.ensure n;
    for i = 0 to n - 1 do
      for k = 0 to payload_size - 1 do
        Odex_crypto.Bigbuf.set buf k (Char.chr ((i + k) land 0xFF))
      done;
      b.write_run ~addr:i ~count:1 ~payload:payload_size ~buf ~off:0
    done;
    Journal.pending_bytes j + Journal.header_bytes
  in
  (* Fill a fresh journal to the threshold, crash it ([commit] says how),
     and time the reopen; ok = it replayed [expect] records. *)
  let leg ~name ~commit ~expect acb =
    let sp = Filename.temp_file "odex_e17" ".store" in
    let jp = Filename.temp_file "odex_e17" ".journal" in
    let remove path = try Sys.remove path with Sys_error _ -> () in
    Fun.protect
      ~finally:(fun () -> remove sp; remove jp)
      (fun () ->
        let file () = Backend.file ~path:sp ~payload_size in
        let inner = if commit then Backend.crash_after ~ops:0 (file ()) else file () in
        let j =
          Journal.create ~auto_commit_bytes:acb ~path:jp ~payload_size ~durable:false
            ~replay:false inner
        in
        let tail_bytes = fill j (group_of acb) in
        if commit then begin
          match Journal.commit j with
          | () -> failwith "E17: expected the simulated crash"
          | exception Backend.Crashed -> ()
        end;
        Journal.abandon j;
        let inner = file () in
        let reopen () = Journal.create ~path:jp ~payload_size ~durable:false ~replay:true inner in
        let j, wall_ms = H.timed reopen in
        let replayed = List.length (Journal.replay_log j) in
        (Journal.backend j).close ();
        H.unflagged ~journal:true
          (H.record env ~name ~n_cells:(group_of acb) ~b:1 ~m:0 ~backend:"journaled" ~wall_ms
             ~ok:(replayed = expect acb)
             ~extra:
               [
                 ("auto-commit", Printf.sprintf "%d KiB" (acb / 1024));
                 ("tail bytes", fint tail_bytes); ("replayed", fint replayed);
               ]
             H.no_io))
  in
  List.concat_map
    (fun acb ->
      [
        (* Replay: the commit marker lands, then the crash takes out the
           very first in-place apply — reopening must redo every record. *)
        leg ~name:"replay" ~commit:true ~expect:group_of acb;
        (* Discard: the same tail but no marker — it never left memory,
           so the reopen finds an empty tail; nothing is re-applied. *)
        leg ~name:"discard" ~commit:false ~expect:(fun _ -> 0) acb;
      ])
    [ 65536; 262144; 1048576; 4194304 ]

let e17_table rs =
  let discard_ms (r : H.record) = Table.ffloat (at rs r.n_cells "discard").wall_ms in
  rows ~title:"E17 DESIGN.md 10: recovery time vs journal tail size (payload 256 B, file store)"
    [
      col "auto-commit"; col "tail bytes"; col "replayed";
      ("replay ms", fun r -> Table.ffloat r.wall_ms); ("discard ms", discard_ms);
    ]
    (named "replay" rs);
  Table.note
    "  replay scales linearly with the tail, which auto_commit_bytes caps; the discard\n\
    \  leg scans an empty tail (an uncommitted group never reaches the disk).\n\
    \  The 4 MiB default keeps worst-case replay under ~100 ms on a local\n\
    \  file store. Shrink it (odx --auto-commit-bytes) only to tighten the rollback\n\
    \  window on slow media, at the price of more fsync'd commit markers.\n"

(* ------------------------------------------------------------------ *)
(* E18: the multi-server model exploit, head to head. The same
   compaction workload at equal (N, B, M), measured twice: the classical
   single-server tight compaction on the selected backend, then the
   two-server protocol on a K-stripe of it (K from `--servers`, default
   2). The protocol's whole point is that splitting the schedule across
   non-colluding servers buys strictly fewer I/Os — 3(N/B) + 3cap
   against the butterfly's 2(N/B)(1 + phases) — so the second record
   must show [total_ios] strictly below the first. *)

let e18 env =
  let b = 8 and m = 64 and n_blocks = 1024 in
  let n_cells = n_blocks * b in
  (* One third occupied against a half-capacity target: the butterfly's
     cost is fixed by shape (2(N/B)(1 + phases), capacity-blind), while
     the two-server schedule scales with the target — 3(N/B) + 3cap. At
     m = 64 the butterfly needs 2 phases, so the margin is 6144 vs 4608. *)
  let capacity = n_blocks / 2 in
  let cells =
    Array.init n_cells (fun idx ->
        if idx / b mod 3 = 0 then Cell.item ~key:idx ~value:idx () else Cell.empty)
  in
  let leg ?shards ?servers ~name compact =
    let s = H.store ~spec:(H.spec ?shards env) env ~b in
    let a = Ext_array.of_cells s ~block_size:b cells in
    H.measure ?servers env ~name ~n_cells ~b ~m (fun () -> (compact a, []))
  in
  let single =
    leg ~name:"tight-compaction-1server" (fun a ->
        (Compaction.tight ~m ~capacity_blocks:capacity a).Compaction.ok)
  in
  let k = env.H.set.servers in
  let multi =
    leg ~shards:k ~servers:k ~name:(Printf.sprintf "tight-compaction-%dserver" k) (fun a ->
        (Twoserver_compaction.run ~m ~capacity_blocks:capacity a).Twoserver_compaction.ok)
  in
  if H.total_ios multi >= H.total_ios single then
    Printf.eprintf
      "warning: E18 two-server compaction (%d I/Os) not below single-server (%d I/Os)\n"
      (H.total_ios multi) (H.total_ios single);
  [ single; multi ]

let all =
  let e18_table =
    summary ~title:"E18 multi-server compaction vs single-server tight compaction (equal N, B, M)"
  in
  List.map
    (fun (id, run, table) -> { id; run; table })
    [
      ("E1", e1, e1_table); ("E2", e2, e2_table); ("E3", e3, e3_table); ("E4", e4, e4_table);
      ("E5", e5, e5_table); ("E6", e6, e6_table); ("E7", e7, e7_table); ("E8", e8, e8_table);
      ("E9", e9, e9_table); ("E10", e10, e10_table); ("E11", e11, e11_table);
      ("E12", e12, e12_table); ("E13", e13, e13_table); ("E14", e14, e14_table);
      ("E15", e15, e15_table); ("E16", e16, e16_table); ("E17", e17, e17_table);
      ("E18", e18, e18_table);
    ]

(* Experiments whose stores ignore --journal: no store (E12, E13), a fixed
   in-memory store (E16), their own journal (E17). A journal-on pass
   would only repeat their records, so it skips them. *)
let journal_blind = [ "E12"; "E13"; "E16"; "E17" ]
