(* One function per experiment of the DESIGN.md index (E1–E17; E16 lives in json_bench.ml). Each
   prints the table(s) EXPERIMENTS.md records. *)

open Odex_extmem
open Odex

let rng_of seed = Odex_crypto.Rng.create ~seed

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: the butterfly compaction network. *)

let e1 () =
  (* The exact instance of the paper's Figure 1. *)
  let s = Storage.create ~trace_mode:Trace.Off ~block_size:2 () in
  let a = Ext_array.create s ~blocks:16 in
  List.iter
    (fun p ->
      Storage.unchecked_poke s (Ext_array.addr a p)
        [| Cell.item ~key:p ~value:p (); Cell.item ~key:p ~value:1 () |])
    [ 2; 4; 5; 9; 12; 13; 15 ];
  let levels = Butterfly.naive_levels a in
  let rows =
    List.mapi
      (fun i row ->
        Table.fint i
        :: List.map (fun d -> if d < 0 then "." else string_of_int d) row)
      levels
  in
  Table.print ~title:"E1 Figure 1: butterfly network, remaining-distance labels per level"
    ~header:("level" :: List.init 16 (fun i -> Printf.sprintf "c%d" i))
    rows;
  Table.note
    "  occupied-label rows must read 2 3 3 6 8 8 9 / 2 2 2 6 8 8 8 / 0 0 0 4 8 8 8 /\n\
    \  0 0 0 0 8 8 8 / 0 0 0 0 0 0 0  (the figure's numbers)\n";
  (* Lemma 5 on random instances: the router raises on any collision. *)
  let rng = rng_of 11 in
  let trials = 200 in
  let collisions = ref 0 in
  for _ = 1 to trials do
    let n = 2 + Odex_crypto.Rng.int rng 120 in
    let occ = List.filter (fun _ -> Odex_crypto.Rng.bool rng) (List.init n (fun i -> i)) in
    let _, arr = Workloads.consolidated_blocks ~b:2 ~n ~occupied:0 () in
    List.iteri
      (fun j p ->
        Storage.unchecked_poke (Ext_array.storage arr) (Ext_array.addr arr p)
          [| Cell.item ~key:j ~value:j (); Cell.empty |])
      occ;
    try ignore (Butterfly.compact ~m:5 arr)
    with Butterfly.Collision _ -> incr collisions
  done;
  Table.note "  Lemma 5 check: %d collisions in %d random routings (must be 0)\n" !collisions
    trials

(* ------------------------------------------------------------------ *)
(* E2 — Lemma 3: consolidation costs exactly 2·(N/B) I/Os, flat in R. *)

let e2 () =
  let b = 8 in
  let rows =
    List.concat_map
      (fun n_cells ->
        List.map
          (fun density ->
            let n_blocks = Emodel.ceil_div n_cells b in
            let rng = rng_of 2 in
            let s, a = Workloads.array ~rng ~b ~n:n_cells Workloads.Uniform in
            let pred (it : Cell.item) = it.key mod 100 < density in
            ignore (Consolidation.run ~distinguished:pred ~into:None a);
            [
              Table.fint n_cells;
              Printf.sprintf "%d%%" density;
              Table.fint (Workloads.io s);
              Table.fint (2 * n_blocks);
            ])
          [ 1; 25; 50; 100 ])
      [ 4096; 16384; 65536 ]
  in
  Table.print ~title:"E2 Lemma 3: consolidation I/Os (must equal 2*ceil(N/B), flat in R)"
    ~header:[ "N cells"; "R/N"; "I/Os"; "2*N/B" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 4: sparse IBLT compaction. *)

let e3 () =
  let b = 8 in
  let n = 512 in
  let rows =
    List.map
      (fun r ->
        let s, a = Workloads.consolidated_blocks ~b ~n ~occupied:r () in
        let out =
          Sparse_compaction.run ~m:4096 ~key:(Odex_crypto.Prf.key_of_int r) ~capacity:(r + 2) a
        in
        [
          Table.fint n;
          Table.fint r;
          Table.fint (Workloads.io s);
          Table.fbool out.Sparse_compaction.complete;
        ])
      [ 4; 8; 16; 32; 64 ]
  in
  Table.print
    ~title:"E3 Theorem 4: IBLT sparse compaction (I/Os linear in n, small slope in r)"
    ~header:[ "n blocks"; "r occupied"; "I/Os"; "complete" ]
    rows;
  (* Decode success vs table multiplier delta (Lemma 1's threshold). *)
  let trials = 60 in
  let rows =
    List.map
      (fun mult ->
        let fails = ref 0 in
        for t = 1 to trials do
          let _, a = Workloads.consolidated_blocks ~b ~n:256 ~occupied:24 () in
          let out =
            Sparse_compaction.run ~multiplier:mult ~m:8192
              ~key:(Odex_crypto.Prf.key_of_int ((mult * 1000) + t))
              ~capacity:26 a
          in
          if not out.Sparse_compaction.complete then incr fails
        done;
        [
          Table.fint mult;
          Printf.sprintf "%d/%d" (trials - !fails) trials;
        ])
      [ 1; 2; 3; 4 ]
  in
  Table.print ~title:"E3b Lemma 1 threshold: decode success vs table multiplier (k = 3)"
    ~header:[ "multiplier"; "decodes" ] rows

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 6: butterfly compaction, the log m speedup. *)

let e4 () =
  let b = 4 in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun m ->
            let s, a = Workloads.consolidated_blocks ~b ~n ~occupied:(n / 3) () in
            ignore (Butterfly.compact ~m a);
            let nf = Float.of_int n in
            let naive = nf *. Float.of_int (Emodel.ilog2_ceil n) in
            [
              Table.fint n;
              Table.fint m;
              Table.fint (Workloads.io s);
              Table.fratio (naive /. Float.of_int (Workloads.io s));
            ])
          [ 3; 16; 64; 256 ])
      [ 1024; 4096; 16384 ]
  in
  Table.print
    ~title:
      "E4 Theorem 6: butterfly compaction I/Os; speedup vs n*log2(n) grows with log m"
    ~header:[ "n blocks"; "m"; "I/Os"; "n*lg n / I/Os" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 8: loose compaction is linear. *)

let e5 () =
  let b = 4 in
  let rows =
    List.map
      (fun n ->
        let r = n / 8 in
        let s, a = Workloads.consolidated_blocks ~b ~n ~occupied:r () in
        let rng = rng_of 5 in
        let out = Loose_compaction.run ~m:64 ~rng ~capacity:(n / 4) a in
        [
          Table.fint n;
          Table.fint r;
          Table.fint (Workloads.io s);
          Table.ffloat (Float.of_int (Workloads.io s) /. Float.of_int n);
          Table.fbool out.Loose_compaction.ok;
        ])
      [ 512; 1024; 2048; 4096; 8192 ]
  in
  Table.print
    ~title:"E5 Theorem 8: loose compaction (I/Os per block must stay ~constant)"
    ~header:[ "n blocks"; "r"; "I/Os"; "I/Os per block"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 9: log* compaction. *)

let e6 () =
  let b = 2 in
  let run ?sparse_threshold n =
    let r = n / 8 in
    let s, a = Workloads.consolidated_blocks ~b ~n ~occupied:r () in
    let rng = rng_of 6 in
    let out = Logstar_compaction.run ?sparse_threshold ~m:32 ~rng ~capacity:(n / 4) a in
    (s, out, r)
  in
  let row ?sparse_threshold n =
    let s, out, r = run ?sparse_threshold n in
    [
      Table.fint n;
      Table.fint r;
      (match sparse_threshold with Some _ -> "forced" | None -> "default");
      Table.fint (Workloads.io s);
      Table.ffloat (Float.of_int (Workloads.io s) /. Float.of_int n);
      Table.fint out.Logstar_compaction.phases;
      Table.fint (Emodel.log_star n);
      Table.fbool out.Logstar_compaction.ok;
    ]
  in
  let rows =
    List.map (fun n -> row n) [ 512; 1024; 2048; 4096 ]
    @ List.map (fun n -> row ~sparse_threshold:0 n) [ 2048; 4096 ]
  in
  Table.print
    ~title:
      "E6 Theorem 9: log* compaction. The tower constants put every feasible n in the\n\
      \   zero-phase regime (the paper's asymptotics start at log n > 32); 'forced' rows\n\
      \   drive the phase machinery with the threshold overridden to 0."
    ~header:[ "n blocks"; "r"; "mode"; "I/Os"; "I/Os per block"; "phases"; "log* n"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 — Theorems 12/13: selection. *)

(* A deliberately NON-oblivious baseline: external-memory quickselect.
   Linear I/Os, but the trace depends on the data. *)
let leaky_quickselect ~rng s a k =
  let b = Ext_array.block_size a in
  let rec go (arr : Ext_array.t) count k =
    if count * 2 <= Ext_array.cells arr || Ext_array.blocks arr <= 4 then begin
      (* small enough: read everything, pick privately *)
      let items = ref [] in
      for i = 0 to Ext_array.blocks arr - 1 do
        Array.iter
          (fun c -> match c with Cell.Empty -> () | Cell.Item it -> items := it :: !items)
          (Ext_array.read_block arr i)
      done;
      let sorted = List.sort (fun (x : Cell.item) y -> compare (x.key, x.tag) (y.key, y.tag)) !items in
      List.nth sorted (k - 1)
    end
    else begin
      (* pick a pivot, partition into two fresh arrays *)
      let pos = Odex_crypto.Rng.int rng count in
      let pivot = ref None in
      let seen = ref 0 in
      for i = 0 to Ext_array.blocks arr - 1 do
        Array.iter
          (fun c ->
            match c with
            | Cell.Empty -> ()
            | Cell.Item it ->
                if !seen = pos then pivot := Some it;
                incr seen)
          (Ext_array.read_block arr i)
      done;
      let p = Option.get !pivot in
      let lo = Ext_array.create s ~blocks:(Ext_array.blocks arr) in
      let hi = Ext_array.create s ~blocks:(Ext_array.blocks arr) in
      let nlo = ref 0 and nhi = ref 0 in
      let lo_blk = ref (Block.make b) and hi_blk = ref (Block.make b) in
      let lo_fill = ref 0 and hi_fill = ref 0 in
      let lo_cursor = ref 0 and hi_cursor = ref 0 in
      let flush which =
        match which with
        | `Lo ->
            Ext_array.write_block lo !lo_cursor !lo_blk;
            incr lo_cursor;
            lo_blk := Block.make b;
            lo_fill := 0
        | `Hi ->
            Ext_array.write_block hi !hi_cursor !hi_blk;
            incr hi_cursor;
            hi_blk := Block.make b;
            hi_fill := 0
      in
      for i = 0 to Ext_array.blocks arr - 1 do
        Array.iter
          (fun c ->
            match c with
            | Cell.Empty -> ()
            | Cell.Item it ->
                if compare (it.key, it.tag) (p.key, p.tag) <= 0 then begin
                  !lo_blk.(!lo_fill) <- Cell.Item it;
                  incr lo_fill;
                  incr nlo;
                  if !lo_fill = b then flush `Lo
                end
                else begin
                  !hi_blk.(!hi_fill) <- Cell.Item it;
                  incr hi_fill;
                  incr nhi;
                  if !hi_fill = b then flush `Hi
                end)
          (Ext_array.read_block arr i)
      done;
      if !lo_fill > 0 then flush `Lo;
      if !hi_fill > 0 then flush `Hi;
      if k <= !nlo then go (Ext_array.sub lo ~off:0 ~len:(max 1 !lo_cursor)) !nlo k
      else go (Ext_array.sub hi ~off:0 ~len:(max 1 !hi_cursor)) !nhi (k - !nlo)
    end
  in
  let count =
    let c = ref 0 in
    for i = 0 to Ext_array.blocks a - 1 do
      c := !c + Block.count_items (Ext_array.read_block a i)
    done;
    !c
  in
  go a count k

let e7 () =
  let b = 8 in
  let m = 64 in
  let rows =
    List.map
      (fun n ->
        let k = n / 2 in
        let io_select ?exponent delta =
          let rng = rng_of 7 in
          let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
          let r =
            match delta with
            | None -> Selection.select ?exponent ~m ~rng ~k a
            | Some d -> Selection.select_with_delta ?exponent ~m ~rng ~delta:d ~k a
          in
          (Workloads.io s, r.Selection.ok)
        in
        let io_sort_baseline =
          let rng = rng_of 7 in
          let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
          Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m a;
          for i = 0 to Ext_array.blocks a - 1 do
            ignore (Ext_array.read_block a i)
          done;
          Workloads.io s
        in
        let io_leaky =
          let rng = rng_of 7 in
          let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
          ignore (leaky_quickselect ~rng s a k);
          Workloads.io s
        in
        let paper_io, ok1 = io_select None in
        let quarter_io, ok2 =
          io_select ~exponent:0.25 (Some (fun s0 -> 3. *. Float.sqrt s0))
        in
        [
          Table.fint n;
          Table.fint paper_io ^ (if ok1 then "" else "*");
          Table.fint quarter_io ^ (if ok2 then "" else "*");
          Table.fint io_sort_baseline;
          Table.fint io_leaky;
          Table.fratio (Float.of_int io_sort_baseline /. Float.of_int quarter_io);
        ])
      [ 4096; 16384; 65536; 262144 ]
  in
  Table.print
    ~title:
      "E7 Theorems 12/13: selection I/Os vs oblivious sort-then-scan and leaky quickselect"
    ~header:
      [ "N cells"; "select e=1/2"; "select e=1/4"; "sort+scan"; "leaky qsel"; "win" ]
    rows;
  Table.note "  (* = a randomized bound tripped; the trace is unchanged)\n"

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 17: quantiles. *)

let e8 () =
  let b = 8 in
  (* m = 64 exercises the paper's easy case ((M/B)^4 >= N/B: sort a
     copy); m = 8 with N/B > 4096 forces the sampling path. *)
  let rows =
    List.concat_map
      (fun (n, m) ->
        List.map
          (fun q ->
            let rng = rng_of 8 in
            let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
            let r = Quantiles.run ~m ~rng ~q a in
            [
              Table.fint n;
              Table.fint m;
              (if m * m * m * m >= n / b then "sort" else "sample");
              Table.fint q;
              Table.fint (Workloads.io s);
              Table.ffloat (Float.of_int (Workloads.io s) /. Float.of_int (n / b));
              Table.fbool r.Quantiles.ok;
            ])
          [ 2; 4; 8 ])
      [ (8192, 64); (32768, 64); (65536, 8) ]
  in
  Table.print
    ~title:"E8 Theorem 17: quantiles (I/Os per block roughly flat in N and q)"
    ~header:[ "N cells"; "m"; "path"; "q"; "I/Os"; "I/Os per block"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 21: sorting, the headline. *)

let e9 () =
  let b = 8 in
  let run_sorter name f n m =
    let rng = rng_of 9 in
    let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
    f ~rng ~m a;
    (name, Workloads.io s)
  in
  let variants =
    [
      ("thm21", fun ~rng ~m a -> ignore (Sort.run ~sweep:false ~m ~rng a));
      ( "thm21-paper",
        fun ~rng ~m a -> ignore (Sort.run ~sweep:false ~bucket_engine:`Loose ~m ~rng a) );
      ("thm21+sweep", fun ~rng ~m a -> ignore (Sort.run ~sweep:true ~m ~rng a));
      ( "bitonic",
        fun ~rng:_ ~m a -> Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic ~m a );
      ( "bitonic-win",
        fun ~rng:_ ~m a -> Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m a
      );
    ]
  in
  let columnsort_io n m =
    match Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m with
    | None -> "n/a"
    | Some _ ->
        let rng = rng_of 9 in
        let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
        Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.columnsort ~m a;
        Table.fint (Workloads.io s)
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun m ->
            let ios = List.map (fun (name, f) -> run_sorter name f n m) variants in
            let n_blocks = n / b in
            let bound = Emodel.sort_io_bound ~n_blocks ~m_blocks:m in
            let get name = List.assoc name ios in
            Table.fint n :: Table.fint m
            :: List.map (fun (_, io) -> Table.fint io) ios
            @ [
                columnsort_io n m;
                Table.fint (Float.to_int bound);
                Table.fratio
                  (Float.of_int (get "bitonic-win") /. Float.of_int (get "thm21"));
              ])
          [ 64; 256; 1024 ])
      [ 8192; 32768; 131072 ]
  in
  Table.print
    ~title:
      "E9 Theorem 21: sorting I/Os vs deterministic baselines (win = bitonic-win / thm21)"
    ~header:
      [
        "N cells"; "m"; "thm21"; "thm21-paper"; "thm21+sweep"; "bitonic"; "bitonic-win";
        "columnsort"; "AV bound"; "win";
      ]
    rows;
  (* Input-shape independence: identical I/O counts across shapes. *)
  let n = 16384 and m = 64 in
  let rows =
    List.map
      (fun shape ->
        let rng = rng_of 9 in
        let s = Storage.create ~trace_mode:Trace.Digest ~block_size:b () in
        let a =
          Ext_array.of_cells s ~block_size:b
            (Workloads.cells_of_keys (Workloads.keys ~rng ~n shape))
        in
        let rng = rng_of 99 in
        ignore (Sort.run ~sweep:false ~m ~rng a);
        [
          Workloads.shape_name shape;
          Table.fint (Workloads.io s);
          Printf.sprintf "%016Lx" (Trace.digest (Storage.trace s));
        ])
      Workloads.[ Uniform; Ascending; Descending; All_equal; Few_distinct ]
  in
  Table.print
    ~title:"E9b shape-independence: same coins, different data => identical traces"
    ~header:[ "input shape"; "I/Os"; "trace digest" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 — the ORAM corollary: better sorting => cheaper ORAM epochs. *)

let e10 () =
  let b = 4 in
  let per_access n sorter =
    let s = Storage.create ~trace_mode:Trace.Off ~block_size:b () in
    let rng = rng_of 10 in
    let t = Odex_oram.Sqrt_oram.init ~sorter ~m:64 ~rng s ~values:(Array.make n 0) in
    let ops = ref 0 in
    while Odex_oram.Sqrt_oram.epochs t < 2 do
      ignore (Odex_oram.Sqrt_oram.read t (!ops * 13 mod n));
      incr ops
    done;
    Float.of_int (Workloads.io s) /. Float.of_int !ops
  in
  let per_access_linear n =
    let s = Storage.create ~trace_mode:Trace.Off ~block_size:b () in
    let t = Odex_oram.Linear_oram.init s ~values:(Array.make n 0) in
    for i = 1 to 32 do
      ignore (Odex_oram.Linear_oram.read t (i mod n))
    done;
    Float.of_int (Workloads.io s) /. 32.
  in
  (* Hierarchical ORAM: amortized over one full bottom-rebuild cycle. *)
  let per_access_hier n sorter =
    let s = Storage.create ~trace_mode:Trace.Off ~block_size:b () in
    let rng = rng_of 10 in
    let t = Odex_oram.Hierarchical_oram.init ~sorter ~m:64 ~rng s ~values:(Array.make n 0) in
    let z = Odex_oram.Hierarchical_oram.bucket_size t in
    let cycle = z * (1 lsl (Odex_oram.Hierarchical_oram.levels t - 1)) in
    let ops = min 4096 cycle in
    for i = 1 to ops do
      ignore (Odex_oram.Hierarchical_oram.read t (i * 13 mod n))
    done;
    Float.of_int (Workloads.io s) /. Float.of_int ops
  in
  let rows =
    List.map
      (fun n ->
        let lin = per_access_linear n in
        let naive = per_access n Odex_sortnet.Ext_sort.bitonic in
        let win = per_access n Odex_sortnet.Ext_sort.bitonic_windowed in
        let hnaive = per_access_hier n Odex_sortnet.Ext_sort.bitonic in
        let hwin = per_access_hier n Odex_sortnet.Ext_sort.bitonic_windowed in
        [
          Table.fint n;
          Table.ffloat lin;
          Table.ffloat naive;
          Table.ffloat win;
          Table.fratio (naive /. win);
          Table.ffloat hnaive;
          Table.ffloat hwin;
          Table.fratio (hnaive /. hwin);
        ])
      [ 1024; 4096; 16384 ]
  in
  Table.print
    ~title:
      "E10 ORAM corollary: amortized I/Os per access by reshuffle/rebuild sorter\n\
      \   (the naive/windowed ratios are the paper's log-factor ORAM improvement)"
    ~header:
      [
        "n words"; "linear"; "sqrt naive"; "sqrt win"; "sqrt ratio"; "hier naive"; "hier win";
        "hier ratio";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 — the obliviousness audit across all algorithms. *)

let e11 () =
  let rng = rng_of 11 in
  let inputs = Oblivious.input_classes ~rng ~n:960 in
  let subjects =
    [
      { Oblivious.name = "consolidation"; run = (fun _ _ a -> ignore (Consolidation.run ~into:None a)) };
      { Oblivious.name = "butterfly"; run = (fun _ _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Butterfly.compact ~m:8 d)) };
      { Oblivious.name = "sparse-compaction"; run = (fun _ _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Sparse_compaction.run ~m:4096 ~key:(Odex_crypto.Prf.key_of_int 1)
                      ~capacity:(Ext_array.blocks d) d)) };
      { Oblivious.name = "loose-compaction"; run = (fun rng _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Loose_compaction.run ~m:64 ~rng ~capacity:(Ext_array.blocks d / 4) d)) };
      { Oblivious.name = "logstar-compaction"; run = (fun rng _ a ->
            let d = Consolidation.run ~into:None a in
            ignore (Logstar_compaction.run ~m:64 ~rng ~capacity:(Ext_array.blocks d / 4) d)) };
      { Oblivious.name = "selection"; run = (fun rng _ a ->
            ignore (Selection.select ~m:16 ~rng ~k:100 a)) };
      { Oblivious.name = "quantiles"; run = (fun rng _ a ->
            ignore (Quantiles.run ~m:16 ~rng ~q:3 a)) };
      { Oblivious.name = "sort-thm21"; run = (fun rng _ a -> ignore (Sort.run ~m:16 ~rng a)) };
      { Oblivious.name = "sort-bitonic"; run = (fun _ _ a ->
            Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:16 a) };
      (* Leaky baselines that must FAIL the audit. *)
      { Oblivious.name = "leaky-quickselect (baseline)"; run = (fun rng s a ->
            ignore (leaky_quickselect ~rng s a 100)) };
    ]
  in
  let rows =
    List.map
      (fun subject ->
        let report = Oblivious.audit ~b:4 ~inputs subject in
        let lengths =
          List.map (fun o -> string_of_int o.Oblivious.length) report.Oblivious.observations
        in
        [
          report.Oblivious.subject;
          String.concat "/" lengths;
          (if report.Oblivious.oblivious then "OBLIVIOUS" else "LEAKS");
        ])
      subjects
  in
  Table.print
    ~title:"E11 obliviousness audit: fixed coins, 5 contrasting inputs (960 cells)"
    ~header:[ "algorithm"; "I/Os per input class"; "verdict" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — Lemma 1: IBLT decode success vs load. *)

let e12 () =
  let n = 60 in
  let trials = 120 in
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun load_pct ->
            (* m = n / load *)
            let size = max k (n * 100 / load_pct) in
            let ok = ref 0 in
            for t = 1 to trials do
              let tbl =
                Odex_iblt.Iblt.create ~k ~size (Odex_crypto.Prf.key_of_int ((k * 10000) + t))
              in
              for x = 0 to n - 1 do
                Odex_iblt.Iblt.insert tbl ~key:x ~value:x
              done;
              let _, complete = Odex_iblt.Iblt.list_entries tbl in
              if complete then incr ok
            done;
            [
              Table.fint k;
              Printf.sprintf "%d%%" load_pct;
              Table.fint size;
              Table.fprob (Float.of_int !ok /. Float.of_int trials);
            ])
          [ 20; 40; 60; 80; 90; 95 ])
      [ 3; 4; 5 ]
  in
  Table.print
    ~title:
      "E12 Lemma 1: IBLT listEntries success rate vs load n/m (sharp threshold near 81%%/77%%/70%% for k=3/4/5)"
    ~header:[ "k"; "load n/m"; "m cells"; "success" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13 — Lemmas 22/23: Chernoff calculators vs Monte-Carlo. *)

let e13 () =
  let rng = rng_of 13 in
  let trials = 20000 in
  (* Lemma 22: binomial tail. *)
  let rows22 =
    List.map
      (fun (n, p, gamma) ->
        let mu = Float.of_int n *. p in
        let bound = Bounds.binomial_tail_lemma22 ~gamma ~mu in
        let hits = ref 0 in
        for _ = 1 to trials do
          let x = ref 0 in
          for _ = 1 to n do
            if Odex_crypto.Rng.bernoulli rng p then incr x
          done;
          if Float.of_int !x > gamma *. mu then incr hits
        done;
        let emp = Float.of_int !hits /. Float.of_int trials in
        [
          Printf.sprintf "n=%d p=%.2f g=%.1f" n p gamma;
          Table.fprob emp;
          Table.fprob bound;
          Table.fbool (bound >= emp);
        ])
      [ (200, 0.05, 6.0); (500, 0.02, 8.0); (1000, 0.01, 10.0) ]
  in
  Table.print ~title:"E13 Lemma 22: analytic bound vs Monte-Carlo tail (bound must dominate)"
    ~header:[ "parameters"; "empirical"; "bound"; "bound>=emp" ]
    rows22;
  (* Lemma 23: negative binomial tail. *)
  let rows23 =
    List.map
      (fun (n, p, t) ->
        let bound = Bounds.negative_binomial_tail_lemma23 ~n ~p ~t in
        let alpha = 1. /. p in
        let hits = ref 0 in
        for _ = 1 to trials do
          let x = ref 0 in
          for _ = 1 to n do
            x := !x + Odex_crypto.Rng.geometric rng p
          done;
          if Float.of_int !x > (alpha +. t) *. Float.of_int n then incr hits
        done;
        let emp = Float.of_int !hits /. Float.of_int trials in
        [
          Printf.sprintf "n=%d p=%.2f t=%.1f" n p t;
          Table.fprob emp;
          Table.fprob bound;
          Table.fbool (bound >= emp);
        ])
      [ (100, 0.5, 0.5); (100, 0.25, 2.0); (50, 0.1, 12.0) ]
  in
  Table.print ~title:"E13b Lemma 23: negative-binomial tail bound vs Monte-Carlo"
    ~header:[ "parameters"; "empirical"; "bound"; "bound>=emp" ]
    rows23

(* ------------------------------------------------------------------ *)
(* E14 — Lemma 18 / Cor. 19: shuffle-and-deal color balance. *)

let e14 () =
  let b = 4 in
  let n = 4096 in
  let colors = 8 in
  let window = 64 in
  let trials = 30 in
  let max_count = ref 0 in
  let over_quota = ref 0 in
  let quota = (2 * Emodel.ceil_div window colors) + 1 in
  for t = 1 to trials do
    let rng = rng_of (140 + t) in
    let _, a = Workloads.array ~rng ~b ~n Workloads.Ascending in
    let color_of (it : Cell.item) = it.key * colors / n in
    let mono = Multiway.consolidate ~colors ~color_of a in
    Shuffle_deal.shuffle ~rng mono;
    let counts = Shuffle_deal.window_color_counts ~colors ~color_of ~window mono in
    Array.iter
      (fun per_window ->
        Array.iter
          (fun c ->
            if c > !max_count then max_count := c;
            if c > quota then incr over_quota)
          per_window)
      counts
  done;
  let windows_per_trial = Emodel.ceil_div ((n / b) + Multiway.tail_blocks colors) window in
  let total_cells = trials * windows_per_trial * colors in
  Table.print
    ~title:"E14 Lemma 18: post-shuffle color counts per deal window (ascending input!)"
    ~header:[ "window"; "colors"; "quota"; "max count seen"; "over-quota rate" ]
    [
      [
        Table.fint window;
        Table.fint colors;
        Table.fint quota;
        Table.fint !max_count;
        Printf.sprintf "%d/%d" !over_quota total_cells;
      ];
    ];
  Table.note
    "  expected per window per color = %d; the shuffle keeps the worst window near it even\n\
    \  though the input was fully color-sorted.\n"
    (window / colors)

(* ------------------------------------------------------------------ *)
(* E15 — DESIGN.md §12: bucket oblivious sort vs the deterministic
   engines, counted I/Os at a cache where every engine's geometry is
   feasible. Columnsort rows past its one-level capacity print n/a.
   The JSON twin (`--json E15 [--sorter NAME]`) carries the same sweep
   into BENCH_core.json for the CI sorter matrix. *)

let e15 () =
  let b = 8 and m = 128 in
  let engine_io name n =
    match name with
    | "columnsort" when Odex_sortnet.Columnsort.plan ~n_cells:n ~b ~m = None -> "n/a"
    | _ ->
        let rng = rng_of 15 in
        let s, a = Workloads.array ~rng ~b ~n Workloads.Uniform in
        let eng = Option.get (Odex_sortnet.Ext_sort.find name) in
        Odex_sortnet.Ext_sort.run eng ~m a;
        Table.fint (Workloads.io s)
  in
  let engines = [ "batcher"; "columnsort"; "bucket" ] in
  let rows =
    List.map
      (fun n -> Table.fint n :: List.map (fun name -> engine_io name n) engines)
      [ 1280; 2048; 8192; 32768 ]
  in
  Table.print
    ~title:"E15 DESIGN.md 12: sorting-engine head-to-head, counted I/Os (B = 8, m = 128)"
    ~header:("N cells" :: engines) rows;
  Table.note
    "  bucket stays below batcher at every out-of-core N; columnsort leads inside its\n\
    \  one-level capacity (~18.9k cells here) and is n/a beyond it. EXPERIMENTS.md E15\n\
    \  records the crossovers.\n"

(* ------------------------------------------------------------------ *)
(* E17 — DESIGN.md §10: crash-recovery cost against the journal's
   auto-commit threshold. The pending tail is bounded by
   [auto_commit_bytes], so that knob caps both legs of a recovery:
   the redo-replay of a committed-but-unapplied group and the scan that
   discards an unmarked tail. We fill the tail right up to the
   threshold, crash, and time the [replay:true] reopen. *)

let e17 () =
  let payload_size = 256 in
  let record_bytes = 32 + payload_size in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let with_temp_pair f =
    let sp = Filename.temp_file "odex_e17" ".store" in
    let jp = Filename.temp_file "odex_e17" ".journal" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove sp with Sys_error _ -> ());
        try Sys.remove jp with Sys_error _ -> ())
      (fun () -> f sp jp)
  in
  (* Largest group that fits under the threshold without tripping an
     auto-commit mid-fill. *)
  let group_of acb = acb / record_bytes in
  let fill j n =
    let b = Journal.backend j in
    let buf = Odex_crypto.Bigbuf.create payload_size in
    Backend.ensure b n;
    for i = 0 to n - 1 do
      for k = 0 to payload_size - 1 do
        Odex_crypto.Bigbuf.set buf k (Char.chr ((i + k) land 0xFF))
      done;
      Backend.write_run b ~addr:i ~count:1 ~payload:payload_size ~buf ~off:0
    done;
    Journal.pending_bytes j + Journal.header_bytes
  in
  (* Replay leg: the commit marker lands, then the crash takes out the
     very first in-place apply — reopening must redo every record. *)
  let replay_leg acb =
    with_temp_pair (fun sp jp ->
        let n = group_of acb in
        let inner =
          Backend.crash_after ~ops:0 (Backend.file ~path:sp ~payload_size)
        in
        let j =
          Journal.create ~auto_commit_bytes:acb ~path:jp ~payload_size
            ~durable:false ~replay:false inner
        in
        let journal_bytes = fill j n in
        (match Journal.commit j with
        | () -> failwith "E17: expected the simulated crash"
        | exception Backend.Crashed -> ());
        Journal.abandon j;
        let inner = Backend.file ~path:sp ~payload_size in
        let j, ms =
          time (fun () ->
              Journal.create ~path:jp ~payload_size ~durable:false ~replay:true
                inner)
        in
        let replayed = List.length (Journal.replay_log j) in
        assert (replayed = n);
        Backend.close (Journal.backend j);
        (journal_bytes, replayed, ms))
  in
  (* Discard leg: the same tail but no marker — the reopen only scans
     the tail and truncates it; nothing is re-applied. *)
  let discard_leg acb =
    with_temp_pair (fun sp jp ->
        let n = group_of acb in
        let inner = Backend.file ~path:sp ~payload_size in
        let j =
          Journal.create ~auto_commit_bytes:acb ~path:jp ~payload_size
            ~durable:false ~replay:false inner
        in
        ignore (fill j n);
        Journal.abandon j;
        let inner = Backend.file ~path:sp ~payload_size in
        let j, ms =
          time (fun () ->
              Journal.create ~path:jp ~payload_size ~durable:false ~replay:true
                inner)
        in
        assert (Journal.replay_log j = []);
        Backend.close (Journal.backend j);
        ms)
  in
  let rows =
    List.map
      (fun acb ->
        let journal_bytes, replayed, replay_ms = replay_leg acb in
        let discard_ms = discard_leg acb in
        [
          Printf.sprintf "%d KiB" (acb / 1024);
          Table.fint journal_bytes;
          Table.fint replayed;
          Table.ffloat replay_ms;
          Table.ffloat discard_ms;
        ])
      [ 65536; 262144; 1048576; 4194304 ]
  in
  Table.print
    ~title:
      "E17 DESIGN.md 10: recovery time vs journal tail size (payload 256 B, \
       file store)"
    ~header:
      [ "auto-commit"; "tail bytes"; "replayed"; "replay ms"; "discard ms" ]
    rows;
  Table.note
    "  both recovery legs scale linearly with the tail, which auto_commit_bytes caps;\n\
    \  the 4 MiB default keeps worst-case replay under ~100 ms on a local\n\
    \  file store. Shrink it (odx --auto-commit-bytes) only to tighten the rollback\n\
    \  window on slow media, at the price of more fsync'd commit markers.\n"

let all : (string * (unit -> unit)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13);
    ("E14", e14); ("E15", e15); ("E17", e17);
  ]
