(* The sharded storage layer: PRP striping bijectivity, exact
   result/trace/stats parity between sharded and single-device runs for
   every registered algorithm, and obliviousness at every shard count. *)

open Odex_extmem
open Odex_obcheck

(* --- striping law -------------------------------------------------- *)

(* The fan-out must be a bijection on block indices: distinct logical
   addresses map to distinct (shard, inner address) slots, the inner
   address is always a/K, and within each K-aligned group the shard
   assignment is a permutation of the K devices. A store striped the same
   way must agree with it: [Storage.shard_addr] inverts the backend's
   route, and every block op the stripe serves lands in the serving
   shard's per-server trace. *)
let gen_store_mix =
  QCheck2.Gen.(
    triple (int_range 1 5) (int_range 0 4096)
      (list_size (int_range 1 24) (triple bool (int_range 0 63) (int_range 1 20))))

let check_store_router ~seed (k, index, mix) =
  let backend = Storage.Sharded { inner = Storage.Mem; shards = k; seed } in
  let s = Storage.create ~backend ~block_size:2 () in
  Fun.protect ~finally:(fun () -> Storage.close s) @@ fun () ->
  for shard = 0 to k - 1 do
    let a = Storage.shard_addr s ~shard ~index in
    if Backend.shard_route ~shards:k ~seed a <> (shard, index) then
      QCheck2.Test.fail_reportf "K=%d: shard_addr ~shard:%d ~index:%d = %d routes elsewhere" k
        shard index a
  done;
  let cap = 64 in
  let base = Storage.alloc s cap in
  (* The uncounted zero-fill reaches the devices but no trace. *)
  let ios0 = Storage.shard_ios s in
  List.iter
    (fun (write, off, len) ->
      let len = min len (cap - off) in
      if write then Storage.write_many s (base + off) (Array.init len (fun _ -> Block.make 2))
      else ignore (Storage.read_many s (base + off) len))
    mix;
  let ios = Storage.shard_ios s and traces = Storage.shard_traces s in
  if Array.length traces <> k then
    QCheck2.Test.fail_reportf "K=%d: %d shard traces" k (Array.length traces);
  Array.iteri
    (fun i tr ->
      if Trace.length tr <> ios.(i) - ios0.(i) then
        QCheck2.Test.fail_reportf "K=%d shard %d: trace length %d, served %d ops" k i
          (Trace.length tr) (ios.(i) - ios0.(i)))
    traces

let qcheck_route_bijection =
  Util.qcheck_case ~count:200 ~name:"shard_route is a striping bijection"
    QCheck2.Gen.(
      pair (triple (int_range 1 8) (int_range 0 0xFFFF) (int_range 1 512)) gen_store_mix)
    (fun ((shards, seed, n), store_mix) ->
      check_store_router ~seed store_mix;
      let seen = Hashtbl.create n in
      for a = 0 to n - 1 do
        let s, inner = Backend.shard_route ~shards ~seed a in
        if s < 0 || s >= shards then
          QCheck2.Test.fail_reportf "addr %d: shard %d out of range [0,%d)" a s shards;
        if inner <> a / shards then
          QCheck2.Test.fail_reportf "addr %d: inner %d, want %d" a inner (a / shards);
        if Hashtbl.mem seen (s, inner) then
          QCheck2.Test.fail_reportf "addr %d: slot (%d,%d) already taken" a s inner;
        Hashtbl.add seen (s, inner) a
      done;
      (* Each complete group occupies every shard exactly once. *)
      let groups = n / shards in
      for g = 0 to groups - 1 do
        for s = 0 to shards - 1 do
          if not (Hashtbl.mem seen (s, g)) then
            QCheck2.Test.fail_reportf "group %d misses shard %d" g s
        done
      done;
      true)

(* --- raw store roundtrip at odd shard counts ----------------------- *)

let test_roundtrip_shards () =
  List.iter
    (fun k ->
      let backend = Storage.Sharded { inner = Storage.Mem; shards = k; seed = 0x5A4D } in
      let s = Storage.create ~backend ~block_size:4 () in
      Fun.protect
        ~finally:(fun () -> Storage.close s)
        (fun () ->
          let n = 37 in
          let base = Storage.alloc s n in
          for i = 0 to n - 1 do
            let blk = Block.make 4 in
            blk.(0) <- Cell.item ~key:i ~value:(i * 3) ();
            Storage.write s (base + i) blk
          done;
          (* Batched read across every stripe boundary. *)
          let blks = Storage.read_many s base n in
          for i = 0 to n - 1 do
            match blks.(i).(0) with
            | Cell.Item it ->
                Alcotest.(check int) (Printf.sprintf "K=%d key %d" k i) i it.key;
                Alcotest.(check int) (Printf.sprintf "K=%d value %d" k i) (i * 3) it.value
            | Cell.Empty -> Alcotest.failf "K=%d: block %d came back empty" k i
          done;
          let per_shard = Storage.shard_ios s in
          Alcotest.(check int) (Printf.sprintf "K=%d shard count" k) k (Array.length per_shard);
          (* The devices served n uncounted zero-fill writes (alloc),
             n counted writes and n counted reads: per-shard tallies are
             the physical view, not just the counted one. *)
          Alcotest.(check int)
            (Printf.sprintf "K=%d ops conserved" k)
            (3 * n)
            (Array.fold_left ( + ) 0 per_shard)))
    [ 1; 2; 3; 4; 5; 8 ]

(* --- sharded vs single-device parity for every algorithm ----------- *)

(* One monitored run of a registry subject on a given backend spec:
   trace digest/length, stats, per-shard ops and the final content of
   the input window. The algorithm's coins are fixed, so any divergence
   between backends is the sharding layer's fault. *)
let run_subject (e : Registry.entry) backend =
  let s =
    Storage.create ~trace_mode:Trace.Digest ~backend ~backoff:(0., 0.) ~block_size:e.b ()
  in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let cells, _ = Pairtest.pair_inputs ~seed:0x51A2D ~n:e.n_cells in
      let arr = Ext_array.of_cells s ~block_size:e.b cells in
      let rng = Odex_crypto.Rng.create ~seed:0x51A2D in
      e.subject.Pairtest.run ~rng ~m:e.m s arr;
      let tr = Storage.trace s and st = Storage.stats s in
      ( Trace.digest tr,
        Trace.length tr,
        (Stats.reads st, Stats.writes st, Stats.retries st, Stats.bytes_moved st),
        Storage.shard_ios s,
        Ext_array.to_cells arr ))

let parity_case (e : Registry.entry) =
  let name = e.subject.Pairtest.name in
  (* A [`Multi_server] subject deliberately runs a different protocol on
     a k >= 2 stripe (its combined trace is occupancy-dependent there),
     so cross-K parity only applies to its K=1 fallback; the K >= 2
     behaviour is covered by the multiserver suite. *)
  let ks = if Registry.multi_server e then [ 1 ] else [ 1; 2; 4 ] in
  Alcotest.test_case
    (Printf.sprintf "parity %s K=%s" name (String.concat "/" (List.map string_of_int ks)))
    `Quick
    (fun () ->
      let d0, l0, st0, sh0, cells0 = run_subject e Storage.Mem in
      Alcotest.(check int) "unsharded store reports no shards" 0 (Array.length sh0);
      List.iter
        (fun k ->
          let backend = Storage.Sharded { inner = Storage.Mem; shards = k; seed = 0x5A4D } in
          let d, l, st, sh, cells = run_subject e backend in
          let tag fmt = Printf.sprintf "%s K=%d: %s" name k fmt in
          Alcotest.(check int64) (tag "trace digest") d0 d;
          Alcotest.(check int) (tag "trace length") l0 l;
          let r0, w0, rt0, by0 = st0 and r, w, rt, by = st in
          Alcotest.(check int) (tag "reads") r0 r;
          Alcotest.(check int) (tag "writes") w0 w;
          Alcotest.(check int) (tag "retries") rt0 rt;
          Alcotest.(check int) (tag "bytes moved") by0 by;
          Alcotest.(check int) (tag "shard count") k (Array.length sh);
          Alcotest.(check bool)
            (tag "result cells identical")
            true
            (cells0 = cells))
        ks)

let parity_cases = List.map parity_case Registry.all

(* --- pair-tested obliviousness at every shard count ---------------- *)

(* The full operational check on sharded devices: the logical trace AND
   the per-shard op counts must agree across a value-disjoint pair —
   on mem, on files (one per shard), and with the fault injector
   composed outside the stripe (retries must line up too). *)
let sharded_pair_cases =
  List.concat_map
    (fun backend_name ->
      List.filter_map
        (fun (e : Registry.entry) ->
          (* Keep the expensive legs to a representative subset: the
             scan-phase algorithms plus one ORAM. *)
          let name = e.subject.Pairtest.name in
          if
            not
              (List.mem name
                 [
                   "consolidation";
                   "selection";
                   "quantiles";
                   "sort";
                   "hier-oram";
                   "bucket-sort";
                   "oblivious-permutation";
                   "twoserver-compaction";
                 ])
          then None
          else
            Some
              (Alcotest.test_case
                 (Printf.sprintf "pair %s [%s K=4]" name backend_name)
                 `Quick
                 (fun () ->
                   let spec = Registry.backend_spec ~shards:4 backend_name in
                   Fun.protect
                     ~finally:(fun () -> Storage.remove_spec_files spec)
                     (fun () ->
                       let o =
                         Pairtest.check ~backend:spec ~pair:(Registry.pair_mode e)
                           ~multi_server:(Registry.multi_server e) e.subject
                           ~n_cells:e.n_cells ~b:e.b ~m:e.m
                       in
                       Alcotest.(check bool)
                         (Format.asprintf "%a" Pairtest.pp_outcome o)
                         true o.oblivious;
                       Alcotest.(check int) "per-shard view present" 4
                         (Array.length o.run_a.Pairtest.shard_ios);
                       if backend_name = "faulty" then
                         Alcotest.(check bool) "faults actually injected" true
                           (o.run_a.Pairtest.retries > 0)))))
        Registry.all)
    Registry.backend_names

(* --- sharded length survives close/reopen -------------------------- *)

let test_sharded_file_persistence () =
  let path = Filename.temp_file "odex_shardtest" ".store" in
  let backend = Storage.Sharded { inner = Storage.File { path }; shards = 3; seed = 0x5A4D } in
  Fun.protect
    ~finally:(fun () -> Storage.remove_spec_files backend)
    (fun () ->
      let key = Odex_crypto.Cipher.key_of_int 0x7E57 in
      let n = 17 in
      let s = Storage.create ~cipher:key ~backend ~block_size:4 () in
      let base = Storage.alloc s n in
      for i = 0 to n - 1 do
        let blk = Block.make 4 in
        blk.(0) <- Cell.item ~key:(100 + i) ~value:i ();
        Storage.write s (base + i) blk
      done;
      Storage.close s;
      (* Reopen: the length prefix on shard 0's meta blob must restore
         the exact block count (inner device sizes alone round up to a
         whole group), and every block must decrypt. *)
      let s2 = Storage.create ~cipher:key ~backend ~resume:true ~block_size:4 () in
      Fun.protect
        ~finally:(fun () -> Storage.close s2)
        (fun () ->
          Alcotest.(check int) "resumed capacity is exact" n (Storage.capacity s2);
          let blks = Storage.read_many s2 base n in
          for i = 0 to n - 1 do
            match blks.(i).(0) with
            | Cell.Item it -> Alcotest.(check int) "key" (100 + i) it.key
            | Cell.Empty -> Alcotest.failf "block %d empty after reopen" i
          done))

let test_nested_sharded_rejected () =
  let backend =
    Storage.Sharded
      {
        inner = Storage.Sharded { inner = Storage.Mem; shards = 2; seed = 1 };
        shards = 2;
        seed = 2;
      }
  in
  Alcotest.check_raises "nested stripe rejected"
    (Invalid_argument "Storage: nested Sharded specs are not supported") (fun () ->
      ignore (Storage.create ~backend ~block_size:4 ()))

let suite =
  [
    qcheck_route_bijection;
    Alcotest.test_case "roundtrip at K=1..8" `Quick test_roundtrip_shards;
    Alcotest.test_case "file persistence across reopen [K=3]" `Quick
      test_sharded_file_persistence;
    Alcotest.test_case "nested sharding rejected" `Quick test_nested_sharded_rejected;
  ]
  @ parity_cases @ sharded_pair_cases
