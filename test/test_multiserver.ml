(* The multi-server adversary model (DESIGN.md §14): per-server traces,
   the two-tier Pairtest/Statcheck verdicts, planted leaks that only the
   per-server tier can see, and the two-server compaction that exploits
   the non-colluding model. *)

open Odex_extmem
open Odex_obcheck
open Odex

let sub name run = { Pairtest.name; run }
let stripe ?(seed = 0x5A4D) k = Storage.Sharded { inner = Storage.Mem; shards = k; seed }

let mk_store ?(k = 2) () =
  Storage.create ~trace_mode:Trace.Digest ~backend:(stripe k) ~backoff:(0., 0.)
    ~block_size:4 ()

(* --- the full registry under the per-server tier ------------------- *)

(* Every registered subject, pair-tested at K = 1, 2 and 4: the verdict
   now also requires each server's individual trace to match across the
   pair. Routing is a pure function of the logical address, so every
   single-server-oblivious algorithm passes automatically — and the
   [`Multi_server] subject passes under its own tier. *)
let registry_k_cases =
  List.concat_map
    (fun k ->
      List.map
        (fun (e : Registry.entry) ->
          let name = e.subject.Pairtest.name in
          Alcotest.test_case (Printf.sprintf "pair %s [mem K=%d]" name k) `Quick (fun () ->
              let o =
                Pairtest.check
                  ~backend:(Registry.backend_spec ~shards:k "mem")
                  ~pair:(Registry.pair_mode e) ~multi_server:(Registry.multi_server e)
                  e.subject ~n_cells:e.n_cells ~b:e.b ~m:e.m
              in
              Alcotest.(check bool)
                (Format.asprintf "%a" Pairtest.pp_outcome o)
                true o.oblivious;
              Alcotest.(check bool) "per-server tier holds" true o.servers_ok;
              (* [backend_spec ~shards:1] is deliberately unsharded (the
                 degenerate stripe is a distinct layout; see below). *)
              Alcotest.(check (option int)) "shard layout reported"
                (if k = 1 then None else Some k)
                o.run_a.Pairtest.shards;
              Alcotest.(check int) "one trace per server"
                (if k = 1 then 0 else k)
                (Array.length o.run_a.Pairtest.shard_digests)))
        Registry.all)
    [ 1; 2; 4 ]

(* --- per-shard digests are stable at fixed seeds ------------------- *)

(* The per-server view is as deterministic as the logical one: repeating
   a run with the same seeds reproduces every shard digest bit for bit,
   at every K. *)
let test_shard_digests_stable () =
  List.iter
    (fun k ->
      List.iter
        (fun name ->
          let e = Util.registry name in
          let go () =
            let o =
              Pairtest.check
                ~backend:(Registry.backend_spec ~shards:k "mem")
                ~pair:(Registry.pair_mode e) ~multi_server:(Registry.multi_server e)
                e.subject ~n_cells:e.n_cells ~b:e.b ~m:e.m
            in
            o.Pairtest.run_a.Pairtest.shard_digests
          in
          Alcotest.(check (array (pair int int64)))
            (Printf.sprintf "%s K=%d per-shard digests reproducible" name k)
            (go ()) (go ()))
        [ "consolidation"; "twoserver-compaction" ])
    [ 2; 4 ]

(* --- planted leak: a data bit routed into the shard selection ------ *)

(* Pair the canonical stripe against one whose PRP seed differs —
   modelling an implementation that keys shard selection on the data.
   The logical trace ignores routing entirely, so the combined tier
   provably passes; the per-server tier must fail, naming a shard.

   The subject hammers one block: a lane-symmetric pattern (e.g. a
   sequential scan) gives every shard the same trace under any
   permutation, which is precisely why the leak needs the asymmetric
   probe to surface. *)
let hotspot =
  sub "hotspot" (fun ~rng:_ ~m:_ _s a ->
      for _ = 1 to 16 do
        ignore (Util.read_at a 0)
      done)

let test_prp_seed_leak_caught () =
  let k = 4 in
  (* Block 0 lands on lane 0's shard, [perm.(0)]: find a seed that moves it. *)
  let shard0 seed = fst (Backend.shard_route ~shards:k ~seed 0) in
  let rec distinct_seed s = if shard0 s <> shard0 0x5A4D then s else distinct_seed (s + 1)
  in
  let seed_b = distinct_seed 0x5A4E in
  let o =
    Pairtest.check ~backend:(stripe k)
      ~backend_b:(stripe ~seed:seed_b k)
      hotspot ~n_cells:256 ~b:4 ~m:8
  in
  Alcotest.(check bool) "combined tier is blind to routing" true o.combined_ok;
  Alcotest.(check bool) "per-server tier catches the leak" false o.servers_ok;
  Alcotest.(check bool) "verdict fails" false o.oblivious;
  match o.diverging_shard with
  | Some (shard, _) -> Alcotest.(check bool) "a real shard is named" true (shard >= 0)
  | None -> Alcotest.fail "diverging shard not reported"

(* --- unsharded vs degenerate 1-stripe are distinct layouts --------- *)

(* The old verdict compared [shard_ios] only, so an unsharded leg and a
   1-shard-stripe leg both reported [[||]]-vs-[[|n|]]... and a pair with
   no stripe at all passed the comparison vacuously. The layouts are now
   explicit run_info and must match. *)
let test_unsharded_vs_one_stripe_distinguished () =
  let o =
    Pairtest.check ~backend:Storage.Mem ~backend_b:(stripe 1) (Util.subject "consolidation")
      ~n_cells:128 ~b:4 ~m:8
  in
  Alcotest.(check (option int)) "leg A reports no stripe" None o.run_a.Pairtest.shards;
  Alcotest.(check (option int)) "leg B reports a 1-stripe" (Some 1)
    o.run_b.Pairtest.shards;
  Alcotest.(check bool) "combined traces still equal" true o.combined_ok;
  Alcotest.(check bool) "layout mismatch is not vacuously ok" false o.servers_ok;
  Alcotest.(check bool) "verdict fails" false o.oblivious

(* --- two-server compaction: correctness ---------------------------- *)

let block_cells ~b ~occupied i =
  Array.init b (fun j ->
      if occupied then Cell.item ~key:((i * b) + j) ~value:((i * b) + j) () else Cell.empty)

let input_cells ~b occ =
  Array.concat (Array.to_list (Array.mapi (fun i o -> block_cells ~b ~occupied:o i) occ))

let test_twoserver_correctness () =
  List.iter
    (fun k ->
      let s = mk_store ~k () in
      Fun.protect
        ~finally:(fun () -> Storage.close s)
        (fun () ->
          let occ = Array.init 16 (fun i -> i mod 3 <> 1) in
          let cells = input_cells ~b:4 occ in
          let a = Ext_array.of_cells s ~block_size:4 cells in
          let expected = Ext_array.items a in
          let o = Twoserver_compaction.run ~m:8 ~capacity_blocks:12 a in
          Alcotest.(check bool) (Printf.sprintf "K=%d ok" k) true o.ok;
          Alcotest.(check int)
            (Printf.sprintf "K=%d occupied count" k)
            (Array.fold_left (fun acc o -> if o then acc + 1 else acc) 0 occ)
            o.occupied;
          Alcotest.(check int) (Printf.sprintf "K=%d dest capacity" k) 12
            (Ext_array.blocks o.dest);
          Alcotest.(check bool)
            (Printf.sprintf "K=%d items preserved in order" k)
            true
            (List.map (fun (it : Cell.item) -> it.key) (Ext_array.items o.dest)
            = List.map (fun (it : Cell.item) -> it.key) expected)))
    [ 2; 3; 4 ]

let test_twoserver_overflow_rejected () =
  let s = mk_store () in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let a = Ext_array.of_cells s ~block_size:4 (input_cells ~b:4 (Array.make 8 true)) in
      Alcotest.check_raises "overflow reported after the full schedule"
        (Invalid_argument "Twoserver_compaction.run: 8 occupied blocks exceed capacity 4")
        (fun () -> ignore (Twoserver_compaction.run ~m:8 ~capacity_blocks:4 a)))

let test_twoserver_fallback_unsharded () =
  (* On a single-server store the protocol must publicly dispatch to the
     classical engine and deliver the same result. *)
  let s = Util.storage ~b:4 () in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let occ = Array.init 16 (fun i -> i mod 2 = 0) in
      let a = Ext_array.of_cells s ~block_size:4 (input_cells ~b:4 occ) in
      let expected = Ext_array.items a in
      let o = Twoserver_compaction.run ~m:8 ~capacity_blocks:16 a in
      Alcotest.(check bool) "fallback ok" true o.ok;
      Alcotest.(check bool) "fallback items preserved" true
        (List.map (fun (it : Cell.item) -> it.key) (Ext_array.items o.dest)
        = List.map (fun (it : Cell.item) -> it.key) expected))

(* --- two-server compaction: the model exploit, made visible -------- *)

(* Two inputs with different occupancy, same shape parameters: the
   combined trace diverges (the A-read/B-write interleaving is the
   occupancy) while every per-server trace is bit-identical — exactly
   the certificate [`Multi_server] encodes, and exactly what a
   single-server adversary is allowed to see that each non-colluding
   server is not. *)
let run_occupancy occ =
  let s = mk_store () in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let a = Ext_array.of_cells s ~block_size:4 (input_cells ~b:4 occ) in
      ignore (Twoserver_compaction.run ~m:8 ~capacity_blocks:(Array.length occ) a);
      let tr = Storage.trace s in
      ( Trace.length tr,
        Trace.digest tr,
        Array.map
          (fun str -> (Trace.length str, Trace.digest str))
          (Storage.shard_traces s) ))

let test_twoserver_combined_diverges_servers_agree () =
  let l1, d1, sh1 = run_occupancy (Array.make 16 true) in
  let l2, d2, sh2 = run_occupancy (Array.init 16 (fun i -> i mod 2 = 0)) in
  Alcotest.(check int) "combined lengths agree (same op count)" l1 l2;
  Alcotest.(check bool) "combined digests differ (occupancy leaks)" true (d1 <> d2);
  Alcotest.(check (array (pair int int64))) "every per-server trace identical" sh1 sh2

(* --- two-server compaction: strictly cheaper than one server ------- *)

let test_twoserver_beats_single_server () =
  let n_cells = 512 and b = 4 and m = 8 in
  let cells, _ = Pairtest.pair_inputs ~seed:0x1D10 ~n:n_cells in
  let counted s = Stats.reads (Storage.stats s) + Stats.writes (Storage.stats s) in
  let two =
    let s = mk_store () in
    Fun.protect
      ~finally:(fun () -> Storage.close s)
      (fun () ->
        let a = Ext_array.of_cells s ~block_size:b cells in
        ignore (Twoserver_compaction.run ~m ~capacity_blocks:(Ext_array.blocks a) a);
        counted s)
  in
  let one =
    let s = Util.storage ~b () in
    Fun.protect
      ~finally:(fun () -> Storage.close s)
      (fun () ->
        let a = Ext_array.of_cells s ~block_size:b cells in
        ignore (Compaction.tight ~m ~capacity_blocks:(Ext_array.blocks a) a);
        counted s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "two-server %d I/Os < single-server %d at equal (N,B,M)" two one)
    true (two < one);
  let n_blocks = n_cells / b in
  let v = Iobound.twoserver_compaction ~n_blocks ~capacity:n_blocks ~actual:two in
  Alcotest.(check bool) (Format.asprintf "%a" Iobound.pp_verdict v) true v.within

(* --- the per-server statistical tier ------------------------------- *)

(* A leak the combined histogram provably cannot see: 8 extra reads at
   logical address 0 or 64 keyed on which key range the data lives in.
   The two addresses collide modulo the histogram's 64 bins, so the
   pooled combined histograms are bit-identical — but they live at
   different inner addresses of a K=2 stripe, so the serving shard's own
   histogram shifts. *)
let shard_leak_subject ~n_cells =
  sub "shard-colliding-leak" (fun ~rng:_ ~m:_ _s a ->
      for i = 0 to Ext_array.blocks a - 1 do
        ignore (Util.read_at a i)
      done;
      let hot =
        match Ext_array.items a with
        | it :: _ when it.key >= 4 * n_cells -> 64
        | _ -> 0
      in
      for _ = 1 to 8 do
        ignore (Util.read_at a hot)
      done)

let test_shard_distribution_clean () =
  let vs =
    Statcheck.shard_distribution ~samples:40 (Util.subject "consolidation") ~n_cells:256 ~b:4 ~m:8
  in
  Alcotest.(check int) "one verdict per server" 2 (Array.length vs);
  Array.iter
    (fun (v : Statcheck.verdict) ->
      Alcotest.(check bool) (Format.asprintf "%a" Statcheck.pp_verdict v) true v.pass)
    vs

let test_shard_distribution_catches_colliding_leak () =
  let subject = shard_leak_subject ~n_cells:512 in
  (* The combined tier is structurally blind to this leak: both hot
     addresses pool into the same histogram bin. *)
  let combined = Statcheck.trace_distribution ~samples:50 subject ~n_cells:512 ~b:4 ~m:8 in
  Alcotest.(check bool)
    (Format.asprintf "combined tier blind by construction: %a" Statcheck.pp_verdict combined)
    true combined.pass;
  (* The per-server tier sees the shard's own (inner-address) view and
     must reject it. *)
  let vs = Statcheck.shard_distribution ~samples:50 subject ~n_cells:512 ~b:4 ~m:8 in
  Alcotest.(check bool)
    (Format.asprintf "per-server tier rejects: %a" Statcheck.pp_verdict
       vs.(0))
    true
    (Array.exists (fun (v : Statcheck.verdict) -> not v.pass) vs)

let suite =
  [
    Alcotest.test_case "per-shard digests reproducible" `Quick test_shard_digests_stable;
    Alcotest.test_case "PRP-seed leak: combined blind, per-server catches" `Quick
      test_prp_seed_leak_caught;
    Alcotest.test_case "unsharded vs 1-stripe distinguished" `Quick
      test_unsharded_vs_one_stripe_distinguished;
    Alcotest.test_case "twoserver correctness K=2/3/4" `Quick test_twoserver_correctness;
    Alcotest.test_case "twoserver overflow rejected" `Quick test_twoserver_overflow_rejected;
    Alcotest.test_case "twoserver fallback on one server" `Quick
      test_twoserver_fallback_unsharded;
    Alcotest.test_case "twoserver: combined diverges, servers agree" `Quick
      test_twoserver_combined_diverges_servers_agree;
    Alcotest.test_case "twoserver beats single server" `Quick
      test_twoserver_beats_single_server;
    Alcotest.test_case "shard distribution clean subject" `Quick test_shard_distribution_clean;
    Alcotest.test_case "shard distribution catches bin-colliding leak" `Quick
      test_shard_distribution_catches_colliding_leak;
  ]
  @ registry_k_cases
