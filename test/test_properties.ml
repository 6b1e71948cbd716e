(* Cross-cutting property tests (qcheck) for the core algorithms. *)

open Odex_extmem
open Odex

let keys_gen = QCheck2.Gen.(list_size (int_range 1 400) (int_range (-1000) 1000))

let prop_consolidation =
  Util.qcheck_case ~name:"consolidation: postcondition + order + multiset" ~count:60
    QCheck2.Gen.(triple keys_gen (int_range 1 6) (int_range 0 99))
    (fun (keys, b, thresh) ->
      let keys = Array.of_list keys in
      let cells = Util.cells_of_keys keys in
      let s = Util.storage ~b () in
      let a = Ext_array.of_cells s ~block_size:b cells in
      let pred (it : Cell.item) = it.key mod 100 <= thresh - 50 || it.key mod 100 >= thresh in
      let d = Consolidation.run ~distinguished:pred ~into:None a in
      let expected =
        List.filter_map
          (fun c ->
            match c with
            | Cell.Empty -> None
            | Cell.Item it -> if pred it then Some it.key else None)
          (Array.to_list cells)
      in
      Util.occupied_prefix_property d
      && Util.keys_of_items (Ext_array.items d) = expected)

let prop_butterfly_roundtrip =
  Util.qcheck_case ~name:"butterfly: compact then expand restores positions" ~count:50
    QCheck2.Gen.(pair (list_size (int_range 1 80) bool) (int_range 3 12))
    (fun (occupancy, m) ->
      let n = List.length occupancy in
      let s = Util.storage ~b:2 () in
      let a = Ext_array.create s ~blocks:n in
      let original =
        List.filteri (fun i _ -> List.nth occupancy i) (List.init n (fun i -> i))
      in
      List.iteri
        (fun rank pos ->
          Storage.unchecked_poke s (Ext_array.addr a pos)
            [| Cell.item ~key:rank ~value:rank (); Cell.item ~key:rank ~value:1 () |])
        original;
      let r = Butterfly.compact ~m a in
      if r <> List.length original then false
      else begin
        let orig = Array.of_list original in
        if r > 0 then Butterfly.expand ~m a (fun i -> orig.(i) - i);
        let occupied_now =
          List.filter
            (fun i -> not (Block.is_empty (Storage.unchecked_peek s (Ext_array.addr a i))))
            (List.init n (fun i -> i))
        in
        occupied_now = original
      end)

let prop_quantiles_match_reference =
  Util.qcheck_case ~name:"quantiles match the sorted reference" ~count:30
    QCheck2.Gen.(triple keys_gen (int_range 1 6) int)
    (fun (keys, q, seed) ->
      let keys = Array.of_list keys in
      let cells = Util.cells_of_keys keys in
      let s = Util.storage ~b:4 () in
      let a = Ext_array.of_cells s ~block_size:4 cells in
      let rng = Odex_crypto.Rng.create ~seed in
      let r = Quantiles.run ~m:8 ~rng ~q a in
      if not r.Quantiles.ok then true (* flagged failures are allowed, silently wrong is not *)
      else begin
        let sorted = List.sort compare (Array.to_list keys) in
        let arr = Array.of_list sorted in
        let total = Array.length arr in
        let reference =
          Array.init q (fun i -> arr.(Util.quantile_rank ~total ~q (i + 1) - 1))
        in
        Array.for_all2
          (fun (it : Cell.item) want -> it.key = want)
          r.Quantiles.quantiles reference
      end)

let prop_multiway_monochromatic =
  Util.qcheck_case ~name:"multiway consolidation: monochromatic + order per color" ~count:40
    QCheck2.Gen.(triple keys_gen (int_range 1 7) (int_range 1 5))
    (fun (keys, colors, b) ->
      let keys = Array.of_list keys in
      let cells = Util.cells_of_keys keys in
      let s = Util.storage ~b () in
      let a = Ext_array.of_cells s ~block_size:b cells in
      let color_of (it : Cell.item) = (it.key mod colors + colors) mod colors in
      let d = Multiway.consolidate ~colors ~color_of a in
      Util.monochromatic ~color_of d
      && Util.sorted_multiset_equal
           (Util.keys_of_items (Ext_array.items d))
           (Array.to_list keys))

let prop_shuffle_deal_conserves =
  Util.qcheck_case ~name:"shuffle+deal conserves every item" ~count:30
    QCheck2.Gen.(pair keys_gen int)
    (fun (keys, seed) ->
      let keys = Array.of_list keys in
      let colors = 3 in
      let cells = Util.cells_of_keys keys in
      let s = Util.storage ~b:4 () in
      let a = Ext_array.of_cells s ~block_size:4 cells in
      let color_of (it : Cell.item) = (it.key mod colors + colors) mod colors in
      let mono = Multiway.consolidate ~colors ~color_of a in
      let rng = Odex_crypto.Rng.create ~seed in
      Shuffle_deal.shuffle ~rng mono;
      let { Shuffle_deal.outputs; ok } =
        Shuffle_deal.deal ~colors ~color_of ~window:8 ~quota:8 ~carry_budget:64 mono
      in
      let dealt =
        List.concat_map (fun o -> Util.keys_of_items (Ext_array.items o)) (Array.to_list outputs)
      in
      ok
      && Util.sorted_multiset_equal dealt (Array.to_list keys)
      && Array.for_all
           (fun (o : Ext_array.t) ->
             List.for_all
               (fun (it : Cell.item) ->
                 (* each output is monochromatic overall *)
                 color_of it = color_of (List.hd (Ext_array.items o)))
               (Ext_array.items o)
             || Ext_array.items o = [])
           outputs)

let prop_logstar_conserves =
  Util.qcheck_case ~name:"logstar compaction conserves occupied blocks" ~count:20
    QCheck2.Gen.(pair (list_size (int_range 8 40) bool) int)
    (fun (occupancy, seed) ->
      let n = 8 * List.length occupancy in
      let s = Util.storage ~b:2 () in
      let a = Ext_array.create s ~blocks:n in
      let occupied =
        List.filter_map
          (fun (i, occ) -> if occ then Some (i * 8) else None)
          (List.mapi (fun i occ -> (i, occ)) occupancy)
      in
      (* keep load <= n/4 by spacing occupied blocks 8 apart *)
      List.iteri
        (fun j pos ->
          Storage.unchecked_poke s (Ext_array.addr a pos)
            [| Cell.item ~key:j ~value:j (); Cell.item ~key:j ~value:1 () |])
        occupied;
      let rng = Odex_crypto.Rng.create ~seed in
      let out = Logstar_compaction.run ~m:16 ~rng ~capacity:(max 1 (n / 4)) a in
      (not out.Logstar_compaction.ok)
      || List.length (Ext_array.items out.Logstar_compaction.dest) = 2 * List.length occupied)

let prop_selection_exponent_quarter =
  Util.qcheck_case ~name:"selection with e=1/4 matches reference" ~count:20
    QCheck2.Gen.(pair (list_size (int_range 50 400) (int_range 0 100)) int)
    (fun (keys, seed) ->
      let keys = Array.of_list keys in
      let n = Array.length keys in
      let k = 1 + (abs seed mod n) in
      let cells = Util.cells_of_keys keys in
      let s = Util.storage ~b:4 () in
      let a = Ext_array.of_cells s ~block_size:4 cells in
      let rng = Odex_crypto.Rng.create ~seed in
      let r = Selection.select ~exponent:0.25 ~m:8 ~rng ~k a in
      (* A flagged randomized failure is acceptable; a silent wrong
         answer is not. *)
      (not r.Selection.ok)
      ||
      match r.Selection.item with
      | None -> false
      | Some it -> it.key = List.nth (List.sort compare (Array.to_list keys)) (k - 1))

let prop_sort_engines_agree =
  Util.qcheck_case ~name:"sort bucket engines all produce the same multiset, sorted" ~count:10
    QCheck2.Gen.(pair (list_size (int_range 100 500) (int_range (-50) 50)) int)
    (fun (keys, seed) ->
      let keys = Array.of_list keys in
      List.for_all
        (fun engine ->
          let cells = Util.cells_of_keys keys in
          let s = Util.storage ~b:4 () in
          let a = Ext_array.of_cells s ~block_size:4 cells in
          let rng = Odex_crypto.Rng.create ~seed in
          let o = Sort.run ~bucket_engine:engine ~m:16 ~rng a in
          (not o.Sort.ok)
          || Util.keys_of_items (Ext_array.items a) = List.sort compare (Array.to_list keys))
        [ `Auto; `Skip; `Butterfly; `Loose ])

(* S4: batched reads and writes of arbitrary interleaved sizes share one
   scratch buffer (Storage.run_buf). A smaller run after a larger one
   must never surface the larger run's leftover bytes, and the retained
   scratch stays within its documented bound (< 2x the largest run's
   payload bytes, and never below what the biggest run needed). *)
let prop_run_buf_never_stale =
  Util.qcheck_case ~name:"interleaved batched runs never read stale scratch" ~count:40
    QCheck2.Gen.(
      triple (int_range 1 5) (int_range 0 1)
        (list_size (int_range 1 40) (triple bool (int_range 0 47) (int_range 1 16))))
    (fun (b, use_cipher, ops) ->
      let total = 48 in
      let cipher = if use_cipher = 1 then Some (Odex_crypto.Cipher.key_of_int 9) else None in
      let s = Util.storage ?cipher ~b () in
      let base = Storage.alloc s total in
      (* Mirror model: what each address must currently hold. *)
      let model = Array.init total (fun _ -> Block.make b) in
      let payload = 8 + Block.encoded_size b in
      let stamp = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_write, off, len) ->
          let len = min len (total - off) in
          if len > 0 then
            if is_write then begin
              let blks =
                Array.init len (fun i ->
                    incr stamp;
                    let blk = Block.make b in
                    blk.(0) <- Cell.item ~key:!stamp ~value:(off + i) ();
                    blk)
              in
              Storage.write_many s (base + off) blks;
              Array.iteri (fun i blk -> model.(off + i) <- Block.copy blk) blks
            end
            else begin
              let got = Storage.read_many s (base + off) len in
              Array.iteri
                (fun i blk ->
                  if not (Array.for_all2 ( = ) blk model.(off + i)) then ok := false)
                got
            end)
        ops;
      let final = Storage.read_many s base total in
      Array.iteri
        (fun i blk -> if not (Array.for_all2 ( = ) blk model.(i)) then ok := false)
        final;
      (* The documented retention bound: the scratch doubles up to the
         largest run's byte need, so it never exceeds twice that. The
         final full-array read makes [total] the largest run. *)
      !ok
      && Storage.scratch_bytes s >= total * payload
      && Storage.scratch_bytes s < 2 * total * payload)

let prop_prp_roundtrip =
  Util.qcheck_case ~name:"PRP apply/inverse roundtrip on random domains" ~count:60
    QCheck2.Gen.(triple (int_range 1 5000) int (int_range 0 10_000))
    (fun (domain, key, x) ->
      let x = x mod domain in
      let prp = Odex_crypto.Prp.create ~domain (Odex_crypto.Prf.key_of_int key) in
      Odex_crypto.Prp.inverse prp (Odex_crypto.Prp.apply prp x) = x)

let prop_prp_bijection =
  Util.qcheck_case ~name:"PRP is a bijection on its whole domain" ~count:60
    QCheck2.Gen.(pair (int_range 1 600) int)
    (fun (domain, key) ->
      let prp = Odex_crypto.Prp.create ~domain (Odex_crypto.Prf.key_of_int key) in
      let image = Array.init domain (fun x -> Odex_crypto.Prp.apply prp x) in
      (* In range, no collisions (= surjective on a finite domain), and
         inverted exactly. *)
      Array.for_all (fun y -> y >= 0 && y < domain) image
      && List.sort_uniq compare (Array.to_list image) = List.init domain (fun i -> i)
      && Array.for_all (fun x -> Odex_crypto.Prp.inverse prp image.(x) = x)
           (Array.init domain (fun i -> i)))

(* --- Emodel arithmetic: the quantities every bound is stated in ----- *)

let prop_ceil_div =
  Util.qcheck_case ~name:"ceil_div is the least sufficient quotient" ~count:200
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 10_000))
    (fun (a, b) ->
      let q = Emodel.ceil_div a b in
      (* q blocks of size b cover a... *)
      q * b >= a
      (* ...and q is the least such count (0 only covers a = 0). *)
      && ((q = 0 && a = 0) || (q - 1) * b < a)
      (* Exactness on multiples, and adding a full divisor adds one. *)
      && Emodel.ceil_div (q * b) b = q
      && Emodel.ceil_div (a + b) b = q + 1)

let prop_ilog2 =
  Util.qcheck_case ~name:"ilog2 floor/ceil bracket n between powers of two" ~count:200
    QCheck2.Gen.(int_range 1 (1 lsl 50))
    (fun n ->
      let f = Emodel.ilog2_floor n and c = Emodel.ilog2_ceil n in
      let power_of_two = n land (n - 1) = 0 in
      (1 lsl f) <= n
      && n < 1 lsl (f + 1)
      && n <= 1 lsl c
      && (c = 0 || 1 lsl (c - 1) < n)
      && c - f = (if power_of_two then 0 else 1))

let prop_log_star =
  Util.qcheck_case ~name:"log* recurrence, monotonicity and anchors" ~count:100
    QCheck2.Gen.(pair (int_range 1 61) (int_range 1 1_000_000))
    (fun (k, n) ->
      (* The defining recurrence, exact on powers of two (log2 is exact
         on them in floating point): log*(2^k) = 1 + log*(k). *)
      Emodel.log_star (1 lsl k) = 1 + Emodel.log_star k
      (* Monotone in n... *)
      && Emodel.log_star n <= Emodel.log_star (n + 1)
      (* ...and minuscule even at the top of the int range. *)
      && Emodel.log_star max_int <= 5
      && Emodel.log_star 1 = 0
      && Emodel.log_star 2 = 1
      && Emodel.log_star 16 = 3
      && Emodel.log_star 65536 = 4)

let prop_tower_of_twos =
  Util.qcheck_case ~name:"tower of twos: recurrence then saturation at max_int" ~count:50
    QCheck2.Gen.(int_range 1 1_000)
    (fun i ->
      let t = Emodel.tower_of_twos i in
      (* Appendix B: t1 = 4, t_{i+1} = 2^{t_i}, clamped at max_int once
         2^{t_i} no longer fits in an int. *)
      Emodel.tower_of_twos 1 = 4
      && Emodel.tower_of_twos 2 = 16
      && Emodel.tower_of_twos 3 = 65536
      && (i < 4 || t = max_int)
      (* The recurrence is only evaluable while 2^{t_i} fits an int
         (shifts past 62 are meaningless): t2 and t3 check it, t4 on is
         the saturation branch above. *)
      && (i > 2 || Emodel.tower_of_twos (i + 1) = 1 lsl t)
      && t <= Emodel.tower_of_twos (i + 1))

(* --- seeded Monte Carlo: the paper's success probabilities --------- *)

(* Theorem 8's failure event is a region overflow during the halving
   rounds, probability <= (N/B)^{-d}. 200 deterministic trials at a
   valid sparse shape (occupied <= capacity = n/8) must see essentially
   none of it; the 2% ceiling is orders of magnitude above the bound,
   so a regression that breaks the structure trips it long before the
   suite ever flakes. *)
let test_loose_overflow_rate () =
  let trials = 200 in
  let b = 2 and n_blocks = 128 and capacity = 16 and m = 32 in
  let failures =
    Odex.Failure_sweep.monte_carlo ~trials ~seed:0x100_5E (fun ~rng ~trial:_ ->
        (* A random capacity-sized subset of blocks is occupied. *)
        let occupied = Array.make n_blocks false in
        let placed = ref 0 in
        while !placed < capacity do
          let i = Odex_crypto.Rng.int rng n_blocks in
          if not occupied.(i) then begin
            occupied.(i) <- true;
            incr placed
          end
        done;
        let cells =
          Array.init (n_blocks * b) (fun idx ->
              if occupied.(idx / b) then
                Cell.item ~key:(Odex_crypto.Rng.int rng 10_000) ~value:idx ()
              else Cell.empty)
        in
        let (out : Odex.Loose_compaction.outcome), _ =
          Util.with_array ~b cells (fun _s a ->
              Odex.Loose_compaction.run ~m ~rng ~capacity a)
        in
        out.ok)
  in
  if failures * 50 > trials then
    Alcotest.failf "loose compaction overflowed in %d/%d trials (bound ~(N/B)^-d)" failures
      trials

(* Lemma 1: decode of an IBLT with k = 3 hashes succeeds whp while the
   load n/size stays under the ~81% threshold (E12 measures the sharp
   version). At load 1/3 — the Theorem 4 operating point, multiplier
   3 — the failure rate must be essentially zero; 300 seeded trials,
   1% ceiling. *)
let iblt_decode_failures ~trials ~size ~n =
  Odex.Failure_sweep.monte_carlo ~trials ~seed:0x1B17 (fun ~rng ~trial:_ ->
      let key = Odex_crypto.Prf.key_of_int (Odex_crypto.Rng.int rng 0x3FFF_FFFF) in
      let t = Odex_iblt.Iblt.create ~k:3 ~size key in
      let seen = Hashtbl.create n in
      while Hashtbl.length seen < n do
        let k' = Odex_crypto.Rng.int rng 1_000_000 in
        if not (Hashtbl.mem seen k') then begin
          Hashtbl.add seen k' ();
          Odex_iblt.Iblt.insert t ~key:k' ~value:(k' * 3)
        end
      done;
      let _, complete = Odex_iblt.Iblt.list_entries t in
      complete)

let test_iblt_decode_rate () =
  (* The 1 - 1/n^c bound is asymptotic; at n = 180 the measured failure
     rate at this load is ~0, and the 2% ceiling gives the generous
     slack the small-n regime needs while still catching any structural
     regression (a broken hash family fails nearly always). *)
  let trials = 300 in
  let failures = iblt_decode_failures ~trials ~size:540 ~n:180 in
  if failures * 50 > trials then
    Alcotest.failf "IBLT decode failed %d/%d times at load 1/3 (Lemma 1 says whp success)"
      failures trials

(* Negative control pinning the measurement's power: past the decode
   threshold (load 95%) the same harness must see failures in at least
   half the trials — if it doesn't, the suite above is vacuous. *)
let test_iblt_overload_fails () =
  let trials = 100 in
  let failures = iblt_decode_failures ~trials ~size:60 ~n:57 in
  if failures * 2 < trials then
    Alcotest.failf "overloaded IBLT decoded fine %d/%d times - the rate test has no power"
      (trials - failures) trials

(* Failure sweeping under Monte Carlo failure patterns: whatever random
   subset of subarrays "failed", the sweep must (a) leave every failed
   subarray sorted and (b) produce the exact same trace as the
   all-healthy run — the Theorem 21 point that repair reveals nothing.
   40 seeded trials through the same harness. *)
let test_sweep_repairs_obliviously () =
  let b = 4 and m = 8 in
  let sizes = [| 6; 9; 4 |] in
  let run_once ~rng flags =
    let s = Util.storage ~b () in
    let arrs =
      Array.map
        (fun n_blocks ->
          let cells =
            Array.init (n_blocks * b) (fun _ ->
                Cell.item ~key:(Odex_crypto.Rng.int rng 1_000) ~value:0 ())
          in
          Ext_array.of_cells s ~block_size:b cells)
        sizes
    in
    ignore (Odex.Failure_sweep.sweep ~m arrs flags);
    let sorted_where_required =
      Array.for_all2
        (fun a ok ->
          ok || Util.is_sorted_list (Util.keys_of_items (Ext_array.items a)))
        arrs flags
    in
    (Trace.digest (Storage.trace s), sorted_where_required)
  in
  let baseline, _ = run_once ~rng:(Odex_crypto.Rng.create ~seed:0xBA5E) [| true; true; true |] in
  let failures =
    Odex.Failure_sweep.monte_carlo ~trials:40 ~seed:0x5EEE (fun ~rng ~trial:_ ->
        let flags = Array.init (Array.length sizes) (fun _ -> Odex_crypto.Rng.bool rng) in
        let digest, repaired = run_once ~rng flags in
        digest = baseline && repaired)
  in
  Alcotest.(check int) "every failure pattern repaired under the baseline trace" 0 failures

(* --- bucket oblivious sort: the 2^-Omega(Z) overflow bound ---------- *)

(* The routing's only failure mode is a bucket overflow, and the event
   is a pure function of the coins: Bucket_sort.simulate_overflow
   replays exactly the coin stream the pipeline would draw, so the
   Monte-Carlo sweep needs no I/O at all. Shape: n = 2Z cells in unit
   blocks gives beta = 4 buckets over 2 levels, so the union bound
   beta*L*e^{-Z/6} = 8e^{-Z/6} evaluates to 0.556 / 0.0387 / 1.8e-4 at
   Z = 16 / 32 / 64 — every measured rate must sit at or below its
   bound, and the rates must not grow as Z doubles. *)
let bucket_overflow_failures ~trials ~z =
  let plan = Odex_sortnet.Bucket_sort.make_plan ~b:1 ~z_cells:z ~n_cells:(2 * z) in
  let failures =
    Odex.Failure_sweep.monte_carlo ~trials ~seed:(0xB0C4 + z) (fun ~rng ~trial:_ ->
        not
          (Odex_sortnet.Bucket_sort.simulate_overflow plan
             ~master:(Odex_crypto.Rng.int rng 0x3FFFFFFF)
             ~b:1 ~n_blocks:(2 * z)))
  in
  (failures, Odex_sortnet.Bucket_sort.overflow_bound plan)

let test_bucket_overflow_bound () =
  let trials = 400 in
  let rates =
    List.map
      (fun z ->
        let failures, bound = bucket_overflow_failures ~trials ~z in
        (* Ceiling: the analytic bound plus 3 binomial standard
           deviations of headroom — measured rates run far below the
           Chernoff bound, so tripping this means broken routing. *)
        let sigma = sqrt (bound *. (1. -. bound) *. Float.of_int trials) in
        let ceiling = (bound *. Float.of_int trials) +. (3. *. sigma) +. 2. in
        if Float.of_int failures > ceiling then
          Alcotest.failf "Z=%d: %d/%d overflows exceeds bound %.4f (ceiling %.1f)" z failures
            trials bound ceiling;
        failures)
      [ 16; 32; 64 ]
  in
  match rates with
  | [ r16; r32; r64 ] ->
      Alcotest.(check bool) "overflow rate falls as Z doubles" true (r16 >= r32 && r32 >= r64)
  | _ -> assert false

(* Negative control pinning the sweep's power: at Z = 4 the exponent is
   gone (bound = 1) and the real pipeline must overflow in at least
   half the runs — through the actual permutation, not the simulator,
   so the control also certifies the two agree on the failure event. *)
let test_bucket_undersized_z_overflows () =
  let trials = 40 in
  let b = 1 and n_blocks = 64 in
  let failures =
    Odex.Failure_sweep.monte_carlo ~trials ~seed:0xBAD2 (fun ~rng ~trial:_ ->
        let cells =
          Array.init (n_blocks * b) (fun i ->
              Cell.item ~key:(Odex_crypto.Rng.int rng 10_000) ~value:i ())
        in
        let (o : Odex_sortnet.Bucket_sort.outcome), _ =
          Util.with_array ~b cells (fun _s a ->
              Odex_sortnet.Bucket_sort.permute ~z_cells:4 ~rng ~m:18 a)
        in
        o.ok)
  in
  if failures * 2 < trials then
    Alcotest.failf "undersized Z=4 permutation succeeded %d/%d times - the bound sweep has no power"
      (trials - failures) trials

(* The same sweep through the real permutation at Z = 32 (the fence):
   failures are reported via outcome.ok, survivors must still hold the
   input multiset (padded with empties, never silently wrong). *)
let test_bucket_real_overflow_rate () =
  let trials = 60 in
  let b = 1 and n_blocks = 256 in
  let plan = Odex_sortnet.Bucket_sort.make_plan ~b ~z_cells:32 ~n_cells:n_blocks in
  let bound = Odex_sortnet.Bucket_sort.overflow_bound plan in
  let failures =
    Odex.Failure_sweep.monte_carlo ~trials ~seed:0xB32 (fun ~rng ~trial:_ ->
        let keys = Array.init n_blocks (fun i -> i * 17 mod 1009) in
        let (o : Odex_sortnet.Bucket_sort.outcome), a =
          Util.with_array ~b (Util.cells_of_keys keys) (fun _s a ->
              Odex_sortnet.Bucket_sort.permute ~z_cells:32 ~rng ~m:130 a)
        in
        if o.ok then Util.check_multiset "surviving permutation" keys a;
        o.ok)
  in
  let sigma = sqrt (bound *. (1. -. bound) *. Float.of_int trials) in
  if Float.of_int failures > (bound *. Float.of_int trials) +. (3. *. sigma) +. 2. then
    Alcotest.failf "real permutation overflowed %d/%d times at Z=32 (bound %.3f)" failures
      trials bound

let prop_shuffle_engines_agree =
  Util.qcheck_case ~name:"sort shuffle engines both produce the same multiset, sorted"
    ~count:10
    QCheck2.Gen.(pair (list_size (int_range 100 500) (int_range (-50) 50)) int)
    (fun (keys, seed) ->
      let keys = Array.of_list keys in
      List.for_all
        (fun shuffle ->
          let cells = Util.cells_of_keys keys in
          let s = Util.storage ~b:4 () in
          let a = Ext_array.of_cells s ~block_size:4 cells in
          let rng = Odex_crypto.Rng.create ~seed in
          (* m = 20 clears the bucket geometry's m >= 18 floor, so the
             `Bucket leg really routes through the butterfly. *)
          let o = Sort.run ~shuffle ~m:20 ~rng a in
          (not o.Sort.ok)
          || Util.keys_of_items (Ext_array.items a) = List.sort compare (Array.to_list keys))
        [ `Knuth; `Bucket ])

let suite =
  [
    Alcotest.test_case "MC: loose compaction overflow rate" `Quick test_loose_overflow_rate;
    Alcotest.test_case "MC: bucket overflow vs 2^-Z/6 bound" `Quick test_bucket_overflow_bound;
    Alcotest.test_case "MC: bucket undersized-Z control" `Quick
      test_bucket_undersized_z_overflows;
    Alcotest.test_case "MC: bucket real overflow rate at Z=32" `Quick
      test_bucket_real_overflow_rate;
    Alcotest.test_case "MC: IBLT decode rate at load 1/3" `Quick test_iblt_decode_rate;
    Alcotest.test_case "MC: IBLT overload control" `Quick test_iblt_overload_fails;
    Alcotest.test_case "MC: sweep repairs obliviously" `Quick test_sweep_repairs_obliviously;
    prop_consolidation;
    prop_butterfly_roundtrip;
    prop_quantiles_match_reference;
    prop_multiway_monochromatic;
    prop_shuffle_deal_conserves;
    prop_logstar_conserves;
    prop_selection_exponent_quarter;
    prop_sort_engines_agree;
    prop_shuffle_engines_agree;
    prop_run_buf_never_stale;
    prop_prp_roundtrip;
    prop_prp_bijection;
    prop_ceil_div;
    prop_ilog2;
    prop_log_star;
    prop_tower_of_twos;
  ]
