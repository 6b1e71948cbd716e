(* Statistical obliviousness: with the coins free (Pairtest fixes
   them), the distribution of Bob's view over coin draws must still be
   independent of the data. Every seed below is deterministic, so these
   verdicts are bit-reproducible — no flaky statistics. *)

open Odex_extmem
open Odex_obcheck
open Odex

let sub name run = { Pairtest.name; run }

(* --- the approximation itself -------------------------------------- *)

let test_critical_values () =
  (* Wilson–Hilferty against table values of the chi-square upper tail:
     p = 0.001 (z = 3.09): df 10 -> 29.59, df 50 -> 86.66, df 127 ->
     181.99. The cube approximation is within a few percent there. *)
  List.iter
    (fun (df, expected) ->
      let got = Statcheck.chi_square_critical ~df ~z:3.09 in
      if Float.abs (got -. expected) > 0.04 *. expected then
        Alcotest.failf "critical(df=%d): got %.2f, table %.2f" df got expected)
    [ (10, 29.59); (50, 86.66); (127, 181.99) ]

let test_two_sample_basics () =
  let stat, df = Statcheck.two_sample [| 50; 50; 0 |] [| 48; 52; 0 |] in
  Alcotest.(check int) "empty bin carries no df" 1 df;
  Alcotest.(check bool) "near-identical histograms score low" true (stat < 1.);
  let stat2, _ = Statcheck.two_sample [| 100; 0 |] [| 0; 100 |] in
  Alcotest.(check bool) "disjoint histograms score high" true (stat2 > 100.)

(* --- the histogram fold at its edges ------------------------------- *)

let test_histogram_empty_trace () =
  let acc = Array.make 8 0 in
  Statcheck.histogram_of_ops ~bins:4 [] acc;
  Alcotest.(check (array int)) "empty trace leaves the accumulator zeroed"
    (Array.make 8 0) acc

let test_histogram_retry_direction () =
  (* A retried op lands in the same directional bin as its clean
     counterpart: Bob cannot tell them apart by address, only by
     repetition — which the matched histograms preserve. *)
  let clean = Array.make 8 0 and retried = Array.make 8 0 in
  Statcheck.histogram_of_ops ~bins:4 [ Trace.Read 5; Trace.Write 6 ] clean;
  Statcheck.histogram_of_ops ~bins:4 [ Trace.Retry_read 5; Trace.Retry_write 6 ] retried;
  Alcotest.(check (array int)) "retries share their direction's bins" clean retried;
  Alcotest.(check int) "read half populated" 1 clean.(1);
  Alcotest.(check int) "write half populated" 1 clean.(4 + 2)

let test_histogram_collision_conservative () =
  (* Addresses congruent modulo [bins] pool into one bin: a collision
     can hide a leak (the test stays conservative) but can never invent
     a difference between matched histograms. *)
  let ha = Array.make 8 0 and hb = Array.make 8 0 in
  Statcheck.histogram_of_ops ~bins:4 [ Trace.Read 1; Trace.Read 9 ] ha;
  Statcheck.histogram_of_ops ~bins:4 [ Trace.Read 5; Trace.Read 13 ] hb;
  Alcotest.(check (array int)) "colliding addresses are indistinguishable" ha hb;
  Alcotest.(check int) "both land in bin 1" 2 ha.(1)

(* Matched histogram pairs: same bin count, arbitrary counts (including
   all-zero bins and empty-in-one-sample bins). *)
let hist_pair_gen =
  QCheck2.Gen.(
    int_range 2 16 >>= fun n ->
    pair (array_size (return n) (int_bound 50)) (array_size (return n) (int_bound 50)))

let qcheck_two_sample_symmetric =
  Util.qcheck_case ~count:200 ~name:"two_sample is symmetric" hist_pair_gen
    (fun (a, b) ->
      let sab, dab = Statcheck.two_sample a b in
      let sba, dba = Statcheck.two_sample b a in
      if dab <> dba then
        QCheck2.Test.fail_reportf "df asymmetric: %d vs %d" dab dba;
      if Float.abs (sab -. sba) > 1e-9 then
        QCheck2.Test.fail_reportf "stat asymmetric: %g vs %g" sab sba;
      true)

let qcheck_two_sample_identical_zero =
  Util.qcheck_case ~count:200 ~name:"two_sample of identical histograms is zero"
    QCheck2.Gen.(array_size (int_range 2 16) (int_bound 50))
    (fun a ->
      let stat, _ = Statcheck.two_sample a (Array.copy a) in
      if Float.abs stat > 1e-9 then
        QCheck2.Test.fail_reportf "identical histograms scored %g" stat;
      true)

(* --- randomized subjects: distribution must be data-independent ---- *)

let shuffle_subject =
  sub "shuffle" (fun ~rng ~m:_ _s a -> Shuffle_deal.shuffle ~rng a)

(* Sparse (IBLT) compaction under a coin-derived table key: the hash
   addresses vary with the coins; their law must not vary with the
   values. The input is consolidated first, as Theorem 4 requires. The
   capacity is the theorem's sparse regime (far below the occupied
   count here, so the decode reports incomplete — the trace is
   identical either way, which is the point). *)
let sparse_subject =
  sub "sparse-compaction" (fun ~rng ~m _s a ->
      let consolidated = Consolidation.run ~into:None a in
      let key = Odex_crypto.Prf.key_of_int (Odex_crypto.Rng.int rng 0x3FFF_FFFF) in
      ignore (Sparse_compaction.run ~m ~key ~capacity:4 consolidated))

let distribution_cases =
  List.map
    (fun (subject, n_cells, b, m) ->
      Alcotest.test_case
        (Printf.sprintf "distribution %s" subject.Pairtest.name)
        `Quick
        (fun () ->
          let v = Statcheck.trace_distribution subject ~n_cells ~b ~m in
          Alcotest.(check bool) (Format.asprintf "%a" Statcheck.pp_verdict v) true v.pass;
          Alcotest.(check int) "full sample count" 200 v.samples))
    [
      (shuffle_subject, 128, 4, 8);
      (sparse_subject, 128, 4, 32);
      (Util.subject "hier-oram", 48, 4, 16);
      (* The two new randomized sorters at their registry shape: the
         coins must whiten whatever rank-dependence the merge phase has
         (bucket-sort) and the routing has none at all (permutation). *)
      (Util.subject "bucket-sort", 2048, 4, 256);
      (Util.subject "oblivious-permutation", 2048, 4, 256);
    ]

(* --- the checker catches a planted distributional leak ------------- *)

(* Per fixed coin seed this subject is NOT pair-divergent in
   distribution-free ways Pairtest would need: it reads addresses
   derived from the stored keys, so each fixed-coin trace differs
   between the pair members — but crucially its address *histogram*
   concentrates where the keys live, which is exactly what the
   two-sample test must reject (input A's keys live in a disjoint range
   from input B's). *)
let leaky_subject =
  sub "leaky-distribution" (fun ~rng ~m:_ _s a ->
      let n = Ext_array.blocks a in
      let k = match Ext_array.items a with it :: _ -> it.key | [] -> 0 in
      for _ = 1 to 64 do
        ignore (Util.read_at a ((k + Odex_crypto.Rng.int rng 2) mod n))
      done)

let test_detects_leak () =
  let v = Statcheck.trace_distribution ~samples:50 leaky_subject ~n_cells:128 ~b:4 ~m:8 in
  Alcotest.(check bool)
    (Format.asprintf "leak must be rejected: %a" Statcheck.pp_verdict v)
    false v.pass

(* --- shuffle swap-partner uniformity ------------------------------- *)

(* The Knuth shuffle's first step swaps block 0 with a uniform partner
   in [0, n): read the partner straight out of the Full trace (the swap
   transcript is Read i, Read j, Write i, Write j) across many seeded
   runs and test the histogram against the uniform law. *)
let observed_partners ~n_blocks ~samples =
  let hist = Array.make n_blocks 0 in
  for i = 0 to samples - 1 do
    let s = Storage.create ~trace_mode:Trace.Full ~block_size:2 () in
    Fun.protect
      ~finally:(fun () -> Storage.close s)
      (fun () ->
        let cells = Array.init (n_blocks * 2) (fun j -> Cell.item ~key:j ~value:j ()) in
        let a = Ext_array.of_cells s ~block_size:2 cells in
        let rng = Odex_crypto.Rng.create ~seed:(0x5FFE + i) in
        Shuffle_deal.shuffle ~rng a;
        match Trace.ops (Storage.trace s) with
        | Trace.Read 0 :: Trace.Read j :: _ -> hist.(j) <- hist.(j) + 1
        | _ -> Alcotest.fail "unexpected swap transcript")
  done;
  hist

let test_partner_uniformity () =
  let n_blocks = 16 in
  let hist = observed_partners ~n_blocks ~samples:320 in
  let v = Statcheck.uniformity_verdict ~name:"shuffle partner" hist in
  Alcotest.(check bool) (Format.asprintf "%a" Statcheck.pp_verdict v) true v.pass

let test_uniformity_rejects_bias () =
  (* A partner source stuck on a quarter of the range must fail. *)
  let hist = Array.make 16 0 in
  for i = 0 to 319 do
    let j = i mod 4 in
    hist.(j) <- hist.(j) + 1
  done;
  let v = Statcheck.uniformity_verdict ~name:"biased partner" hist in
  Alcotest.(check bool) (Format.asprintf "%a" Statcheck.pp_verdict v) false v.pass

(* --- oblivious permutation: output-position uniformity ------------- *)

(* The bucket routing promises a uniformly random permutation
   (conditioned on no overflow). Track one sentinel cell through the
   real pipeline across disjointly-seeded runs and chi-square its
   output position against the uniform law. 512 cells in 128 blocks
   against m = 66 forces the out-of-cache butterfly (auto_plan picks
   Z = 64 cells); 32 position bins at 400 samples give expected count
   12.5 per bin. *)
let permute_positions ~samples ~seed_of =
  let n_cells = 512 and b = 4 and m = 66 in
  let bins = 32 in
  let sentinel = 0x3FFF_FFF0 in
  let hist = Array.make bins 0 in
  let overflows = ref 0 in
  for i = 0 to samples - 1 do
    let cells =
      Array.init n_cells (fun j ->
          Cell.item ~key:(if j = 0 then sentinel else j) ~value:j ())
    in
    let s = Util.storage ~b () in
    Fun.protect
      ~finally:(fun () -> Storage.close s)
      (fun () ->
        let a = Ext_array.of_cells s ~block_size:b cells in
        let rng = Odex_crypto.Rng.create ~seed:(seed_of ~sentinel i) in
        let o = Odex_sortnet.Bucket_sort.permute ~rng ~m a in
        if not o.Odex_sortnet.Bucket_sort.ok then incr overflows
        else begin
          let pos = ref (-1) in
          Array.iteri
            (fun j c ->
              match c with
              | Cell.Item it when it.key = sentinel -> pos := j
              | _ -> ())
            (Ext_array.to_cells a);
          if !pos < 0 then Alcotest.fail "sentinel cell lost by the permutation";
          let bin = !pos * bins / n_cells in
          hist.(bin) <- hist.(bin) + 1
        end)
  done;
  (hist, !overflows)

let test_permutation_uniformity () =
  let samples = 400 in
  let hist, overflows =
    permute_positions ~samples ~seed_of:(fun ~sentinel:_ i ->
        Util.seed_stream "permute-uniformity" i)
  in
  (* Overflow is coin-public with bound ~1.5e-3 at Z=64: a handful of
     conditioned-away runs is fine, a systematic loss is not. *)
  Alcotest.(check bool)
    (Printf.sprintf "few overflows (%d/%d)" overflows samples)
    true (overflows <= 8);
  let v = Statcheck.uniformity_verdict ~name:"permutation position" hist in
  Alcotest.(check bool) (Format.asprintf "%a" Statcheck.pp_verdict v) true v.pass

(* Negative control pinning the test's power: derive the coins from the
   payload (a planted randomness leak — every run reuses the same
   data-determined seed, so the sentinel lands in one fixed position).
   The uniformity verdict must reject it. *)
let test_permutation_planted_leak () =
  let hist, _ =
    permute_positions ~samples:60 ~seed_of:(fun ~sentinel _ -> sentinel lxor 0xD0)
  in
  let v = Statcheck.uniformity_verdict ~name:"payload-seeded permutation" hist in
  Alcotest.(check bool)
    (Format.asprintf "planted leak must be rejected: %a" Statcheck.pp_verdict v)
    false v.pass

let suite =
  [
    Alcotest.test_case "Wilson-Hilferty critical values" `Quick test_critical_values;
    Alcotest.test_case "permutation position uniformity" `Quick test_permutation_uniformity;
    Alcotest.test_case "permutation planted-leak control" `Quick
      test_permutation_planted_leak;
    Alcotest.test_case "two-sample statistic basics" `Quick test_two_sample_basics;
    Alcotest.test_case "histogram of empty trace" `Quick test_histogram_empty_trace;
    Alcotest.test_case "histogram retry direction" `Quick test_histogram_retry_direction;
    Alcotest.test_case "histogram collision conservative" `Quick
      test_histogram_collision_conservative;
    qcheck_two_sample_symmetric;
    qcheck_two_sample_identical_zero;
    Alcotest.test_case "detects planted distributional leak" `Quick test_detects_leak;
    Alcotest.test_case "shuffle partner uniformity" `Quick test_partner_uniformity;
    Alcotest.test_case "uniformity rejects bias" `Quick test_uniformity_rejects_bias;
  ]
  @ distribution_cases
