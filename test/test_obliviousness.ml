(* Pair-testing obliviousness checks (the operational definition: fixed
   coins + value-disjoint same-shape inputs => identical traces), span
   divergence pinpointing, and I/O counts against the paper's bounds. *)

open Odex_extmem
open Odex_obcheck

(* --- pair tests: every registered subject on every backend -------- *)

(* The obliviousness claim is about Bob's view, and Bob serves every
   backend: the mem, file and faulty stores must all produce identical
   pair traces. On the faulty backend the (seeded, data-independent)
   fault schedule makes retries part of the view, so the pair test also
   proves the retry pattern leaks nothing — and the nonzero failure
   rate must actually produce retries, or the leg tests nothing. *)
let registry_cases =
  List.concat_map
    (fun backend_name ->
      List.map
        (fun (e : Registry.entry) ->
          Alcotest.test_case
            (Printf.sprintf "pair %s [%s]" e.subject.Pairtest.name backend_name)
            `Quick
            (fun () ->
              let spec = Registry.backend_spec backend_name in
              Fun.protect
                ~finally:(fun () -> Storage.remove_spec_files spec)
                (fun () ->
                  let o =
                    Pairtest.check ~backend:spec ~pair:(Registry.pair_mode e) e.subject
                      ~n_cells:e.n_cells ~b:e.b ~m:e.m
                  in
                  Alcotest.(check bool)
                    (Format.asprintf "%a" Pairtest.pp_outcome o)
                    true o.oblivious;
                  if backend_name = "faulty" then
                    Alcotest.(check bool) "faults actually injected" true
                      (o.run_a.Pairtest.retries > 0)
                  else
                    Alcotest.(check int) "no retries on a healthy backend" 0
                      o.run_a.Pairtest.retries)))
        Registry.all)
    Registry.backend_names

(* --- fuzzed shapes: obliviousness beyond the hand-picked sizes ---- *)

(* Random (N, B, M, seed) configurations per registered subject, half of
   them on a fault-injecting backend whose plan is derived from the
   config seed. [m] is clamped to each subject's documented floor
   (butterfly needs m >= 3; a direct Loose_compaction.run rejects
   region size 3*ceil(log2 n_blocks) > m); everything else about the
   shape is adversarially random. *)
let fuzz_m_floor name ~n_blocks =
  match name with
  | "loose-compaction" -> (3 * Emodel.ilog2_ceil (max 2 n_blocks)) + 1
  (* The butterfly permutation needs 4 buckets of >= 4 blocks plus the
     split buffers in cache for out-of-cache inputs. *)
  | "oblivious-permutation" -> 18
  | _ -> 4

(* Size ceiling per subject: ORAM subjects pay 2·N accesses (quadratic
   for the linear scan, rebuild-heavy for the hierarchical one) and the
   recursive algorithms pay sort-scale work per config; 100 configs per
   subject must still finish in seconds. *)
let fuzz_max_cells name =
  match name with
  | "linear-oram" | "sqrt-oram" | "hier-oram" -> 40
  | "sort" | "logstar-compaction" | "loose-compaction" | "selection" | "quantiles" -> 96
  | _ -> 160

let fuzz_config_gen ~max_cells =
  QCheck2.Gen.(
    quad (int_range 4 max_cells) (int_range 1 8) (int_range 0 36)
      (pair (int_range 0 0xFF_FFFF) bool))

let fuzz_case (e : Registry.entry) =
  let name = e.subject.Pairtest.name in
  Util.qcheck_case ~count:100
    ~name:(Printf.sprintf "fuzz pair %s" name)
    (fuzz_config_gen ~max_cells:(fuzz_max_cells name))
    (fun (n_cells, b, m_extra, (seed, faulty)) ->
      let n_blocks = Emodel.ceil_div n_cells b in
      let m = fuzz_m_floor name ~n_blocks + m_extra in
      let backend =
        if faulty then
          Storage.Faulty
            {
              inner = Storage.Mem;
              seed;
              failure_rate = 0.02 +. (Float.of_int (seed land 0xF) /. 200.);
              max_burst = 1 + (seed land 3);
            }
        else Storage.Mem
      in
      let o = Pairtest.check ~seed ~backend ~pair:(Registry.pair_mode e) e.subject ~n_cells ~b ~m in
      if not o.Pairtest.oblivious then
        QCheck2.Test.fail_reportf "%a" Pairtest.pp_outcome o;
      true)

let fuzz_cases = List.map fuzz_case Registry.all

(* --- the checker catches a planted leak --------------------------- *)

(* A scan that issues an extra read whenever the first cell's key is
   even: exactly the class of defect the harness exists to catch. The
   leak is wrapped in a labelled span so the divergence report must
   name it. *)
let leaky_subject =
  {
    Pairtest.name = "leaky-scan";
    run =
      (fun ~rng:_ ~m:_ _s a ->
        Ext_array.with_span a "leak.prelude" (fun () ->
            for i = 0 to Ext_array.blocks a - 1 do
              ignore (Ext_array.read_block a i)
            done);
        Ext_array.with_span a "leak.scan" (fun () ->
            for i = 0 to Ext_array.blocks a - 1 do
              let blk = Ext_array.read_block a i in
              match blk.(0) with
              | Cell.Item it when it.key land 1 = 0 -> ignore (Ext_array.read_block a i)
              | _ -> ()
            done));
  }

let test_detects_leak () =
  let o = Pairtest.check leaky_subject ~n_cells:256 ~b:4 ~m:8 in
  Alcotest.(check bool) "leak detected" false o.oblivious;
  Alcotest.(check (option string)) "offending span named" (Some "leak.scan") o.diverging_span

(* --- span machinery ----------------------------------------------- *)

let test_span_nesting () =
  let tr = Trace.create Trace.Digest in
  Trace.with_span tr "outer" (fun () ->
      Trace.record tr (Trace.Read 0);
      Trace.with_span tr "inner" (fun () -> Trace.record tr (Trace.Write 1)));
  match Trace.spans tr with
  | [ inner; outer ] ->
      (* Completion order: inner closes first. *)
      Alcotest.(check string) "inner label" "inner" inner.Trace.label;
      Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
      Alcotest.(check int) "inner window" 1 (inner.Trace.end_length - inner.Trace.start_length);
      Alcotest.(check string) "outer label" "outer" outer.Trace.label;
      Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
      Alcotest.(check int) "outer window" 2 (outer.Trace.end_length - outer.Trace.start_length)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_exception_safe () =
  let tr = Trace.create Trace.Digest in
  (try
     Trace.with_span tr "doomed" (fun () ->
         Trace.record tr (Trace.Read 7);
         failwith "boom")
   with Failure _ -> ());
  match Trace.spans tr with
  | [ s ] ->
      Alcotest.(check string) "span closed on raise" "doomed" s.Trace.label;
      Alcotest.(check int) "ops recorded" 1 s.Trace.end_length
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* --- I/O bounds ---------------------------------------------------- *)

let measure ~n_cells ~b ~seed f =
  let s = Util.storage ~b () in
  let cells, _ = Pairtest.pair_inputs ~seed ~n:n_cells in
  let a = Ext_array.of_cells s ~block_size:b cells in
  let rng = Odex_crypto.Rng.create ~seed in
  f rng a;
  (Stats.total (Storage.stats s), Ext_array.blocks a)

let check_verdict v =
  Alcotest.(check bool) (Format.asprintf "%a" Iobound.pp_verdict v) true v.Iobound.within

let test_bound_consolidation () =
  let actual, n_blocks =
    measure ~n_cells:512 ~b:4 ~seed:11 (fun _rng a ->
        ignore (Odex.Consolidation.run ~into:None a))
  in
  check_verdict (Iobound.consolidation ~n_blocks ~actual)

let test_bound_butterfly () =
  let m = 8 in
  let actual, n_blocks =
    measure ~n_cells:512 ~b:4 ~seed:12 (fun _rng a -> ignore (Odex.Butterfly.compact ~m a))
  in
  check_verdict (Iobound.butterfly_compaction ~n_blocks ~m_blocks:m ~actual)

let test_bound_selection () =
  let m = 16 in
  let actual, n_blocks =
    measure ~n_cells:2048 ~b:4 ~seed:13 (fun rng a ->
        let total = List.length (Ext_array.items a) in
        ignore (Odex.Selection.select ~m ~rng ~k:(max 1 (total / 2)) a))
  in
  check_verdict (Iobound.selection ~n_blocks ~actual)

let test_bound_quantiles () =
  let m = 16 and q = 3 in
  let actual, n_blocks =
    measure ~n_cells:2048 ~b:4 ~seed:14 (fun rng a ->
        ignore (Odex.Quantiles.run ~m ~rng ~q a))
  in
  check_verdict (Iobound.quantiles ~n_blocks ~q ~actual)

let test_bound_loose_compaction () =
  let m = 32 in
  let actual, n_blocks =
    measure ~n_cells:1024 ~b:4 ~seed:15 (fun rng a ->
        ignore (Odex.Loose_compaction.run ~m ~rng ~capacity:(Ext_array.blocks a / 8) a))
  in
  check_verdict (Iobound.loose_compaction ~n_blocks ~actual)

let test_bound_sort () =
  let m = 16 in
  let actual, n_blocks =
    measure ~n_cells:768 ~b:4 ~seed:16 (fun rng a -> ignore (Odex.Sort.run ~m ~rng a))
  in
  check_verdict (Iobound.sort ~n_blocks ~m_blocks:m ~actual)

let suite =
  registry_cases @ fuzz_cases
  @ [
      Alcotest.test_case "checker detects planted leak" `Quick test_detects_leak;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
      Alcotest.test_case "bound: consolidation exact" `Quick test_bound_consolidation;
      Alcotest.test_case "bound: butterfly" `Quick test_bound_butterfly;
      Alcotest.test_case "bound: selection" `Quick test_bound_selection;
      Alcotest.test_case "bound: quantiles" `Quick test_bound_quantiles;
      Alcotest.test_case "bound: loose compaction" `Quick test_bound_loose_compaction;
      Alcotest.test_case "bound: sort" `Quick test_bound_sort;
    ]
