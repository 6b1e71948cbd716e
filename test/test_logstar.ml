open Odex_extmem
open Odex

let consolidated ~b ~n occupied =
  let s = Util.storage ~b () in
  let a = Ext_array.create s ~blocks:n in
  List.iter
    (fun (pos, seed) ->
      let blk = Array.init b (fun j -> Cell.item ~tag:j ~key:((seed * 100) + j) ~value:seed ()) in
      Storage.unchecked_poke s (Ext_array.addr a pos) blk)
    occupied;
  (s, a)

let payload_seeds arr =
  List.sort_uniq compare
    (List.filter_map
       (fun i ->
         match
           Util.block_items (Storage.unchecked_peek (Ext_array.storage arr) (Ext_array.addr arr i))
         with
         | it :: _ -> Some it.Cell.value
         | [] -> None)
       (List.init (Ext_array.blocks arr) (fun i -> i)))

let test_logstar_basic () =
  let n = 256 in
  let occupied = List.init 40 (fun i -> (i * 6, i + 1)) in
  let _, a = consolidated ~b:2 ~n occupied in
  let rng = Odex_crypto.Rng.create ~seed:1 in
  let out = Logstar_compaction.run ~m:32 ~rng ~capacity:64 a in
  Alcotest.(check bool) "ok" true out.Logstar_compaction.ok;
  Alcotest.(check int) "dest size 4.25r" ((4 * 64) + 16)
    (Ext_array.blocks out.Logstar_compaction.dest);
  Alcotest.(check (list int)) "every block present" (List.init 40 (fun i -> i + 1))
    (payload_seeds out.Logstar_compaction.dest);
  Alcotest.(check int) "all items present" (40 * 2)
    (List.length (Ext_array.items out.Logstar_compaction.dest))

let test_logstar_empty_and_full_edges () =
  let _, a = consolidated ~b:2 ~n:16 [] in
  let rng = Odex_crypto.Rng.create ~seed:2 in
  let out = Logstar_compaction.run ~m:8 ~rng ~capacity:4 a in
  Alcotest.(check bool) "empty ok" true out.Logstar_compaction.ok;
  Alcotest.(check int) "no items" 0 (List.length (Ext_array.items out.Logstar_compaction.dest));
  let out0 = Logstar_compaction.run ~m:8 ~rng ~capacity:0 (snd (consolidated ~b:2 ~n:4 [])) in
  Alcotest.(check int) "capacity 0" 0 (Ext_array.blocks out0.Logstar_compaction.dest)

let test_logstar_quarter_load () =
  (* r = n/4 exactly, the theorem's limit. *)
  let n = 128 in
  let occupied = List.init 32 (fun i -> (i * 4, i + 1)) in
  let _, a = consolidated ~b:2 ~n occupied in
  let rng = Odex_crypto.Rng.create ~seed:3 in
  let out = Logstar_compaction.run ~m:16 ~rng ~capacity:32 a in
  Alcotest.(check bool) "ok" true out.Logstar_compaction.ok;
  Alcotest.(check (list int)) "all present" (List.init 32 (fun i -> i + 1))
    (payload_seeds out.Logstar_compaction.dest)

let test_logstar_oblivious () =
  let trace occupied =
    let _, a = consolidated ~b:2 ~n:128 occupied in
    let s = Ext_array.storage a in
    let rng = Odex_crypto.Rng.create ~seed:4 in
    ignore (Logstar_compaction.run ~m:16 ~rng ~capacity:24 a);
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  let t1 = trace (List.init 20 (fun i -> (i, i + 1))) in
  let t2 = trace (List.init 20 (fun i -> (127 - (i * 5), i + 1))) in
  let t3 = trace [] in
  Alcotest.(check bool) "trace fixed" true (t1 = t2 && t2 = t3)

let test_logstar_phase_count () =
  (* Phases are bounded by log* and by the tower cutoff. *)
  let _, a = consolidated ~b:2 ~n:512 (List.init 100 (fun i -> (i * 5, i + 1))) in
  let rng = Odex_crypto.Rng.create ~seed:5 in
  let out = Logstar_compaction.run ~m:32 ~rng ~capacity:128 a in
  Alcotest.(check bool) "phases bounded" true
    (out.Logstar_compaction.phases <= Emodel.log_star 512)

(* ---------------- the audit module itself ---------------- *)

let test_audit_flags_oblivious_algorithm () =
  let rng = Odex_crypto.Rng.create ~seed:6 in
  let inputs = Oblivious.input_classes ~rng ~n:60 in
  let subject =
    {
      Oblivious.name = "consolidation";
      run = (fun _rng _s a -> ignore (Consolidation.run ~into:None a));
    }
  in
  let report = Oblivious.audit ~b:4 ~inputs subject in
  Alcotest.(check bool) "consolidation passes audit" true report.Oblivious.oblivious;
  Alcotest.(check int) "five observations" 5 (List.length report.Oblivious.observations)

let test_audit_flags_leaky_algorithm () =
  (* A deliberately leaky "sort": reads depend on the data (hash-table
     style access, the paper's non-example). *)
  let rng = Odex_crypto.Rng.create ~seed:7 in
  let inputs = Oblivious.input_classes ~rng ~n:60 in
  let leaky =
    {
      Oblivious.name = "leaky";
      run =
        (fun _rng s a ->
          let n = Ext_array.blocks a in
          for i = 0 to n - 1 do
            let blk = Util.read_at a i in
            match Util.block_items blk with
            | it :: _ -> ignore (Storage.read s (Ext_array.addr a (it.key mod n)))
            | [] -> ()
          done);
    }
  in
  let report = Oblivious.audit ~b:4 ~inputs leaky in
  Alcotest.(check bool) "leak detected" false report.Oblivious.oblivious

let test_audit_all_core_algorithms () =
  let rng = Odex_crypto.Rng.create ~seed:8 in
  let inputs = Oblivious.input_classes ~rng ~n:240 in
  let subjects =
    [
      {
        Oblivious.name = "sort";
        run = (fun rng _s a -> ignore (Sort.run ~m:12 ~rng a));
      };
      {
        Oblivious.name = "selection";
        run = (fun rng _s a -> ignore (Selection.select ~m:12 ~rng ~k:50 a));
      };
      {
        Oblivious.name = "quantiles";
        run = (fun rng _s a -> ignore (Quantiles.run ~m:12 ~rng ~q:3 a));
      };
      {
        Oblivious.name = "loose-compaction";
        run =
          (fun rng _s a ->
            let d = Consolidation.run ~into:None a in
            ignore (Loose_compaction.run ~m:24 ~rng ~capacity:(Ext_array.blocks d / 4) d));
      };
      {
        Oblivious.name = "logstar-compaction";
        run =
          (fun rng _s a ->
            let d = Consolidation.run ~into:None a in
            ignore (Logstar_compaction.run ~m:16 ~rng ~capacity:(Ext_array.blocks d / 4) d));
      };
    ]
  in
  List.iter
    (fun subject ->
      let report = Oblivious.audit ~b:4 ~inputs subject in
      if not report.Oblivious.oblivious then
        Alcotest.failf "%s failed the obliviousness audit" report.Oblivious.subject)
    subjects

(* Region compaction once overwrote a survivor whose slot lay inside
   the region's prefix and still reported ok. With no initial thinning
   (c0 = 0) and the tower phases forced, regions reach it crowded. A run
   either returns every block it was given or reports the loss: the
   crowded draws overflow the final pass's r/4-block reserve and must
   say so with ok = false. *)
let test_logstar_keeps_every_block () =
  let n = 2048 in
  let complete = ref 0 in
  for seed = 1 to 40 do
    let rng = Util.rng_of "logstar-keeps" seed in
    let count = 64 + Odex_crypto.Rng.int rng 448 in
    let pos = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Odex_crypto.Rng.int rng (i + 1) in
      let t = pos.(i) in
      pos.(i) <- pos.(j);
      pos.(j) <- t
    done;
    let occupied = List.init count (fun i -> (pos.(i), i + 1)) in
    let _, a = consolidated ~b:2 ~n occupied in
    let out = Logstar_compaction.run ~c0:0 ~sparse_threshold:0 ~m:16 ~rng ~capacity:512 a in
    let kept = List.length (Ext_array.items out.Logstar_compaction.dest) = 2 * count in
    if kept then incr complete;
    if out.Logstar_compaction.ok && not kept then
      Alcotest.failf "seed %d: ok with %d of %d blocks" seed
        (List.length (payload_seeds out.Logstar_compaction.dest))
        count
  done;
  if !complete < 20 then Alcotest.failf "only %d of 40 runs kept every block" !complete

let suite =
  [
    ("logstar keeps every block", `Quick, test_logstar_keeps_every_block);
    ("logstar basic", `Quick, test_logstar_basic);
    ("logstar edges", `Quick, test_logstar_empty_and_full_edges);
    ("logstar quarter load", `Quick, test_logstar_quarter_load);
    ("logstar oblivious", `Quick, test_logstar_oblivious);
    ("logstar phase bound", `Quick, test_logstar_phase_count);
    ("audit passes oblivious subject", `Quick, test_audit_flags_oblivious_algorithm);
    ("audit catches leaky subject", `Quick, test_audit_flags_leaky_algorithm);
    ("audit all core algorithms", `Slow, test_audit_all_core_algorithms);
  ]
