open Odex_extmem
open Odex_oram

let test_prp_bijection () =
  List.iter
    (fun domain ->
      let prp = Odex_crypto.Prp.create ~domain (Odex_crypto.Prf.key_of_int domain) in
      let seen = Array.make domain false in
      for x = 0 to domain - 1 do
        let y = Odex_crypto.Prp.apply prp x in
        if y < 0 || y >= domain then Alcotest.failf "out of domain: %d -> %d" x y;
        if seen.(y) then Alcotest.failf "collision at %d" y;
        seen.(y) <- true;
        Alcotest.(check int) "inverse" x (Odex_crypto.Prp.inverse prp y)
      done)
    [ 1; 2; 3; 17; 64; 100; 1000 ]

let test_prp_keys_differ () =
  let p1 = Odex_crypto.Prp.create ~domain:100 (Odex_crypto.Prf.key_of_int 1) in
  let p2 = Odex_crypto.Prp.create ~domain:100 (Odex_crypto.Prf.key_of_int 2) in
  let same = ref 0 in
  for x = 0 to 99 do
    if Odex_crypto.Prp.apply p1 x = Odex_crypto.Prp.apply p2 x then incr same
  done;
  Alcotest.(check bool) "mostly different" true (!same < 20)

let test_linear_oram () =
  let s = Util.storage ~b:2 () in
  let t = Linear_oram.init s ~values:(Array.init 20 (fun i -> i * 11)) in
  Alcotest.(check int) "read" 55 (Linear_oram.read t 5);
  Linear_oram.write t 5 999;
  Alcotest.(check int) "write persists" 999 (Linear_oram.read t 5);
  Alcotest.(check int) "others untouched" 66 (Linear_oram.read t 6)

let test_linear_oram_oblivious () =
  let trace addrs =
    let s = Util.storage ~b:2 () in
    let t = Linear_oram.init s ~values:(Array.init 16 (fun i -> i)) in
    List.iter (fun a -> ignore (Linear_oram.read t a)) addrs;
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  (* Linear ORAM hides even the virtual access pattern pointwise. *)
  Alcotest.(check bool) "pattern hidden" true (trace [ 0; 0; 0 ] = trace [ 5; 9; 1 ])

let exercise_sqrt_oram ~sorter ~n ~ops ~seed =
  let s = Util.storage ~b:4 () in
  let rng = Odex_crypto.Rng.create ~seed in
  let values = Array.init n (fun i -> i * 7) in
  let t = Sqrt_oram.init ~sorter ~m:16 ~rng s ~values in
  let model = Array.copy values in
  let oprng = Odex_crypto.Rng.create ~seed:(seed + 1) in
  for _ = 1 to ops do
    let addr = Odex_crypto.Rng.int oprng n in
    if Odex_crypto.Rng.bool oprng then begin
      let v = Odex_crypto.Rng.int oprng 100_000 in
      Sqrt_oram.write t addr v;
      model.(addr) <- v
    end
    else begin
      let got = Sqrt_oram.read t addr in
      if got <> model.(addr) then
        Alcotest.failf "read %d: got %d want %d" addr got model.(addr)
    end
  done;
  (* Final sweep: every word correct. *)
  for addr = 0 to n - 1 do
    if Sqrt_oram.read t addr <> model.(addr) then Alcotest.failf "final sweep: %d wrong" addr
  done;
  t

let test_sqrt_oram_consistency () =
  let t = exercise_sqrt_oram ~sorter:Odex_sortnet.Ext_sort.auto ~n:50 ~ops:300 ~seed:3 in
  Alcotest.(check bool) "reshuffled several times" true (Sqrt_oram.epochs t >= 3)

let test_sqrt_oram_repeated_same_address () =
  (* Hammering one address exercises the dummy-probe path every epoch. *)
  let s = Util.storage ~b:4 () in
  let rng = Odex_crypto.Rng.create ~seed:4 in
  let t = Sqrt_oram.init ~m:16 ~rng s ~values:(Array.init 30 (fun i -> i)) in
  Sqrt_oram.write t 7 123;
  for _ = 1 to 100 do
    Alcotest.(check int) "stable" 123 (Sqrt_oram.read t 7)
  done

(* The bucket engine's dispatch is public (n, B, M): at these rebuild
   shapes it routes through the cache sorter or the bitonic fallback,
   which is exactly what an ORAM wired to `--sorter bucket` would do —
   the variant runs certify the plumbing, not the butterfly. *)
let test_sqrt_oram_sorter_variants () =
  List.iter
    (fun sorter -> ignore (exercise_sqrt_oram ~sorter ~n:40 ~ops:150 ~seed:5))
    [
      Odex_sortnet.Ext_sort.bitonic;
      Odex_sortnet.Ext_sort.bitonic_windowed;
      Odex_sortnet.Ext_sort.bucket ();
    ]

let test_sqrt_oram_value_oblivious () =
  (* Same virtual access sequence, same coins, different stored values:
     identical traces. *)
  let trace mult =
    let s = Util.storage ~b:4 () in
    let rng = Odex_crypto.Rng.create ~seed:6 in
    let t = Sqrt_oram.init ~m:16 ~rng s ~values:(Array.init 25 (fun i -> i * mult)) in
    for i = 0 to 60 do
      ignore (Sqrt_oram.read t (i * 13 mod 25))
    done;
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  Alcotest.(check bool) "value-independent trace" true (trace 1 = trace 1009)

let test_sqrt_oram_sublinear_scaling () =
  (* Amortized I/O per access is Θ(√n · polylog): quadrupling n must
     scale it far less than the 4x of the linear-scan ORAM. The absolute
     crossover against linear is measured at bench scale (E10). Both
     sizes run one named engine: n = 400 and n = 1 600 fall on either
     side of columnsort's one-level capacity at m = 64, so under [auto]
     the ratio would compare two different sorts. *)
  let per_access ~sorter n =
    let s = Util.storage ~b:4 () in
    let rng = Odex_crypto.Rng.create ~seed:7 in
    let t = Sqrt_oram.init ~sorter ~m:64 ~rng s ~values:(Array.make n 0) in
    (* Whole epochs only, so the reshuffle cost is fairly amortized. *)
    let ops = ref 0 in
    while Sqrt_oram.epochs t < 2 do
      ignore (Sqrt_oram.read t (!ops * 7 mod n));
      incr ops
    done;
    Float.of_int (Stats.total (Storage.stats s)) /. Float.of_int !ops
  in
  let windowed = per_access ~sorter:Odex_sortnet.Ext_sort.bitonic_windowed in
  let small = windowed 400 in
  let big = windowed 1600 in
  let ratio = big /. small in
  if ratio > 3.2 then
    Alcotest.failf "per-access cost scaled by %.2f for 4x n (linear would be 4.0)" ratio;
  (* The default dispatch never costs more per access than the network. *)
  List.iter
    (fun (n, w) ->
      let a = per_access ~sorter:Odex_sortnet.Ext_sort.auto n in
      if a > w then Alcotest.failf "n = %d: auto %.1f I/Os per access, windowed %.1f" n a w)
    [ (400, small); (1600, big) ]

(* ---------------- hierarchical ORAM ---------------- *)

let exercise_hier ~sorter ~n ~ops ~seed =
  let s = Util.storage ~b:4 () in
  let rng = Odex_crypto.Rng.create ~seed in
  let values = Array.init n (fun i -> i * 3) in
  let t = Hierarchical_oram.init ~sorter ~m:32 ~rng s ~values in
  let model = Array.copy values in
  let oprng = Odex_crypto.Rng.create ~seed:(seed + 1) in
  for _ = 1 to ops do
    let addr = Odex_crypto.Rng.int oprng n in
    if Odex_crypto.Rng.bool oprng then begin
      let v = Odex_crypto.Rng.int oprng 100_000 in
      Hierarchical_oram.write t addr v;
      model.(addr) <- v
    end
    else begin
      let got = Hierarchical_oram.read t addr in
      if got <> model.(addr) then
        Alcotest.failf "read %d: got %d want %d (after %d accesses, %d rebuilds)" addr got
          model.(addr)
          (Hierarchical_oram.accesses t)
          (Hierarchical_oram.rebuilds t)
    end
  done;
  for addr = 0 to n - 1 do
    if Hierarchical_oram.read t addr <> model.(addr) then
      Alcotest.failf "final sweep: %d wrong" addr
  done;
  t

let test_hier_consistency () =
  let t = exercise_hier ~sorter:Odex_sortnet.Ext_sort.auto ~n:60 ~ops:260 ~seed:11 in
  Alcotest.(check bool) "healthy" true (Hierarchical_oram.healthy t);
  Alcotest.(check bool) "rebuilt many times" true (Hierarchical_oram.rebuilds t >= 20);
  Alcotest.(check bool) "multiple levels" true (Hierarchical_oram.levels t >= 3)

let test_hier_same_address () =
  let s = Util.storage ~b:4 () in
  let rng = Odex_crypto.Rng.create ~seed:12 in
  let t = Hierarchical_oram.init ~m:32 ~rng s ~values:(Array.init 40 (fun i -> i)) in
  Hierarchical_oram.write t 13 777;
  for _ = 1 to 80 do
    Alcotest.(check int) "stable across rebuilds" 777 (Hierarchical_oram.read t 13)
  done;
  Alcotest.(check bool) "healthy" true (Hierarchical_oram.healthy t)

let test_hier_value_oblivious () =
  (* Same virtual access sequence, same coins, different values ->
     identical traces. *)
  let trace mult =
    let s = Util.storage ~b:4 () in
    let rng = Odex_crypto.Rng.create ~seed:13 in
    let t = Hierarchical_oram.init ~m:32 ~rng s ~values:(Array.init 30 (fun i -> i * mult)) in
    for i = 0 to 70 do
      ignore (Hierarchical_oram.read t (i * 7 mod 30))
    done;
    (Trace.digest (Storage.trace s), Trace.length (Storage.trace s))
  in
  Alcotest.(check bool) "value-independent trace" true (trace 1 = trace 4242)

let test_hier_sorter_variants () =
  List.iter
    (fun sorter -> ignore (exercise_hier ~sorter ~n:40 ~ops:120 ~seed:14))
    [
      Odex_sortnet.Ext_sort.bitonic;
      Odex_sortnet.Ext_sort.bitonic_windowed;
      Odex_sortnet.Ext_sort.bucket ();
    ]

let suite =
  [
    ("PRP bijection", `Quick, test_prp_bijection);
    ("PRP key separation", `Quick, test_prp_keys_differ);
    ("linear ORAM", `Quick, test_linear_oram);
    ("linear ORAM oblivious", `Quick, test_linear_oram_oblivious);
    ("sqrt ORAM consistency", `Quick, test_sqrt_oram_consistency);
    ("sqrt ORAM same-address hammering", `Quick, test_sqrt_oram_repeated_same_address);
    ("sqrt ORAM sorter variants", `Quick, test_sqrt_oram_sorter_variants);
    ("sqrt ORAM value-oblivious", `Quick, test_sqrt_oram_value_oblivious);
    ("sqrt ORAM sublinear scaling", `Quick, test_sqrt_oram_sublinear_scaling);
    ("hierarchical ORAM consistency", `Quick, test_hier_consistency);
    ("hierarchical ORAM same-address", `Quick, test_hier_same_address);
    ("hierarchical ORAM value-oblivious", `Quick, test_hier_value_oblivious);
    ("hierarchical ORAM sorter variants", `Slow, test_hier_sorter_variants);
  ]
