(* odex_bench: the host-normalized workload suite.

   odex_bench run --workload W --seed N --seconds S [--trace 0|1]
                  [--quick] [--out FILE] [--trace-out FILE]
   odex_bench selftest [--spec BENCHMARK.json]
   odex_bench compare --base A.json... --change B.json... [--spec BENCHMARK.json]

   See README.md in this directory for the metrics, the workloads and
   the normalization method. *)

let usage () =
  prerr_endline
    "usage: odex_bench run --workload W --seed N --seconds S [--trace 0|1] [--quick] [--out F] \
     [--trace-out F]\n\
    \       odex_bench selftest [--spec BENCHMARK.json]\n\
    \       odex_bench compare --base A.json... --change B.json... [--spec BENCHMARK.json]";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("odex_bench: " ^ s); exit 2) fmt

(* A run whose reference kernel varied more than this (IQR over median)
   measured the host as much as the code. *)
let noise_limit = 0.15

(* ---- run ---- *)

let metric_json (m : Suite.metric) = Bjson.Obj [ ("value", Num m.value); ("unit", Str m.unit) ]

let summary_json (m : Suite.metric) =
  let xs = if m.samples = [] then [ m.value ] else m.samples in
  let q1, q2, q3 = Summary.quartiles xs in
  let d = Summary.sorted xs in
  Bjson.Obj
    [
      ("value", Num m.value);
      ("unit", Str m.unit);
      ("median", Num q2);
      ("q1", Num q1);
      ("q3", Num q3);
      ("min", Num d.(0));
      ("max", Num d.(Array.length d - 1));
      ("n", Num (Float.of_int (Array.length d)));
      ("samples", Arr (List.map (fun x -> Bjson.Num x) xs));
    ]

let print_metrics title ms =
  Printf.printf "# %s\n" title;
  List.iter
    (fun (m : Suite.metric) -> Printf.printf "%-36s %16s %s\n" m.name (Bjson.number m.value) m.unit)
    ms

let find_metric name ms = (List.find (fun (m : Suite.metric) -> m.name = name) ms).value

(* The identities the traced numbers must satisfy, printed so a reader
   can see the attribution close. *)
let print_attribution (res : Suite.result) =
  let e = res.e2e and l = res.layer in
  let v n = find_metric n l in
  let ios = find_metric "ios_per_op" e in
  Printf.printf "# attribution\n";
  Printf.printf "storage.reads + storage.writes = %s   ios_per_op = %s\n"
    (Bjson.number (v "storage.reads" +. v "storage.writes"))
    (Bjson.number ios);
  let phase_ios =
    List.fold_left
      (fun a (m : Suite.metric) ->
        if String.starts_with ~prefix:"phase." m.name && String.ends_with ~suffix:".ios" m.name then
          a +. m.value
        else a)
      0. l
  in
  Printf.printf "sum of phase.*.ios = %s   ios_per_op = %s\n" (Bjson.number phase_ios)
    (Bjson.number ios);
  let traced_mean =
    Summary.mean (List.map (fun (x : Suite.sample) -> x.ms) res.run.traced)
  in
  let codec = if res.workload.sealed then 0. else v "codec.est_ms" in
  Printf.printf
    "traced op mean %.4f ms = backend %.4f + cipher %.4f + codec %.4f + residual %.4f  \
     (trace_overhead %.3f)\n"
    traced_mean
    (v "backend.read_ms" +. v "backend.write_ms" +. v "backend.sync_ms")
    (v "cipher.seal_ms" +. v "cipher.unseal_ms")
    codec (v "algorithm.residual_ms") (v "trace_overhead")

let run_cmd args =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and quick = ref false and out = ref None and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := Some n | None -> die "bad --seed %S" n);
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s >= 0. -> seconds := Some s
        | _ -> die "bad --seconds %S" s);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
    | a :: _ -> die "unknown argument %S" a
  in
  parse args;
  let w =
    match !workload with
    | None -> die "--workload is required"
    | Some name -> (
        match Suite.find name with
        | Some w -> w
        | None ->
            die "unknown workload %S (available: %s)" name
              (String.concat " " (List.map (fun (w : Suite.workload) -> w.name) Suite.workloads)))
  in
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  let seconds =
    match (!seconds, !quick) with
    | _, true -> 0.
    | Some s, false -> s
    | None, false -> die "--seconds is required (or --quick)"
  in
  Printf.printf "# odex_bench run workload=%s seed=%d seconds=%s trace=%d quick=%b nproc=%d ocaml=%s\n%!"
    w.name seed (Bjson.number seconds) (Bool.to_int !trace) !quick (Host.nproc ())
    Host.ocaml_version;
  let res = Suite.measure ~quick:!quick w ~seed ~seconds ~trace:!trace in
  let r = res.run in
  Printf.printf "# %d ops timed untraced, %d traced, %d sessions\n" (List.length r.untraced)
    (List.length r.traced) (List.length r.setups);
  print_metrics "end-to-end (host-normalized)" res.e2e;
  if !trace then begin
    print_metrics "per-layer (traced run)" res.layer;
    print_attribution res
  end
  else print_metrics "host and diagnostics" res.host;
  let spread = find_metric "host.ref_spread" res.host in
  let noisy = spread > noise_limit in
  if noisy then
    Printf.printf "# WARNING: reference kernel IQR/median %.3f exceeds %.2f; the host was noisy\n"
      spread noise_limit;
  (match !trace_out with
  | None -> ()
  | Some path -> Odex_telemetry.Telemetry.write_chrome ~path (List.rev r.sessions));
  (match !out with
  | None -> ()
  | Some path ->
      let all = res.e2e @ (if !trace then res.layer else res.host) in
      let doc =
        Bjson.Obj
          [
            ("workload", Str w.name);
            ("seed", Num (Float.of_int seed));
            ("seconds", Num seconds);
            ("trace", Bool !trace);
            ("quick", Bool !quick);
            ("nproc", Num (Float.of_int (Host.nproc ())));
            ("ocaml", Str Host.ocaml_version);
            ("git_rev", Str (Host.git_rev ()));
            ("correct", Bool res.correct);
            ("attempted", Num (Float.of_int r.attempted));
            ("failed", Num (Float.of_int r.failed));
            ("noisy", Bool noisy);
            ("metrics", Obj (List.map (fun (m : Suite.metric) -> (m.name, summary_json m)) all));
          ]
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Bjson.to_json doc ^ "\n")));
  let reported = if !trace then res.layer else res.e2e in
  let last =
    Bjson.Obj
      [
        ("correct", Bool res.correct);
        ("attempted", Num (Float.of_int r.attempted));
        ("failed", Num (Float.of_int r.failed));
        ("metrics", Obj (List.map (fun (m : Suite.metric) -> (m.name, metric_json m)) reported));
      ]
  in
  print_endline (Bjson.to_json last);
  exit (if res.correct then 0 else 1)

(* ---- BENCHMARK.json ---- *)

(* Workload names, end-to-end names, per-layer names, and each
   end-to-end metric's (name, better, bound). *)
let load_spec path =
  let j = try Bjson.of_file path with Sys_error e | Bjson.Error e -> die "cannot read %s: %s" path e in
  let items key = Bjson.(to_list (member_exn key j)) in
  let field k x = Bjson.member_exn k x in
  let names key = List.map (fun x -> Bjson.to_string (field "name" x)) (items key) in
  let bounds =
    List.map
      (fun x ->
        Bjson.(to_string (field "name" x), to_string (field "better" x), to_float (field "bound" x)))
      (items "end_to_end")
  in
  (names "workloads", names "end_to_end", names "per_layer", bounds)

(* ---- selftest ---- *)

let selftest args =
  let spec = match args with [ "--spec"; p ] -> p | [] -> "BENCHMARK.json" | _ -> usage () in
  let workload_names, e2e_names, layer_names, _ = load_spec spec in
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  (* Order statistics against values Python's statistics module gives. *)
  let close a b = Float.abs (a -. b) < 1e-12 in
  let q3 (a, b, c) (x, y, z) = close a x && close b y && close c z in
  let ten = List.init 10 (fun i -> Float.of_int (i + 1)) in
  check "quartiles [1..10] = 2.75 5.5 8.25" (q3 (Summary.quartiles ten) (2.75, 5.5, 8.25));
  check "quartiles [1;2;3;4] = 1.25 2.5 3.75" (q3 (Summary.quartiles [ 4.; 1.; 3.; 2. ]) (1.25, 2.5, 3.75));
  check "quartiles [1;10] = -1.25 5.5 12.25" (q3 (Summary.quartiles [ 10.; 1. ]) (-1.25, 5.5, 12.25));
  check "quartiles [5] = 5 5 5" (q3 (Summary.quartiles [ 5. ]) (5., 5., 5.));
  check "median [3;1;2] = 2" (close (Summary.median [ 3.; 1.; 2. ]) 2.);
  check "spread [1..10] = 1" (close (Summary.spread ten) 1.);
  check "p90 [1..10] = 9" (close (Summary.percentile ten 90.) 9.);
  check "normalize 10 ms at twice the nominal ref = 5 ms"
    (close (Summary.normalize ~ref_ms:(2. *. Summary.nominal_ref_ms) 10.) 5.);
  check "normalize 10 ms at nominal ref = 10 ms"
    (close (Summary.normalize ~ref_ms:Summary.nominal_ref_ms 10.) 10.);
  (* Every verifier accepts the right output and rejects a planted wrong one. *)
  let input = Suite.uniform_cells (Odex_crypto.Rng.create ~seed:7) 64 in
  let good = Suite.sorted_input input in
  check "sort verifier accepts a sorted output" (Suite.sorted_ok ~input good);
  let swapped = Array.copy good in
  swapped.(0) <- good.(1);
  swapped.(1) <- good.(0);
  check "sort verifier rejects an unsorted output" (not (Suite.sorted_ok ~input swapped));
  let lost = Array.copy good in
  lost.(63) <- Odex_extmem.Cell.empty;
  check "sort verifier rejects a lost item" (not (Suite.sorted_ok ~input lost));
  check "sort verifier rejects an empty input" (not (Suite.sorted_ok ~input:[||] [||]));
  let item i = Some (Odex_extmem.Cell.get good.(i)) in
  let k = 32 in
  check "selection verifier accepts the k-th item"
    (Suite.selected_ok ~input ~k { Odex.Selection.item = item (k - 1); ok = true });
  check "selection verifier rejects a wrong k-th item"
    (not (Suite.selected_ok ~input ~k { Odex.Selection.item = item k; ok = true }));
  check "selection verifier rejects a reported failure"
    (not (Suite.selected_ok ~input ~k { Odex.Selection.item = item (k - 1); ok = false }));
  let shadow = [| 5; 6 |] in
  check "ORAM read verifier accepts the shadow value" (Suite.oram_read_ok ~shadow 0 5);
  check "ORAM read verifier rejects a wrong read" (not (Suite.oram_read_ok ~shadow 0 6));
  (* An ORAM with 2-block buckets overflows within a few rebuilds. *)
  let unhealthy =
    let s = Odex_extmem.Storage.create ~block_size:4 () in
    let o =
      Odex_oram.Hierarchical_oram.init ~bucket_size:2 ~m:16
        ~rng:(Odex_crypto.Rng.create ~seed:3) s ~values:(Array.make 64 0)
    in
    let rec go i =
      if i < 512 && Odex_oram.Hierarchical_oram.healthy o then begin
        (try Odex_oram.Hierarchical_oram.write o (i mod 64) i with Invalid_argument _ -> ());
        go (i + 1)
      end
    in
    go 0;
    o
  in
  check "ORAM health verifier rejects an overflowed ORAM" (not (Suite.oram_healthy_ok unhealthy));
  (* Names, correctness and counted-metric determinism on quick runs. *)
  check "workload names match BENCHMARK.json"
    (List.map (fun (w : Suite.workload) -> w.name) Suite.workloads = workload_names);
  let names ms = List.map (fun (m : Suite.metric) -> m.name) ms in
  let counted = [ "ios_per_op"; "bytes_per_op"; "space_amp" ] in
  List.iter
    (fun (w : Suite.workload) ->
      let a = Suite.measure ~quick:true w ~seed:1 ~seconds:0. ~trace:true in
      let b = Suite.measure ~quick:true w ~seed:1 ~seconds:0. ~trace:false in
      let c = Suite.measure ~quick:true w ~seed:2 ~seconds:0. ~trace:false in
      check (w.name ^ ": quick runs correct") (a.correct && b.correct && c.correct);
      check (w.name ^ ": end-to-end names match BENCHMARK.json") (names b.e2e = e2e_names);
      check (w.name ^ ": per-layer names match BENCHMARK.json") (names a.layer = layer_names);
      check
        (w.name ^ ": counted metrics bit-identical at one seed")
        (List.for_all (fun n -> Int64.equal (Int64.bits_of_float (find_metric n a.e2e))
                                  (Int64.bits_of_float (find_metric n b.e2e))) counted);
      let ios_b = find_metric "ios_per_op" b.e2e and ios_c = find_metric "ios_per_op" c.e2e in
      if w.fixed_io then check (w.name ^ ": ios_per_op equal across seeds") (ios_b = ios_c)
      else
        Printf.printf "note %s: ios_per_op is input-dependent (seed 1: %s, seed 2: %s)\n" w.name
          (Bjson.number ios_b) (Bjson.number ios_c))
    Suite.workloads;
  if !failures > 0 then begin
    Printf.printf "%d selftest check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "selftest passed"

(* ---- compare ---- *)

(* Medians, quartiles and win fraction per workload x end-to-end metric
   over paired --out records, judged by the rule for a small sandbox: a
   gain needs at least 9 wins in 10 pairs and a median shift larger than
   the base's own quartile distance; a loss is a median worse by more
   than the metric's bound; a base spread wider than the bound leaves the
   metric unresolved unless every change run beats every base run. *)
let verdict ~better ~bound base change =
  let lower = better = "lower" in
  let beats x y = if lower then x < y else x > y in
  let bq1, bmed, bq3 = Summary.quartiles base in
  let _, cmed, _ = Summary.quartiles change in
  let pairs = min (List.length base) (List.length change) in
  let wins =
    List.fold_left2 (fun a b c -> if beats c b then a + 1 else a) 0
      (List.filteri (fun i _ -> i < pairs) base)
      (List.filteri (fun i _ -> i < pairs) change)
  in
  let win_frac = if pairs = 0 then 0. else Float.of_int wins /. Float.of_int pairs in
  let worse_by = if bmed = 0. then 0. else (if lower then cmed -. bmed else bmed -. cmed) /. Float.abs bmed in
  let spread = if bmed = 0. then 0. else (bq3 -. bq1) /. Float.abs bmed in
  let all_better = List.for_all (fun c -> List.for_all (fun b -> beats c b) base) change in
  let v =
    if win_frac >= 0.9 && worse_by < 0. && Float.abs (cmed -. bmed) > bq3 -. bq1 then "improved"
    else if spread > bound && not all_better then "unresolved"
    else if worse_by > bound then "regressed"
    else "unchanged"
  in
  (v, win_frac)

let compare_cmd args =
  let spec = ref "BENCHMARK.json" and base = ref [] and change = ref [] in
  let rec parse side = function
    | [] -> ()
    | "--base" :: rest -> parse `Base rest
    | "--change" :: rest -> parse `Change rest
    | "--spec" :: p :: rest -> spec := p; parse side rest
    | f :: rest ->
        (match side with
        | `Base -> base := f :: !base
        | `Change -> change := f :: !change
        | `None -> die "file %S given before --base or --change" f);
        parse side rest
  in
  parse `None args;
  if !base = [] || !change = [] then usage ();
  let _, _, _, bounds = load_spec !spec in
  let load f =
    let j = try Bjson.of_file f with Sys_error e | Bjson.Error e -> die "cannot read %s: %s" f e in
    (Bjson.(to_string (member_exn "workload" j)), Bjson.member_exn "metrics" j)
  in
  let base = List.rev_map load !base and change = List.rev_map load !change in
  let workloads = List.sort_uniq compare (List.map fst base) in
  let regressed = ref false in
  Printf.printf "%-20s %-14s %12s %12s %12s | %12s %12s %12s %6s  %s\n" "workload" "metric"
    "base_q1" "base_med" "base_q3" "chg_q1" "chg_med" "chg_q3" "wins" "verdict";
  List.iter
    (fun wl ->
      let values side name =
        List.filter_map
          (fun (w, ms) ->
            if w <> wl then None
            else Option.map (fun m -> Bjson.(to_float (member_exn "value" m))) (Bjson.member name ms))
          side
      in
      List.iter
        (fun (name, better, bound) ->
          let b = values base name and c = values change name in
          if b <> [] && c <> [] then begin
            let v, win_frac = verdict ~better ~bound b c in
            if v = "regressed" then regressed := true;
            let bq1, bmed, bq3 = Summary.quartiles b and cq1, cmed, cq3 = Summary.quartiles c in
            Printf.printf "%-20s %-14s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g %6.2f  %s\n" wl
              name bq1 bmed bq3 cq1 cmed cq3 win_frac v
          end)
        bounds)
    workloads;
  exit (if !regressed then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "selftest" :: args -> selftest args
  | "compare" :: args -> compare_cmd args
  | _ -> usage ()
