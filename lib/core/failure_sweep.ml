open Odex_extmem

(* Deterministic Monte Carlo: trial i draws its coins from a rng seeded
   by a fixed mix of [seed] and i, so a measured failure count is a
   reproducible fact about the algorithm, not about the clock. The
   success-probability suites (loose-compaction overflow, IBLT decode)
   pin the paper's bounds through this harness. *)
let monte_carlo ~trials ~seed f =
  if trials < 1 then invalid_arg "Failure_sweep.monte_carlo: trials must be >= 1";
  let failures = ref 0 in
  for i = 0 to trials - 1 do
    let rng = Odex_crypto.Rng.create ~seed:(seed lxor (i * 0x9E3779B9)) in
    if not (f ~rng ~trial:i) then incr failures
  done;
  !failures

let sweep ~m subarrays ok_flags =
  let k = Array.length subarrays in
  if Array.length ok_flags <> k then invalid_arg "Failure_sweep.sweep: flag count mismatch";
  Array.iteri
    (fun i a ->
      ignore (Ext_array.block_size a);
      Odex_sortnet.Ext_sort.run_selective Odex_sortnet.Ext_sort.auto ~real:(not ok_flags.(i)) ~m
        a)
    subarrays;
  true
