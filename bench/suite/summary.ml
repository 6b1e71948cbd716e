(* Order statistics of one metric's samples. The quartiles follow
   Python's [statistics.quantiles(data, n=4)] (the "exclusive" method)
   exactly, so the suite's own spreads match what a reader recomputes
   from the raw samples in an --out file. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [(q1, q2, q3)]. A single sample is its own quartiles. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. Float.of_int (4 - delta)) +. (d.(j) *. Float.of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, q2, _ = quartiles xs in
  q2

(* Interquartile distance as a share of the median: the spread the
   benchmark's bounds are judged against. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. q2

(* Nearest-rank percentile, for tails ([p] in 0..100). *)
let percentile xs p =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Summary.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. Float.of_int n)) in
  d.(max 0 (min (n - 1) (rank - 1)))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)

(* Host normalization: every timing is rescaled to what it would read on
   a host where the reference kernel takes [nominal_ref_ms], its typical
   time on the 2-vCPU Xeon the suite was sized on. *)
let nominal_ref_ms = 32.0
let normalize ~ref_ms t = t *. nominal_ref_ms /. ref_ms
