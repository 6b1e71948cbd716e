(* The 64-bit state lives unboxed in an 8-byte buffer: stepping the
   generator stores the word in place instead of allocating a boxed
   [int64], so a coin costs no allocation once [next_int64] is inlined
   into its caller. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: a bijective mixing of the 64-bit state. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))
let state t = get64 t 0

let[@inline] next_int64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t =
  let s = next_int64 t in
  of_state (mix64 s)

(* Non-negative 62-bit integer, safe to use as an OCaml [int]. *)
let next_nonneg t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] below 2^62. *)
  let max_nonneg = (1 lsl 62) - 1 in
  let limit = max_nonneg - (max_nonneg mod bound) in
  let rec draw () =
    let v = next_nonneg t in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  (* 53 random mantissa bits. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  Float.of_int bits *. 0x1p-53

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else float t < p

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0,1]";
  (* Inverse-CDF sampling: ceil(log(1-U) / log(1-p)). *)
  if p = 1. then 1
  else
    let u = float t in
    let k = Float.to_int (Float.ceil (Float.log1p (-.u) /. Float.log1p (-.p))) in
    max 1 k
