type key = int64

(* Inlined, so [to_range] keeps the words unboxed and allocates
   nothing. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let key_of_int seed = mix64 (Int64.add (Int64.of_int seed) 0x5851F42D4C957F2DL)

let fresh_key rng = Rng.next_int64 rng

let key_to_raw k = k

let key_of_raw k = k

let[@inline] value k x =
  mix64 (Int64.logxor k (mix64 (Int64.of_int x)))

let value_pair k x y =
  let h = value k x in
  mix64 (Int64.logxor h (mix64 (Int64.add (Int64.of_int y) 0x9E3779B97F4A7C15L)))

let to_range k x ~bound =
  if bound <= 0 then invalid_arg "Prf.to_range: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (value k x) 2) in
  v mod bound
