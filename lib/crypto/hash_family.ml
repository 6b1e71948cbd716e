type t = { k : int; size : int; key : Prf.key }

let create ~k ~size key =
  if k < 1 then invalid_arg "Hash_family.create: k must be >= 1";
  if size < k then invalid_arg "Hash_family.create: size must be >= k";
  { k; size; key }

let k t = t.k

let subrange t i =
  if i < 0 || i >= t.k then invalid_arg "Hash_family.subrange: bad index";
  let width = t.size / t.k in
  let lo = i * width in
  let hi = if i = t.k - 1 then t.size else lo + width in
  (lo, hi)

let hash t i x =
  let lo, hi = subrange t i in
  let v = Int64.to_int (Int64.shift_right_logical (Prf.value_pair t.key i x) 2) in
  lo + (v mod (hi - lo))

let hashes t x = Array.init t.k (fun i -> hash t i x)
