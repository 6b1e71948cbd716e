let ceil_div a b =
  if b <= 0 then invalid_arg "Emodel.ceil_div: non-positive divisor";
  (a + b - 1) / b

let ilog2_floor n =
  if n < 1 then invalid_arg "Emodel.ilog2_floor: n must be >= 1";
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let ilog2_ceil n =
  if n < 1 then invalid_arg "Emodel.ilog2_ceil: n must be >= 1";
  let f = ilog2_floor n in
  if 1 lsl f = n then f else f + 1

let log_base ~base x = Float.log x /. Float.log base

let log_star n =
  let rec go acc x = if x <= 1. then acc else go (acc + 1) (Float.log x /. Float.log 2.) in
  go 0 (Float.of_int n)

let tower_of_twos i =
  if i < 1 then invalid_arg "Emodel.tower_of_twos: i must be >= 1";
  let rec go acc j =
    if j = i then acc
    else if acc >= 62 then max_int
    else go (1 lsl acc) (j + 1)
  in
  go 4 1

let sort_io_bound ~n_blocks ~m_blocks =
  if m_blocks < 2 then invalid_arg "Emodel.sort_io_bound: m_blocks must be >= 2";
  let n = Float.of_int n_blocks and m = Float.of_int (max 2 m_blocks) in
  n *. Float.max 1. (log_base ~base:m n)
