let swap_sequence rng n =
  Array.init n (fun i -> (i, if i = n - 1 then i else Rng.int_in_range rng ~lo:i ~hi:(n - 1)))
