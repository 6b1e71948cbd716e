let internal x = x + 1
let used x = internal x
let listed x = 2 * x
let test_only x = 3 * x

(* Its call to itself is not a caller. *)
let rec dead x = if x <= 0 then 0 else dead (x - 1)
