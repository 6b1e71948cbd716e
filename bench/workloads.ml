(* Input generators shared by the experiments; every store comes from
   the harness's factory. *)

open Odex_extmem

let cells_of_keys keys =
  Array.mapi (fun i k -> Cell.item ~tag:i ~key:k ~value:(k * 3) ()) keys

type shape = Uniform | Ascending | Descending | All_equal | Few_distinct

let shape_name = function
  | Uniform -> "uniform"
  | Ascending -> "ascending"
  | Descending -> "descending"
  | All_equal -> "all-equal"
  | Few_distinct -> "few-distinct"

let keys ~rng ~n = function
  | Uniform -> Array.init n (fun _ -> Odex_crypto.Rng.int rng (max 1 (4 * n)))
  | Ascending -> Array.init n (fun i -> i)
  | Descending -> Array.init n (fun i -> n - i)
  | All_equal -> Array.make n 7
  | Few_distinct -> Array.init n (fun i -> i mod 5)

(* Fresh store + array holding [n] cells of the given shape. *)
let array env ~rng ~b ~n shape =
  let s = Harness.store env ~b in
  let a = Ext_array.of_cells s ~block_size:b (cells_of_keys (keys ~rng ~n shape)) in
  (s, a)

(* A consolidated-style array: [occupied] of the [n] blocks hold full
   payloads, spread evenly. *)
let consolidated_blocks env ~b ~n ~occupied =
  let s = Harness.store env ~b in
  let a = Ext_array.create s ~blocks:n in
  let stride = max 1 (n / max 1 occupied) in
  let placed = ref 0 in
  let pos = ref 0 in
  while !placed < occupied && !pos < n do
    let seed = !placed + 1 in
    let blk = Array.init b (fun j -> Cell.item ~tag:j ~key:((seed * 100) + j) ~value:seed ()) in
    Storage.unchecked_poke s (Ext_array.addr a !pos) blk;
    incr placed;
    pos := !pos + stride
  done;
  a
