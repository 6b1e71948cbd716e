type t = { domain : int; bits : int; half : int; keys : Prf.key array }

let rounds = 4

let create ~domain key =
  if domain < 1 then invalid_arg "Prp.create: domain must be >= 1";
  (* Even bit-width >= 2 covering the domain. *)
  let rec width b = if 1 lsl b >= domain then b else width (b + 1) in
  let bits = max 2 (width 1) in
  let bits = if bits land 1 = 1 then bits + 1 else bits in
  let keys =
    Array.init rounds (fun r -> Prf.key_of_int (Int64.to_int (Prf.value key r) lxor r))
  in
  { domain; bits; half = bits / 2; keys }

let round_fn t r x = Int64.to_int (Prf.value t.keys.(r) x) land ((1 lsl t.half) - 1)

let feistel t x =
  let mask = (1 lsl t.half) - 1 in
  let l = ref (x lsr t.half) and r = ref (x land mask) in
  for i = 0 to rounds - 1 do
    let l', r' = (!r, !l lxor round_fn t i !r) in
    l := l';
    r := r'
  done;
  (!l lsl t.half) lor !r

let feistel_inv t y =
  let mask = (1 lsl t.half) - 1 in
  let l = ref (y lsr t.half) and r = ref (y land mask) in
  for i = rounds - 1 downto 0 do
    let l', r' = (!r lxor round_fn t i !l, !l) in
    l := l';
    r := r'
  done;
  (!l lsl t.half) lor !r

(* Cycle-walking: iterate the power-of-two PRP until landing back in the
   domain; this restriction is itself a permutation of the domain. *)
let apply t x =
  if x < 0 || x >= t.domain then invalid_arg "Prp.apply: out of domain";
  let rec walk y =
    let y = feistel t y in
    if y < t.domain then y else walk y
  in
  walk x

let inverse t y =
  if y < 0 || y >= t.domain then invalid_arg "Prp.inverse: out of domain";
  let rec walk x =
    let x = feistel_inv t x in
    if x < t.domain then x else walk x
  in
  walk y
