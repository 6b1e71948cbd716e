type t = Keys | By_tag | By_aux | Dedup

let[@inline] lex a b c d = if a <> b then Int.compare a b else Int.compare c d

let compare_items o (x : Cell.item) (y : Cell.item) =
  match o with
  | Keys -> lex x.key y.key x.tag y.tag
  | By_tag -> lex x.tag y.tag x.key y.key
  | By_aux -> if x.aux <> y.aux then Int.compare x.aux y.aux else lex x.key y.key x.tag y.tag
  | Dedup -> lex x.key y.key y.tag x.tag

(* The same cases on images: the constructor word first (an empty image
   sorts last), then the order's words read in place. *)
let compare_images o b1 o1 b2 o2 =
  let i1 = Cell.is_item_big b1 o1 and i2 = Cell.is_item_big b2 o2 in
  if not (i1 && i2) then Bool.compare i2 i1
  else
    match o with
    | Keys -> lex (Cell.key_big b1 o1) (Cell.key_big b2 o2) (Cell.tag_big b1 o1) (Cell.tag_big b2 o2)
    | By_tag -> lex (Cell.tag_big b1 o1) (Cell.tag_big b2 o2) (Cell.key_big b1 o1) (Cell.key_big b2 o2)
    | By_aux ->
        let a1 = Cell.aux_big b1 o1 and a2 = Cell.aux_big b2 o2 in
        if a1 <> a2 then Int.compare a1 a2
        else lex (Cell.key_big b1 o1) (Cell.key_big b2 o2) (Cell.tag_big b1 o1) (Cell.tag_big b2 o2)
    | Dedup -> lex (Cell.key_big b1 o1) (Cell.key_big b2 o2) (Cell.tag_big b2 o2) (Cell.tag_big b1 o1)

(* stdlib's [Array.sort] (a ternary heap sort), copied with its
   comparison fixed to [compare_images o buf] on the offsets. Keep it
   comparison-for-comparison identical to the stdlib's: the sorters'
   output order on ties is that of [Array.sort] on the decoded cells, and
   tests pin it. The stdlib's [Bottom] exception is a [-1] son here and
   its local closures are top-level functions, so a sort allocates
   nothing: the networks call it once per block. *)
let[@inline] cmp o buf x y = compare_images o buf x buf y

(* The largest son of [i] in the heap [a.(0 .. l - 1)], or -1 if none. *)
let maxson o buf a l i =
  let get = Array.unsafe_get in
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cmp o buf (get a i31) (get a (i31 + 1)) < 0 then i31 + 1 else i31 in
    if cmp o buf (get a x) (get a (i31 + 2)) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && cmp o buf (get a i31) (get a (i31 + 1)) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle o buf a l i e =
  let j = maxson o buf a l i in
  if j >= 0 && cmp o buf (Array.unsafe_get a j) e > 0 then begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    trickle o buf a l j e
  end
  else Array.unsafe_set a i e

let rec bubble o buf a l i =
  let j = maxson o buf a l i in
  if j < 0 then i
  else begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    bubble o buf a l j
  end

let rec trickleup o buf a i e =
  let father = (i - 1) / 3 in
  if cmp o buf (Array.unsafe_get a father) e < 0 then begin
    Array.unsafe_set a i (Array.unsafe_get a father);
    if father > 0 then trickleup o buf a father e else Array.unsafe_set a 0 e
  end
  else Array.unsafe_set a i e

let sort_images o buf a =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle o buf a l i (Array.unsafe_get a i)
  done;
  for i = l - 1 downto 2 do
    let e = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a 0);
    trickleup o buf a (bubble o buf a i 0) e
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end
