type t = Keys | By_tag | By_aux | Dedup

let[@inline] lex a b c d = if a <> b then Int.compare a b else Int.compare c d

let compare_items o (x : Cell.item) (y : Cell.item) =
  match o with
  | Keys -> lex x.key y.key x.tag y.tag
  | By_tag -> lex x.tag y.tag x.key y.key
  | By_aux -> if x.aux <> y.aux then Int.compare x.aux y.aux else lex x.key y.key x.tag y.tag
  | Dedup -> lex x.key y.key y.tag x.tag

let compare o a b =
  match (a, b) with
  | Cell.Empty, Cell.Empty -> 0
  | Cell.Empty, Cell.Item _ -> 1
  | Cell.Item _, Cell.Empty -> -1
  | Cell.Item x, Cell.Item y -> compare_items o x y

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
   comparison-for-comparison identical to the stdlib's: the bucket sort's
   output order on ties is that of [Array.sort (compare o)], and tests pin
   it. *)
exception Bottom of int

let sort_images o buf a =
  let cmp x y = compare_images o buf x buf y in
  let get = Array.unsafe_get and set = Array.unsafe_set in
  let maxson l i =
    let i31 = i + i + i + 1 in
    let x = ref i31 in
    if i31 + 2 < l then begin
      if cmp (get a i31) (get a (i31 + 1)) < 0 then x := i31 + 1;
      if cmp (get a !x) (get a (i31 + 2)) < 0 then x := i31 + 2;
      !x
    end
    else if i31 + 1 < l && cmp (get a i31) (get a (i31 + 1)) < 0 then i31 + 1
    else if i31 < l then i31
    else raise_notrace (Bottom i)
  in
  let rec trickledown l i e =
    let j = maxson l i in
    if cmp (get a j) e > 0 then begin
      set a i (get a j);
      trickledown l j e
    end
    else set a i e
  in
  let trickle l i e = try trickledown l i e with Bottom i -> set a i e in
  let rec bubbledown l i =
    let j = maxson l i in
    set a i (get a j);
    bubbledown l j
  in
  let bubble l i = try bubbledown l i with Bottom i -> i in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if cmp (get a father) e < 0 then begin
      set a i (get a father);
      if father > 0 then trickleup father e else set a 0 e
    end
    else set a i e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i (get a i)
  done;
  for i = l - 1 downto 2 do
    let e = get a i in
    set a i (get a 0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = get a 1 in
    set a 1 (get a 0);
    set a 0 e
  end
