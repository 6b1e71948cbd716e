open Odex_extmem

exception Collision of { level : int; position : int }

(* A block's remaining routing distance is stored in the [aux] word of
   every item it carries (occupied blocks after consolidation have at
   least one item). Routes are fully determined by the initial labels.

   Compaction consumes label bits low-to-high: a phase covering strides
   2^lo .. 2^(lo+g-1) moves each block left by (d mod 2^(lo+g)) (its
   lower bits are already zero), which Lemma 5 guarantees is
   collision-free. Expansion runs the same network backwards in time —
   phases high-bit-first, rightward moves — so its intermediate
   configurations are exactly those of the corresponding compaction and
   inherit its collision-freedom. *)

(* Blocks travel as {!Flat} images: the label is the aux word of a
   block's first occupied image, rewritten in place in every occupied
   image, so routing never decodes a cell. [first_item] is the byte
   offset of slot [k]'s first occupied image, or -1 for an empty block. *)
let first_item buf k =
  let rec find i =
    if i >= Flat.block_size buf then -1
    else
      let off = Flat.cell_offset buf ~block:k ~slot:i in
      if Flat.is_item buf off then off else find (i + 1)
  in
  find 0

let set_label buf k d =
  for i = 0 to Flat.block_size buf - 1 do
    let off = Flat.cell_offset buf ~block:k ~slot:i in
    if Flat.is_item buf off then Flat.set_aux buf off d
  done

(* Route one residue class of a phase.

   [pos u] maps the class's u-th sub-position to a block index of [a].
   A phase covering strides s .. s·2^(g-1) moves a block with label d by
   [move d] sub-positions and leaves it the label [rest d]. Sub-positions
   are consumed in increasing [u] with a sliding window of 2w-1 blocks,
   finalizing w destinations at a time; every block is read once and
   written once in an order depending only on (n, m, s, c) — the
   circuit-simulation obliviousness of Theorem 6.

   The window is [win]'s slots 1 .. 2w-1, a ring indexed by
   u mod (2w-1); slot 0 stages every transfer. A block read at u lands
   at a destination in [t, t + 2w - 1) (t the first unfinalized
   sub-position: moves are below w), so live destinations never share a
   ring slot, and [live] marks the occupied ones. *)
let route_class a win live ~level ~pos ~len ~w ~move ~rest =
  let r = (2 * w) - 1 in
  let route uq =
    Ext_array.read_flat a (pos uq) ~count:1 win;
    let off = first_item win 0 in
    if off >= 0 then begin
      let d = Flat.aux win off in
      let u_dst = uq - move d in
      let k = u_dst mod r in
      if live.(k) then raise (Collision { level; position = pos u_dst });
      Flat.copy_block win 0 win (k + 1);
      set_label win (k + 1) (rest d);
      live.(k) <- true
    end
  in
  let finalize u =
    let k = u mod r in
    if live.(k) then begin
      Flat.copy_block win (k + 1) win 0;
      live.(k) <- false
    end
    else Flat.clear_blocks win 0 1;
    Ext_array.write_flat a (pos u) ~count:1 win
  in
  let read_cursor = ref 0 in
  let t = ref 0 in
  while !t < len do
    let hi = min len (!t + r) in
    while !read_cursor < hi do
      route !read_cursor;
      incr read_cursor
    done;
    let stop = min len (!t + w) in
    while !t < stop do
      finalize !t;
      incr t
    done
  done

let route_all a ~m ~direction =
  let n = Ext_array.blocks a in
  if m < 3 then invalid_arg "Butterfly: need m >= 3 (the paper's M >= 3B)";
  if n > 1 then Ext_array.with_span a "butterfly.route" @@ fun () ->
  begin
    (* 2w - 1 resident blocks per window; g = log2 w levels per phase. *)
    let w = 1 lsl Emodel.ilog2_floor ((m + 1) / 2) in
    if (2 * w) - 1 > m then raise (Cache.Overflow { capacity = m; requested = (2 * w) - 1 });
    let g = Emodel.ilog2_floor w in
    let modulus = 1 lsl g in
    let win = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:(2 * w) in
    let live = Array.make ((2 * w) - 1) false in
    let bits = Emodel.ilog2_ceil n in
    let phase_los =
      let rec build lo acc = if lo >= bits then acc else build (lo + g) (lo :: acc) in
      (* Ascending for compaction (low bits first), the reverse run for
         expansion. *)
      match direction with
      | `Compact -> List.rev (build 0 [])
      | `Expand -> build 0 []
    in
    List.iter
      (fun lo ->
        let s = 1 lsl lo in
        (* Both directions move by label bits [lo, lo+g). Compaction's
           labels are multiples of s by now and keep their higher bits;
           expansion's higher bits are already applied (d < s·modulus)
           and it keeps the lower ones for later phases. *)
        let move d = d mod (s * modulus) / s in
        let rest =
          match direction with
          | `Compact -> fun d -> d - (d mod (s * modulus))
          | `Expand -> fun d -> d mod s
        in
        for c = 0 to min s n - 1 do
          let len = (n - c + s - 1) / s in
          let pos u =
            match direction with
            | `Compact -> c + (u * s)
            (* Rightward moves: finalize the high end first by running
               the class in mirror order. *)
            | `Expand -> c + ((len - 1 - u) * s)
          in
          route_class a win live ~level:lo ~len ~w ~move ~rest ~pos
        done)
      phase_los
  end

(* The label pass: each block in turn, read and written back as one
   image, its occupied images relabelled with [label j] when it holds
   any item. *)
let label_pass a label =
  let buf = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:1 in
  Ext_array.with_span a "butterfly.label" (fun () ->
      for j = 0 to Ext_array.blocks a - 1 do
        Ext_array.read_flat a j ~count:1 buf;
        if first_item buf 0 >= 0 then set_label buf 0 (label j);
        Ext_array.write_flat a j ~count:1 buf
      done)

let compact ~m a =
  (* Pass 1: label occupied blocks with their leftward distance. *)
  let rank = ref 0 in
  label_pass a (fun j ->
      let d = j - !rank in
      incr rank;
      d);
  route_all a ~m ~direction:`Compact;
  !rank

let expand ~m a factor =
  let n = Ext_array.blocks a in
  (* Label occupied blocks with their rightward distance. Destinations
     [rank + factor rank] must be strictly increasing and in bounds. *)
  let rank = ref 0 in
  let last_dest = ref (-1) in
  label_pass a (fun j ->
      let f = factor !rank in
      if f < 0 || j + f >= n then invalid_arg "Butterfly.expand: factor out of range";
      if j + f <= !last_dest then
        invalid_arg "Butterfly.expand: destinations must be strictly increasing";
      last_dest := j + f;
      incr rank;
      f);
  route_all a ~m ~direction:`Expand

let naive_levels a =
  let n = Ext_array.blocks a in
  let storage = Ext_array.storage a in
  (* Private simulation: labels per position, -1 = empty. *)
  let labels = Array.make n (-1) in
  let rank = ref 0 in
  for j = 0 to n - 1 do
    let blk = Storage.unchecked_peek storage (Ext_array.addr a j) in
    if not (Block.is_empty blk) then begin
      labels.(j) <- j - !rank;
      incr rank
    end
  done;
  let out = ref [ Array.to_list labels ] in
  let levels = if n <= 1 then 0 else Emodel.ilog2_ceil n in
  for i = 0 to levels - 1 do
    let next = Array.make n (-1) in
    for j = 0 to n - 1 do
      let d = labels.(j) in
      if d >= 0 then begin
        let move = d mod (1 lsl (i + 1)) in
        let dst = j - move in
        if next.(dst) >= 0 then raise (Collision { level = i; position = dst });
        next.(dst) <- d - move
      end
    done;
    Array.blit next 0 labels 0 n;
    out := Array.to_list labels :: !out
  done;
  List.rev !out
