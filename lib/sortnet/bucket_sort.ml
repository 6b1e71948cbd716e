open Odex_extmem

type plan = { zb : int; z : int; half : int; beta : int; levels : int }

(* β·L·e^{-Z/6} < 2^-48 needs Z > 6·(48·ln 2 + ln(β·L)); 144 covers the
   constant and 6·log₂ n dominates ln(β·L) with a wide margin. *)
let default_z_cells ~n_cells = 144 + (6 * Emodel.ilog2_ceil (max 2 n_cells))

let make_plan ~b ~z_cells ~n_cells =
  if b < 1 || z_cells < 1 || n_cells < 1 then invalid_arg "Bucket_sort.make_plan";
  (* Even zb keeps the initial half-fill block-aligned, so the scatter
     and routing move whole blocks; >= 4 keeps the run areas inside the
     2·β·zb scratch budget. *)
  let zb = max 4 (Emodel.ceil_div z_cells b) in
  let zb = if zb land 1 = 1 then zb + 1 else zb in
  let z = zb * b in
  let half = z / 2 in
  let beta = 1 lsl Emodel.ilog2_ceil (max 2 (Emodel.ceil_div n_cells half)) in
  { zb; z; half; beta; levels = Emodel.ilog2_floor beta }

(* A routing node gathers two source buckets and builds the two split
   sides privately before writing either back. *)
let feasible ~m plan = (4 * plan.zb) + 2 <= m

let plan_for ~b ~m ~n_cells =
  let p = make_plan ~b ~z_cells:(default_z_cells ~n_cells) ~n_cells in
  if feasible ~m p then Some p else None

let auto_plan ~b ~m ~n_cells =
  let cap = (m - 2) / 4 in
  let cap = cap - (cap land 1) in
  if cap < 4 then None
  else
    let p = make_plan ~b ~z_cells:(default_z_cells ~n_cells) ~n_cells in
    if p.zb <= cap then Some p else Some (make_plan ~b ~z_cells:(cap * b) ~n_cells)

let overflow_bound plan =
  Float.min 1.
    (Float.of_int (plan.beta * plan.levels) *. Float.exp (-.Float.of_int plan.z /. 6.))

(* Coin streams. Only the routing levels and the finalize priorities
   consume randomness, each from its own seed derived from [master], so
   a resumed run replays the exact streams of the crashed one. *)
let mix master salt = master lxor (salt * 0x9E3779B9) lxor 0x5bd1e995

let level_rng ~master l = Odex_crypto.Rng.create ~seed:(mix master (l + 1))
let finalize_rng ~master = Odex_crypto.Rng.create ~seed:(mix master 0x0F1A71)

(* Initial fill: bucket g holds input blocks [g·zb/2, (g+1)·zb/2) — a
   pure function of the shape. Counts are in cells. *)
let initial_counts plan ~b ~n_blocks =
  let hb = plan.zb / 2 in
  Array.init plan.beta (fun g -> b * max 0 (min hb (n_blocks - (g * hb))))

(* Replay the whole routing's coin stream and produce the occupancy
   table: counts.(l) is the per-bucket cell count entering level l (and
   counts.(levels) the final occupancy). Pure — this is how a resumed
   run recovers Alice's private state, and how the Monte-Carlo sweep
   measures overflow without I/O. The draw order (pair by pair, source
   g's cells then h's) must match [route_level] exactly. *)
let simulate plan ~master ~b ~n_blocks =
  let table = Array.make (plan.levels + 1) [||] in
  table.(0) <- initial_counts plan ~b ~n_blocks;
  let overflow = ref false in
  for l = 0 to plan.levels - 1 do
    let prev = table.(l) in
    let next = Array.make plan.beta 0 in
    let rng = level_rng ~master l in
    let stride = 1 lsl l in
    for g = 0 to plan.beta - 1 do
      if g land stride = 0 then begin
        let h = g lor stride in
        let total = prev.(g) + prev.(h) in
        let nhi = ref 0 in
        for _ = 1 to total do
          nhi := !nhi + Bool.to_int (Odex_crypto.Rng.bool rng)
        done;
        let nlo = total - !nhi in
        if nlo > plan.z || !nhi > plan.z then overflow := true;
        next.(g) <- min plan.z nlo;
        next.(h) <- min plan.z !nhi
      end
    done;
    table.(l + 1) <- next
  done;
  (table, !overflow)

let simulate_overflow plan ~master ~b ~n_blocks =
  snd (simulate plan ~master ~b ~n_blocks)

(* The kernels below never look at a cell: they move encoded images
   between flat buffers ({!Flat}) read and written as whole runs, with no
   decode. The routing unit is a cell, or — for shuffle passes whose
   blocks must stay intact — a whole block's images, which the same
   kernels move as one unit per block. Units are walked by byte offset, so no
   unit costs a division.

   A cursor is a position in a flat run — the current unit's byte offset
   [off] and its index [slot] within its block — together with the
   grain it steps by: [span] cell images per unit ([bytes] bytes) and
   [per] units per block. A unit's images are contiguous, so copying or
   clearing a unit is [span] image copies at one stride; a step off a
   block's last unit also skips the next block's header. Keeping the
   grain in the cursor makes a step read one record. [cells b] and
   [slots b] are the two grains, positioned at a run's start. *)
type cursor = { span : int; bytes : int; per : int; mutable off : int; mutable slot : int }

let grain ~span ~per =
  { span; bytes = span * Flat.cell_bytes; per; off = Flat.header_bytes; slot = 0 }

let cells b = grain ~span:1 ~per:b
let slots b = grain ~span:b ~per:1
let cursor u = { u with off = Flat.header_bytes; slot = 0 }

let rewind c =
  c.off <- Flat.header_bytes;
  c.slot <- 0

(* Step to the next unit, branch-free: [wrap] is 1 when leaving a
   block's last unit, which also skips the next block's header. *)
let[@inline] advance c =
  let k = c.slot + 1 in
  let wrap = Bool.to_int (k = c.per) in
  c.slot <- k land (wrap - 1);
  c.off <- c.off + c.bytes + (Flat.header_bytes land -wrap)

(* Copy or clear the unit of [u]'s grain at a byte offset. *)
let copy u src soff dst doff =
  for i = 0 to u.span - 1 do
    let d = i * Flat.cell_bytes in
    Flat.copy_cell src (soff + d) dst (doff + d)
  done

let clear u f off =
  for i = 0 to u.span - 1 do
    Flat.clear_cell f (off + (i * Flat.cell_bytes))
  done

(* The byte offsets of a run's first [n] units, in order: the layout
   rule is [advance]'s alone. *)
let offsets u n =
  let c = cursor u in
  Array.init n (fun _ ->
      let off = c.off in
      advance c;
      off)

(* Move the initial half-fills into area [dst]: whole-block copies,
   shape-determined. *)
let scatter_phase a dst plan =
  let n = Ext_array.blocks a in
  let hb = plan.zb / 2 in
  let buf = Flat.create ~block_size:(Ext_array.block_size a) ~blocks:hb in
  let g = ref 0 in
  let off = ref 0 in
  while !off < n do
    let len = min hb (n - !off) in
    Ext_array.read_flat a !off ~count:len buf;
    Ext_array.write_flat dst (!g * plan.zb) ~count:len buf;
    off := !off + len;
    incr g
  done

(* One butterfly level: for each bucket pair (g, g|2^l), MergeSplit by a
   fresh coin bit per unit. Reads the occupied prefix of [src] (count
   [before], from the replayed table) and deals each unit's image into
   one of two side buffers — the coin is the side's index, so the deal
   has no data-dependent branch — then writes each side's packed prefix,
   sized by [after] (the next level's replayed counts), into [dst].
   Units beyond a bucket's count are stale and never read; the tail of a
   side's last block is zeroed, an all-zero image being [Empty]. Excess
   units on an overflowing side are dropped ([after] is capped at Z) —
   the trace is already fixed by the counts, so the drop is
   Alice-private. The four buffers (two sources, two sides) are the
   4·zb blocks {!feasible} charges, allocated once per level. *)
let route_level u ~src ~dst plan ~before ~after ~master l =
  let rng = level_rng ~master l in
  let stride = 1 lsl l in
  let flat () = Flat.create ~block_size:(Ext_array.block_size src) ~blocks:plan.zb in
  let from_g = flat () and from_h = flat () in
  let sides = [| flat (); flat () |] in
  (* Per side (0 = lo, 1 = hi): units dealt and the next free unit. *)
  let dealt = [| 0; 0 |] and at = [| cursor u; cursor u |] in
  let read bucket buf =
    let cnt = before.(bucket) in
    if cnt > 0 then
      Ext_array.read_flat src (bucket * plan.zb) ~count:(Emodel.ceil_div cnt u.per) buf
  in
  let from = cursor u in
  let deal buf cnt =
    rewind from;
    for _ = 1 to cnt do
      let s = Bool.to_int (Odex_crypto.Rng.bool rng) in
      if dealt.(s) < plan.z then begin
        copy u buf from.off sides.(s) at.(s).off;
        advance at.(s)
      end;
      dealt.(s) <- dealt.(s) + 1;
      advance from
    done
  in
  let write bucket s =
    let cnt = after.(bucket) in
    let nb = Emodel.ceil_div cnt u.per in
    if nb > 0 then begin
      let side = sides.(s) and c = at.(s) in
      for _ = cnt to (nb * u.per) - 1 do
        clear u side c.off;
        advance c
      done;
      Ext_array.write_flat dst (bucket * plan.zb) ~count:nb side
    end
  in
  for g = 0 to plan.beta - 1 do
    if g land stride = 0 then begin
      let h = g lor stride in
      read g from_g;
      read h from_h;
      for s = 0 to 1 do
        dealt.(s) <- 0;
        rewind at.(s)
      done;
      deal from_g before.(g);
      deal from_h before.(h);
      write g 0;
      write h 1
    end
  done

(* The routing prefix both pipelines share, run by {!Phases} under
   [owner]: attach the two ping-pong scratch areas, replay the counts,
   scatter, route every level. Phases re-run after a crash are
   byte-identical because each one reads only areas the previous
   checkpoint committed. *)
type routing = {
  phases : Phases.t;
  final : int array;  (** per-bucket unit counts after the last level *)
  overflow : bool;
  routed : Ext_array.t;  (** the area holding the routed buckets *)
  spare : Ext_array.t;  (** the other area, free for the next phases *)
}

let route u ~owner plan ~master a =
  let n = Ext_array.blocks a in
  let area = plan.beta * plan.zb in
  let phases =
    Phases.start (Ext_array.storage a)
      ~owner:(Printf.sprintf "%s/%d/%d" owner (Ext_array.base a) n)
      ~scratch:(2 * area)
  in
  let area_a = Ext_array.sub (Phases.scratch phases) ~off:0 ~len:area in
  let area_b = Ext_array.sub (Phases.scratch phases) ~off:area ~len:area in
  let counts, overflow = simulate plan ~master ~b:u.per ~n_blocks:n in
  Phases.run phases (fun () -> scatter_phase a area_a plan);
  for l = 0 to plan.levels - 1 do
    let src, dst = if l land 1 = 0 then (area_a, area_b) else (area_b, area_a) in
    Phases.run phases (fun () ->
        route_level u ~src ~dst plan ~before:counts.(l) ~after:counts.(l + 1) ~master l)
  done;
  let routed, spare = if plan.levels land 1 = 1 then (area_b, area_a) else (area_a, area_b) in
  { phases; final = counts.(plan.levels); overflow; routed; spare }

(* Finalize order: a fresh random priority per element, ties broken by
   the element's position in its bucket, so the order is total. The
   pair is packed into one int — priority above, position (a byte
   offset, increasing with the position) below — so the sort compares
   ints. *)
let priority_keys rng ~count ~pos =
  let span = max 1 (pos (count - 1) + 1) in
  let shift = Emodel.ilog2_ceil span in
  if shift > 32 then invalid_arg "Bucket_sort: bucket too large for packed priorities";
  let keys = Array.init count (fun j -> (Odex_crypto.Rng.int rng 0x3FFFFFFF lsl shift) lor pos j) in
  Array.sort Int.compare keys;
  (keys, (1 lsl shift) - 1)

(* Emit every counted unit of [src]'s buckets in a fresh uniform
   within-bucket order, then pad with empties so exactly [blocks a]
   blocks are written. Output units collect in a staging run of zb + 1
   blocks; the blocks a bucket completes are written as one run right
   after that bucket is read — the same point in the schedule a
   block-at-a-time emitter writes them — and the partial block carries
   over. *)
let finalize u ~src plan ~counts ~master a =
  let b = Ext_array.block_size a in
  let n = Ext_array.blocks a in
  let rng = finalize_rng ~master in
  let bucket = Flat.create ~block_size:b ~blocks:plan.zb in
  let out = Flat.create ~block_size:b ~blocks:(plan.zb + 1) in
  let offs = offsets u (plan.zb * u.per) in
  let written = ref 0 and fill = ref 0 in
  let next = cursor u in
  for g = 0 to plan.beta - 1 do
    let cnt = counts.(g) in
    if cnt > 0 then begin
      Ext_array.read_flat src (g * plan.zb) ~count:(Emodel.ceil_div cnt u.per) bucket;
      let keys, mask = priority_keys rng ~count:cnt ~pos:(Array.get offs) in
      Array.iter
        (fun key ->
          copy u bucket (key land mask) out next.off;
          advance next)
        keys;
      fill := !fill + cnt;
      let full = !fill / u.per in
      if full > 0 then begin
        Ext_array.write_flat a !written ~count:full out;
        written := !written + full;
        fill := !fill - (full * u.per);
        if !fill > 0 then Flat.copy_block out full out 0;
        next.off <- offs.(!fill);
        next.slot <- !fill
      end
    end
  done;
  if !written < n then begin
    for _ = !fill to u.per - 1 do
      clear u out next.off;
      advance next
    done;
    Flat.clear_blocks out 1 plan.zb;
    while !written < n do
      let c = min (plan.zb + 1) (n - !written) in
      Ext_array.write_flat a !written ~count:c out;
      written := !written + c;
      Flat.clear_blocks out 0 1
    done
  end

type outcome = { ok : bool }

(* In-cache fallback: the whole array staged once, a private
   Fisher–Yates over its units, one write — fixed trace. The shuffle
   permutes unit indices; the images then move in that order. *)
let cache_permute u ~master ~m a =
  Stage.whole ~m a (fun src dst ->
      let units = Ext_array.blocks a * u.per in
      let at = offsets u units in
      let perm = Array.init units Fun.id in
      let rng = finalize_rng ~master in
      for i = units - 1 downto 1 do
        let j = Odex_crypto.Rng.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      Array.iteri (fun k p -> copy u src at.(p) dst at.(k)) perm;
      dst)

(* The permutation: the shared routing, then one phase emitting every
   bucket in a fresh order. [u] is the routing unit — a cell, or a whole
   block under a b:1 plan over the block count. *)
let permute_with u ?z_cells ~rng ~m a =
  let n = Ext_array.blocks a in
  if n = 0 then { ok = true }
  else begin
    let master = Odex_crypto.Rng.int rng 0x3FFFFFFF in
    if n <= m then begin
      cache_permute u ~master ~m a;
      { ok = true }
    end
    else begin
      let plan =
        match z_cells with
        | Some z ->
            let p = make_plan ~b:u.per ~z_cells:z ~n_cells:(n * u.per) in
            if not (feasible ~m p) then
              invalid_arg "Bucket_sort.permute: bucket size does not fit the cache";
            p
        | None -> (
            match auto_plan ~b:u.per ~m ~n_cells:(n * u.per) with
            | Some p -> p
            | None -> invalid_arg "Bucket_sort.permute: need m >= 18 blocks")
      in
      let r = route u ~owner:"bucket-perm" plan ~master a in
      Phases.run r.phases (fun () -> finalize u ~src:r.routed plan ~counts:r.final ~master a);
      Phases.finish r.phases;
      { ok = not r.overflow }
    end
  end

let permute ?z_cells ~rng ~m a = permute_with (cells (Ext_array.block_size a)) ?z_cells ~rng ~m a
let permute_blocks ~rng ~m a = permute_with (slots (Ext_array.block_size a)) ~rng ~m a

(* ------------------------------------------------------------------ *)
(* The sorter: route, locally sort bucket groups into runs, merge.    *)
(* ------------------------------------------------------------------ *)

exception Overflow of string

(* Stream-merge [runs] (offset, cell-count pairs inside [src]) into a
   packed run at [dst_off] of [dst]: one lazily-refilled one-block slot
   per input run plus one staging output slot, all cell images that are
   compared and copied in place, never decoded. The read schedule visits
   every occupied block of every input run exactly once; only the visit
   *order* is data-driven (by ranks), which the rank-isomorphic pair
   mode certifies.

   The next output cell comes from a binary min-heap over the live run
   indices, keyed by (head image under [order], run index): O(log k)
   comparisons per cell. The index tie-break makes every pick the
   lowest-numbered run whose head is minimal — for a total preorder, a
   function of the comparison outcomes alone and not of the heap's
   layout — so the refill order, the schedule's only data-driven part,
   is fixed by the rank order. *)
let merge_group ~order ~src ~dst ~dst_off runs =
  let b = Ext_array.block_size src in
  let k = Array.length runs in
  let slot () = Flat.create ~block_size:b ~blocks:1 in
  let heads = Array.init k (fun _ -> slot ()) in
  let bufs = Array.map Flat.buffer heads in
  let first = Flat.header_bytes and past = Flat.header_bytes + (b * Flat.cell_bytes) in
  (* Per run: byte offset of its head image, next block to load, cells
     left. *)
  let head = Array.make k first in
  let bidx = Array.make k 0 in
  let left = Array.map snd runs in
  let load r =
    Ext_array.read_flat src (fst runs.(r) + bidx.(r)) ~count:1 heads.(r);
    bidx.(r) <- bidx.(r) + 1;
    head.(r) <- first
  in
  let heap = Array.make k 0 and size = ref 0 in
  for r = 0 to k - 1 do
    if left.(r) > 0 then begin
      load r;
      heap.(!size) <- r;
      incr size
    end
  done;
  let before r s =
    let c = Order.compare_images order bufs.(r) head.(r) bufs.(s) head.(s) in
    c < 0 || (c = 0 && r < s)
  in
  (* Restore the heap order below slot [i], bottom-up: lift the smaller
     child along one path down to a leaf (one comparison per level), then
     drop the displaced entry back up that path to its place. The picks
     are the minima of a strict order, so they do not depend on how the
     heap settles. *)
  let sift i =
    let x = heap.(i) in
    let j = ref i and l = ref ((2 * i) + 1) in
    while !l < !size do
      let rt = !l + 1 in
      let c = if rt < !size && before heap.(rt) heap.(!l) then rt else !l in
      heap.(!j) <- heap.(c);
      j := c;
      l := (2 * c) + 1
    done;
    while !j > i && before x heap.((!j - 1) / 2) do
      heap.(!j) <- heap.((!j - 1) / 2);
      j := (!j - 1) / 2
    done;
    heap.(!j) <- x
  in
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  let staging = slot () in
  let fill = ref first and out = ref dst_off in
  while !size > 0 do
    let r = heap.(0) in
    Flat.copy_cell heads.(r) head.(r) staging !fill;
    fill := !fill + Flat.cell_bytes;
    if !fill = past then begin
      Ext_array.write_flat dst !out ~count:1 staging;
      incr out;
      fill := first
    end;
    head.(r) <- head.(r) + Flat.cell_bytes;
    left.(r) <- left.(r) - 1;
    if left.(r) > 0 then begin
      if head.(r) = past then load r
    end
    else begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift 0
  done;
  if !fill > first then begin
    while !fill < past do
      Flat.clear_cell staging !fill;
      fill := !fill + Flat.cell_bytes
    done;
    Ext_array.write_flat dst !out ~count:1 staging
  end

(* Local sort: each group of [gpr] routed buckets is read, bucket by
   bucket, into its own [zb]-slot window of one group buffer; the
   offsets of the group's counted images are sorted in place under
   [order] and the images copied out, in that order, into a packed run
   written at [run_offs.(j)] of [dst]. *)
let local_sort ~order ~src ~dst plan ~final_counts ~gpr ~run_cells ~run_offs =
  let b = Ext_array.block_size src in
  let group = Flat.create ~block_size:b ~blocks:(gpr * plan.zb) in
  let windows = Array.init gpr (fun i -> Flat.sub group ~off:(i * plan.zb) ~len:plan.zb) in
  let out = Flat.create ~block_size:b ~blocks:(gpr * plan.zb) in
  let from = cells b and next = cells b in
  for j = 0 to Array.length run_cells - 1 do
    let offs = Array.make run_cells.(j) 0 in
    let pos = ref 0 in
    for g = j * gpr to min plan.beta ((j + 1) * gpr) - 1 do
      let cnt = final_counts.(g) in
      if cnt > 0 then begin
        let w = g - (j * gpr) in
        Ext_array.read_flat src (g * plan.zb) ~count:(Emodel.ceil_div cnt b) windows.(w);
        from.off <- Flat.cell_offset group ~block:(w * plan.zb) ~slot:0;
        from.slot <- 0;
        for _ = 1 to cnt do
          offs.(!pos) <- from.off;
          incr pos;
          advance from
        done
      end
    done;
    Order.sort_images order (Flat.buffer group) offs;
    let nb = Emodel.ceil_div run_cells.(j) b in
    if nb > 0 then begin
      rewind next;
      Array.iter
        (fun off ->
          Flat.copy_cell group off out next.off;
          advance next)
        offs;
      for _ = run_cells.(j) to (nb * b) - 1 do
        Flat.clear_cell out next.off;
        advance next
      done;
      Ext_array.write_flat dst run_offs.(j) ~count:nb out
    end
  done

let sort ~plan ~master ~real ~order ~m a =
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  if not (feasible ~m plan) then invalid_arg "Bucket_sort.sort: plan does not fit the cache";
  if n = 0 then ()
  else begin
    let r = route (cells b) ~owner:"bucket-sort" plan ~master a in
    (* Local sort: groups of [gpr] routed buckets become one sorted run
       in [spare], packed at shape-and-coin-determined offsets. The run
       count is shape-determined, so the merge phase structure is too. *)
    let gpr = max 1 (m / (2 * plan.zb)) in
    let nruns = Emodel.ceil_div plan.beta gpr in
    let run_cells =
      Array.init nruns (fun j ->
          let cells = ref 0 in
          for g = j * gpr to min plan.beta ((j + 1) * gpr) - 1 do
            cells := !cells + r.final.(g)
          done;
          !cells)
    in
    let run_offs = Array.make nruns 0 in
    for j = 1 to nruns - 1 do
      run_offs.(j) <- run_offs.(j - 1) + Emodel.ceil_div run_cells.(j - 1) b
    done;
    Phases.run r.phases (fun () ->
        local_sort ~order ~src:r.routed ~dst:r.spare plan ~final_counts:r.final ~gpr ~run_cells
          ~run_offs);
    (* Merge passes ping-pong between the two areas until one run
       remains. *)
    let fan = max 2 (min nruns (m - 1)) in
    let rec passes src dst runs =
      if Array.length runs <= 1 then (src, runs)
      else begin
        let k = Array.length runs in
        let ngroups = Emodel.ceil_div k fan in
        let out_runs = Array.make ngroups (0, 0) in
        let off = ref 0 in
        for gj = 0 to ngroups - 1 do
          let lo = gj * fan and hi = min k ((gj + 1) * fan) in
          let cells = ref 0 in
          for r = lo to hi - 1 do
            cells := !cells + snd runs.(r)
          done;
          out_runs.(gj) <- (!off, !cells);
          off := !off + Emodel.ceil_div !cells b
        done;
        Phases.run r.phases (fun () ->
            for gj = 0 to ngroups - 1 do
              let lo = gj * fan and hi = min k ((gj + 1) * fan) in
              merge_group ~order ~src ~dst ~dst_off:(fst out_runs.(gj))
                (Array.sub runs lo (hi - lo))
            done);
        passes dst src out_runs
      end
    in
    let runs0 = Array.init nruns (fun j -> (run_offs.(j), run_cells.(j))) in
    let final_area, _ = passes r.spare r.routed runs0 in
    if r.overflow then begin
      (* The full schedule above already ran (the event is coin-public,
         so both members of a pair stop identically); leave [a] intact. *)
      Phases.finish r.phases;
      raise
        (Overflow
           (Printf.sprintf "bucket sort: bucket overflow (Z = %d cells, beta = %d)" plan.z
              plan.beta))
    end;
    (* Copy-back reads both the merged result and the array's current
       content: a dummy pass writes the latter back, so selective runs
       keep their fixed trace without touching the data. *)
    Phases.run r.phases (fun () ->
        let chunk = max 1 (min 32 ((m - 1) / 2)) in
        let merged = Flat.create ~block_size:b ~blocks:chunk in
        let current = Flat.create ~block_size:b ~blocks:chunk in
        let off = ref 0 in
        while !off < n do
          let len = min chunk (n - !off) in
          Ext_array.read_flat final_area !off ~count:len merged;
          Ext_array.read_flat a !off ~count:len current;
          Ext_array.write_flat a !off ~count:len (if real then merged else current);
          off := !off + len
        done);
    Phases.finish r.phases
  end
