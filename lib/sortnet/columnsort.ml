open Odex_extmem

(* Leighton's columnsort, the algorithm behind the Chaudhry–Cormen
   out-of-core oblivious sorts the paper cites [13, 14].

   The N cells are laid out column-major as an r × s matrix with
   r >= 2(s-1)^2 and every column small enough for Alice's cache. Eight
   deterministic steps sort the whole matrix; we use the classic
   no-copy variant of steps 6–8 (sort r-cell windows straddling column
   boundaries instead of materializing the shifted matrix):

     1. sort columns          2. transpose
     3. sort columns          4. untranspose
     5. sort columns          6. sort r-windows at offset r/2
     7. final column sort of the boundary regions is subsumed by 6

   The input array is the matrix itself. Its cells past the array's last
   block, up to r·s, are virtual empties (+∞): never stored, never read
   or written — a stage holding one stages it as an empty image and
   drops it on write-back. Which blocks are virtual is a function of
   (N, B, m) alone. Dropping is sound because every virtual position
   always holds an empty: a sorted column or window keeps at least its
   virtual tail's count of empties at its bottom; and the transpose sends
   the virtual cells k >= N to exactly the scratch rows (c, y) with
   y·s + c >= N, so after step 3 each scratch column ends in at least
   that many empties, which the untranspose maps back past N. The only
   server space is the transposition scratch of r·s/B blocks.

   Every pass is a scan or a fixed permutation, so the trace depends
   only on (N, B, m). Cost: seven linear passes — O(N/B) I/Os whenever
   the geometry fits (N <= ~(m/2)·(m·B) cells), which is the familiar
   M^{3/2}-ish capacity of one columnsort level; {!cost} is the exact
   count. *)

(* Geometry: among the column counts s whose height r = ceil(n / s),
   rounded up to a multiple of both B (block-aligned columns) and s
   (equal-length untranspose runs), satisfies Leighton's condition and
   fits the cache, the one with the least padding r·s, then the fewest
   columns. Padding costs scratch and transposition I/O. *)
let plan ~n_cells ~b ~m =
  if n_cells <= (m - 2) * b then Some (Emodel.ceil_div n_cells b * b, 1)
  else begin
    let best = ref None in
    for s = 2 to m / 2 do
      let unit = b * s in
      let r = Emodel.ceil_div (Emodel.ceil_div n_cells s) unit * unit in
      if r + (2 * b) <= (m - 2) * b && r >= 2 * (s - 1) * (s - 1) then
        match !best with
        | Some (r', s') when r' * s' <= r * s -> ()
        | _ -> best := Some (r, s)
    done;
    !best
  end

let capacity ~b ~m =
  (* Largest N this engine accepts (used by tests and the facade). *)
  let rec probe n best = if n > m * m * b then best
    else match plan ~n_cells:n ~b ~m with
      | Some _ -> probe (n + (m * b / 2)) n
      | None -> best
  in
  probe (m * b) (m * b)

(* The blocks [blk_lo, blk_lo + w) that the r-cell range from cell [lo]
   touches, and how many of them are stored in an array of [blocks]
   blocks (the rest are virtual). *)
let range_blocks ~b ~r ~blocks lo =
  let blk_lo = lo / b in
  let w = ((lo + r - 1) / b) - blk_lo + 1 in
  (blk_lo, w, max 0 (min w (blocks - blk_lo)))

(* Sort the r cells from cell [lo] of [arr] privately: the stored blocks
   they touch are read into [src] as one run, the virtual ones staged as
   empties, all sorted into [dst] (their other cells copied as they are)
   and the stored blocks written back as one run. [offs] (r slots) is
   the sort's scratch. A range wholly past the stored blocks is skipped. *)
let sort_range ~src ~dst ~offs ~real ~order arr lo =
  let b = Ext_array.block_size arr in
  let blk_lo, w, stored = range_blocks ~b ~r:(Array.length offs) ~blocks:(Ext_array.blocks arr) lo in
  if stored > 0 then begin
    Ext_array.read_flat arr blk_lo ~count:stored src;
    if real then begin
      Flat.clear_blocks src stored (w - stored);
      for i = 0 to w - 1 do
        Flat.copy_block src i dst i
      done;
      Stage.sort_cells order src ~first:(lo - (blk_lo * b)) offs dst
    end;
    Ext_array.write_flat arr blk_lo ~count:stored (if real then dst else src)
  end

(* Transpose ("pick up column by column, lay down row by row"): source
   cell k moves to (k mod s)·r + k/s. One streaming pass: sequential
   reads of the stored blocks (a virtual block is an empty image),
   per-destination-column buffers of one block each (s <= m/2), writes
   firing on a fixed schedule. *)
let transpose_scatter ~r ~s src dst =
  let b = Ext_array.block_size src in
  let one = Flat.create ~block_size:b ~blocks:1 in
  let cols = Array.init s (fun _ -> Flat.create ~block_size:b ~blocks:1) in
  let fill = Array.make s 0 in
  let out_block = Array.make s 0 in
  for blk = 0 to (r * s / b) - 1 do
    if blk < Ext_array.blocks src then Ext_array.read_flat src blk ~count:1 one
    else Flat.clear_blocks one 0 1;
    for i = 0 to b - 1 do
      let j = ((blk * b) + i) mod s in
      Flat.copy_cell one (Flat.cell_offset one ~block:0 ~slot:i) cols.(j)
        (Flat.cell_offset cols.(j) ~block:0 ~slot:fill.(j));
      fill.(j) <- fill.(j) + 1;
      if fill.(j) = b then begin
        Ext_array.write_flat dst (((j * r) / b) + out_block.(j)) ~count:1 cols.(j);
        out_block.(j) <- out_block.(j) + 1;
        fill.(j) <- 0
      end
    done
  done;
  assert (Array.for_all (( = ) 0) fill)

(* Untranspose: destination column j gathers, from source column c, the
   r/s consecutive cells from source position c·r + x0/s, where x0 =
   j·r + i0 is the column's first cell with i0 ≡ c - j·r (mod s). The
   result is that run's first cell position and block span. *)
let gather_run ~b ~r ~s j c =
  let i0 = ((c - (j * r)) mod s + s) mod s in
  let src_start = (c * r) + (((j * r) + i0) / s) in
  let blk_lo = src_start / b in
  (i0, src_start, blk_lo, ((src_start + (r / s) - 1) / b) - blk_lo + 1)

(* The inverse permutation, into the stored blocks of [dst]: gather a
   column's runs, assemble it privately, write its stored blocks out as
   one run. A wholly virtual column is skipped. *)
let untranspose_gather ~r ~s src dst =
  let b = Ext_array.block_size src in
  let run = r / s in
  let gathered = Flat.create ~block_size:b ~blocks:((r / b) + 1) in
  let col = Flat.create ~block_size:b ~blocks:(r / b) in
  let at f p = Flat.cell_offset f ~block:(p / b) ~slot:(p mod b) in
  for j = 0 to s - 1 do
    let stored = min (r / b) (Ext_array.blocks dst - (j * r / b)) in
    if stored > 0 then begin
      for c = 0 to s - 1 do
        let i0, src_start, blk_lo, count = gather_run ~b ~r ~s j c in
        Ext_array.read_flat src blk_lo ~count gathered;
        for t = 0 to run - 1 do
          Flat.copy_cell gathered
            (at gathered (src_start + t - (blk_lo * b)))
            col
            (at col (i0 + (t * s)))
        done
      done;
      Ext_array.write_flat dst ((j * r) / b) ~count:stored col
    end
  done

(* The counted I/Os and scratch blocks of [exec] at a shape, from the
   same geometry the schedule walks. Columns are block-aligned, so a
   column-sort pass reads and writes each stored block once: 2 blocks
   for steps 1 and 5, 2 nb for step 3; the transpose reads the stored
   blocks and writes nb. *)
let cost ~blocks ~b ~m =
  match plan ~n_cells:(blocks * b) ~b ~m with
  | None -> None
  | Some (_, 1) -> Some (2 * blocks, 0)
  | Some (r, s) ->
      let nb = r * s / b in
      let sum k f =
        let t = ref 0 in
        for i = 0 to k - 1 do
          t := !t + f i
        done;
        !t
      in
      let untranspose =
        sum s (fun j ->
            let stored = min (r / b) (blocks - (j * r / b)) in
            if stored > 0 then
              stored + sum s (fun c -> let _, _, _, count = gather_run ~b ~r ~s j c in count)
            else 0)
      in
      let windows =
        sum (s - 1) (fun j ->
            let _, _, stored = range_blocks ~b ~r ~blocks ((j * r) + (r / 2)) in
            2 * stored)
      in
      Some ((5 * blocks) + (3 * nb) + untranspose + windows, nb)

(* Phase-checkpointed execution on a journaled store, the same scaffold
   as the bitonic and bucket paths: the eight columnsort steps are cut
   into a deterministic phase sequence — one phase per column sort, the
   transpose/untranspose permutations, one per boundary window — each of
   which is idempotent (re-sorting a sorted range, or re-running a
   read-only-source permutation, is a fixed point), so a killed sort
   reopened with [resume:true] skips the committed phases and re-enters
   at the first incomplete one. The cursor persists the scratch's base,
   so a resumed run re-attaches it. The owner folds in the input's base
   and shape and lives in the store's checkpoint table alongside any
   other in-flight algorithm's slot. *)
let exec ~real ~order ~m a =
  let blocks = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  match plan ~n_cells:(blocks * b) ~b ~m with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Columnsort: N = %d cells does not fit one columnsort level at m = %d, B = %d \
            (capacity ~%d); use bitonic_windowed"
           (blocks * b) m b (capacity ~b ~m))
  | Some (r, s) ->
      let storage = Ext_array.storage a in
      let nb = r * s / b in
      let ck = Storage.journaled storage in
      let owner = Printf.sprintf "columnsort/%d/%d" (Ext_array.base a) blocks in
      let done_phase, done_cursor =
        if ck then Storage.checkpoint_state storage ~owner else (0, 0)
      in
      (* Alice's staging, allocated once per sort: no stage below holds
         more than a window of w = r/B + 1 blocks. *)
      let w = (r / b) + 1 in
      Residency.check ~m w;
      let src = Flat.create ~block_size:b ~blocks:w and dst = Flat.create ~block_size:b ~blocks:w in
      let offs = Array.make r 0 in
      (* One column needs no transposition and so no scratch. *)
      let scratch, done_phase =
        if s = 1 then (None, done_phase)
        else if done_phase > 0 && done_cursor >= 0 && done_cursor + nb <= Storage.capacity storage
        then (Some (Ext_array.view storage ~base:done_cursor ~blocks:nb), done_phase)
        else (Some (Ext_array.create storage ~blocks:nb), 0)
      in
      let cursor = Option.fold ~none:0 ~some:Ext_array.base scratch in
      let phase = ref 0 in
      let run_phase f =
        incr phase;
        if !phase > done_phase then begin
          f ();
          if ck then Storage.checkpoint storage ~owner ~phase:!phase ~cursor
        end
      in
      let sort_columns arr =
        for j = 0 to s - 1 do
          run_phase (fun () -> sort_range ~src ~dst ~offs ~real ~order arr (j * r))
        done
      in
      sort_columns a;
      Option.iter
        (fun scratch ->
          run_phase (fun () -> transpose_scatter ~r ~s a scratch);
          sort_columns scratch;
          run_phase (fun () -> untranspose_gather ~r ~s scratch a);
          sort_columns a;
          (* Steps 6-8 without copying: sort the r-cell windows that
             straddle adjacent column boundaries. *)
          for j = 0 to s - 2 do
            run_phase (fun () -> sort_range ~src ~dst ~offs ~real ~order a ((j * r) + (r / 2)))
          done)
        scratch;
      if ck then Storage.checkpoint_clear storage ~owner
