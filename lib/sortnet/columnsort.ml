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

   Every pass is a scan or a fixed permutation, so the trace depends
   only on (N, B, m). Cost: seven linear passes — O(N/B) I/Os whenever
   the geometry fits (N <= ~(m/2)·(m·B) cells), which is the familiar
   M^{3/2}-ish capacity of one columnsort level. *)

(* Geometry: smallest s (number of columns) such that the column height
   r = ceil(n / s) rounded up to blocks satisfies Leighton's condition
   and the cache constraints. *)
let plan ~n_cells ~b ~m =
  let rec try_s s =
    if s > m / 2 then None
    else begin
      (* r must be a multiple of both B (block-aligned columns) and s
         (equal-length untranspose runs). *)
      let unit = b * s in
      let r = Emodel.ceil_div (Emodel.ceil_div n_cells s) unit * unit in
      if r + (2 * b) > (m - 2) * b then
        (* column too tall for the cache: more columns needed *)
        try_s (s + 1)
      else if r >= 2 * (s - 1) * (s - 1) && r * s >= n_cells then Some (r, s)
      else try_s (s + 1)
    end
  in
  if n_cells <= (m - 2) * b then Some (Emodel.ceil_div n_cells b * b, 1) else try_s 2

let capacity ~b ~m =
  (* Largest N this engine accepts (used by tests and the facade). *)
  let rec probe n best = if n > m * m * b then best
    else match plan ~n_cells:n ~b ~m with
      | Some _ -> probe (n + (m * b / 2)) n
      | None -> best
  in
  probe (m * b) (m * b)

(* Sort the r cells from cell [lo] of [work] privately: the blocks they
   touch (at most r/B + 1) are read into [src] as one run, sorted into
   [dst] (their other cells copied as they are) and written back as one
   run. [offs] (r slots) is the sort's scratch. *)
let sort_range ~src ~dst ~offs ~real ~order work lo =
  let b = Ext_array.block_size work in
  let blk_lo = lo / b in
  let w = ((lo + Array.length offs - 1) / b) - blk_lo + 1 in
  Ext_array.read_flat work blk_lo ~count:w src;
  if real then begin
    for i = 0 to w - 1 do
      Flat.copy_block src i dst i
    done;
    Stage.sort_cells order src ~first:(lo - (blk_lo * b)) offs dst
  end;
  Ext_array.write_flat work blk_lo ~count:w (if real then dst else src)

(* Transpose ("pick up column by column, lay down row by row"): source
   cell k moves to (k mod s)·r + k/s. One streaming pass: sequential
   reads, per-destination-column buffers of one block each (s <= m/2),
   writes firing on a fixed schedule. *)
let transpose_scatter ~r ~s src dst =
  let b = Ext_array.block_size src in
  let one = Flat.create ~block_size:b ~blocks:1 in
  let cols = Array.init s (fun _ -> Flat.create ~block_size:b ~blocks:1) in
  let fill = Array.make s 0 in
  let out_block = Array.make s 0 in
  for blk = 0 to (r * s / b) - 1 do
    Ext_array.read_flat src blk ~count:1 one;
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

(* Untranspose (the inverse permutation): destination column j gathers,
   from each source column c, a run of r/s consecutive cells. Gather
   runs, assemble the column privately, write it out as one run. *)
let untranspose_gather ~r ~s src dst =
  let b = Ext_array.block_size src in
  let run = r / s in
  let gathered = Flat.create ~block_size:b ~blocks:((r / b) + 1) in
  let col = Flat.create ~block_size:b ~blocks:(r / b) in
  let at f p = Flat.cell_offset f ~block:(p / b) ~slot:(p mod b) in
  for j = 0 to s - 1 do
    for c = 0 to s - 1 do
      (* Destination cells x = j·r + i with i ≡ c - j·r (mod s) come
         from source positions f(x) = c·r + x/s: a run of length r/s
         starting at f of the first such x. *)
      let i0 = ((c - (j * r)) mod s + s) mod s in
      let x0 = (j * r) + i0 in
      let src_start = (c * r) + (x0 / s) in
      let blk_lo = src_start / b in
      Ext_array.read_flat src blk_lo ~count:(((src_start + run - 1) / b) - blk_lo + 1) gathered;
      for t = 0 to run - 1 do
        Flat.copy_cell gathered
          (at gathered (src_start + t - (blk_lo * b)))
          col
          (at col (i0 + (t * s)))
      done
    done;
    Ext_array.write_flat dst ((j * r) / b) ~count:(r / b) col
  done

(* Phase-checkpointed execution on a journaled store, the same scaffold
   as the bitonic and bucket paths: the eight columnsort steps are cut
   into a deterministic phase sequence — copy-in, one phase per column
   sort, the transpose/untranspose permutations, one per boundary
   window, copy-out — each of which is idempotent (re-sorting a sorted
   range, or re-running a read-only-source permutation, is a fixed
   point), so a killed sort reopened with [resume:true] skips the
   committed phases and re-enters at the first incomplete one. The
   cursor persists the work array's base; scratch sits immediately after
   it (the allocator is a deterministic bump allocator and the two are
   created back to back), so both re-attach from one address. The owner
   folds in the input's base and shape and lives in the store's
   checkpoint table alongside any other in-flight algorithm's slot. *)
let exec ~real ~order ~m a =
  let n_cells = Ext_array.cells a in
  let b = Ext_array.block_size a in
  match plan ~n_cells ~b ~m with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Columnsort: N = %d cells does not fit one columnsort level at m = %d, B = %d \
            (capacity ~%d); use bitonic_windowed"
           n_cells m b (capacity ~b ~m))
  | Some (r, s) ->
      let storage = Ext_array.storage a in
      let total = r * s in
      let nb = total / b in
      let ck = Storage.journaled storage in
      let owner =
        Printf.sprintf "columnsort/%d/%d" (Ext_array.base a) (Ext_array.blocks a)
      in
      let done_phase, done_cursor =
        if ck then Storage.checkpoint_state storage ~owner else (0, 0)
      in
      (* Alice's staging, allocated once per sort: no stage below holds
         more than a window of w = r/B + 1 blocks. *)
      let w = (r / b) + 1 in
      if w > m then raise (Cache.Overflow { capacity = m; requested = w });
      let src = Flat.create ~block_size:b ~blocks:w and dst = Flat.create ~block_size:b ~blocks:w in
      let offs = Array.make r 0 in
      let work, scratch, done_phase =
        if done_phase > 0 && done_cursor + (2 * nb) <= Storage.capacity storage then
          ( Ext_array.view storage ~base:done_cursor ~blocks:nb,
            Ext_array.view storage ~base:(done_cursor + nb) ~blocks:nb,
            done_phase )
        else
          let work = Ext_array.create storage ~blocks:nb in
          let scratch = Ext_array.create storage ~blocks:nb in
          (work, scratch, 0)
      in
      let phase = ref 0 in
      let run_phase f =
        incr phase;
        if !phase > done_phase then begin
          f ();
          if ck then
            Storage.checkpoint storage ~owner ~phase:!phase ~cursor:(Ext_array.base work)
        end
      in
      (* Copy in (padding cells are already Empty = +∞). *)
      run_phase (fun () ->
          for i = 0 to Ext_array.blocks a - 1 do
            Ext_array.read_flat a i ~count:1 src;
            Ext_array.write_flat work i ~count:1 src
          done);
      let sort_columns arr =
        for j = 0 to s - 1 do
          run_phase (fun () -> sort_range ~src ~dst ~offs ~real ~order arr (j * r))
        done
      in
      sort_columns work;
      if s > 1 then begin
        run_phase (fun () -> transpose_scatter ~r ~s work scratch);
        sort_columns scratch;
        run_phase (fun () -> untranspose_gather ~r ~s scratch work);
        sort_columns work;
        (* Steps 6-8 without copying: sort the r-cell windows that
           straddle adjacent column boundaries. *)
        for j = 0 to s - 2 do
          run_phase (fun () -> sort_range ~src ~dst ~offs ~real ~order work ((j * r) + (r / 2)))
        done
      end;
      (* Copy out; the extra read of [a] keeps the dummy pass's trace
         identical to the real one. *)
      run_phase (fun () ->
          for i = 0 to Ext_array.blocks a - 1 do
            Ext_array.read_flat work i ~count:1 src;
            Ext_array.read_flat a i ~count:1 dst;
            Ext_array.write_flat a i ~count:1 (if real then src else dst)
          done);
      if ck then Storage.checkpoint_clear storage ~owner
