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

(* Sort the cell range [lo, lo+len) of [work] inside the cache. *)
let sort_range ~real ~order ~m work lo len =
  let b = Ext_array.block_size work in
  let blk_lo = lo / b in
  let blk_hi = (lo + len - 1) / b in
  let cache = Cache.create (Ext_array.storage work) ~capacity:m in
  let width = ((blk_hi - blk_lo + 1) * b) in
  let cells = Array.make width Cell.empty in
  for i = blk_lo to blk_hi do
    let blk = Cache.load cache (Ext_array.addr work i) in
    Array.blit blk 0 cells ((i - blk_lo) * b) b
  done;
  if real then begin
    let off = lo - (blk_lo * b) in
    let section = Array.sub cells off len in
    Array.sort (Order.compare order) section;
    Array.blit section 0 cells off len;
    for i = blk_lo to blk_hi do
      let blk = Cache.borrow cache (Ext_array.addr work i) in
      Array.blit cells ((i - blk_lo) * b) blk 0 b
    done
  end;
  Cache.flush_all cache

(* Transpose ("pick up column by column, lay down row by row"): source
   cell k moves to (k mod s)·r + k/s. One streaming pass: sequential
   reads, per-destination-column buffers of one block each (s <= m/2),
   writes firing on a fixed schedule. *)
let transpose_scatter ~r ~s src dst =
  let b = Ext_array.block_size src in
  let buffers = Array.init s (fun _ -> Block.make b) in
  let fill = Array.make s 0 in
  let out_block = Array.make s 0 in
  let n = r * s in
  let flush j =
    Ext_array.write_block dst (((j * r) / b) + out_block.(j)) buffers.(j);
    out_block.(j) <- out_block.(j) + 1;
    buffers.(j) <- Block.make b;
    fill.(j) <- 0
  in
  for blk = 0 to (n / b) - 1 do
    let cells = Ext_array.read_block src blk in
    Array.iteri
      (fun i c ->
        let k = (blk * b) + i in
        let j = k mod s in
        buffers.(j).(fill.(j)) <- c;
        fill.(j) <- fill.(j) + 1;
        if fill.(j) = b then flush j)
      cells
  done;
  Array.iteri (fun j f -> assert (f = 0); ignore j) (Array.copy fill)

(* Untranspose (the inverse permutation): destination column j gathers,
   from each source column c, a run of r/s consecutive cells. Gather
   runs, assemble the column privately, write it out. *)
let untranspose_gather ~m ~r ~s src dst =
  let b = Ext_array.block_size src in
  let cache = Cache.create (Ext_array.storage src) ~capacity:m in
  let run = r / s in
  for j = 0 to s - 1 do
    let col = Array.make r Cell.empty in
    for c = 0 to s - 1 do
      (* Destination cells x = j·r + i with i ≡ c - j·r (mod s) come
         from source positions f(x) = c·r + x/s: a run of length r/s
         starting at f of the first such x. *)
      let i0 = ((c - (j * r)) mod s + s) mod s in
      let x0 = (j * r) + i0 in
      let src_start = (c * r) + (x0 / s) in
      let blk_lo = src_start / b and blk_hi = (src_start + run - 1) / b in
      for blk = blk_lo to blk_hi do
        let cells = Cache.load cache (Ext_array.addr src blk) in
        Array.iteri
          (fun idx cell ->
            let pos = (blk * b) + idx in
            if pos >= src_start && pos < src_start + run then begin
              let t = pos - src_start in
              col.(i0 + (t * s)) <- cell
            end)
          cells;
        Cache.drop cache (Ext_array.addr src blk)
      done
    done;
    for blk = 0 to (r / b) - 1 do
      let out = Array.sub col (blk * b) b in
      Ext_array.write_block dst (((j * r) / b) + blk) out
    done
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
            Ext_array.write_block work i (Ext_array.read_block a i)
          done);
      let sort_columns arr =
        for j = 0 to s - 1 do
          run_phase (fun () -> sort_range ~real ~order ~m arr (j * r) r)
        done
      in
      sort_columns work;
      if s > 1 then begin
        run_phase (fun () -> transpose_scatter ~r ~s work scratch);
        sort_columns scratch;
        run_phase (fun () -> untranspose_gather ~m ~r ~s scratch work);
        sort_columns work;
        (* Steps 6-8 without copying: sort the r-cell windows that
           straddle adjacent column boundaries. *)
        for j = 0 to s - 2 do
          run_phase (fun () -> sort_range ~real ~order ~m work ((j * r) + (r / 2)) r)
        done
      end;
      (* Copy out; the extra read of [a] keeps the dummy pass's trace
         identical to the real one. *)
      run_phase (fun () ->
          for i = 0 to Ext_array.blocks a - 1 do
            let sorted = Ext_array.read_block work i in
            let original = Ext_array.read_block a i in
            Ext_array.write_block a i (if real then sorted else original)
          done);
      if ck then Storage.checkpoint_clear storage ~owner
