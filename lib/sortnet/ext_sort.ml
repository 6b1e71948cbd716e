open Odex_extmem

type t = {
  name : string;
  exec : real:bool -> order:Order.t -> m:int -> Ext_array.t -> unit;
}

let name t = t.name

let run t ?(order = Order.Keys) ~m a = t.exec ~real:true ~order ~m a

let run_selective t ?(order = Order.Keys) ~real ~m a = t.exec ~real ~order ~m a

(* The block comparator as one stable linear merge: both blocks are
   sorted under [order], so their 2B cells merge into [scratch] (a tie
   takes u's cell first) and split back low half / high half. *)
let merge_into scratch ~order ~ascending u v =
  let b = Array.length u in
  if Array.length v <> b then invalid_arg "Ext_sort.merge_split: block size mismatch";
  let i = ref 0 and j = ref 0 in
  for k = 0 to (2 * b) - 1 do
    if !j >= b || (!i < b && Order.compare order u.(!i) v.(!j) <= 0) then begin
      scratch.(k) <- u.(!i);
      incr i
    end
    else begin
      scratch.(k) <- v.(!j);
      incr j
    end
  done;
  let lo_dst, hi_dst = if ascending then (u, v) else (v, u) in
  Array.blit scratch 0 lo_dst 0 b;
  Array.blit scratch b hi_dst 0 b

let merge_split ~order ~ascending u v =
  merge_into (Array.make (2 * Array.length u) Cell.empty) ~order ~ascending u v

(* ------------------------------------------------------------------ *)
(* Cache sort: the base case used whenever a (sub)problem fits in
   Alice's memory. One read pass, private sort, one write pass. *)

let cache_sort_exec ~real ~order ~m a =
  let n = Ext_array.blocks a in
  let b = Ext_array.block_size a in
  let storage = Ext_array.storage a in
  let cache = Cache.create storage ~capacity:m in
  (* One batched read run in, one batched write run out ([flush_all]
     groups the contiguous residents); an oversized array overflows in
     [load_run]'s capacity pre-check, before any I/O. *)
  Cache.load_run cache (Ext_array.base a) ~count:n;
  if real then begin
    let cells = Array.make (n * b) Cell.empty in
    for i = 0 to n - 1 do
      Array.blit (Cache.borrow cache (Ext_array.addr a i)) 0 cells (i * b) b
    done;
    Array.sort (Order.compare order) cells;
    for i = 0 to n - 1 do
      Array.blit cells (i * b) (Cache.borrow cache (Ext_array.addr a i)) 0 b
    done
  end;
  Cache.flush_all cache

let cache_sort = { name = "cache"; exec = cache_sort_exec }

(* ------------------------------------------------------------------ *)
(* Block-level bitonic sort.

   The network is the classic direction-flagged bitonic circuit: stages
   of size k = 2, 4, …, n2; within a stage, butterfly levels of strides
   j = k/2 … 1 compare positions (i, i xor j) ascending iff (i land k) =
   0. A chunk of [lpp] consecutive levels (strides 2^hi … 2^lo) only
   couples index bits lo..hi, so fixing the other bits splits the array
   into independent 2^(hi-lo+1)-block groups; each group is staged in
   Alice's memory as one block array, run through all chunk levels
   privately, and written back — one scan of the array per chunk
   instead of per level. *)

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let process_chunk work ~m ~scratch ~real ~order ~stage ~hi ~lo =
  let g_bits = hi - lo + 1 in
  let g = 1 lsl g_bits in
  (* The whole group is resident at once: check Alice's bound before
     any I/O. *)
  if g > m then raise (Cache.Overflow { capacity = m; requested = g });
  let n2 = Ext_array.blocks work in
  let groups = n2 / g in
  for v = 0 to groups - 1 do
    let base = ((v lsr lo) lsl (hi + 1)) lor (v land ((1 lsl lo) - 1)) in
    let pos t = base lor (t lsl lo) in
    (* [lo = 0] makes the group the contiguous run [base, base + g) (the
       windowed sort's common case): one batched read, one batched
       write. Strided groups move block by block in [pos t] order, which
       is address order. *)
    let blks =
      if lo = 0 then Ext_array.read_blocks work base ~count:g
      else Array.init g (fun t -> Ext_array.read_block work (pos t))
    in
    (* Level [bit] pairs group indices t and t xor 2^(bit - lo). *)
    if real then
      for bit = hi downto lo do
        let j = 1 lsl (bit - lo) in
        for t = 0 to g - 1 do
          let t' = t lxor j in
          if t' > t then
            merge_into scratch ~order ~ascending:(pos t land stage = 0) blks.(t) blks.(t')
        done
      done;
    (* One atomic journal group per write-back: a crash between the
       runs of a strided group must roll back all of them — re-running a
       half-exchanged pair would lose values. *)
    Storage.atomically (Ext_array.storage work) (fun () ->
        if lo = 0 then Ext_array.write_blocks work base blks
        else Array.iteri (fun t blk -> Ext_array.write_blocks work (pos t) [| blk |]) blks)
  done

(* Phase-checkpointed execution on a journaled store: the network is cut
   into a deterministic sequence of phases — the pre-sort/copy scan,
   one per chunk pass, the copy-back — numbered identically on every run
   with the same (n, m). After each phase the journal checkpoint slot is
   advanced, so a killed run reopened with [resume:true] skips the
   phases already committed and restarts from the first incomplete one.
   That is sound because every phase is idempotent: re-running a
   compare-exchange pass (or either copy scan) on its own output is a
   fixed point, so at-least-once phase execution converges to the same
   array. The slot's cursor persists the padded work array's base
   address, letting the resumed run re-attach it instead of allocating a
   fresh one (a crash before the first checkpoint re-allocates — the
   orphaned scratch is the price of not having committed anything yet).

   The owner string folds in the array base and block count: a slot
   written by a different array (or a differently-shaped sort) is
   ignored. The store's checkpoint table keys slots by the full owner
   string, so a sort nested inside another checkpointed computation (the
   ORAM rebuild) keeps its slot without clobbering its host's — resuming
   is still sound only for the same deterministic sort invocation that
   wrote the slot (see {!Storage.checkpoint}). On unjournaled stores all
   of this costs two integer reads and no I/O. *)

let bitonic_exec ~levels_per_pass ~real ~order ~m a =
  if m < 2 then invalid_arg "Ext_sort.bitonic: need m >= 2";
  let n = Ext_array.blocks a in
  let storage = Ext_array.storage a in
  if n = 0 then ()
  else begin
    let n2 = next_power_of_two n in
    let ck = Storage.journaled storage in
    let owner = Printf.sprintf "ext-sort/%d/%d" (Ext_array.base a) n in
    let done_phase, done_cursor =
      if ck then Storage.checkpoint_state storage ~owner else (0, 0)
    in
    let work, done_phase =
      if n2 = n then (a, done_phase)
      else if
        done_phase > 0 && done_cursor >= 0 && done_cursor + n2 <= Storage.capacity storage
      then (Ext_array.view storage ~base:done_cursor ~blocks:n2, done_phase)
      else (Ext_array.create storage ~blocks:n2, 0)
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
    (* Pre-sort each block internally (and copy into the padded work
       array when needed); padding blocks are already all-empty = +∞.
       Read and rewritten in batched runs. *)
    run_phase (fun () ->
        Ext_array.iter_runs a ~chunk:32 (fun base blks ->
            if real then Array.iter (Block.sort_in_place order) blks;
            Ext_array.write_blocks work base blks));
    let lpp = max 1 (min (levels_per_pass m) (Emodel.ilog2_floor m)) in
    let scratch = Array.make (2 * Ext_array.block_size a) Cell.empty in
    let stage = ref 2 in
    while !stage <= n2 do
      let top = Emodel.ilog2_floor !stage - 1 in
      let hi = ref top in
      while !hi >= 0 do
        let lo = max 0 (!hi - lpp + 1) in
        let stage_now = !stage and hi_now = !hi in
        run_phase (fun () ->
            process_chunk work ~m ~scratch ~real ~order ~stage:stage_now ~hi:hi_now ~lo);
        hi := lo - 1
      done;
      stage := !stage * 2
    done;
    (* Copy-back in batched runs of 32 blocks, in address order. *)
    if work != a then
      run_phase (fun () ->
          Ext_array.iter_runs (Ext_array.sub work ~off:0 ~len:n) ~chunk:32 (fun base blks ->
              Ext_array.write_blocks a base blks));
    (* Done: clear the slot so the next sort over this array starts
       fresh instead of "resuming" past its own phases. *)
    if ck then Storage.checkpoint_clear storage ~owner
  end

let bitonic = { name = "bitonic"; exec = bitonic_exec ~levels_per_pass:(fun _ -> 1) }

let bitonic_windowed =
  {
    name = "bitonic-windowed";
    exec = bitonic_exec ~levels_per_pass:(fun m -> Emodel.ilog2_floor m);
  }

let auto =
  {
    name = "auto";
    exec =
      (fun ~real ~order ~m a ->
        if Ext_array.blocks a <= m then cache_sort_exec ~real ~order ~m a
        else bitonic_exec ~levels_per_pass:(fun m -> Emodel.ilog2_floor m) ~real ~order ~m a);
  }

let columnsort = { name = "columnsort"; exec = Columnsort.exec }

(* ------------------------------------------------------------------ *)
(* Bucket oblivious sort (Asharov et al., DESIGN.md §12). Dispatch is
   public (n, B, M only): in-cache inputs use the cache sorter, inputs
   whose bucket geometry does not fit Alice's memory fall back to the
   windowed bitonic network, everything else runs the O(n log n)
   butterfly pipeline. *)

let bucket_exec ~master ~real ~order ~m a =
  let n = Ext_array.blocks a in
  if n = 0 then ()
  else if n <= m then cache_sort_exec ~real ~order ~m a
  else
    match Bucket_sort.plan_for ~b:(Ext_array.block_size a) ~m ~n_cells:(n * Ext_array.block_size a) with
    | Some plan -> Bucket_sort.sort ~plan ~master ~real ~order ~m a
    | None -> bitonic_exec ~levels_per_pass:(fun m -> Emodel.ilog2_floor m) ~real ~order ~m a

let bucket ?(seed = 0xB0C4E7) () =
  {
    name = "bucket";
    exec =
      (fun ~real ~order ~m a ->
        (* A fresh stream per exec: the same sorter value replays the
           same coins on every invocation (deterministic, resumable). *)
        let rng = Odex_crypto.Rng.create ~seed in
        bucket_exec ~master:(Odex_crypto.Rng.int rng 0x3FFFFFFF) ~real ~order ~m a);
  }

let bucket_rng rng =
  {
    name = "bucket";
    exec =
      (fun ~real ~order ~m a ->
        bucket_exec ~master:(Odex_crypto.Rng.int rng 0x3FFFFFFF) ~real ~order ~m a);
  }

let all = [ cache_sort; bitonic; bitonic_windowed; columnsort; bucket () ]

let find ?seed name =
  match name with
  | "cache" -> Some cache_sort
  | "bitonic" | "batcher" -> Some bitonic
  | "bitonic-windowed" -> Some bitonic_windowed
  | "columnsort" -> Some columnsort
  | "bucket" -> Some (bucket ?seed ())
  | "auto" -> Some auto
  | _ -> None
