open Odex_extmem

type cost = { ios : int; scratch_blocks : int }

type t = {
  name : string;
  exec : real:bool -> order:Order.t -> m:int -> Ext_array.t -> unit;
  cost : blocks:int -> m:int -> b:int -> cost option;
}

let name t = t.name

let cost t ~blocks ~m ~b = t.cost ~blocks ~m ~b

let run t ?(order = Order.Keys) ~m a = t.exec ~real:true ~order ~m a

let run_selective t ?(order = Order.Keys) ~real ~m a = t.exec ~real ~order ~m a

(* The block comparator as one stable linear merge, on cell offsets:
   [pos] maps each cell position of a staged run (slot k of block t at
   [t * b + k]) to the byte offset in [buf] of the image now there.
   Blocks [u] and [v] are each sorted under [order], so their 2B
   positions merge into [tmp] (a tie takes u's image first) and split
   back low half / high half. Only offsets move; the images stay where
   they were read until the run is written out. *)
let merge_offsets ~order ~ascending buf pos tmp ~b u v =
  let i = ref (u * b) and j = ref (v * b) in
  let ue = !i + b and ve = !j + b in
  for k = 0 to (2 * b) - 1 do
    if !j >= ve || (!i < ue && Order.compare_images order buf pos.(!i) buf pos.(!j) <= 0)
    then begin
      tmp.(k) <- pos.(!i);
      incr i
    end
    else begin
      tmp.(k) <- pos.(!j);
      incr j
    end
  done;
  Array.blit tmp 0 pos ((if ascending then u else v) * b) b;
  Array.blit tmp b pos ((if ascending then v else u) * b) b

let merge_split ~order ~ascending f u v =
  let b = Flat.block_size f in
  let pos =
    Array.init (2 * b) (fun p -> Flat.cell_offset f ~block:(if p < b then u else v) ~slot:(p mod b))
  in
  merge_offsets ~order ~ascending (Flat.buffer f) pos (Array.make (2 * b) 0) ~b 0 1;
  let out = Flat.create ~block_size:b ~blocks:2 in
  Stage.gather f pos ~first:0 ~len:(2 * b) out;
  Flat.copy_block out 0 f u;
  Flat.copy_block out 1 f v

(* ------------------------------------------------------------------ *)
(* Cache sort: the base case used whenever a (sub)problem fits in
   Alice's memory. One batched read run in, a private sort of the
   images, one batched write run out; an oversized array overflows
   before any I/O. *)

let cache_sort_exec ~real ~order ~m a =
  Stage.whole ~m a (fun src dst ->
      if real then Stage.sort_cells order src ~first:0 (Array.make (Ext_array.cells a) 0) dst;
      if real then dst else src)

let cache_sort =
  {
    name = "cache";
    exec = cache_sort_exec;
    cost =
      (fun ~blocks ~m ~b:_ ->
        if blocks <= m then Some { ios = 2 * blocks; scratch_blocks = 0 } else None);
  }

(* ------------------------------------------------------------------ *)
(* Block-level bitonic sort.

   The network is the classic direction-flagged bitonic circuit: stages
   of size k = 2, 4, …, n2; within a stage, butterfly levels of strides
   j = k/2 … 1 compare positions (i, i xor j) ascending iff (i land k) =
   0. A chunk of [lpp] consecutive levels (strides 2^hi … 2^lo) only
   couples index bits lo..hi, so fixing the other bits splits the array
   into independent 2^(hi-lo+1)-block groups; each group is staged in
   Alice's memory as one flat run, run through all chunk levels
   privately, and written back — one scan of the array per chunk
   instead of per level. *)

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* The padded work array a non-power-of-two input is copied into. *)
let network_scratch n =
  let n2 = next_power_of_two n in
  if n = 0 || n2 = n then 0 else n2

(* Butterfly levels per chunk pass, capped so a group fits the cache. *)
let chunk_levels ~levels_per_pass m =
  if m < 2 then 1 else max 1 (min (levels_per_pass m) (Emodel.ilog2_floor m))

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
  let n = Ext_array.blocks a in
  let storage = Ext_array.storage a in
  if n = 0 then ()
  else begin
    let n2 = next_power_of_two n in
    (* A chunk group of up to 2^lpp blocks is resident at once (a pair
       of blocks at least): check Alice's bound before any I/O. *)
    let lpp = chunk_levels ~levels_per_pass m in
    let gmax = min n2 (1 lsl lpp) in
    Residency.check ~m gmax;
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
    (* Alice's staging, allocated once per sort: a chunk group (or a
       32-block scan run) as read, [input], and as written, [output];
       [one] carries a strided group's blocks; [pos] holds a group's
       cell offsets, [tmp] the comparator's and [offs] a block sort's. *)
    let b = Ext_array.block_size a in
    let flat blocks = Flat.create ~block_size:b ~blocks in
    let input = flat (max gmax (min 32 n)) and output = flat (max gmax (min 32 n)) in
    let one = flat 1 in
    let pos = Array.make (gmax * b) 0 and tmp = Array.make (2 * b) 0 and offs = Array.make b 0 in
    (* One chunk pass over levels hi .. lo of stage [stage]. *)
    let chunk ~stage ~hi ~lo =
      let g = 1 lsl (hi - lo + 1) in
      for v = 0 to (n2 / g) - 1 do
        let base = ((v lsr lo) lsl (hi + 1)) lor (v land ((1 lsl lo) - 1)) in
        (* Group index t is block [base lor (t lsl lo)]. [lo = 0] makes
           the group the contiguous run [base, base + g) (the windowed
           sort's common case): one batched read, one batched write.
           Strided groups move block by block in t order, which is
           address order. *)
        if lo = 0 then Ext_array.read_flat work base ~count:g input
        else
          for t = 0 to g - 1 do
            Ext_array.read_flat work (base lor (t lsl lo)) ~count:1 one;
            Flat.copy_block one 0 input t
          done;
        (* Level [bit] pairs group indices t and t xor 2^(bit - lo). *)
        if real then begin
          for p = 0 to (g * b) - 1 do
            pos.(p) <- Stage.offset input p
          done;
          for bit = hi downto lo do
            let j = 1 lsl (bit - lo) in
            for t = 0 to g - 1 do
              let t' = t lxor j in
              if t' > t then
                merge_offsets ~order
                  ~ascending:((base lor (t lsl lo)) land stage = 0)
                  (Flat.buffer input) pos tmp ~b t t'
            done
          done;
          Stage.gather input pos ~first:0 ~len:(g * b) output
        end;
        (* One journal group per write-back: a run write is one already;
           a crash between the runs of a strided group must roll back all
           of them — re-running a half-exchanged pair would lose
           values. *)
        let out = if real then output else input in
        if lo = 0 then Ext_array.write_flat work base ~count:g out
        else
          Storage.atomically storage (fun () ->
              for t = 0 to g - 1 do
                Flat.copy_block out t one 0;
                Ext_array.write_flat work (base lor (t lsl lo)) ~count:1 one
              done)
      done
    in
    (* Scan [src] into [dst] in batched runs of 32 blocks, in address
       order, sorting each block's cells on the way when [presort]. *)
    let scan ~presort src dst =
      let off = ref 0 in
      while !off < n do
        let len = min 32 (n - !off) in
        Ext_array.read_flat src !off ~count:len input;
        if presort then
          for k = 0 to len - 1 do
            Stage.sort_cells order input ~first:(k * b) offs output
          done;
        Ext_array.write_flat dst !off ~count:len (if presort then output else input);
        off := !off + len
      done
    in
    (* Pre-sort each block internally (and copy into the padded work
       array when needed); padding blocks are already all-empty = +∞. *)
    run_phase (fun () -> scan ~presort:real a work);
    let stage = ref 2 in
    while !stage <= n2 do
      let top = Emodel.ilog2_floor !stage - 1 in
      let hi = ref top in
      while !hi >= 0 do
        let lo = max 0 (!hi - lpp + 1) in
        let stage_now = !stage and hi_now = !hi in
        run_phase (fun () -> chunk ~stage:stage_now ~hi:hi_now ~lo);
        hi := lo - 1
      done;
      stage := !stage * 2
    done;
    (* Copy-back, the same scan without the sort. *)
    if work != a then run_phase (fun () -> scan ~presort:false work a);
    (* Done: clear the slot so the next sort over this array starts
       fresh instead of "resuming" past its own phases. *)
    if ck then Storage.checkpoint_clear storage ~owner
  end

(* [bitonic_exec]'s counted I/Os: the pre-sort scan (2n), two n2-block
   scans per chunk pass — stage 2^t has t levels, cut into chunks of
   lpp — and, when padded, the copy-back (2n). *)
let bitonic_cost ~levels_per_pass ~blocks:n ~m ~b:_ =
  if n = 0 then Some { ios = 0; scratch_blocks = 0 }
  else begin
    let n2 = next_power_of_two n in
    let lpp = chunk_levels ~levels_per_pass m in
    if min n2 (1 lsl lpp) > m then None
    else begin
      let passes = ref 0 in
      for t = 1 to Emodel.ilog2_floor n2 do
        passes := !passes + Emodel.ceil_div t lpp
      done;
      let scratch_blocks = network_scratch n in
      let copies = if scratch_blocks = 0 then 2 * n else 4 * n in
      Some { ios = copies + (2 * n2 * !passes); scratch_blocks }
    end
  end

let network name ~levels_per_pass =
  { name; exec = bitonic_exec ~levels_per_pass; cost = bitonic_cost ~levels_per_pass }

let bitonic = network "bitonic" ~levels_per_pass:(fun _ -> 1)
let bitonic_windowed = network "bitonic-windowed" ~levels_per_pass:Emodel.ilog2_floor

let columnsort =
  {
    name = "columnsort";
    exec = Columnsort.exec;
    cost =
      (fun ~blocks ~m ~b ->
        Option.map
          (fun (ios, scratch_blocks) -> { ios; scratch_blocks })
          (Columnsort.cost ~blocks ~b ~m));
  }

(* The dispatch: the fewest counted I/Os among the fixed-circuit engines
   that take no more scratch than the windowed network would at the
   shape, so auto never grows the store beyond it. Ties go to the
   earlier engine. A function of (blocks, m, B) alone; [None] when no
   engine admits the shape. *)
let choose ~blocks ~m ~b =
  let bound = network_scratch blocks in
  List.fold_left
    (fun best e ->
      match e.cost ~blocks ~m ~b with
      | Some c when c.scratch_blocks <= bound -> (
          match best with Some (_, c') when c'.ios <= c.ios -> best | _ -> Some (e, c))
      | _ -> best)
    None
    [ cache_sort; bitonic_windowed; columnsort ]

let auto =
  {
    name = "auto";
    exec =
      (fun ~real ~order ~m a ->
        let e =
          match choose ~blocks:(Ext_array.blocks a) ~m ~b:(Ext_array.block_size a) with
          | Some (e, _) -> e
          | None -> bitonic_windowed
        in
        e.exec ~real ~order ~m a);
    cost = (fun ~blocks ~m ~b -> Option.map snd (choose ~blocks ~m ~b));
  }

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
    | None -> bitonic_windowed.exec ~real ~order ~m a

let no_cost ~blocks:_ ~m:_ ~b:_ = None

let bucket ?(seed = 0xB0C4E7) () =
  {
    name = "bucket";
    cost = no_cost;
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
    cost = no_cost;
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
