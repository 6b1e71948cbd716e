open Odex_extmem

type level = {
  region : Ext_array.t; (* 2^l * z blocks, one word per block *)
  mutable key : Odex_crypto.Prf.key; (* epoch hash key *)
  mutable occupied : bool;
}

type t = {
  storage : Storage.t;
  sorter : Odex_sortnet.Ext_sort.t;
  m : int;
  rng : Odex_crypto.Rng.t;
  n : int;
  z : int; (* bucket size; also the stash period S *)
  l : int; (* number of levels *)
  stash : Ext_array.t; (* z blocks *)
  levels : level array; (* index 0 = level 1 *)
  mutable t_counter : int; (* accesses so far *)
  mutable rebuild_count : int;
  mutable healthy : bool;
  meta_base : int;
      (* Base of the persisted session-metadata region on a journaled
         store; -1 when the store is unjournaled (no session state). *)
  word : Flat.t; (* Alice's one-block staging for every word I/O *)
}

let filler_key = max_int

(* One virtual word per block, its B cells identical copies of one item
   (or all empty): the sorts work at cell granularity, and the copies
   keep every word block-aligned through them. A word I/O stages the
   block in [t.word], one reused buffer, and the word is tested and
   rewritten in place through its first cell. *)
let w0 t = Flat.cell_offset t.word ~block:0 ~slot:0

let get_word t arr i = Ext_array.read_flat arr i ~count:1 t.word
let put_word t arr i = Ext_array.write_flat arr i ~count:1 t.word

let spread t =
  for slot = 1 to Flat.block_size t.word - 1 do
    Flat.copy_cell t.word (w0 t) t.word (Flat.cell_offset t.word ~block:0 ~slot)
  done

let set_word t ~key ~value ~tag ~aux =
  Flat.set_item t.word (w0 t) ~key ~value ~tag ~aux;
  spread t

(* Give the staged item that tag; an empty word stays empty. *)
let retag t tag =
  if Flat.is_item t.word (w0 t) then Flat.set_tag t.word (w0 t) tag;
  spread t

let clear_word t = Flat.clear_blocks t.word 0 1

(* Whether the staged word is the item at [addr]. *)
let holds t addr = Flat.is_item t.word (w0 t) && Flat.key t.word (w0 t) = addr

let buckets_of_level l = 1 lsl (l + 1)
(* levels array is 0-indexed; level index l holds 2^(l+1) buckets. *)

let bucket_of t level_idx addr =
  Odex_crypto.Prf.to_range t.levels.(level_idx).key addr
    ~bound:(buckets_of_level level_idx)

(* ------------------------------------------------------------------ *)
(* Session persistence (journaled stores only).

   The whole session — geometry, counters, per-level epoch keys and
   occupancy, and the rng state — fits in a few dozen words, persisted
   as ordinary (sealed) blocks in a region allocated at init and pointed
   to by the "oram-session" slot of the journal's checkpoint table. The
   writes are uncounted server-side pokes inside one atomic group, made
   durable by the next checkpoint commit, so journaling the session
   changes no counted trace. A crashed process re-enters through
   {!resume}: it re-reads the snapshot, re-attaches every region by
   address, and — when a rebuild was in flight — re-runs the rebuild
   from its own checkpointed phase, re-drawing the same epoch key
   because the snapshot holds the pre-draw rng state.

   Word layout (one word per cell, [value] field, [key] = index):
     0 magic   1 version   2 n   3 z   4 l   5 m
     6 t_counter   7 rebuild_count   8/9 rng state (lo/hi 32)
     10 healthy   11 in-flight rebuild target (-1 = none)   12 stash base
     13 + 4*idx.. per level: region base, occupied, key lo/hi 32. *)

let session_owner = "oram-session"
let rebuild_owner = "oram-rebuild"
let meta_magic = 0x0DE05E55
let meta_version = 1

let meta_words l = 13 + (4 * l)

let split64 v =
  ( Int64.to_int (Int64.logand v 0xFFFFFFFFL),
    Int64.to_int (Int64.shift_right_logical v 32) )

let join64 lo hi = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let persist_meta t ~inflight =
  if t.meta_base >= 0 then begin
    let words = meta_words t.l in
    let vals = Array.make words 0 in
    let rng_lo, rng_hi = split64 (Odex_crypto.Rng.state t.rng) in
    vals.(0) <- meta_magic;
    vals.(1) <- meta_version;
    vals.(2) <- t.n;
    vals.(3) <- t.z;
    vals.(4) <- t.l;
    vals.(5) <- t.m;
    vals.(6) <- t.t_counter;
    vals.(7) <- t.rebuild_count;
    vals.(8) <- rng_lo;
    vals.(9) <- rng_hi;
    vals.(10) <- (if t.healthy then 1 else 0);
    vals.(11) <- inflight;
    vals.(12) <- Ext_array.base t.stash;
    Array.iteri
      (fun idx lv ->
        let o = 13 + (4 * idx) in
        let k_lo, k_hi = split64 (Odex_crypto.Prf.key_to_raw lv.key) in
        vals.(o) <- Ext_array.base lv.region;
        vals.(o + 1) <- (if lv.occupied then 1 else 0);
        vals.(o + 2) <- k_lo;
        vals.(o + 3) <- k_hi)
      t.levels;
    let b = Storage.block_size t.storage in
    (* One atomic group: the snapshot becomes durable only as a whole,
       at the next commit boundary (the adjacent checkpoint). *)
    Storage.atomically t.storage (fun () ->
        for blk = 0 to ((words + b - 1) / b) - 1 do
          let cells =
            Array.init b (fun i ->
                let j = (blk * b) + i in
                if j < words then Cell.item ~key:j ~value:vals.(j) () else Cell.empty)
          in
          Storage.unchecked_poke t.storage (t.meta_base + blk) cells
        done)
  end

(* Update just the healthy word — called inside a rebuild phase so the
   phase's own checkpoint commits it: an overflow detected by a scan is
   never lost to a crash after that scan's phase committed. *)
let persist_healthy t =
  if t.meta_base >= 0 then begin
    let b = Storage.block_size t.storage in
    let blk = Array.copy (Storage.unchecked_peek t.storage (t.meta_base + (10 / b))) in
    blk.(10 mod b) <- Cell.item ~key:10 ~value:(if t.healthy then 1 else 0) ();
    Storage.unchecked_poke t.storage (t.meta_base + (10 / b)) blk
  end

let meta_word storage ~base j =
  let b = Storage.block_size storage in
  let blk = Storage.unchecked_peek storage (base + (j / b)) in
  match blk.(j mod b) with
  | Cell.Item it when it.key = j -> it.value
  | _ -> invalid_arg "Hierarchical_oram.resume: corrupt session metadata"

let init ?(sorter = Odex_sortnet.Ext_sort.auto) ?bucket_size ~m ~rng storage ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Hierarchical_oram.init: empty";
  let z =
    match bucket_size with
    | Some z -> max 2 z
    | None -> max 4 (Emodel.ilog2_ceil (max 2 n) + 2)
  in
  (* Level indices 0..l-1; bottom level must hold all n words:
     capacity of level idx is z * 2^idx words. *)
  let l =
    let rec go idx = if z * (1 lsl idx) >= 2 * n then idx + 1 else go (idx + 1) in
    go 0
  in
  let stash = Ext_array.create storage ~blocks:z in
  let levels =
    Array.init l (fun idx ->
        {
          region = Ext_array.create storage ~blocks:(buckets_of_level idx * z);
          key = Odex_crypto.Prf.fresh_key rng;
          occupied = false;
        })
  in
  let meta_base =
    if Storage.journaled storage then begin
      let b = Storage.block_size storage in
      Storage.alloc storage ((meta_words l + b - 1) / b)
    end
    else -1
  in
  let t =
    {
      storage;
      sorter;
      m;
      rng;
      n;
      z;
      l;
      stash;
      levels;
      t_counter = 0;
      rebuild_count = 0;
      healthy = true;
      meta_base;
      word = Flat.create ~block_size:(Storage.block_size storage) ~blocks:1;
    }
  in
  (* Private initial placement into the bottom level, retrying the epoch
     key until no bucket overflows (setup only). *)
  let bottom = levels.(l - 1) in
  let buckets = buckets_of_level (l - 1) in
  let rec place attempts =
    if attempts > 50 then invalid_arg "Hierarchical_oram.init: could not place (z too small)";
    let counts = Array.make buckets 0 in
    let ok = ref true in
    Array.iteri
      (fun addr _ ->
        let b = Odex_crypto.Prf.to_range bottom.key addr ~bound:buckets in
        counts.(b) <- counts.(b) + 1;
        if counts.(b) > z then ok := false)
      values;
    if not !ok then begin
      bottom.key <- Odex_crypto.Prf.fresh_key rng;
      place (attempts + 1)
    end
  in
  place 0;
  let cursors = Array.make buckets 0 in
  Array.iteri
    (fun addr value ->
      let b = Odex_crypto.Prf.to_range bottom.key addr ~bound:buckets in
      let slot = (b * z) + cursors.(b) in
      cursors.(b) <- cursors.(b) + 1;
      Storage.unchecked_poke storage
        (Ext_array.addr bottom.region slot)
        (Array.make (Storage.block_size storage) (Cell.item ~tag:0 ~key:addr ~value ())))
    values;
  bottom.occupied <- true;
  if meta_base >= 0 then begin
    (* The session becomes durable here: the checkpoint commits the
       placement pokes and the snapshot as one group. *)
    persist_meta t ~inflight:(-1);
    Storage.checkpoint storage ~owner:session_owner ~phase:1 ~cursor:meta_base
  end;
  t

let levels t = t.l
let bucket_size t = t.z
let accesses t = t.t_counter
let rebuilds t = t.rebuild_count
let healthy t = t.healthy

(* ------------------------------------------------------------------ *)
(* Rebuild: merge the stash and levels 0..upto-1 (inclusive of the
   target when it is occupied, which happens at the bottom) into level
   [upto].

   On a journaled store the rebuild is cut into ten deterministic,
   idempotent phases checkpointed under "oram-rebuild" (the scaffold the
   sorters use): entry-snapshot, gather, fillers, dedup sort, dedup
   scan, bucket sort, trim scan, compaction, install, source clear. The
   cursor persists the scratch base so a resumed process re-attaches the
   same scratch; the two inner sorts checkpoint their own phases under
   their own "ext-sort/..." (or columnsort/bucket) owners, which coexist
   with this one in the store's checkpoint table. Idempotency: gather,
   fillers and install rewrite their whole output from sources no phase
   before "clear" mutates; the two scans and the compaction are fixed
   points on their own committed output (the scans' per-block rewrites
   land whole — per-block writes are atomic journal records — and the
   bucket assignment re-derives the same epoch key from the snapshotted
   rng); re-sorting sorted data is a no-op. *)

let clear_array t arr =
  clear_word t;
  for i = 0 to Ext_array.blocks arr - 1 do
    put_word t arr i
  done

let do_rebuild t upto =
  Ext_array.with_span t.stash "hier-oram.rebuild" @@ fun () ->
  let target = t.levels.(upto) in
  let buckets = buckets_of_level upto in
  let sources =
    t.stash
    :: List.filter_map
         (fun idx ->
           let lv = t.levels.(idx) in
           if lv.occupied && (idx < upto || idx = upto) then Some lv.region else None)
         (List.init (upto + 1) (fun i -> i))
  in
  let candidate_blocks = List.fold_left (fun acc a -> acc + Ext_array.blocks a) 0 sources in
  let scratch_blocks = candidate_blocks + (buckets * t.z) in
  let ck = Storage.journaled t.storage in
  let done_phase, done_cursor =
    if ck then Storage.checkpoint_state t.storage ~owner:rebuild_owner else (0, 0)
  in
  let scratch, done_phase =
    if done_phase > 0 && done_cursor + scratch_blocks <= Storage.capacity t.storage then
      (Ext_array.view t.storage ~base:done_cursor ~blocks:scratch_blocks, done_phase)
    else (Ext_array.create t.storage ~blocks:scratch_blocks, 0)
  in
  let phase = ref 0 in
  let run_phase f =
    incr phase;
    if !phase > done_phase then begin
      f ();
      if ck then
        Storage.checkpoint t.storage ~owner:rebuild_owner ~phase:!phase
          ~cursor:(Ext_array.base scratch)
    end
  in
  (* Phase 1 — entry: persist the pre-rebuild snapshot (counters,
     occupancy, and the rng state BEFORE the epoch key draw) with the
     in-flight marker set; the checkpoint commits it together with the
     stash writes of the accesses that triggered this rebuild, so a
     resumed process sees a consistent trigger-point state and re-draws
     the same key below. *)
  run_phase (fun () -> persist_meta t ~inflight:upto);
  let fresh_key = Odex_crypto.Prf.fresh_key t.rng in
  (* Phase 2 — gather all candidate words, stamping each with its
     source's age so the dedup keeps the newest copy: stash words carry
     positive access-counter timestamps, level-idx words get -(idx+1)
     (shallower = newer). *)
  run_phase (fun () ->
      let cursor = ref 0 in
      List.iteri
        (fun src_pos src ->
          for i = 0 to Ext_array.blocks src - 1 do
            get_word t src i;
            (* The stash keeps its timestamp. *)
            if src_pos > 0 then retag t (-src_pos);
            put_word t scratch !cursor;
            incr cursor
          done)
        sources);
  (* Phase 3 — pre-placed fillers: z per bucket, sorting after the reals
     of their bucket (same aux, larger key). *)
  run_phase (fun () ->
      for b = 0 to buckets - 1 do
        set_word t ~key:filler_key ~value:0 ~tag:0 ~aux:b;
        for j = 0 to t.z - 1 do
          put_word t scratch (candidate_blocks + (b * t.z) + j)
        done
      done);
  (* Phase 4 — deduplicate: sort by (address, newest first); timestamps
     ride in [tag]. Fillers (key = max_int) sort to the end and survive.
     The inner sort checkpoints its own phases under its own owner. *)
  run_phase (fun () -> Odex_sortnet.Ext_sort.run t.sorter ~order:Order.Dedup ~m:t.m scratch);
  (* Phase 5 — dedup scan, assigning the epoch bucket while we hold each
     block. *)
  run_phase (fun () ->
      let prev = ref min_int in
      for i = 0 to Ext_array.blocks scratch - 1 do
        get_word t scratch i;
        if Flat.is_item t.word (w0 t) && Flat.key t.word (w0 t) <> filler_key then begin
          let key = Flat.key t.word (w0 t) in
          if key = !prev then clear_word t
          else begin
            prev := key;
            let b = Odex_crypto.Prf.to_range fresh_key key ~bound:buckets in
            set_word t ~key ~value:(Flat.value t.word (w0 t)) ~tag:0 ~aux:b
          end
        end;
        put_word t scratch i
      done);
  (* Phase 6 — group by bucket (reals before fillers via the key
     tiebreak). *)
  run_phase (fun () ->
      Odex_sortnet.Ext_sort.run t.sorter ~order:Order.By_aux ~m:t.m scratch);
  (* Phase 7 — keep the first z entries of every bucket. *)
  run_phase (fun () ->
      let cur_bucket = ref (-1) in
      let in_bucket = ref 0 in
      for i = 0 to Ext_array.blocks scratch - 1 do
        get_word t scratch i;
        if Flat.is_item t.word (w0 t) then begin
          if Flat.aux t.word (w0 t) <> !cur_bucket then begin
            cur_bucket := Flat.aux t.word (w0 t);
            in_bucket := 0
          end;
          incr in_bucket;
          if !in_bucket > t.z then begin
            (* Overflowing a bucket can only drop fillers unless the
               bucket held more than z real words — the failure
               event. *)
            if Flat.key t.word (w0 t) <> filler_key then t.healthy <- false;
            clear_word t
          end
        end;
        put_word t scratch i
      done;
      persist_healthy t);
  (* Phase 8 — compact: each bucket ends up exactly z aligned blocks. *)
  run_phase (fun () ->
      let occupied = Odex.Butterfly.compact ~m:t.m scratch in
      if occupied <> buckets * t.z then begin
        t.healthy <- false;
        persist_healthy t
      end);
  (* Phase 9 — install: fillers become empty slots. *)
  run_phase (fun () ->
      for i = 0 to (buckets * t.z) - 1 do
        get_word t scratch i;
        if Flat.is_item t.word (w0 t) && Flat.key t.word (w0 t) <> filler_key then
          set_word t ~key:(Flat.key t.word (w0 t)) ~value:(Flat.value t.word (w0 t))
            ~tag:(Flat.tag t.word (w0 t)) ~aux:0
        else clear_word t;
        put_word t target.region i
      done);
  target.key <- fresh_key;
  target.occupied <- true;
  (* Phase 10 — clear the merged sources. *)
  run_phase (fun () ->
      clear_array t t.stash;
      for idx = 0 to upto - 1 do
        if t.levels.(idx).occupied then clear_array t t.levels.(idx).region
      done);
  for idx = 0 to upto - 1 do
    t.levels.(idx).occupied <- false
  done;
  (* Finish: the post-rebuild snapshot (in-flight marker cleared, rng
     now past the key draw) and the slot clear land in one commit, so
     the install itself is crash-durable and a later crash resumes from
     this boundary. *)
  if ck then begin
    persist_meta t ~inflight:(-1);
    Storage.checkpoint_clear t.storage ~owner:rebuild_owner
  end

let rebuild t upto =
  t.rebuild_count <- t.rebuild_count + 1;
  do_rebuild t upto

(* ------------------------------------------------------------------ *)

let trailing_zeros v =
  let rec go v acc = if v land 1 = 1 then acc else go (v lsr 1) (acc + 1) in
  if v = 0 then 62 else go v 0

let access t addr ~update =
  if addr < 0 || addr >= t.n then invalid_arg "Hierarchical_oram: address out of range";
  (* 1. Scan the stash (newest wins: later slots are newer). *)
  let found = ref false and current = ref 0 in
  Ext_array.with_span t.stash "hier-oram.stash-scan" (fun () ->
      for j = 0 to t.z - 1 do
        get_word t t.stash j;
        if holds t addr then begin
          found := true;
          current := Flat.value t.word (w0 t)
        end
      done);
  (* 2. Probe one bucket per occupied level: the real one until found,
     uniform dummies after. *)
  Ext_array.with_span t.stash "hier-oram.probe" (fun () ->
      for idx = 0 to t.l - 1 do
        if t.levels.(idx).occupied then begin
          let buckets = buckets_of_level idx in
          let b =
            if !found then Odex_crypto.Rng.int t.rng buckets else bucket_of t idx addr
          in
          for j = 0 to t.z - 1 do
            get_word t t.levels.(idx).region ((b * t.z) + j);
            if (not !found) && holds t addr then begin
              found := true;
              current := Flat.value t.word (w0 t)
            end
          done
        end
      done);
  if not !found then invalid_arg "Hierarchical_oram: word not found (corrupted state)";
  let current = !current in
  let stored = match update with None -> current | Some v -> v in
  (* 3. Append to the stash with the access counter as its version. *)
  let slot = t.t_counter mod t.z in
  set_word t ~key:addr ~value:stored ~tag:(t.t_counter + 1) ~aux:0;
  put_word t t.stash slot;
  t.t_counter <- t.t_counter + 1;
  (* 4. Binary-counter rebuild schedule. *)
  if t.t_counter mod t.z = 0 then begin
    let v = t.t_counter / t.z in
    let upto = min (t.l - 1) (trailing_zeros v) in
    rebuild t upto
  end;
  current

let read t addr = access t addr ~update:None
let write t addr v = ignore (access t addr ~update:(Some v))

(* ------------------------------------------------------------------ *)
(* Full-session resume. The restored session is the state at the last
   committed rebuild boundary (every rebuild — and init — is such a
   boundary); accesses made after that boundary were never durably
   checkpointed and are rolled back with the journal tail. At a
   completed boundary the stash is logically empty, so it is explicitly
   re-cleared: a mid-epoch auto-commit may have committed some
   post-boundary stash appends whose timestamps would outrun the
   restored access counter (phantom entries that could shadow re-issued
   writes), and dropping them is exactly the boundary state. *)

let resume ?(sorter = Odex_sortnet.Ext_sort.auto) storage =
  match Storage.checkpoint_state storage ~owner:session_owner with
  | 0, _ -> None
  | _, meta_base ->
      let word = meta_word storage ~base:meta_base in
      if word 0 <> meta_magic || word 1 <> meta_version then
        invalid_arg "Hierarchical_oram.resume: unrecognized session metadata";
      let n = word 2 and z = word 3 and l = word 4 and m = word 5 in
      let rng = Odex_crypto.Rng.of_state (join64 (word 8) (word 9)) in
      let inflight = word 11 in
      let stash = Ext_array.view storage ~base:(word 12) ~blocks:z in
      let levels =
        Array.init l (fun idx ->
            let o = 13 + (4 * idx) in
            {
              region =
                Ext_array.view storage ~base:(word o) ~blocks:(buckets_of_level idx * z);
              key = Odex_crypto.Prf.key_of_raw (join64 (word (o + 2)) (word (o + 3)));
              occupied = word (o + 1) = 1;
            })
      in
      let t =
        {
          storage;
          sorter;
          m;
          rng;
          n;
          z;
          l;
          stash;
          levels;
          t_counter = word 6;
          rebuild_count = word 7;
          healthy = word 10 = 1;
          meta_base;
          word = Flat.create ~block_size:(Storage.block_size storage) ~blocks:1;
        }
      in
      if inflight >= 0 then
        (* A rebuild was in flight: finish it from its own checkpointed
           phase (its slot, its inner sort's slot and the snapshot all
           survived the crash) instead of restarting the session. *)
        do_rebuild t inflight
      else begin
        (* Drop phantom post-boundary stash entries, then make the
           sanitized state durable. *)
        let b = Storage.block_size storage in
        for j = 0 to z - 1 do
          Storage.unchecked_poke storage (Ext_array.addr stash j) (Block.make b)
        done;
        (* A crash inside the finish's slot clear can leave a stale
           completed "oram-rebuild" slot behind the already-committed
           post-rebuild snapshot; a later rebuild finding it would
           wrongly skip its phases against a fresh scratch. Drop it. *)
        Storage.checkpoint_clear storage ~owner:rebuild_owner;
        Storage.checkpoint storage ~owner:session_owner ~phase:1 ~cursor:meta_base
      end;
      Some t
