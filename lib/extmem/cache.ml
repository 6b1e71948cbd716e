exception Overflow of { capacity : int; requested : int }

type t = {
  storage : Storage.t;
  stats : Stats.t;  (* The storage's ledger: hit/miss counts. *)
  capacity : int;
  table : (int, Block.t) Hashtbl.t;
  mutable peak : int;
}

let create storage ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { storage; stats = Storage.stats storage; capacity; table = Hashtbl.create 64; peak = 0 }

let resident t = Hashtbl.length t.table
let peak t = t.peak

(* Capacity is checked before inserting, so a refused load leaves the
   resident set untouched. *)
let admit t r =
  if r > t.capacity then raise (Overflow { capacity = t.capacity; requested = r });
  if r > t.peak then t.peak <- r

(* [load] returns a copy, so a caller mutating its buffer can never
   silently corrupt the resident copy. *)

let load t addr =
  match Hashtbl.find_opt t.table addr with
  | Some blk ->
      Stats.record_hits t.stats 1;
      Block.copy blk
  | None ->
      admit t (resident t + 1);
      Stats.record_misses t.stats 1;
      let blk = Storage.read t.storage addr in
      Hashtbl.replace t.table addr blk;
      Block.copy blk

(* The capacity check covers the whole run before any block is read, so
   a refused [load_run] performs no I/O and leaves the resident set
   untouched — same all-or-nothing contract as [load]. Already-resident
   blocks are kept (not re-read); the missing ones are fetched as
   maximal contiguous batched runs, in address order, so the trace is
   exactly the per-block loop's. *)
let load_run t addr ~count =
  if count < 0 then invalid_arg "Cache.load_run: negative count";
  let missing = ref 0 in
  for a = addr to addr + count - 1 do
    if not (Hashtbl.mem t.table a) then incr missing
  done;
  admit t (resident t + !missing);
  Stats.record_hits t.stats (count - !missing);
  Stats.record_misses t.stats !missing;
  let a = ref addr in
  let fin = addr + count in
  while !a < fin do
    if Hashtbl.mem t.table !a then incr a
    else begin
      let g = ref !a in
      while !g < fin && not (Hashtbl.mem t.table !g) do incr g done;
      let blks = Storage.read_many t.storage !a (!g - !a) in
      Array.iteri (fun i blk -> Hashtbl.replace t.table (!a + i) blk) blks;
      a := !g
    end
  done

let borrow t addr =
  match Hashtbl.find_opt t.table addr with
  | Some blk -> blk
  | None -> invalid_arg (Printf.sprintf "Cache: block %d not resident" addr)

let drop t addr = Hashtbl.remove t.table addr

let drop_all t = Hashtbl.reset t.table
