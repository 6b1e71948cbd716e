module Bigbuf = Odex_crypto.Bigbuf

exception Transient of { addr : int; access : int }

module type S = sig
  type t

  val kind : string
  val payload_bytes : t -> int
  val ensure : t -> int -> unit
  val size : t -> int

  val read_run : t -> addr:int -> count:int -> payload:int -> buf:Bigbuf.t -> off:int -> unit
  val write_run : t -> addr:int -> count:int -> payload:int -> buf:Bigbuf.t -> off:int -> unit

  val read_meta : t -> bytes option
  (** The out-of-band metadata blob last stored with {!write_meta}, if
      any. [None] on a fresh store. Not an I/O of the model. *)

  val write_meta : t -> bytes -> unit
  (** Durably associate a small metadata blob (at most {!meta_capacity}
      bytes) with the store — {!Storage} keeps its sealing header there.
      Out-of-band: never counted, never traced, never fault-gated. *)

  val sync : t -> unit
  val close : t -> unit

  val faults : t -> int
  (** Transient failures injected so far (0 for real devices). *)

  val shard_ops : t -> int array
  (** Per-shard block-op counts ([[||]] for unsharded devices). *)

  val shard_count : t -> int option
  (** [Some k] when a striping layer fans this store across [k] separate
      devices (decorators forward); [None] for a single-server store.
      [Some 1] and [None] are deliberately distinct: the former is a
      degenerate stripe, the latter no stripe at all. *)
end

exception Crashed

type t = Packed : (module S with type t = 'a) * 'a -> t

(* Every raw Unix call on the I/O path goes through this gate: a handled
   signal (profiler timers, SIGALRM harnesses) interrupts [read]/[write]/
   [fsync] mid-transfer with [EINTR], which is not a device failure and
   must never abort a counted run half-written. *)
let rec retry_eintr f =
  match f () with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let kind (Packed ((module B), _)) = B.kind
let payload_bytes (Packed ((module B), b)) = B.payload_bytes b
let ensure (Packed ((module B), b)) n = B.ensure b n
let size (Packed ((module B), b)) = B.size b

let read_run (Packed ((module B), b)) ~addr ~count ~payload ~buf ~off =
  B.read_run b ~addr ~count ~payload ~buf ~off

let write_run (Packed ((module B), b)) ~addr ~count ~payload ~buf ~off =
  B.write_run b ~addr ~count ~payload ~buf ~off

let read_meta (Packed ((module B), b)) = B.read_meta b
let write_meta (Packed ((module B), b)) m = B.write_meta b m
let sync (Packed ((module B), b)) = B.sync b
let close (Packed ((module B), b)) = B.close b
let shard_io_counts (Packed ((module B), b)) = B.shard_ops b
let shard_count (Packed ((module B), b)) = B.shard_count b

let meta_capacity = 40

let check_meta ~who m =
  if Bytes.length m > meta_capacity then
    invalid_arg (Printf.sprintf "%s: metadata exceeds %d bytes" who meta_capacity)

(* Shared run-argument validation: the whole window must be legal before
   any byte moves, so an out-of-bounds run raises without a partial
   transfer on every backend. *)
let check_run ~who ~payload_bytes ~blocks ~addr ~count ~payload ~buf ~off =
  if count < 0 then invalid_arg (who ^ ": negative run length");
  if payload <> payload_bytes then
    invalid_arg (who ^ ": run payload size differs from the store's");
  if addr < 0 || addr + count > blocks then
    invalid_arg
      (Printf.sprintf "%s: run [%d, %d) out of bounds (%d blocks)" who addr (addr + count)
         blocks);
  if off < 0 || off + (count * payload) > Bigbuf.length buf then
    invalid_arg (who ^ ": buffer region out of bounds")

(* ---------------- in-memory ---------------- *)

(* One flat off-heap arena, block [addr] at byte offset
   [addr * payload]: reads and writes are single blits straight between
   the arena and the caller's buffer — no per-block allocation on either
   direction (the regression test in test_backend pins this down).
   Fresh arena space is zero-filled, so a never-written slot reads as a
   zero payload. *)
module Mem = struct
  type t = {
    payload : int;
    mutable arena : Bigbuf.t;
    mutable len : int;
    mutable meta : bytes option;
  }

  let kind = "mem"
  let payload_bytes t = t.payload

  let read_meta t = Option.map Bytes.copy t.meta

  let write_meta t m =
    check_meta ~who:"Backend.Mem.write_meta" m;
    t.meta <- Some (Bytes.copy m)

  let ensure t n =
    let need = n * t.payload in
    if need > Bigbuf.length t.arena then begin
      let cap = max need (max (16 * t.payload) (2 * Bigbuf.length t.arena)) in
      let fresh = Bigbuf.create cap in
      Bigbuf.blit t.arena 0 fresh 0 (t.len * t.payload);
      t.arena <- fresh
    end;
    if n > t.len then t.len <- n

  let size t = t.len

  let check t ~who ~addr ~count ~payload ~buf ~off =
    check_run ~who ~payload_bytes:t.payload ~blocks:t.len ~addr ~count ~payload ~buf ~off

  let read_run t ~addr ~count ~payload ~buf ~off =
    check t ~who:"Backend.Mem.read_run" ~addr ~count ~payload ~buf ~off;
    if count > 0 then Bigbuf.blit t.arena (addr * payload) buf off (count * payload)

  let write_run t ~addr ~count ~payload ~buf ~off =
    check t ~who:"Backend.Mem.write_run" ~addr ~count ~payload ~buf ~off;
    if count > 0 then Bigbuf.blit buf off t.arena (addr * payload) (count * payload)

  let sync _ = ()
  let close _ = ()
  let faults _ = 0
  let shard_ops _ = [||]
  let shard_count _ = None
end

let mem ~payload_size () =
  if payload_size < 1 then invalid_arg "Backend.mem: payload_size must be >= 1";
  Packed
    ((module Mem), { Mem.payload = payload_size; arena = Bigbuf.create 0; len = 0; meta = None })

(* ---------------- file-backed ---------------- *)

(* On-disk layout: a fixed 64-byte header, then block [addr] at byte
   offset [header_bytes + addr * payload_size].

     0 .. 7   magic "ODEXSTO1"
     8 .. 15  payload_size (int64 LE) — validated on reopen
    16 .. 23  metadata length (int64 LE, 0 when none)
    24 .. 63  metadata blob (Storage's sealing header lives here)

   The header is written when a fresh file is created, so every store in
   this format self-describes; opening a non-empty file without the
   magic fails loudly instead of misreading blocks at shifted offsets.

   Header traffic stays on small [bytes] buffers through the shared file
   offset; block payloads move positionally ({!Bigio}) straight between
   the file and the caller's off-heap buffer — no staging copy, and no
   seek state shared with the header path. *)
let file_header_bytes = 64

let file_magic = "ODEXSTO1"

module File = struct
  type t = {
    fd : Unix.file_descr;
    payload_size : int;
    mutable blocks : int;
    mutable closed : bool;
  }

  let kind = "file"
  let payload_bytes t = t.payload_size

  let pwrite_all fd ~pos buf =
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let len = Bytes.length buf in
    let done_ = ref 0 in
    while !done_ < len do
      done_ := !done_ + retry_eintr (fun () -> Unix.write fd buf !done_ (len - !done_))
    done

  let pread_all fd ~pos buf =
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let len = Bytes.length buf in
    let done_ = ref 0 in
    while !done_ < len do
      let k = retry_eintr (fun () -> Unix.read fd buf !done_ (len - !done_)) in
      if k = 0 then failwith "Backend.File: short header read";
      done_ := !done_ + k
    done

  let write_header_fields t ~meta =
    let h = Bytes.make file_header_bytes '\000' in
    Bytes.blit_string file_magic 0 h 0 8;
    Bytes.set_int64_le h 8 (Int64.of_int t.payload_size);
    (match meta with
    | None -> Bytes.set_int64_le h 16 0L
    | Some m ->
        Bytes.set_int64_le h 16 (Int64.of_int (Bytes.length m));
        Bytes.blit m 0 h 24 (Bytes.length m));
    pwrite_all t.fd ~pos:0 h

  let read_header t =
    let h = Bytes.create file_header_bytes in
    pread_all t.fd ~pos:0 h;
    if Bytes.sub_string h 0 8 <> file_magic then
      invalid_arg "Backend.File: unrecognized store format (bad magic)";
    let payload = Int64.to_int (Bytes.get_int64_le h 8) in
    if payload <> t.payload_size then
      invalid_arg
        (Printf.sprintf "Backend.File: store has payload size %d, expected %d" payload
           t.payload_size);
    let len = Int64.to_int (Bytes.get_int64_le h 16) in
    if len < 0 || len > meta_capacity then
      invalid_arg "Backend.File: corrupt store header (metadata length)";
    if len = 0 then None else Some (Bytes.sub h 24 len)

  let create ~path ~payload_size =
    if payload_size < 1 then invalid_arg "Backend.file: payload_size must be >= 1";
    let fd =
      retry_eintr (fun () ->
          Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600)
    in
    let size = (Unix.fstat fd).Unix.st_size in
    let t = { fd; payload_size; blocks = 0; closed = false } in
    (match
       if size = 0 then write_header_fields t ~meta:None
       else begin
         if size < file_header_bytes then
           invalid_arg "Backend.File: unrecognized store format (no header)";
         ignore (read_header t);
         let data = size - file_header_bytes in
         (* A trailing fragment means a write was torn mid-block (a crash
            landed between the kernel's partial transfers). Absorbing it
            into the block count would silently expose a corrupt block;
            surface it instead — journal replay is the recovery path. *)
         if data mod payload_size <> 0 then
           invalid_arg
             (Printf.sprintf
                "Backend.File: torn store: %d trailing bytes beyond the last whole block \
                 (crash damage? recover via a journaled reopen)"
                (data mod payload_size));
         t.blocks <- data / payload_size
       end
     with
    | () -> ()
    | exception e ->
        Unix.close fd;
        raise e);
    t

  let read_meta t =
    if t.closed then invalid_arg "Backend.File: store is closed";
    read_header t

  let write_meta t m =
    check_meta ~who:"Backend.File.write_meta" m;
    if t.closed then invalid_arg "Backend.File: store is closed";
    write_header_fields t ~meta:(Some m)

  let ensure t n =
    if n > t.blocks then begin
      retry_eintr (fun () -> Unix.ftruncate t.fd (file_header_bytes + (n * t.payload_size)));
      t.blocks <- n
    end

  let size t = t.blocks

  let pos_of t addr = file_header_bytes + (addr * t.payload_size)

  let check t ~who ~addr ~count ~payload ~buf ~off =
    if t.closed then invalid_arg "Backend.File: store is closed";
    check_run ~who ~payload_bytes:t.payload_size ~blocks:t.blocks ~addr ~count ~payload ~buf ~off

  let read_run t ~addr ~count ~payload ~buf ~off =
    check t ~who:"Backend.File.read_run" ~addr ~count ~payload ~buf ~off;
    if count > 0 then
      Bigio.read_all ~who:"Backend.File" t.fd ~pos:(pos_of t addr) buf ~off
        ~len:(count * payload)

  let write_run t ~addr ~count ~payload ~buf ~off =
    check t ~who:"Backend.File.write_run" ~addr ~count ~payload ~buf ~off;
    if count > 0 then
      Bigio.write_all t.fd ~pos:(pos_of t addr) buf ~off ~len:(count * payload)

  let sync t = if not t.closed then retry_eintr (fun () -> Unix.fsync t.fd)

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Unix.close t.fd
    end

  let faults _ = 0
  let shard_ops _ = [||]
  let shard_count _ = None
end

let file ~path ~payload_size = Packed ((module File), File.create ~path ~payload_size)

(* ---------------- deterministic fault injection ---------------- *)

type fault_plan = { seed : int; failure_rate : float; max_burst : int }

module Faulty = struct
  type nonrec t = {
    inner : t;
    plan : fault_plan;
    mutable access : int;  (** Global access counter — the only schedule input. *)
    mutable burst_left : int;
    mutable recovering : bool;
        (** The access right after a burst always succeeds: transient
            bursts end with a recovery, so a logical I/O needs at most
            [max_burst] retries and a [max_burst < max_retries] budget
            can never be spuriously exhausted. *)
    mutable injected : int;
  }

  let kind = "faulty"

  let payload_bytes t = payload_bytes t.inner

  (* splitmix64-style finalizer: an avalanching hash of (seed, access
     index). The schedule never looks at the address or the payload, so
     it is data-oblivious by construction. *)
  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let roll t =
    let h =
      mix64 (Int64.add (Int64.of_int t.plan.seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (t.access + 1))))
    in
    let u =
      Int64.to_float (Int64.shift_right_logical h 11) /. Float.pow 2. 53. (* in [0,1) *)
    in
    if u < t.plan.failure_rate then
      (* The low bits, independent of the rate comparison for any sane
         rate, pick the burst length in [1, max_burst]. *)
      Some (1 + (Int64.to_int (Int64.logand h 0x3FL) mod max 1 t.plan.max_burst))
    else None

  let gate t addr =
    let access = t.access in
    t.access <- access + 1;
    if t.burst_left > 0 then begin
      t.burst_left <- t.burst_left - 1;
      if t.burst_left = 0 then t.recovering <- true;
      t.injected <- t.injected + 1;
      raise (Transient { addr; access })
    end
    else if t.recovering then t.recovering <- false
    else
      match roll t with
      | Some burst ->
          t.burst_left <- burst - 1;
          if t.burst_left = 0 then t.recovering <- true;
          t.injected <- t.injected + 1;
          raise (Transient { addr; access })
      | None -> ()

  let ensure t n = ensure t.inner n
  let size t = size t.inner

  (* Metadata is the server's out-of-band state, not a gated access: the
     fault schedule's access counter must not depend on how often the
     client checkpoints its sealing header. *)
  let read_meta t = read_meta t.inner
  let write_meta t m = write_meta t.inner m

  (* Runs iterate block by block, gating each address: the access
     counter — the schedule's only input — advances once per block per
     attempt, so a run of [n] blocks and [n] runs of one replay
     byte-identical fault sequences. A Transient at block [addr + i]
     leaves blocks [addr, addr + i) fully transferred, which is the
     resume contract {!Storage}'s retry loop relies on. The window and
     the payload size are validated against the inner store before the
     first gate, so a refused run neither transfers nor consumes
     accesses. *)

  let check t ~who ~addr ~count ~payload ~buf ~off =
    check_run ~who ~payload_bytes:(payload_bytes t) ~blocks:(size t) ~addr ~count ~payload ~buf
      ~off

  let read_run t ~addr ~count ~payload ~buf ~off =
    check t ~who:"Backend.Faulty.read_run" ~addr ~count ~payload ~buf ~off;
    for i = 0 to count - 1 do
      gate t (addr + i);
      read_run t.inner ~addr:(addr + i) ~count:1 ~payload ~buf ~off:(off + (i * payload))
    done

  let write_run t ~addr ~count ~payload ~buf ~off =
    check t ~who:"Backend.Faulty.write_run" ~addr ~count ~payload ~buf ~off;
    for i = 0 to count - 1 do
      gate t (addr + i);
      write_run t.inner ~addr:(addr + i) ~count:1 ~payload ~buf ~off:(off + (i * payload))
    done

  let sync t = sync t.inner
  let close t = close t.inner
  let faults t = t.injected
  let shard_ops t = shard_io_counts t.inner
  let shard_count t = shard_count t.inner
end

let faulty plan inner =
  if plan.failure_rate < 0. || plan.failure_rate > 1. then
    invalid_arg "Backend.faulty: failure_rate must be in [0, 1]";
  if plan.max_burst < 1 then invalid_arg "Backend.faulty: max_burst must be >= 1";
  Packed
    ( (module Faulty),
      { Faulty.inner; plan; access = 0; burst_left = 0; recovering = false; injected = 0 } )

let faults_injected (Packed ((module B), b)) = B.faults b

(* ---------------- sharded striping ---------------- *)

(* K inner stores behind one logical address space. Logical block [a]
   belongs to group [g = a / K] with lane [j = a mod K] and lives on
   shard [perm.((j + g) mod K)] at inner address [g], where [perm] is a
   keyed PRP of the K lanes. Three properties carry the design:

   - {e bijection}: within a group the K lanes map to the K distinct
     shards (a rotation of a permutation), so logical <-> (shard, inner)
     is one-to-one and every group stripes across all K devices;
   - {e data independence}: the fan-out is a pure function of the block
     index and the (public) seed — never of payloads — so striping can
     not leak anything the flat address sequence did not;
   - {e contiguity}: the logical address shard [s] serves at inner
     address [g] is [g*K + ((perm_inv.(s) - g) mod K)], strictly
     increasing in [g], so a contiguous logical run decomposes into
     exactly one contiguous inner run per shard. The batched fast path
     (one positioned transfer per device) survives under the stripe.

   The map lives in one [router] value: the stripe routes through it and
   {!Storage} records its per-server traces through it, so the two can
   never disagree. *)

type router = { shards : int; perm : int array; perm_inv : int array }

let router ~shards ~seed =
  if shards < 1 then invalid_arg "Backend.router: shards must be >= 1";
  let prp = Odex_crypto.Prp.create ~domain:shards (Odex_crypto.Prf.key_of_int seed) in
  let perm = Array.init shards (Odex_crypto.Prp.apply prp) in
  let perm_inv = Array.make shards 0 in
  Array.iteri (fun j s -> perm_inv.(s) <- j) perm;
  { shards; perm; perm_inv }

let route r a =
  let g = a / r.shards in
  (r.perm.(((a mod r.shards) + g) mod r.shards), g)

let logical r ~shard ~index =
  let j = (r.perm_inv.(shard) - index) mod r.shards in
  (index * r.shards) + if j < 0 then j + r.shards else j

let shard_route ~shards ~seed a =
  if a < 0 then invalid_arg "Backend.shard_route: negative address";
  route (router ~shards ~seed) a

(* Every per-shard transfer runs on the caller's domain, one shard at a
   time: the stripe models K servers, not K cores, and on the hosts
   measured the domain hand-off cost more than the overlap won. *)

module Sharded = struct
  type nonrec t = {
    r : router;
    inners : t array;
    mutable len : int;  (** Logical block count (inner sizes are rounded up). *)
    mutable scratch : Bigbuf.t;  (** Gather/scatter buffer, reused shard after shard. *)
    ops : int array;  (** Per-shard block ops. *)
    mutable closed : bool;
  }

  let kind = "sharded"

  let payload_bytes t = payload_bytes t.inners.(0)

  let logical t s g = logical t.r ~shard:s ~index:g

  (* Member inner-address interval of shard [s] within logical [lo, hi):
     [logical t s g] is strictly increasing in [g], so the members form
     one contiguous inner run (possibly empty). Interior groups always
     contribute; only the two boundary groups need the window check. *)
  let members t s ~lo ~hi =
    let k = t.r.shards in
    let g0 = lo / k and g1 = (hi - 1) / k in
    let gs = if logical t s g0 >= lo then g0 else g0 + 1 in
    let ge = if logical t s g1 < hi then g1 else g1 - 1 in
    if gs > ge then None else Some (gs, ge)

  let scratch t need =
    if Bigbuf.length t.scratch < need then
      t.scratch <- Bigbuf.create (max need (2 * Bigbuf.length t.scratch));
    t.scratch

  (* Run [f s gs ge] for every shard [s] holding members [gs, ge] of
     logical [lo, hi), and aggregate failures. Every shard runs to
     completion (or its own fault) even when another shard faults first:
     the resume contract promises all logical blocks below the faulted
     address transferred, and those blocks live on the other shards. A
     non-transient exception wins over any transient (it is a bug, not
     weather); otherwise the smallest faulted logical address is
     re-raised. *)
  let dispatch t ~lo ~hi f =
    let hard = ref None and fault = ref None in
    for s = 0 to t.r.shards - 1 do
      match members t s ~lo ~hi with
      | None -> ()
      | Some (gs, ge) -> (
          t.ops.(s) <- t.ops.(s) + (ge - gs + 1);
          match f s gs ge with
          | () -> ()
          | exception Transient x -> (
              match !fault with
              | Some (y, _) when y <= x.addr -> ()
              | _ -> fault := Some (x.addr, Transient x))
          | exception e -> if !hard = None then hard := Some e)
    done;
    Option.iter raise !hard;
    Option.iter (fun (_, e) -> raise e) !fault

  let check_open t = if t.closed then invalid_arg "Backend.Sharded: store is closed"

  let run_ops ~write t ~addr ~count ~payload ~buf ~off =
    let who = if write then "Backend.Sharded.write_run" else "Backend.Sharded.read_run" in
    check_open t;
    check_run ~who ~payload_bytes:(payload_bytes t) ~blocks:t.len ~addr ~count ~payload ~buf ~off;
    if count > 0 then begin
      let lo = addr in
      dispatch t ~lo ~hi:(addr + count) (fun s gs ge ->
          let n = ge - gs + 1 in
          let scr = scratch t (n * payload) in
          if write then begin
            for g = gs to ge do
              Bigbuf.blit buf
                (off + ((logical t s g - lo) * payload))
                scr
                ((g - gs) * payload)
                payload
            done;
            match write_run t.inners.(s) ~addr:gs ~count:n ~payload ~buf:scr ~off:0 with
            | () -> ()
            | exception Transient { addr = gf; access } ->
                (* Inner blocks [gs, gf) landed; their logical addresses
                   are exactly the members below the faulted one. *)
                raise (Transient { addr = logical t s gf; access })
          end
          else begin
            let scatter upto =
              for g = gs to upto do
                Bigbuf.blit scr
                  ((g - gs) * payload)
                  buf
                  (off + ((logical t s g - lo) * payload))
                  payload
              done
            in
            match read_run t.inners.(s) ~addr:gs ~count:n ~payload ~buf:scr ~off:0 with
            | () -> scatter ge
            | exception Transient { addr = gf; access } ->
                scatter (gf - 1);
                raise (Transient { addr = logical t s gf; access })
          end)
    end

  let read_run t ~addr ~count ~payload ~buf ~off =
    run_ops ~write:false t ~addr ~count ~payload ~buf ~off

  let write_run t ~addr ~count ~payload ~buf ~off =
    run_ops ~write:true t ~addr ~count ~payload ~buf ~off

  let ensure t n =
    check_open t;
    if n > t.len then begin
      let groups = (n + t.r.shards - 1) / t.r.shards in
      Array.iter (fun inner -> ensure inner groups) t.inners;
      t.len <- n
    end

  let size t = t.len

  (* The logical length is sharded-layer state: inner sizes are rounded
     up to whole groups, so it cannot be recovered from them. It rides
     as an 8-byte prefix in front of the client's metadata blob on shard
     0 and is re-read on reopen — persisted exactly as often as the
     client checkpoints its own header, so a crash resumes at the last
     checkpointed length. *)
  let meta_reserved = 8

  (* The generic accessor, saved before the module's own [read_meta]
     shadows it ([recover_len] runs on inner stores, not on [t]). *)
  let inner_read_meta = read_meta

  let read_meta t =
    check_open t;
    match inner_read_meta t.inners.(0) with
    | Some blob when Bytes.length blob >= meta_reserved ->
        Some (Bytes.sub blob meta_reserved (Bytes.length blob - meta_reserved))
    | Some _ | None -> None

  let write_meta t m =
    check_open t;
    if Bytes.length m > meta_capacity - meta_reserved then
      invalid_arg
        (Printf.sprintf "Backend.Sharded.write_meta: metadata exceeds %d bytes"
           (meta_capacity - meta_reserved));
    let blob = Bytes.create (meta_reserved + Bytes.length m) in
    Bytes.set_int64_le blob 0 (Int64.of_int t.len);
    Bytes.blit m 0 blob meta_reserved (Bytes.length m);
    write_meta t.inners.(0) blob

  let recover_len inners =
    match inner_read_meta inners.(0) with
    | Some blob when Bytes.length blob >= meta_reserved ->
        let len = Int64.to_int (Bytes.get_int64_le blob 0) in
        if len < 0 then 0 else len
    | Some _ | None -> 0

  let sync t =
    check_open t;
    Array.iter sync t.inners

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Array.iter close t.inners
    end

  let faults t = Array.fold_left (fun acc inner -> acc + faults_injected inner) 0 t.inners
  let shard_ops t = Array.copy t.ops
  let shard_count t = Some t.r.shards
end

let sharded ~seed inners =
  let k = Array.length inners in
  if k >= 1 then begin
    let p0 = payload_bytes inners.(0) in
    Array.iter
      (fun inner ->
        if payload_bytes inner <> p0 then
          invalid_arg "Backend.sharded: inner stores disagree on payload size")
      inners
  end;
  Packed
    ( (module Sharded),
      {
        Sharded.r = router ~shards:k ~seed;
        inners;
        len = Sharded.recover_len inners;
        scratch = Bigbuf.create 0;
        ops = Array.make k 0;
        closed = false;
      } )

(* ---------------- telemetry instrumentation ---------------- *)

(* A timing shim around any backend: each device call is bracketed with
   the monotonic clock and recorded in the sink's cell for (op, inner
   kind), so a profile of a faulty-over-file stack attributes latencies
   to "faulty" as one composite device. The three cells are resolved once,
   at install; a call reads the clock twice and updates its cell in
   place, with no closure and no boxed clock value. The shim never looks
   at payload contents — it observes operation kinds, block counts, byte
   counts and durations, all of which the server already sees. A raised
   [Transient] propagates untimed (the eventual successful attempt is
   what lands in the histogram; failed attempts are counted as faults
   and retries in the store's {!Stats}). {!Storage} installs this
   wrapper only when its sink is enabled, so a disabled sink costs
   literally nothing on the I/O path. *)

module Instrumented = struct
  module Tel = Odex_telemetry.Telemetry

  (* One cell per timed op: read_run, write_run, sync. *)
  type nonrec t = { inner : t; rd_run : Tel.cell; wr_run : Tel.cell; sy : Tel.cell }

  let kind = "instrumented"

  let payload_bytes t = payload_bytes t.inner
  let stop c ~blocks ~bytes t0 = Tel.record c ~blocks ~bytes ~ns:(Tel.clock () - t0)
  let ensure t n = ensure t.inner n
  let size t = size t.inner
  let read_meta t = read_meta t.inner
  let write_meta t m = write_meta t.inner m

  let read_run t ~addr ~count ~payload ~buf ~off =
    let t0 = Tel.clock () in
    read_run t.inner ~addr ~count ~payload ~buf ~off;
    stop t.rd_run ~blocks:count ~bytes:(count * payload) t0

  let write_run t ~addr ~count ~payload ~buf ~off =
    let t0 = Tel.clock () in
    write_run t.inner ~addr ~count ~payload ~buf ~off;
    stop t.wr_run ~blocks:count ~bytes:(count * payload) t0

  let sync t =
    let t0 = Tel.clock () in
    sync t.inner;
    stop t.sy ~blocks:0 ~bytes:0 t0

  let close t = close t.inner
  let faults t = faults_injected t.inner
  let shard_ops t = shard_io_counts t.inner
  let shard_count t = shard_count t.inner
end

let instrument tel inner =
  let c = Odex_telemetry.Telemetry.cell tel ~backend:(kind inner) in
  Packed
    ( (module Instrumented),
      { inner; rd_run = c Read_run; wr_run = c Write_run; sy = c Sync } )

(* ---------------- deterministic crash injection ---------------- *)

(* A kill-switch decorator for crash-recovery sweeps: the first [ops]
   block operations (and syncs) pass through, then every further one
   raises {!Crashed} without touching the inner store — the moment the
   process "died". Unlike {!Faulty}'s transient weather this is terminal:
   {!Storage}'s retry engine does not catch it, so it unwinds to the
   harness, which abandons the store exactly as a SIGKILL would leave it
   and reopens through journal replay. [ensure]/metadata/[close] are not
   gated: the sweep's unit of interruption is the block op, and the
   harness still needs to release descriptors after the "crash". *)

module Crashing = struct
  type nonrec t = { inner : t; mutable budget : int; mutable survived : int }

  let kind = "crashing"

  let payload_bytes t = payload_bytes t.inner

  let gate t =
    if t.budget <= 0 then raise Crashed;
    t.budget <- t.budget - 1;
    t.survived <- t.survived + 1

  let ensure t n = ensure t.inner n
  let size t = size t.inner
  let read_meta t = read_meta t.inner
  let write_meta t m = write_meta t.inner m

  let read_run t ~addr ~count ~payload ~buf ~off =
    gate t;
    read_run t.inner ~addr ~count ~payload ~buf ~off

  let write_run t ~addr ~count ~payload ~buf ~off =
    gate t;
    write_run t.inner ~addr ~count ~payload ~buf ~off

  let sync t =
    gate t;
    sync t.inner

  let close t = close t.inner
  let faults t = faults_injected t.inner
  let shard_ops t = shard_io_counts t.inner
  let shard_count t = shard_count t.inner
end

let crash_after ~ops inner =
  if ops < 0 then invalid_arg "Backend.crash_after: negative op budget";
  Packed ((module Crashing), { Crashing.inner; budget = ops; survived = 0 })
