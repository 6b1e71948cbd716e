module Bigbuf = Odex_crypto.Bigbuf

exception Transient of { addr : int; access : int }
exception Crashed

(* ---------------- the stripe's router ----------------

   K inner stores behind one logical address space. Logical block [a]
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

   The map lives in one [router] value: the stripe routes through it,
   publishes it as its record's [router] field, and {!Storage} records
   its per-server traces through that field, so the two can never
   disagree. *)

type router = { shards : int; perm : int array; perm_inv : int array }

let router ~shards ~seed =
  if shards < 1 then invalid_arg "Backend.router: shards must be >= 1";
  let prp = Odex_crypto.Prp.create ~domain:shards (Odex_crypto.Prf.key_of_int seed) in
  let perm = Array.init shards (Odex_crypto.Prp.apply prp) in
  let perm_inv = Array.make shards 0 in
  Array.iteri (fun j s -> perm_inv.(s) <- j) perm;
  { shards; perm; perm_inv }

let route_shard r a = r.perm.(((a mod r.shards) + (a / r.shards)) mod r.shards)
let route_index r a = a / r.shards

let logical r ~shard ~index =
  let j = (r.perm_inv.(shard) - index) mod r.shards in
  (index * r.shards) + if j < 0 then j + r.shards else j

let shard_route ~shards ~seed a =
  if a < 0 then invalid_arg "Backend.shard_route: negative address";
  let r = router ~shards ~seed in
  (route_shard r a, route_index r a)

(* ---------------- the device record ---------------- *)

type t = {
  kind : string;
  payload_bytes : int;
  ensure : int -> unit;
  size : unit -> int;
  read_run : addr:int -> count:int -> payload:int -> buf:Bigbuf.t -> off:int -> unit;
  write_run : addr:int -> count:int -> payload:int -> buf:Bigbuf.t -> off:int -> unit;
  read_meta : unit -> bytes option;
  write_meta : bytes -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  faults : unit -> int;
  shard_ops : unit -> int array;
  router : router option;
}

(* Every raw Unix call on the I/O path goes through this gate: a handled
   signal (profiler timers, SIGALRM harnesses) interrupts [read]/[write]/
   [fsync] mid-transfer with [EINTR], which is not a device failure and
   must never abort a counted run half-written. *)
let rec retry_eintr f =
  match f () with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

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
let mem ~payload_size () =
  if payload_size < 1 then invalid_arg "Backend.mem: payload_size must be >= 1";
  let arena = ref (Bigbuf.create 0) and len = ref 0 and meta = ref None in
  let check ~who ~addr ~count ~payload ~buf ~off =
    check_run ~who ~payload_bytes:payload_size ~blocks:!len ~addr ~count ~payload ~buf ~off
  in
  {
    kind = "mem";
    payload_bytes = payload_size;
    ensure =
      (fun n ->
        let need = n * payload_size in
        if need > Bigbuf.length !arena then begin
          let cap = max need (max (16 * payload_size) (2 * Bigbuf.length !arena)) in
          let fresh = Bigbuf.create cap in
          Bigbuf.blit !arena 0 fresh 0 (!len * payload_size);
          arena := fresh
        end;
        if n > !len then len := n);
    size = (fun () -> !len);
    read_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        check ~who:"Backend.Mem.read_run" ~addr ~count ~payload ~buf ~off;
        if count > 0 then Bigbuf.blit !arena (addr * payload) buf off (count * payload));
    write_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        check ~who:"Backend.Mem.write_run" ~addr ~count ~payload ~buf ~off;
        if count > 0 then Bigbuf.blit buf off !arena (addr * payload) (count * payload));
    read_meta = (fun () -> Option.map Bytes.copy !meta);
    write_meta =
      (fun m ->
        check_meta ~who:"Backend.Mem.write_meta" m;
        meta := Some (Bytes.copy m));
    sync = ignore;
    close = ignore;
    faults = (fun () -> 0);
    shard_ops = (fun () -> [||]);
    router = None;
  }

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

let write_header_fields fd ~payload_size ~meta =
  let h = Bytes.make file_header_bytes '\000' in
  Bytes.blit_string file_magic 0 h 0 8;
  Bytes.set_int64_le h 8 (Int64.of_int payload_size);
  (match meta with
  | None -> Bytes.set_int64_le h 16 0L
  | Some m ->
      Bytes.set_int64_le h 16 (Int64.of_int (Bytes.length m));
      Bytes.blit m 0 h 24 (Bytes.length m));
  pwrite_all fd ~pos:0 h

let read_header fd ~payload_size =
  let h = Bytes.create file_header_bytes in
  pread_all fd ~pos:0 h;
  if Bytes.sub_string h 0 8 <> file_magic then
    invalid_arg "Backend.File: unrecognized store format (bad magic)";
  let payload = Int64.to_int (Bytes.get_int64_le h 8) in
  if payload <> payload_size then
    invalid_arg
      (Printf.sprintf "Backend.File: store has payload size %d, expected %d" payload
         payload_size);
  let len = Int64.to_int (Bytes.get_int64_le h 16) in
  if len < 0 || len > meta_capacity then
    invalid_arg "Backend.File: corrupt store header (metadata length)";
  if len = 0 then None else Some (Bytes.sub h 24 len)

(* The block count of a freshly opened file: a new file gets its
   header, an existing one must carry a valid header and whole blocks. *)
let open_blocks fd ~payload_size =
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 then begin
    write_header_fields fd ~payload_size ~meta:None;
    0
  end
  else begin
    if size < file_header_bytes then
      invalid_arg "Backend.File: unrecognized store format (no header)";
    ignore (read_header fd ~payload_size);
    let data = size - file_header_bytes in
    (* A trailing fragment means a write was torn mid-block (a crash
       landed between the kernel's partial transfers). Absorbing it into
       the block count would silently expose a corrupt block; surface it
       instead — journal replay is the recovery path. *)
    if data mod payload_size <> 0 then
      invalid_arg
        (Printf.sprintf
           "Backend.File: torn store: %d trailing bytes beyond the last whole block \
            (crash damage? recover via a journaled reopen)"
           (data mod payload_size));
    data / payload_size
  end

let file ~path ~payload_size =
  if payload_size < 1 then invalid_arg "Backend.file: payload_size must be >= 1";
  let fd =
    retry_eintr (fun () -> Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600)
  in
  let blocks =
    match open_blocks fd ~payload_size with
    | n -> ref n
    | exception e ->
        Unix.close fd;
        raise e
  in
  let closed = ref false in
  let check_open () = if !closed then invalid_arg "Backend.File: store is closed" in
  let check ~who ~addr ~count ~payload ~buf ~off =
    check_open ();
    check_run ~who ~payload_bytes:payload_size ~blocks:!blocks ~addr ~count ~payload ~buf ~off
  in
  let pos_of addr = file_header_bytes + (addr * payload_size) in
  {
    kind = "file";
    payload_bytes = payload_size;
    ensure =
      (fun n ->
        if n > !blocks then begin
          retry_eintr (fun () -> Unix.ftruncate fd (file_header_bytes + (n * payload_size)));
          blocks := n
        end);
    size = (fun () -> !blocks);
    read_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        check ~who:"Backend.File.read_run" ~addr ~count ~payload ~buf ~off;
        if count > 0 then
          Bigio.read_all ~who:"Backend.File" fd ~pos:(pos_of addr) buf ~off ~len:(count * payload));
    write_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        check ~who:"Backend.File.write_run" ~addr ~count ~payload ~buf ~off;
        if count > 0 then Bigio.write_all fd ~pos:(pos_of addr) buf ~off ~len:(count * payload));
    read_meta =
      (fun () ->
        check_open ();
        read_header fd ~payload_size);
    write_meta =
      (fun m ->
        check_meta ~who:"Backend.File.write_meta" m;
        check_open ();
        write_header_fields fd ~payload_size ~meta:(Some m));
    sync = (fun () -> if not !closed then retry_eintr (fun () -> Unix.fsync fd));
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Unix.close fd
        end);
    faults = (fun () -> 0);
    shard_ops = (fun () -> [||]);
    router = None;
  }

(* ---------------- deterministic fault injection ---------------- *)

type fault_plan = { seed : int; failure_rate : float; max_burst : int }

type weather = {
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

(* splitmix64-style finalizer: an avalanching hash of (seed, access
   index). The schedule never looks at the address or the payload, so
   it is data-oblivious by construction. Inlined, so the hash stays an
   unboxed local of [roll] and a gated access allocates nothing. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let roll w =
  let h =
    mix64 (Int64.add (Int64.of_int w.plan.seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (w.access + 1))))
  in
  let u =
    Int64.to_float (Int64.shift_right_logical h 11) /. Float.pow 2. 53. (* in [0,1) *)
  in
  if u < w.plan.failure_rate then
    (* The low bits, independent of the rate comparison for any sane
       rate, pick the burst length in [1, max_burst]. *)
    Some (1 + (Int64.to_int (Int64.logand h 0x3FL) mod max 1 w.plan.max_burst))
  else None

let gate w addr =
  let access = w.access in
  w.access <- access + 1;
  if w.burst_left > 0 then begin
    w.burst_left <- w.burst_left - 1;
    if w.burst_left = 0 then w.recovering <- true;
    w.injected <- w.injected + 1;
    raise (Transient { addr; access })
  end
  else if w.recovering then w.recovering <- false
  else
    match roll w with
    | Some burst ->
        w.burst_left <- burst - 1;
        if w.burst_left = 0 then w.recovering <- true;
        w.injected <- w.injected + 1;
        raise (Transient { addr; access })
    | None -> ()

(* Runs iterate block by block, gating each address: the access counter
   — the schedule's only input — advances once per block per attempt, so
   a run of [n] blocks and [n] runs of one replay byte-identical fault
   sequences. A Transient at block [addr + i] leaves blocks
   [addr, addr + i) fully transferred, which is the resume contract
   {!Storage}'s retry loop relies on. The window and the payload size
   are validated against the inner store before the first gate, so a
   refused run neither transfers nor consumes accesses. Metadata is the
   server's out-of-band state, not a gated access: the schedule's access
   counter must not depend on how often the client checkpoints its
   sealing header, so the metadata verbs stay the inner store's. *)
let faulty plan inner =
  if plan.failure_rate < 0. || plan.failure_rate > 1. then
    invalid_arg "Backend.faulty: failure_rate must be in [0, 1]";
  if plan.max_burst < 1 then invalid_arg "Backend.faulty: max_burst must be >= 1";
  let w = { plan; access = 0; burst_left = 0; recovering = false; injected = 0 } in
  let check ~who ~addr ~count ~payload ~buf ~off =
    check_run ~who ~payload_bytes:inner.payload_bytes ~blocks:(inner.size ()) ~addr ~count
      ~payload ~buf ~off
  in
  {
    inner with
    kind = "faulty";
    read_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        check ~who:"Backend.Faulty.read_run" ~addr ~count ~payload ~buf ~off;
        for i = 0 to count - 1 do
          gate w (addr + i);
          inner.read_run ~addr:(addr + i) ~count:1 ~payload ~buf ~off:(off + (i * payload))
        done);
    write_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        check ~who:"Backend.Faulty.write_run" ~addr ~count ~payload ~buf ~off;
        for i = 0 to count - 1 do
          gate w (addr + i);
          inner.write_run ~addr:(addr + i) ~count:1 ~payload ~buf ~off:(off + (i * payload))
        done);
    faults = (fun () -> w.injected);
  }

(* ---------------- sharded striping ---------------- *)

(* Every per-shard transfer runs on the caller's domain, one shard at a
   time: the stripe models K servers, not K cores, and on the hosts
   measured the domain hand-off cost more than the overlap won. *)

type stripe = {
  r : router;
  inners : t array;
  mutable len : int;  (** Logical block count (inner sizes are rounded up). *)
  mutable scratch : Bigbuf.t;  (** Gather/scatter buffer, reused shard after shard. *)
  ops : int array;  (** Per-shard block ops. *)
  mutable closed : bool;
}

(* Member inner-address interval [first_member, last_member] of shard
   [s] within logical [lo, hi): [logical] is strictly increasing in the
   inner address, so the members form one contiguous inner run, empty
   when first > last. Interior groups always contribute; only the two
   boundary groups need the window check. *)
let first_member st s ~lo =
  let g0 = lo / st.r.shards in
  if logical st.r ~shard:s ~index:g0 >= lo then g0 else g0 + 1

let last_member st s ~hi =
  let g1 = (hi - 1) / st.r.shards in
  if logical st.r ~shard:s ~index:g1 < hi then g1 else g1 - 1

let stripe_scratch st need =
  if Bigbuf.length st.scratch < need then
    st.scratch <- Bigbuf.create (max need (2 * Bigbuf.length st.scratch));
  st.scratch

(* Copy members [gs, upto] of shard [s] from the scratch buffer to their
   places in the caller's run at logical [lo]. *)
let scatter st s ~gs ~upto ~lo ~payload ~buf ~off scr =
  for g = gs to upto do
    Bigbuf.blit scr ((g - gs) * payload) buf
      (off + ((logical st.r ~shard:s ~index:g - lo) * payload))
      payload
  done

(* Shard [s]'s part of the run at logical [lo]: its members [gs, ge]
   gathered into the scratch buffer and written as one inner run, or
   read as one inner run and scattered. A fault is re-raised at its
   logical address: inner blocks [gs, gf) moved, and their logical
   addresses are exactly the members below the faulted one. *)
let shard_run ~write st s ~gs ~ge ~lo ~payload ~buf ~off =
  let n = ge - gs + 1 in
  let scr = stripe_scratch st (n * payload) in
  let inner = st.inners.(s) in
  if write then begin
    for g = gs to ge do
      Bigbuf.blit buf
        (off + ((logical st.r ~shard:s ~index:g - lo) * payload))
        scr ((g - gs) * payload) payload
    done;
    match inner.write_run ~addr:gs ~count:n ~payload ~buf:scr ~off:0 with
    | () -> ()
    | exception Transient { addr = gf; access } ->
        raise (Transient { addr = logical st.r ~shard:s ~index:gf; access })
  end
  else
    match inner.read_run ~addr:gs ~count:n ~payload ~buf:scr ~off:0 with
    | () -> scatter st s ~gs ~upto:ge ~lo ~payload ~buf ~off scr
    | exception Transient { addr = gf; access } ->
        scatter st s ~gs ~upto:(gf - 1) ~lo ~payload ~buf ~off scr;
        raise (Transient { addr = logical st.r ~shard:s ~index:gf; access })

let check_stripe_open st = if st.closed then invalid_arg "Backend.Sharded: store is closed"

(* Run every shard holding members of logical [addr, addr + count), one
   at a time, and aggregate failures. Every shard runs to completion (or
   its own fault) even when another shard faults first: the resume
   contract promises all logical blocks below the faulted address
   transferred, and those blocks live on the other shards. A
   non-transient exception wins over any transient (it is a bug, not
   weather); otherwise the smallest faulted logical address is
   re-raised. The loop builds no closure and no option: a run allocates
   nothing unless it faults. *)
let stripe_run ~write st ~addr ~count ~payload ~buf ~off =
  let who = if write then "Backend.Sharded.write_run" else "Backend.Sharded.read_run" in
  check_stripe_open st;
  check_run ~who ~payload_bytes:st.inners.(0).payload_bytes ~blocks:st.len ~addr ~count ~payload
    ~buf ~off;
  if count > 0 then begin
    let hard = ref None and fault = ref None in
    for s = 0 to st.r.shards - 1 do
      let gs = first_member st s ~lo:addr and ge = last_member st s ~hi:(addr + count) in
      if gs <= ge then begin
        st.ops.(s) <- st.ops.(s) + (ge - gs + 1);
        match shard_run ~write st s ~gs ~ge ~lo:addr ~payload ~buf ~off with
        | () -> ()
        | exception Transient x -> (
            match !fault with
            | Some (y, _) when y <= x.addr -> ()
            | _ -> fault := Some (x.addr, Transient x))
        | exception e -> if !hard = None then hard := Some e
      end
    done;
    Option.iter raise !hard;
    Option.iter (fun (_, e) -> raise e) !fault
  end

(* The logical length is stripe state: inner sizes are rounded up to
   whole groups, so it cannot be recovered from them. It rides as an
   8-byte prefix in front of the client's metadata blob on shard 0 and
   is re-read on reopen — persisted exactly as often as the client
   checkpoints its own header, so a crash resumes at the last
   checkpointed length. *)
let meta_reserved = 8

let sharded ~seed inners =
  (* The router refuses an empty stripe before any inner is looked at. *)
  let r = router ~shards:(Array.length inners) ~seed in
  let p0 = inners.(0).payload_bytes in
  Array.iter
    (fun inner ->
      if inner.payload_bytes <> p0 then
        invalid_arg "Backend.sharded: inner stores disagree on payload size")
    inners;
  let len =
    match inners.(0).read_meta () with
    | Some blob when Bytes.length blob >= meta_reserved ->
        max 0 (Int64.to_int (Bytes.get_int64_le blob 0))
    | Some _ | None -> 0
  in
  let st =
    { r; inners; len; scratch = Bigbuf.create 0; ops = Array.make r.shards 0; closed = false }
  in
  {
    kind = "sharded";
    payload_bytes = p0;
    ensure =
      (fun n ->
        check_stripe_open st;
        if n > st.len then begin
          let groups = (n + r.shards - 1) / r.shards in
          Array.iter (fun inner -> inner.ensure groups) inners;
          st.len <- n
        end);
    size = (fun () -> st.len);
    read_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        stripe_run ~write:false st ~addr ~count ~payload ~buf ~off);
    write_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        stripe_run ~write:true st ~addr ~count ~payload ~buf ~off);
    read_meta =
      (fun () ->
        check_stripe_open st;
        match inners.(0).read_meta () with
        | Some blob when Bytes.length blob >= meta_reserved ->
            Some (Bytes.sub blob meta_reserved (Bytes.length blob - meta_reserved))
        | Some _ | None -> None);
    write_meta =
      (fun m ->
        check_stripe_open st;
        if Bytes.length m > meta_capacity - meta_reserved then
          invalid_arg
            (Printf.sprintf "Backend.Sharded.write_meta: metadata exceeds %d bytes"
               (meta_capacity - meta_reserved));
        let blob = Bytes.create (meta_reserved + Bytes.length m) in
        Bytes.set_int64_le blob 0 (Int64.of_int st.len);
        Bytes.blit m 0 blob meta_reserved (Bytes.length m);
        inners.(0).write_meta blob);
    sync =
      (fun () ->
        check_stripe_open st;
        Array.iter (fun inner -> inner.sync ()) inners);
    close =
      (fun () ->
        if not st.closed then begin
          st.closed <- true;
          Array.iter (fun inner -> inner.close ()) inners
        end);
    faults = (fun () -> Array.fold_left (fun acc inner -> acc + inner.faults ()) 0 inners);
    shard_ops = (fun () -> Array.copy st.ops);
    router = Some r;
  }

(* ---------------- telemetry instrumentation ---------------- *)

(* A timing shim around any backend: each device call is bracketed with
   the monotonic clock and recorded in the sink's cell for (op, inner
   kind), so a profile of a faulty-over-file stack attributes latencies
   to "faulty" as one composite device — and the shim, invisible, keeps
   that kind as its own. The three cells are resolved once, at install;
   a call reads the clock twice and updates its cell in place, with no
   closure and no boxed clock value. The shim never looks at payload
   contents — it observes operation kinds, block counts, byte counts and
   durations, all of which the server already sees. A raised
   [Transient] propagates untimed (the eventual successful attempt is
   what lands in the histogram; failed attempts are counted as faults
   and retries in the store's {!Stats}). {!Storage} installs this
   wrapper only when its sink is enabled, so a disabled sink costs
   literally nothing on the I/O path. *)
let instrument tel inner =
  let module Tel = Odex_telemetry.Telemetry in
  let c = Tel.cell tel ~backend:inner.kind in
  let rd_run = c Read_run and wr_run = c Write_run and sy = c Sync in
  let stop c ~blocks ~bytes t0 = Tel.record c ~blocks ~bytes ~ns:(Tel.clock () - t0) in
  {
    inner with
    read_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        let t0 = Tel.clock () in
        inner.read_run ~addr ~count ~payload ~buf ~off;
        stop rd_run ~blocks:count ~bytes:(count * payload) t0);
    write_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        let t0 = Tel.clock () in
        inner.write_run ~addr ~count ~payload ~buf ~off;
        stop wr_run ~blocks:count ~bytes:(count * payload) t0);
    sync =
      (fun () ->
        let t0 = Tel.clock () in
        inner.sync ();
        stop sy ~blocks:0 ~bytes:0 t0);
  }

(* ---------------- deterministic crash injection ---------------- *)

(* A kill-switch decorator for crash-recovery sweeps: the first [ops]
   block operations (and syncs) pass through, then every further one
   raises {!Crashed} without touching the inner store — the moment the
   process "died". Unlike {!faulty}'s transient weather this is terminal:
   {!Storage}'s retry engine does not catch it, so it unwinds to the
   harness, which abandons the store exactly as a SIGKILL would leave it
   and reopens through journal replay. [ensure]/metadata/[close] are not
   gated: the sweep's unit of interruption is the block op, and the
   harness still needs to release descriptors after the "crash". *)
let crash_after ~ops inner =
  if ops < 0 then invalid_arg "Backend.crash_after: negative op budget";
  let budget = ref ops in
  let gate () =
    if !budget <= 0 then raise Crashed;
    decr budget
  in
  {
    inner with
    kind = "crashing";
    read_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        gate ();
        inner.read_run ~addr ~count ~payload ~buf ~off);
    write_run =
      (fun ~addr ~count ~payload ~buf ~off ->
        gate ();
        inner.write_run ~addr ~count ~payload ~buf ~off);
    sync =
      (fun () ->
        gate ();
        inner.sync ());
  }
