type snapshot = {
  reads : int;
  writes : int;
  retries : int;
  bytes_moved : int;
  batched_ios : int;
}

(* Counters are atomics so accounting would stay exact if ops were ever
   tallied off the coordinator domain. Today no library code does: the
   stripe runs on the caller's domain and the seal pool's chunks touch
   only the run buffer. [last_span] stays plain: spans are a
   coordinator-only measurement protocol. *)
type t = {
  r : int Atomic.t;
  w : int Atomic.t;
  retry : int Atomic.t;
  bytes : int Atomic.t;
  batched : int Atomic.t;
  mutable last_span : snapshot option;
}

let create () =
  {
    r = Atomic.make 0;
    w = Atomic.make 0;
    retry = Atomic.make 0;
    bytes = Atomic.make 0;
    batched = Atomic.make 0;
    last_span = None;
  }

let bump c n = ignore (Atomic.fetch_and_add c n)
let record_read t = bump t.r 1
let record_write t = bump t.w 1
let record_retry t = bump t.retry 1
let record_moved t n = bump t.bytes n
let record_batched t n = bump t.batched n

let reads t = Atomic.get t.r
let writes t = Atomic.get t.w
let total t = Atomic.get t.r + Atomic.get t.w

let retries t = Atomic.get t.retry
(* Retries are repeated attempts, not extra logical I/Os: they stay out
   of [total] so I/O-bound assertions hold on every backend, but Bob
   still sees them (the trace records each one). *)

let bytes_moved t = Atomic.get t.bytes
let batched_ios t = Atomic.get t.batched

let reset t =
  Atomic.set t.r 0;
  Atomic.set t.w 0;
  Atomic.set t.retry 0;
  Atomic.set t.bytes 0;
  Atomic.set t.batched 0;
  t.last_span <- None

let snapshot (t : t) : snapshot =
  {
    reads = reads t;
    writes = writes t;
    retries = retries t;
    bytes_moved = bytes_moved t;
    batched_ios = batched_ios t;
  }

(* Exception-safe: the delta is recorded in [last_span] even when [f]
   raises (e.g. a Cache.Overflow mid-measurement), so an enclosing
   harness can still attribute the I/Os of the aborted phase. The delta
   covers {e every} counter — a span over a faulty backend reports its
   retries, and a batched span its bytes and batched share, not just
   reads and writes. *)
let span t f =
  let before = snapshot t in
  let delta () =
    {
      reads = reads t - before.reads;
      writes = writes t - before.writes;
      retries = retries t - before.retries;
      bytes_moved = bytes_moved t - before.bytes_moved;
      batched_ios = batched_ios t - before.batched_ios;
    }
  in
  let result = Fun.protect ~finally:(fun () -> t.last_span <- Some (delta ())) f in
  (result, delta ())

let last_span t = t.last_span

let pp ppf (t : t) =
  Format.fprintf ppf "reads=%d writes=%d total=%d" (reads t) (writes t) (total t);
  if retries t > 0 then Format.fprintf ppf " retries=%d" (retries t)
