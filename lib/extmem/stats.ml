type snapshot = {
  reads : int;
  writes : int;
  retries : int;
  bytes_moved : int;
  batched_ios : int;
}

type t = {
  mutable r : int;
  mutable w : int;
  mutable retry : int;
  mutable bytes : int;
  mutable batched : int;
  mutable last_span : snapshot option;
}

let create () = { r = 0; w = 0; retry = 0; bytes = 0; batched = 0; last_span = None }
let record_read t = t.r <- t.r + 1
let record_write t = t.w <- t.w + 1
let record_retry t = t.retry <- t.retry + 1
let record_moved t n = t.bytes <- t.bytes + n
let record_batched t n = t.batched <- t.batched + n

let reads t = t.r
let writes t = t.w
let total t = t.r + t.w

let retries t = t.retry
(* Retries are repeated attempts, not extra logical I/Os: they stay out
   of [total] so I/O-bound assertions hold on every backend, but Bob
   still sees them (the trace records each one). *)

let bytes_moved t = t.bytes
let batched_ios t = t.batched

let reset t =
  t.r <- 0;
  t.w <- 0;
  t.retry <- 0;
  t.bytes <- 0;
  t.batched <- 0;
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
