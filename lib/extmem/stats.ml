type snapshot = {
  reads : int;
  writes : int;
  retries : int;
  faults : int;
  bytes_moved : int;
  batched_ios : int;
}

type t = {
  payload_size : int;
  mutable r : int;
  mutable w : int;
  mutable retry : int;
  mutable fault : int;
  mutable batched : int;
}

let create ~payload_size () =
  { payload_size; r = 0; w = 0; retry = 0; fault = 0; batched = 0 }

let record_read t = t.r <- t.r + 1
let record_write t = t.w <- t.w + 1
let record_retry t = t.retry <- t.retry + 1
let record_fault t = t.fault <- t.fault + 1
let record_batched t n = t.batched <- t.batched + n

let reads t = t.r
let writes t = t.w
let total t = t.r + t.w

let retries t = t.retry
(* Retries are repeated attempts, not extra logical I/Os: they stay out
   of [total] so I/O-bound assertions hold on every backend, but Bob
   still sees them (the trace records each one). *)

let bytes_moved t = t.payload_size * total t
let batched_ios t = t.batched

let snapshot (t : t) : snapshot =
  {
    reads = t.r;
    writes = t.w;
    retries = t.retry;
    faults = t.fault;
    bytes_moved = bytes_moved t;
    batched_ios = t.batched;
  }
