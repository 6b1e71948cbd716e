(** I/O accounting for the external-memory model: the one ledger.

    Every theorem in the paper is an I/O bound, so the simulator counts
    block reads and writes exactly. Each {!Storage.t} owns one [Stats.t],
    which also counts the store's retries and faults. Nothing else
    counts them: a telemetry sink reads its phase numbers off this
    ledger by snapshot. *)

type t

val create : payload_size:int -> unit -> t
(** A zeroed ledger for a store whose sealed payloads are
    [payload_size] bytes. *)

val record_read : t -> unit
val record_write : t -> unit
val record_retry : t -> unit
val record_fault : t -> unit

val record_batched : t -> int -> unit
(** Add [n] logical I/Os that were served through a multi-block backend
    run. *)

val reads : t -> int
val writes : t -> int
val total : t -> int

val retries : t -> int
(** Failed-and-repeated attempts on counted I/Os (see
    {!Storage.create}'s retry handling). Deliberately excluded from
    {!total}: a retry is a repeat of the same logical I/O, so the
    paper's I/O bounds are asserted against [total] on every backend,
    while the retries remain visible to the adversary in the trace. *)

val bytes_moved : t -> int
(** Sealed-payload bytes transferred by successful counted I/Os:
    [payload_size * total] (failed attempts excluded, like {!retries}).
    The numerator of the bench's [mb_per_s]. *)

val batched_ios : t -> int
(** Counted I/Os that travelled in a backend run of more than one block
    (a {!Storage.read_flat}/{!Storage.write_flat} or
    {!Storage.read_many}/{!Storage.write_many} of [n > 1]); single-block
    {!Storage.read}/{!Storage.write} runs are not tallied. Always
    [<= total]; the ratio approaches 1 on scan-heavy algorithms. *)

type snapshot = {
  reads : int;
  writes : int;
  retries : int;
  faults : int;
      (** Transient faults the store's retry loop caught, on counted and
          uncounted operations alike ([>= retries]); a journal's own
          internal retries are only in {!Storage.faults_injected}. *)
  bytes_moved : int;
  batched_ios : int;
}
(** Every counter at one instant; the difference of two snapshots is
    what happened between them. *)

val snapshot : t -> snapshot
