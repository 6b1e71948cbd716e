(** Latency telemetry for the storage stack: who spent the wall-clock.

    Each store's {!Odex_extmem.Stats} is the one ledger of counted I/Os,
    retries, faults and payload bytes. A [Telemetry.t]
    sink adds what that ledger cannot know — what each transfer
    {e costs} on the machine. {!Odex_extmem.Storage} registers its
    ledger on the sink and times every backend call into it. It collects

    - a log₂-bucketed latency histogram per (operation kind × backend
      kind), timed with the monotonic clock;
    - one timed record per completed phase ({!with_phase}, opened by
      {!Odex_extmem.Storage.with_span}), its counts taken from the
      registered ledgers.

    {!pp_summary} prints a human-readable profile and {!chrome_json}
    emits Chrome trace-event JSON for [chrome://tracing] or Perfetto.

    {b Obliviousness.} Telemetry observes only what Bob already sees —
    operation kinds, block counts, sealed-payload sizes, wall-clock —
    never plaintext, keys or nonces. Enabling it must not change a
    single trace op (the pair-tester asserts telemetry-on vs -off traces
    are bit-identical).

    {b Cost.} {!disabled} is a no-op sink: every entry point returns
    after one flag test, no clock is read, and Storage does not even
    wrap its backend with the timing decorator. An enabled sink
    allocates nothing per I/O. *)

type t

val disabled : t
(** The shared no-op sink. [enabled disabled = false]; nothing registers
    on it and all exports are empty. *)

val create : unit -> t
(** A fresh collecting sink. *)

val enabled : t -> bool

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds (arbitrary epoch). *)

val clock : unit -> int
(** {!now_ns} as an [int], for timers that must not box. *)

(** Backend operation kinds, as timed by the instrumented backend, plus
    the cipher ops ([Seal]/[Unseal]) Storage reports under the pseudo
    backend "cipher" so profiles attribute keystream time separately
    from device time. Every backend transfer is a run, so nothing
    records [Read] or [Write]; they stay while [bench/suite/suite.ml]
    matches on them (ROADMAP item 3). *)
type op_kind = Read | Write | Read_run | Write_run | Sync | Seal | Unseal

val op_kind_name : op_kind -> string

type cell
(** The live aggregate of one (op kind × backend kind). *)

val cell : t -> backend:string -> op_kind -> cell
(** The sink's cell for [(op, backend)], created on first request.
    Recorders resolve their cells once, at install, and then record
    with no lookup. A disabled sink returns a detached cell nothing
    reads. *)

val record : cell -> blocks:int -> bytes:int -> ns:int -> unit
(** One timed operation: [blocks] block payloads ([bytes] bytes total)
    moved in [ns] nanoseconds. Allocation-free. *)

(** A ledger's totals since it was created. *)
type counts = { ios : int; retries : int; faults : int; bytes : int }

val register : t -> (unit -> counts) -> unit
(** Add a ledger; phases sum every ledger registered on the sink. A ledger counts from zero at registration and never
    decreases. No-op on a disabled sink. *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** Time a labelled phase. Phases nest; a phase's counts are the
    ledgers' growth while it was open minus its children's, i.e. what
    happened while it was innermost. Exception-safe: the phase record
    is emitted even if the thunk raises. On a disabled sink this is
    exactly [f ()]. *)

(** {1 Collected data} *)

type phase = {
  label : string;
  depth : int;
  start_ns : int64;  (** {!now_ns} timestamp at entry. *)
  dur_ns : int64;
  ios : int;  (** Counted I/Os while this phase was innermost. *)
  retries : int;
  faults : int;
  bytes : int;
}

val phases : t -> phase list
(** Completed phases in completion order. *)

type hist
(** A log₂-bucketed latency histogram. *)

val hist_count : hist -> int
val hist_total_ns : hist -> int64

val hist_percentile : hist -> float -> float
(** [hist_percentile h p] estimates the [p]-th percentile latency in
    nanoseconds ([0. <= p <= 100.]), as the geometric midpoint of the
    bucket holding that rank. [0.] on an empty histogram. *)

type op_stat = {
  op : op_kind;
  op_backend : string;
  count : int;
  op_blocks : int;
  op_bytes : int;
  latency : hist;
}

val op_stats : t -> op_stat list
(** One entry per (op kind × backend kind) recorded, sorted by kind. *)

type phase_stat = { phase_label : string; phase_count : int; phase_latency : hist }

val phase_stats : t -> phase_stat list
(** Phase durations aggregated by label, sorted by label. *)

val counters : t -> (string * int) list
(** Named event counters beyond the phase counts, sorted by name.
    Always empty: the cache probes it reported went with the cache.
    Kept for readers that look counters up by name (the benchmark
    suite's [cache.*] columns), which read 0. *)

(** {1 Export} *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable profile: op latency percentiles and phase totals.
    Prints a one-line note on a disabled or empty sink. *)

val write_chrome : path:string -> (string * t) list -> unit
(** Write Chrome trace-event (catapult) JSON for a set of named sinks:
    one thread per sink (named by its label), one complete ("ph":"X")
    event per phase with its counters as [args], plus per-thread instant
    events summarizing op latencies. Load the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.
    Timestamps are rebased so the earliest phase starts at 0. *)
