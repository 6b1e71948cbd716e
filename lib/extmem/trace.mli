(** The adversary's view: the sequence of block addresses Alice touches.

    Bob "can view the sequence and location of all of Alice's disk
    accesses ... but he cannot see the content of what is read or written"
    (paper §1). A trace records exactly that view. An algorithm is
    data-oblivious when, for fixed problem, N, M, B (and here, fixed
    coins), the trace is identical whatever the stored values are — the
    property the {!Odex.Oblivious} audit checks.

    Recording modes trade fidelity for memory: [Full] keeps every
    operation (small experiments, pretty-printing the adversary's view);
    [Digest] folds the operations into a rolling 64-bit hash plus a
    length, which suffices for equality testing on multi-million-I/O
    runs; [Off] records nothing.

    Algorithms additionally mark their phases with {!with_span}; spans
    carry the cumulative digest at entry and exit, so when two traces
    disagree, {!first_divergence} names the first offending phase
    instead of just "the run differed somewhere". Labels describe the
    public phase structure — they never depend on data — and are kept
    out of the op digest, so {!equal} still compares exactly the
    address sequence Bob observes. *)

type op =
  | Read of int
  | Write of int
  | Retry_read of int  (** A failed read attempt Alice repeated — Bob sees it too. *)
  | Retry_write of int  (** A failed write attempt Alice repeated. *)

type mode = Off | Digest | Full

type span = {
  label : string;
  depth : int;  (** Nesting depth at which the span was opened. *)
  start_length : int;
  start_hash : int64;
  end_length : int;
  end_hash : int64;
}

type t

val create : ?telemetry:Odex_telemetry.Telemetry.t -> mode -> t
(** [telemetry] (default: the disabled sink) receives one timed
    {!Odex_telemetry.Telemetry.with_phase} per {!with_span}, mirroring
    the span structure. Purely observational: enabling it changes
    nothing the trace records. *)

val mode : t -> mode
val record : t -> op -> unit
(** Fold one op into the trace. Allocation-free outside [Full] mode:
    the running digest is kept unboxed. *)

val record_read : t -> int -> unit
(** [record_read t addr] is [record t (Read addr)], without building the
    op unless the mode is [Full] — the storage layer's per-I/O hook. *)

val record_write : t -> int -> unit
(** [record t (Write addr)], likewise. *)

val length : t -> int
(** Number of operations recorded (maintained in all modes but [Off]). *)

val digest : t -> int64
(** Order-sensitive hash of the operation sequence. *)

val ops : t -> op list
(** The full sequence; [] unless mode is [Full]. *)

val equal : t -> t -> bool
(** Equality of the recorded views: digests and lengths agree (and full
    sequences agree when both are [Full]). Span metadata does not
    participate. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t label f] runs [f], recording a completed span that
    brackets the I/Os it performed. Exception-safe: the span is closed
    (and recorded) even if [f] raises. No-op in [Off] mode. Spans may
    nest; [label] must depend only on public parameters. *)

val span_enter : t -> string -> unit
(** Open a span explicitly. Use when one phase must bracket several
    traces at once (e.g. the per-shard traces mirroring the logical span
    structure); prefer {!with_span} otherwise. No-op in [Off] mode. *)

val span_exit : t -> unit
(** Close the innermost open span (recording it). Raises
    [Invalid_argument] when no span is open. No-op in [Off] mode. *)

val spans : t -> span list
(** Completed spans in completion order. *)

type divergence =
  | Identical
  | In_span of span * span
      (** First span (ours, theirs) whose entry states agree but whose
          exit digests differ: the offending phase. *)
  | Structural of string
      (** The span structures themselves differ — already a leak, since
          phase structure is public. *)
  | Outside_spans
      (** Digests differ but every span pair agrees (the divergence lies
          in unlabelled I/O). *)

val first_divergence : t -> t -> divergence

val diverging_label : t -> t -> string option
(** [None] when traces are equal; otherwise a human-readable label of
    the first point of divergence. *)

val reset : t -> unit

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
