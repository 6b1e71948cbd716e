(** Pair-testing harness for obliviousness.

    The model's definition of data-obliviousness (paper §1) is
    operational: fix the coins, vary the data, and Bob — who sees only
    the sequence of block addresses and read/write directions — must see
    exactly the same thing. This harness runs a subject twice on {e
    value-disjoint} inputs of identical shape with the same seed and the
    same public parameters (N, B, m), and compares the two address-trace
    digests. On a mismatch, the labelled spans recorded by
    {!Odex_extmem.Trace.with_span} pinpoint the first phase whose ops
    diverge. *)

open Odex_extmem

type subject = {
  name : string;
  run : rng:Odex_crypto.Rng.t -> m:int -> Storage.t -> Ext_array.t -> unit;
      (** Runs the algorithm under test on an input array living in the
          given storage. All randomness must come from [rng]; [m] is
          Alice's cache budget in blocks. *)
}

type run_info = {
  trace_length : int;
  digest : int64;
  reads : int;
  writes : int;
  retries : int;
      (** Failed-and-repeated attempts (nonzero only on a faulty
          backend); they appear in the trace, so obliviousness covers
          them too. *)
  span_count : int;
  bytes_moved : int;  (** See {!Odex_extmem.Stats.bytes_moved}. *)
  batched_ios : int;  (** See {!Odex_extmem.Stats.batched_ios}. *)
  shard_ios : int array;
      (** Per-shard op counts on a [Sharded] backend ([[||]] otherwise):
          the per-device view of the adversary, compared across the pair
          alongside the logical trace. *)
  shards : int option;
      (** The backend's shard layout ({!Odex_extmem.Storage.shard_count}):
          [Some k] for a stripe of [k] members — including the
          degenerate [Some 1] — and [None] with no stripe at all. The
          two are compared across the pair explicitly, so a layout
          mismatch is flagged instead of vacuously passing on empty
          [shard_ios]. *)
  shard_digests : (int * int64) array;
      (** Per-server [(length, digest)] of each shard's own trace
          ({!Odex_extmem.Storage.shard_traces}) — the view each
          non-colluding server gets; [[||]] on unsharded backends. *)
}

type outcome = {
  subject : string;
  n_cells : int;
  b : int;
  m : int;
  backend : string;  (** Backend kind both runs executed on. *)
  oblivious : bool;
      (** The verdict: [servers_ok] and — except for a [multi_server]
          subject on a real (k >= 2) stripe — [combined_ok] too. *)
  combined_ok : bool;  (** The two logical traces are identical. *)
  servers_ok : bool;
      (** The per-server tier: shard layouts agree, every shard's own
          trace is identical across the pair, and so are the per-shard
          op counts. Trivially true on unsharded backends (both layouts
          [None], no per-server traces to compare). *)
  diverging_span : string option;
      (** On combined failure: label of the first span whose entry state
          agrees but whose exit digest differs (or a structural
          description). *)
  diverging_shard : (int * string) option;
      (** On per-server failure: the first diverging shard and the span
          label of the divergence inside that shard's trace ([-1] with a
          description when the shard layouts themselves differ). *)
  run_a : run_info;
  run_b : run_info;
}

val pair_inputs : seed:int -> n:int -> Cell.t array * Cell.t array
(** Two inputs of [n] cells with the same occupancy pattern but disjoint
    key and value ranges, drawn from independent streams. *)

val check :
  ?seed:int ->
  ?backend:Storage.backend_spec ->
  ?backend_b:Storage.backend_spec ->
  ?telemetry:Odex_telemetry.Telemetry.t ->
  ?cipher:Odex_crypto.Cipher.key ->
  ?pair:[ `Disjoint | `Isomorphic ] ->
  ?multi_server:bool ->
  subject ->
  n_cells:int ->
  b:int ->
  m:int ->
  outcome
(** Run the subject on both inputs of a pair (both on [backend],
    default [Mem]; a [File] spec's path is shared safely — the runs are
    sequential and each storage is closed when its run ends) and compare
    traces. With a [Faulty] backend the fault schedule restarts at the
    same point for both runs, so retries must line up exactly. On a
    [Sharded] backend, [oblivious] additionally requires the whole
    per-server tier ([servers_ok]): each shard's own trace and the
    per-shard op counts must agree — every non-colluding server is an
    adversary of its own, and a leak visible on one device only (e.g. a
    data bit routed into the shard selection) never shows in the
    combined logical trace.

    [backend_b], when given, runs leg B on a different spec than leg A —
    a harness hook for {e negative controls}: pairing two stripes that
    differ only in PRP seed models an implementation that keys shard
    selection on the data, which the combined tier provably cannot see
    (the logical trace ignores routing) but the per-server tier must
    catch. Defaults to [backend].

    [multi_server] (default [false]) certifies the subject under the
    non-colluding multi-server definition (DESIGN.md §14): on a real
    (k >= 2) stripe, [oblivious] then requires only [servers_ok] — the
    combined trace of such subjects is occupancy-dependent by design —
    while on unsharded or 1-shard backends the combined tier is still
    required (where the subject must fall back to a single-server
    algorithm). Use {!Registry.multi_server} to derive it from an
    entry's certificate.

    [telemetry], when given, instruments run A {e only} — run B runs on
    the bare, unwrapped backend. [oblivious = true] therefore doubles as
    the assertion that profiling is invisible to Bob: the instrumented
    trace is bit-identical to the uninstrumented one.

    [cipher] is forwarded to both runs' {!Odex_extmem.Storage.create}:
    sealing under ChaCha20 must not move a single trace op.

    [pair] selects the input pair: [`Disjoint] (default,
    {!pair_inputs}) for fixed-trace subjects, [`Isomorphic]
    ({!pair_inputs_isomorphic}) for subjects certified up to rank
    equivalence — see {!Registry.entry}'s [cert] field. *)

val pp_outcome : Format.formatter -> outcome -> unit
