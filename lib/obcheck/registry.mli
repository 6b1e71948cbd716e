(** The catalogue of pair-testable subjects: every top-level algorithm
    of the paper (consolidation, butterfly and tight compaction, loose
    and log*-round compaction, selection, quantiles, sorting) plus the
    three ORAM constructions, each with a default shape (N, B, m) big
    enough to leave its in-cache base case. *)

type cert = [ `Exact | `Isomorphic | `Multi_server ]
(** How a subject's obliviousness is certified: [`Exact] subjects have a
    fixed trace across value-disjoint inputs ({!Pairtest.pair_inputs});
    [`Isomorphic] subjects (comparison-driven schedules, e.g. the bucket
    sort's merge) are pair-tested on rank-isomorphic inputs
    ({!Pairtest.pair_inputs_isomorphic}) and additionally certified
    statistically by {!Statcheck.trace_distribution}; [`Multi_server]
    subjects are oblivious per non-colluding server only (DESIGN.md
    §14): on a k >= 2 stripe every individual shard trace must be fixed
    while the combined trace may depend on occupancy, and on
    single-server backends they must fall back to a fully oblivious
    algorithm (pass [Pairtest.check ~multi_server:true]). *)

type entry = {
  subject : Pairtest.subject;
  n_cells : int;
  b : int;
  m : int;
  cert : cert;  (** Pair mode every harness must use for this subject. *)
}

val all : entry list

val pair_mode : entry -> [ `Disjoint | `Isomorphic ]
(** The {!Pairtest.check} [pair] argument mandated by the entry's
    [cert]. *)

val multi_server : entry -> bool
(** Whether the entry carries the [`Multi_server] certificate — pass it
    as {!Pairtest.check}'s [multi_server] argument so the verdict
    applies the right tier on sharded backends. *)

val backend_names : string list
(** ["mem"; "file"; "faulty"] — every storage backend the obliviousness
    suite must pass on. *)

val backend_spec :
  ?seed:int ->
  ?failure_rate:float ->
  ?shards:int ->
  ?journal:bool ->
  string ->
  Odex_extmem.Storage.backend_spec
(** A fresh spec for a named backend: "file" gets its own temp path
    (clean up with {!Odex_extmem.Storage.remove_spec_files}); "faulty"
    injects deterministic transient faults over a [Mem] inner store at
    [failure_rate] (default 0.05, seed [0xFA17]).

    [shards] (default 1) > 1 stripes the store across that many inner
    devices ({!Odex_extmem.Storage.backend_spec.Sharded}, PRP seed
    [0x5A4D]). The faulty decorator composes {e outside} the stripe so
    the fault schedule — and therefore the full trace, retries included
    — is bit-identical at every shard count.

    [journal] (default false) wraps the finished spec in the
    write-ahead journal ({!Odex_extmem.Storage.backend_spec.Journaled},
    own temp side file, durable commits) as the outermost decorator;
    [remove_spec_files] cleans the journal up with the store. *)
