(** The resumable-phase runner: the crash-resume protocol shared by every
    multi-pass algorithm on a journaled store.

    An algorithm of this kind is a fixed sequence of passes — scans,
    butterfly levels, network chunks, columnsort steps — numbered 1, 2,
    ... identically on every run with the same public shape. Each pass
    is idempotent on its committed input, so after a crash the run
    skips the passes its checkpoint slot records as committed and
    re-enters at the first incomplete one.

    The runner owns the one slot [owner] of the store's checkpoint table
    ({!Storage.checkpoint}). The slot's cursor persists the base of the
    run's server scratch, so a resumed run re-attaches the same scratch
    instead of allocating a fresh one. Owners fold the array base and
    shape into the string, so a slot written by another computation is
    never mistaken for this one's. On an unjournaled store no slot is
    read or written and every phase runs. *)

type t

val start : Storage.t -> owner:string -> scratch:int -> t
(** [start s ~owner ~scratch] reads [owner]'s slot and attaches
    [scratch] blocks of server scratch. A live slot (phase > 0) whose
    window [cursor, cursor + scratch) lies inside the store is resumed:
    the scratch is re-attached at the cursor and the slot's phases are
    skipped. Otherwise a fresh scratch is allocated and the run starts
    at phase 1. [scratch = 0] allocates nothing. *)

val scratch : t -> Ext_array.t
(** The attached scratch, [scratch] blocks. *)

val run : t -> (unit -> unit) -> unit
(** [run t f] is the next phase. It calls [f] unless the slot records
    the phase as committed; after [f] it checkpoints the phase with the
    scratch base as the cursor, which is also a commit boundary. *)

val finish : t -> unit
(** Clear the slot: the computation is complete, and the next run over
    the same array starts fresh. A commit boundary, so writes made
    since the last phase commit with it. *)
