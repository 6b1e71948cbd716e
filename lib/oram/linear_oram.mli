(** The trivial oblivious RAM: every access scans the whole array.

    Perfectly data-oblivious (the trace is a full scan regardless of the
    virtual address) at Θ(n) I/Os per access — the baseline every real
    ORAM construction is measured against in experiment E10. *)

open Odex_extmem

type t

val init : Storage.t -> values:int array -> t
(** One virtual word per server block. *)

val read : t -> int -> int
val write : t -> int -> int -> unit
