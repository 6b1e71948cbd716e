(** Leighton's columnsort as an external-memory oblivious sort.

    See {!Ext_sort.columnsort} for the packaged algorithm; this module
    exposes the geometry planner for tests and capacity queries. *)

open Odex_extmem

val plan : n_cells:int -> b:int -> m:int -> (int * int) option
(** [plan ~n_cells ~b ~m] is [Some (r, s)] — column height and count,
    with r a multiple of b·s, r >= 2(s-1)², columns fitting the cache —
    or [None] if no single-level geometry exists. *)

val exec :
  real:bool -> order:Order.t -> m:int -> Ext_array.t -> unit
(** Sorts [a] under [order]. Used through {!Ext_sort.columnsort}. *)
