(** Leighton's columnsort as an external-memory oblivious sort, in place.

    See {!Ext_sort.columnsort} for the packaged algorithm; this module
    exposes the geometry planner and the exact cost for tests, capacity
    queries and {!Ext_sort.auto}'s dispatch.

    The input array is the r × s matrix itself: cells past its last
    block are virtual empties, never stored, read or written. The only
    server space a sort takes is one transposition scratch of r·s/B
    blocks (none when s = 1), whose base the journal checkpoint persists
    so that a resumed sort re-attaches it. *)

open Odex_extmem

val plan : n_cells:int -> b:int -> m:int -> (int * int) option
(** [plan ~n_cells ~b ~m] is [Some (r, s)] — column height and count,
    with r a multiple of b·s, r >= 2(s-1)², columns fitting the cache,
    and the least padding r·s - n_cells, then the fewest columns — or
    [None] if no single-level geometry exists. *)

val cost : blocks:int -> b:int -> m:int -> (int * int) option
(** [cost ~blocks ~b ~m] is [Some (ios, scratch_blocks)]: the counted
    I/Os of sorting a [blocks]-block array (real or dummy, on any
    unsharded store) and the blocks it allocates; [None] where {!plan}
    refuses the shape. *)

val exec :
  real:bool -> order:Order.t -> m:int -> Ext_array.t -> unit
(** Sorts [a] under [order]. Used through {!Ext_sort.columnsort}. *)
