(** Data consolidation — Lemma 3.

    One data-oblivious scan turns an array with at most R distinguished
    elements into an array of ⌈N/B⌉ blocks in which every block is
    completely full of distinguished elements or completely empty, except
    possibly the last (partially full) one — and the relative order of
    distinguished elements is preserved. Alice holds fewer than 2B
    pending items, so M >= 2B suffices. *)

open Odex_extmem

val run :
  ?distinguished:(Cell.item -> bool) -> into:Ext_array.t option -> Ext_array.t -> Ext_array.t
(** [run ~distinguished ~into a] scans [a] once and writes the
    consolidated blocks to [into] (must have [blocks a] blocks; freshly
    allocated when [None]). Items failing [distinguished] (default:
    every item) are discarded, as are empties. Exactly
    [blocks a] reads and [blocks a] writes, independent of the data. *)

