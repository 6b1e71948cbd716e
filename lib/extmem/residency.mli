(** Alice's private-memory bound, checked mechanically.

    The model gives Alice M private words — m = M/B blocks. Every kernel
    that holds more than a transport run of blocks in private memory
    states how many it is about to hold and calls {!check} first: the
    sorters' stages and chunk groups, columnsort's window, the
    butterfly's ring, the scans' gathered regions and in-memory base
    cases, and the IBLT decode. A stage that reads a whole run checks
    before any I/O, so a refusal reads nothing.
    Tests therefore check the cache-size side of every theorem
    ("assuming M >= 3B", "m >= log² n", …) mechanically rather than by
    inspection. Resident blocks are invisible to Bob: holding them
    performs no counted I/O. *)

exception Overflow of { capacity : int; requested : int }

val check : m:int -> int -> unit
(** [check ~m n] raises {!Overflow} [{ capacity = m; requested = n }]
    when [n > m]. *)
