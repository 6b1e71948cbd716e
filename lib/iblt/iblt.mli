(** Invertible Bloom lookup tables (Goodrich–Mitzenmacher [25]).

    The randomized key–value store of paper §2: a table of m cells, each
    holding a [count], a [keySum] and a [valueSum]; k hash functions with
    pairwise-distinct outputs place every pair in k cells. Insertions and
    deletions always succeed (even past capacity); [list_entries]
    succeeds with the probability of Lemma 1 — for m ≥ δkn
    with δ ≥ 2, k ≥ 2 the decode succeeds with probability 1 − 1/n^c.

    This is the RAM-model structure; {!Ext_iblt} stores the same cells in
    external memory with the data-oblivious insertion trace that
    Theorem 4 exploits. *)

type t

val create : ?k:int -> size:int -> Odex_crypto.Prf.key -> t
(** [create ~k ~size key] makes an empty table of [size] cells using [k]
    partitioned hash functions (default 3). *)

val insert : t -> key:int -> value:int -> unit
(** Keys must be distinct across live insertions (paper §2). *)

val delete : t -> key:int -> value:int -> unit
(** Assumes [(key, value)] was inserted. *)

val list_entries : t -> (int * int) list * bool
(** Non-destructive peeling decode (the paper's footnote 3 backup-copy
    variant): returns the recovered pairs and whether the decode was
    complete ([false] = the paper's "list-incomplete" condition). Runs in
    O(m) time using a worklist of count-1 cells. *)
