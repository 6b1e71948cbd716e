(** A family of [k] hash functions with pairwise-distinct outputs.

    The invertible Bloom lookup table (paper §2) requires that for any key
    [x] the values h₁(x), …, h_k(x) are distinct; the paper suggests
    achieving this by partitioning the table. This module implements that
    partitioning: a table of [size] cells is split into [k] contiguous
    sub-ranges and h_i maps into the i-th sub-range, so outputs from
    different functions can never collide. *)

type t

val create : k:int -> size:int -> Prf.key -> t
(** [create ~k ~size key] builds the family. Requires [k >= 1] and
    [size >= k]. Sub-range [i] is
    [\[i*(size/k) .. (i+1)*(size/k))] (the last absorbs the remainder). *)

val k : t -> int
(** Number of hash functions. *)

val hashes : t -> int -> int array
(** [hashes t x] is [| h_0(x); …; h_{k-1}(x) |] — always [k] pairwise
    distinct cells. *)

val subrange : t -> int -> int * int
(** [subrange t i] is the half-open interval [(lo, hi)] that h_i maps
    into. *)
