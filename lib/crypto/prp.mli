(** Keyed pseudorandom permutation on a bounded integer domain.

    The square-root ORAM needs the client to evaluate a secret
    permutation π of the storage positions in O(1) private work without
    storing π. A 4-round Feistel network over the PRF gives a PRP on a
    power-of-two domain; cycle-walking restricts it to an arbitrary
    domain size. *)

type t

val create : domain:int -> Prf.key -> t
(** Permutation of {0, …, domain−1}. Requires [domain >= 1]. *)

val apply : t -> int -> int
(** [apply t x] = π(x); a bijection on the domain. *)

val inverse : t -> int -> int
(** π⁻¹; [inverse t (apply t x) = x]. *)
