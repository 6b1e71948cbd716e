(** External-memory model arithmetic: the quantities the paper's bounds
    are stated in, and its two standing assumptions. *)

val ceil_div : int -> int -> int

val ilog2_floor : int -> int
(** [ilog2_floor n] for n >= 1. *)

val ilog2_ceil : int -> int
(** Smallest [k] with [2^k >= n], for n >= 1. *)

val log_base : base:float -> float -> float

val log_star : int -> int
(** Iterated logarithm: the number of times log₂ must be applied to reach
    a value <= 1. Appears in the Theorem 9 bound. *)

val tower_of_twos : int -> int
(** [tower_of_twos i] is t_i of Appendix B: t₁ = 4 and t_{i+1} = 2^{t_i}.
    Saturates at [max_int] once it would overflow. *)

val sort_io_bound : n_blocks:int -> m_blocks:int -> float
(** The optimal external sorting bound (N/B)·log_{M/B}(N/B) (Aggarwal–
    Vitter), the target of Theorem 21. Requires m_blocks >= 2. *)
