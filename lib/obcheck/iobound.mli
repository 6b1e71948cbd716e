(** I/O-bound assertions: check measured {!Odex_extmem.Stats} counts
    against the paper's bounds with constants fitted to this
    implementation.

    Each check returns a {!verdict} rather than raising, so harnesses
    can aggregate and report. Exact bounds ([exact = true]) must match
    to the I/O; asymptotic bounds carry deliberate slack so regressions
    (an extra pass over the data, a quadratic blow-up) trip them while
    run-to-run noise does not. *)

type verdict = {
  name : string;
  formula : string;  (** Human-readable bound formula. *)
  actual : int;  (** Measured I/O count (reads + writes). *)
  bound : float;  (** Evaluated bound. *)
  exact : bool;  (** Equality required, not just <=. *)
  within : bool;  (** The check passed. *)
}

val consolidation : n_blocks:int -> actual:int -> verdict
(** Lemma 3, exact: [2*(N/B)] — one read and one write per block. *)

val butterfly_compaction : n_blocks:int -> m_blocks:int -> actual:int -> verdict
(** Theorem 6: label pass plus one read+write of every block per routing
    phase. *)

val twoserver_compaction : n_blocks:int -> capacity:int -> actual:int -> verdict
(** The two-server tight compaction (DESIGN.md §14), exact:
    [3*(N/B) + 3*cap] — strictly below {!butterfly_compaction}'s
    [2*(N/B)*(1 + phases)] at every feasible shape. Applies to the
    k >= 2 stripe path of {!Odex.Twoserver_compaction.run} only (the
    single-server fallback is covered by the engine it dispatches
    to). *)

val selection : n_blocks:int -> actual:int -> verdict
(** Theorems 12/13: linear I/O with a fitted constant. *)

val quantiles : n_blocks:int -> q:int -> actual:int -> verdict
(** Theorem 17: linear I/O with a fitted, mildly q-dependent constant. *)

val loose_compaction : n_blocks:int -> actual:int -> verdict
(** Theorem 8: linear I/O with a fitted constant. *)

val sort : n_blocks:int -> m_blocks:int -> actual:int -> verdict
(** Theorem 21 against [c*(N/B)*log_{M/B}(N/B)] (Aggarwal–Vitter). *)

val pp_verdict : Format.formatter -> verdict -> unit
