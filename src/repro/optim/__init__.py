"""Convex-optimization substrate built from scratch on numpy.

This package provides every numerical building block the paper's
distributed 4-block ADM-G algorithm needs, plus a centralized
interior-point reference solver:

- :mod:`repro.optim.simplex` — exact Euclidean projection onto the
  (scaled) simplex, and quadratic programs over a simplex solved with
  accelerated projected gradient (FISTA) plus an active-set polish.
- :mod:`repro.optim.rank_one` — exact solver for quadratic programs
  whose Hessian is ``rho * (I + beta^2 * 1 1^T)`` (diagonal plus
  rank-one) under a total-capacity constraint; this is the paper's
  per-datacenter ``a``-minimization (20).
- :mod:`repro.optim.scalar` — one-dimensional convex minimization:
  closed forms for quadratics, exact breakpoint prox for
  piecewise-linear convex functions (stepped carbon taxes), and a
  golden-section fallback; this is the paper's ``nu``-minimization (19).
- :mod:`repro.optim.ipqp` — a dense Mehrotra predictor-corrector
  primal-dual interior-point solver for convex QPs, used as the
  centralized reference the distributed algorithm is checked against.
- :mod:`repro.optim.warm` — cross-slot warm starts for that solver:
  active-set reuse, then the same Mehrotra loop from a shifted start.
- :mod:`repro.optim.batch` — one masked Mehrotra iteration over T
  stacked slot QPs that share one constraint structure.
- :mod:`repro.optim.kkt` — the block-sparse representation of the UFC
  QP (:class:`StructuredSlotQP`) and a Mehrotra solver whose Newton
  systems are solved by block elimination into a small dense Schur
  complement, making hyperscale instances (hundreds of datacenters,
  thousands of front-ends) tractable.

There is one Mehrotra loop per KKT backend: dense LU (``ipqp``, shared
by the cold and warm solves), batched shared structure (``batch``) and
block elimination (``kkt``).  The paper's ADM-G itself lives in
:mod:`repro.admg`.
"""

from repro.optim.batch import BatchIPQPResult, solve_qp_batch
from repro.optim.ipqp import IPQPResult, solve_qp
from repro.optim.kkt import (
    StructuredIPQPResult,
    StructuredQPCompiler,
    StructuredSlotQP,
    StructuredWarmState,
    full_reach,
    solve_structured_qp,
)
from repro.optim.rank_one import solve_capped_rank_one_qp
from repro.optim.scalar import (
    PiecewiseLinearConvex,
    QuadraticScalar,
    minimize_convex_on_interval,
    prox_nonneg,
)
from repro.optim.simplex import minimize_qp_simplex, project_box, project_simplex
from repro.optim.warm import WarmSolve, WarmSolveInfo, WarmState, solve_qp_warm

__all__ = [
    "BatchIPQPResult",
    "IPQPResult",
    "PiecewiseLinearConvex",
    "QuadraticScalar",
    "StructuredIPQPResult",
    "StructuredQPCompiler",
    "StructuredSlotQP",
    "StructuredWarmState",
    "WarmSolve",
    "WarmSolveInfo",
    "WarmState",
    "full_reach",
    "minimize_convex_on_interval",
    "minimize_qp_simplex",
    "project_box",
    "project_simplex",
    "prox_nonneg",
    "solve_capped_rank_one_qp",
    "solve_qp",
    "solve_qp_batch",
    "solve_qp_warm",
    "solve_structured_qp",
]
