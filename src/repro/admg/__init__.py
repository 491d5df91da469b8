"""The paper's distributed 4-block ADM-G algorithm, specialized to UFC.

:mod:`repro.admg.subproblems` implements the five procedures of the
ADMM (prediction) step — the per-front-end lambda-minimization (17),
the closed-form mu-minimization (18), the prox-based nu-minimization
(19), the per-datacenter a-minimization (20) and the dual updates —
plus the closed-form Gaussian back-substitution correction.

:mod:`repro.admg.solver` drives them in matrix form, one slot at a
time; it is the package tree's only ADM-G implementation.  The
message-passing deployment over simulated agents lives in
:mod:`repro.distributed` and reproduces this solver's iterates exactly.
"""

from repro.admg.solver import ADMGState, DistributedUFCSolver, UFCADMGResult
from repro.admg.subproblems import (
    a_minimization,
    correction_step,
    dual_updates,
    lambda_minimization,
    mu_minimization,
    nu_minimization,
)

__all__ = [
    "ADMGState",
    "DistributedUFCSolver",
    "UFCADMGResult",
    "a_minimization",
    "correction_step",
    "dual_updates",
    "lambda_minimization",
    "mu_minimization",
    "nu_minimization",
]
