"""Projections and quadratic programs over the scaled simplex.

The paper's per-front-end ``lambda``-minimization (17) is a convex QP

    min  0.5 * x^T H x + q^T x
    s.t. sum(x) = total,  x >= 0,

with a diagonal-plus-rank-one Hessian ``H = rho*I + (2w/A_i) L L^T``.
This module provides an exact Euclidean projection onto the scaled
simplex, an accelerated projected-gradient (FISTA) solver for the QP,
and an active-set polish step that turns the FISTA iterate into a
KKT-exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "project_simplex",
    "project_box",
    "minimize_qp_simplex",
    "SimplexQPResult",
]


def project_simplex(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Exact Euclidean projection of ``v`` onto ``{x >= 0, sum(x) = total}``.

    Uses the classic O(n log n) sort-based algorithm (Held, Wolfe &
    Crowder 1974).  ``v`` must be 1-D and ``total`` non-negative.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {v.shape}")
    total = float(total)
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if total == 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    # cond is True for a prefix; the last True index gives the pivot.
    # (With a denormally small `total` the prefix can be empty in
    # floating point; the single-support pivot is then correct.)
    nz = np.nonzero(cond)[0]
    rho = int(nz[-1]) if len(nz) else 0
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_box(v: np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray) -> np.ndarray:
    """Projection onto the box ``[lo, hi]`` (elementwise clip).

    ``v`` may be any shape — 2-D batches project row-wise for free —
    and ``lo``/``hi`` broadcast against it (scalars, per-column bounds,
    or a full per-entry matrix).
    """
    return np.clip(np.asarray(v, dtype=float), lo, hi)


@dataclass(frozen=True)
class SimplexQPResult:
    """Solution of a simplex-constrained QP.

    Attributes:
        x: the minimizer.
        value: objective value ``0.5 x^T H x + q^T x`` at ``x``.
        iterations: FISTA iterations performed.
        polished: whether the active-set polish produced a KKT-exact
            refinement (False means the FISTA iterate was returned).
        kkt_residual: max KKT violation of the returned point.
    """

    x: np.ndarray
    value: float
    iterations: int
    polished: bool
    kkt_residual: float


def _kkt_residual_simplex(H: np.ndarray, q: np.ndarray, x: np.ndarray, total: float) -> float:
    """Max KKT violation for ``min 0.5 x'Hx + q'x, sum x = total, x >= 0``.

    Stationarity: ``(Hx + q)_i = theta`` on the support and
    ``(Hx + q)_i >= theta`` off it, with ``theta`` the equality
    multiplier estimated from the support.
    """
    g = H @ x + q
    support = x > 1e-12 * max(1.0, total)
    if not support.any():
        support = np.ones_like(x, dtype=bool)
    theta = g[support].mean()
    stat = np.abs(g[support] - theta).max() if support.any() else 0.0
    comp = max(0.0, float((theta - g[~support]).max())) if (~support).any() else 0.0
    feas = abs(x.sum() - total)
    return float(max(stat, comp, feas, -(x.min() if len(x) else 0.0)))


def _polish_active_set(
    H: np.ndarray, q: np.ndarray, total: float, x0: np.ndarray, max_updates: int = 50
) -> np.ndarray | None:
    """Refine ``x0`` by solving the equality-constrained KKT system on its
    estimated support, iterating on the active set.

    Returns a KKT-exact point, or None when the active-set loop fails to
    settle (caller keeps the FISTA iterate).
    """
    n = len(q)
    free = x0 > 1e-9 * max(1.0, total)
    if not free.any():
        free = np.ones(n, dtype=bool)
    for _ in range(max_updates):
        idx = np.nonzero(free)[0]
        k = len(idx)
        # KKT system: [H_FF  -1; 1^T  0] [x_F; theta] = [-q_F; total]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = H[np.ix_(idx, idx)]
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([-q[idx], [total]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x = np.zeros(n)
        x[idx] = sol[:k]
        theta = sol[k]
        if (x[idx] < -1e-11 * max(1.0, total)).any():
            # Drop the most negative coordinate from the free set.
            drop = idx[np.argmin(x[idx])]
            free[drop] = False
            if not free.any():
                return None
            continue
        x = np.maximum(x, 0.0)
        g = H @ x + q
        blocked = ~free
        if blocked.any():
            viol = theta - g[blocked]
            if viol.max() > 1e-10 * max(1.0, np.abs(g).max()):
                add = np.nonzero(blocked)[0][np.argmax(viol)]
                free[add] = True
                continue
        return x
    return None


def minimize_qp_simplex(
    H: np.ndarray,
    q: np.ndarray,
    total: float,
    x0: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 2000,
) -> SimplexQPResult:
    """Minimize ``0.5 x^T H x + q^T x`` over ``{x >= 0, sum x = total}``.

    ``H`` must be symmetric positive semidefinite.  The solver runs
    FISTA with the exact Lipschitz constant (largest eigenvalue of
    ``H``) and then polishes the iterate with an active-set KKT solve.

    Args:
        H: (n, n) symmetric PSD Hessian.
        q: (n,) linear coefficient.
        total: simplex scale; must be non-negative.
        x0: optional warm start (projected onto the simplex).
        tol: target KKT residual (relative to ``max(1, total)``).
        max_iter: FISTA iteration cap.
    """
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(q)
    if H.shape != (n, n):
        raise ValueError(f"H shape {H.shape} incompatible with q length {n}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if total == 0:
        x = np.zeros(n)
        return SimplexQPResult(x=x, value=0.0, iterations=0, polished=True, kkt_residual=0.0)

    scale0 = max(1.0, total)
    if x0 is not None:
        # A KKT-exact active-set solve from the warm start's support is
        # usually one or two pivots; only fall back to FISTA when it
        # fails to settle.
        warm = project_simplex(np.asarray(x0, dtype=float), total)
        direct = _polish_active_set(H, q, total, warm)
        if direct is not None:
            res = _kkt_residual_simplex(H, q, direct, total)
            if res < tol * scale0:
                value = float(0.5 * direct @ H @ direct + q @ direct)
                return SimplexQPResult(
                    x=direct, value=value, iterations=0, polished=True,
                    kkt_residual=res,
                )

    lipschitz = float(np.linalg.eigvalsh(H)[-1])
    if lipschitz <= 0:
        # Linear objective: put all mass on the smallest coefficient.
        x = np.zeros(n)
        x[int(np.argmin(q))] = total
        res = _kkt_residual_simplex(H, q, x, total)
        return SimplexQPResult(
            x=x, value=float(q @ x), iterations=0, polished=True, kkt_residual=res
        )
    step = 1.0 / lipschitz

    x = project_simplex(x0 if x0 is not None else np.full(n, total / n), total)
    z = x.copy()
    t = 1.0
    it = 0
    scale = max(1.0, total)
    for it in range(1, max_iter + 1):
        grad = H @ z + q
        x_new = project_simplex(z - step * grad, total)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        shift = np.abs(x_new - x).max()
        x, t = x_new, t_new
        if shift < 1e-12 * scale and it > 2:
            break
        if it % 10 == 0 and _kkt_residual_simplex(H, q, x, total) < tol * scale:
            break

    polished = _polish_active_set(H, q, total, x)
    if polished is not None:
        cand_res = _kkt_residual_simplex(H, q, polished, total)
        if cand_res <= _kkt_residual_simplex(H, q, x, total):
            value = float(0.5 * polished @ H @ polished + q @ polished)
            return SimplexQPResult(
                x=polished, value=value, iterations=it, polished=True, kkt_residual=cand_res
            )
    value = float(0.5 * x @ H @ x + q @ x)
    return SimplexQPResult(
        x=x,
        value=value,
        iterations=it,
        polished=False,
        kkt_residual=_kkt_residual_simplex(H, q, x, total),
    )
