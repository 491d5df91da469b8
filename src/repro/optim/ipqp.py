"""Dense primal-dual interior-point solver for convex QPs.

Solves problems of the form

    min   0.5 * x^T P x + q^T x
    s.t.  A x  = b        (p equality rows, optional)
          G x <= h        (m inequality rows, optional)

with a Mehrotra predictor-corrector method.  This is the *centralized
reference solver* the paper's distributed ADM-G algorithm is verified
against (and, with ``mu``/``nu`` eliminated or boxed, it also solves
the Grid / Fuel-cell baseline strategies directly).

The implementation is dense and sized for the paper's scale
(``M*N + 2N`` ~ tens of variables per time slot), trading sparsity for
robustness and simplicity.  Its Mehrotra loop (:func:`_mehrotra`) runs
from any strictly interior start: :func:`solve_qp` starts it cold, and
the warm-IPM rung of :func:`~repro.optim.warm.solve_qp_warm` starts it
from the previous slot's shifted iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IPQPTrace", "IPQPResult", "solve_qp"]


@dataclass
class IPQPTrace:
    """Per-iteration interior-point diagnostics (``trace=True``).

    ``gap`` and ``residual`` are recorded at the top of each iteration
    (including the final, converged one), so their length equals the
    reported iteration count; the step-size series are recorded after
    the direction computation, so on a converged solve they are one
    entry shorter.  With ``trace_every=k > 1`` only every k-th
    iteration is kept (same phase for all four series), bounding trace
    memory on long horizons.  On equilibrated solves the values are in the
    scaled problem's units — shapes and trends are what matter.

    Attributes:
        gap: average complementarity ``s^T z / m`` per iteration.
        residual: max KKT residual (dual, equality, inequality) per
            iteration.
        alpha_affine: predictor step length ``min(alpha_p, alpha_d)``.
        alpha: corrector (actual) step length.
    """

    gap: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    alpha_affine: list[float] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gap)


def _ruiz_equilibrate(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    iterations: int = 15,
) -> tuple[np.ndarray, ...]:
    """Ruiz equilibration of the QP data.

    Iteratively scales variables (columns) and constraint rows toward
    unit infinity-norm, then normalizes the objective.  Returns the
    scaled data plus the diagonal scalings needed to map the scaled
    solution back: ``x = d * x_hat``, ``y = gamma * r_a * y_hat``,
    ``z = gamma * r_g * z_hat``.
    """
    n = len(q)
    p_rows, m_rows = A.shape[0], G.shape[0]
    d = np.ones(n)
    r_a = np.ones(p_rows)
    r_g = np.ones(m_rows)
    P = P.copy()
    A = A.copy()
    G = G.copy()
    # Scratch buffers: the scaling loop is pure max/multiply arithmetic,
    # so working in place (row scale, then column scale — the same
    # association as the expression it replaces) is bit-identical while
    # avoiding a dense stack copy per sweep.
    abs_buf_p = np.empty_like(P)
    abs_buf_a = np.empty_like(A)
    abs_buf_g = np.empty_like(G)
    for _ in range(iterations):
        col_norm = np.abs(P, out=abs_buf_p).max(axis=0)
        if p_rows:
            np.maximum(col_norm, np.abs(A, out=abs_buf_a).max(axis=0), out=col_norm)
        if m_rows:
            np.maximum(col_norm, np.abs(G, out=abs_buf_g).max(axis=0), out=col_norm)
        col_scale = 1.0 / np.sqrt(np.maximum(col_norm, 1e-12))
        # An exactly-zero column (or row, below) must keep scale 1:
        # the clamp would otherwise inflate it by 1e6 per sweep,
        # compounding into astronomically scaled data that makes the
        # solver's relative convergence test vacuously true.  Sparse
        # reach patterns produce genuinely zero capacity rows (a
        # datacenter no front-end reaches), so this is reachable.
        col_scale[col_norm == 0.0] = 1.0
        P *= col_scale[:, None]
        P *= col_scale[None, :]
        A *= col_scale[None, :]
        G *= col_scale[None, :]
        d *= col_scale
        if p_rows:
            row_norm = np.abs(A, out=abs_buf_a).max(axis=1)
            row_scale = 1.0 / np.sqrt(np.maximum(row_norm, 1e-12))
            row_scale[row_norm == 0.0] = 1.0
            A *= row_scale[:, None]
            r_a *= row_scale
        if m_rows:
            row_norm = np.abs(G, out=abs_buf_g).max(axis=1)
            row_scale = 1.0 / np.sqrt(np.maximum(row_norm, 1e-12))
            row_scale[row_norm == 0.0] = 1.0
            G *= row_scale[:, None]
            r_g *= row_scale
    q_scaled = d * q
    gamma = max(1e-12, np.abs(q_scaled).max(initial=0.0), np.abs(P).max(initial=0.0))
    return (
        P / gamma,
        q_scaled / gamma,
        A,
        r_a * b,
        G,
        r_g * h,
        d,
        r_a,
        r_g,
        gamma,
    )


@dataclass(frozen=True)
class IPQPResult:
    """Result of an interior-point QP solve.

    Attributes:
        x: primal minimizer.
        eq_dual: multipliers for ``Ax = b`` (empty when no equalities).
        ineq_dual: multipliers for ``Gx <= h`` (empty when none).
        value: objective value at ``x``.
        iterations: interior-point iterations performed.
        converged: True when all residuals and the duality gap met the
            tolerance; False means the iterate at the cap is returned.
        gap: final average complementarity ``s^T z / m`` (0 if m == 0).
        trace: per-iteration :class:`IPQPTrace` when the solve was
            called with ``trace=True``; None otherwise (the hot loop
            stays allocation-free by default).
    """

    x: np.ndarray
    eq_dual: np.ndarray
    ineq_dual: np.ndarray
    value: float
    iterations: int
    converged: bool
    gap: float
    trace: IPQPTrace | None = None


def _step_length(
    v: np.ndarray,
    dv: np.ndarray,
    fraction: float = 0.99,
    work: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> float:
    """Largest alpha in (0, 1] keeping ``v + alpha dv > 0``.

    ``work`` (float) and ``mask`` (bool) are optional scratch buffers of
    ``v``'s shape; the hot loop passes them so the call allocates
    nothing.  The fused form is bit-identical to the masked-indexing
    one it replaced: ``-(v/dv)`` equals ``(-v)/dv`` exactly in IEEE
    arithmetic, and the min of negations is the negated max.
    """
    if work is None:
        work = np.empty_like(v)
    if mask is None:
        mask = np.empty(v.shape, dtype=bool)
    np.less(dv, 0.0, out=mask)
    work.fill(-np.inf)
    np.divide(v, dv, out=work, where=mask)
    worst = work.max(initial=-np.inf)
    if worst == -np.inf:
        return 1.0
    return float(min(1.0, fraction * -worst))


#: Matches repro.obs.metrics.DEFAULT_ITERATION_BUCKETS; kept literal so
#: the optim layer stays import-free of obs.
_ITERATION_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: Relative Newton-residual threshold above which a KKT solve is
#: considered to have gone bad (see :func:`_solve_kkt`).  Healthy
#: factorizations sit many orders of magnitude below this.
_KKT_RESIDUAL_TOL = 1e-6

#: Escalating diagonal regularizations for retried KKT solves.
_KKT_REG_LEVELS = (1e-10, 1e-8)


def _solve_kkt(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the Newton KKT system with a residual safeguard.

    ``np.linalg.solve`` raises :class:`~numpy.linalg.LinAlgError` only
    when an LU pivot is *exactly* zero; a nearly singular KKT matrix
    (e.g. a degenerate slot whose active constraints are linearly
    dependent at the barrier's limit) returns a finite garbage
    direction without raising.  Both failure modes land here: on
    LinAlgError *or* a relative residual
    ``||KKT sol - rhs||_inf > 1e-6 (1 + ||rhs||_inf)`` the solve is
    retried with an escalating diagonal regularization (1e-10 then
    1e-8).  A healthy solve returns the plain ``np.linalg.solve``
    result bit-for-bit — the residual check observes, never perturbs.

    Raises:
        np.linalg.LinAlgError: when every attempt is exactly singular.
    """
    rhs_scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    best: np.ndarray | None = None
    best_resid = np.inf
    try:
        sol = np.linalg.solve(kkt, rhs)
        resid = float(np.abs(kkt @ sol - rhs).max(initial=0.0))
        if np.isfinite(resid) and resid <= _KKT_RESIDUAL_TOL * rhs_scale:
            return sol
        if np.isfinite(resid):
            best, best_resid = sol, resid
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(kkt.shape[0])
    for reg in _KKT_REG_LEVELS:
        try:
            sol = np.linalg.solve(kkt + reg * eye, rhs)
        except np.linalg.LinAlgError:
            continue
        resid = float(np.abs(kkt @ sol - rhs).max(initial=0.0))
        if np.isfinite(resid) and resid <= _KKT_RESIDUAL_TOL * rhs_scale:
            return sol
        if np.isfinite(resid) and resid < best_resid:
            best, best_resid = sol, resid
    if best is None:
        raise np.linalg.LinAlgError(
            "KKT system is singular even after regularization"
        )
    # No attempt met the threshold: return the least-bad direction and
    # let the interior-point globalization (step-length cut) cope.
    return best


def _record_metrics(metrics, iterations: int, converged: bool) -> None:
    """Record one solve into a duck-typed metrics registry, if any."""
    if metrics is None:
        return
    metrics.counter("repro_ipqp_solves_total").inc()
    metrics.counter("repro_ipqp_iterations_total").inc(iterations)
    if converged:
        metrics.counter("repro_ipqp_converged_total").inc()
    metrics.histogram(
        "repro_ipqp_iterations", buckets=_ITERATION_BUCKETS
    ).observe(iterations)


def _as_qp(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None,
    b: np.ndarray | None,
    G: np.ndarray | None,
    h: np.ndarray | None,
) -> tuple[np.ndarray, ...]:
    """Validated float ``(P, q, A, b, G, h)``; a missing or empty
    constraint block becomes a zero-row one.

    Raises:
        ValueError: on inconsistent shapes.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(q)
    if P.shape != (n, n):
        raise ValueError(f"P shape {P.shape} incompatible with q length {n}")
    if A is None or len(np.atleast_2d(A)) == 0 or (b is not None and len(b) == 0):
        A = np.zeros((0, n))
        b = np.zeros(0)
    else:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
    if G is None or (h is not None and len(h) == 0):
        G = np.zeros((0, n))
        h = np.zeros(0)
    else:
        G = np.atleast_2d(np.asarray(G, dtype=float))
        h = np.atleast_1d(np.asarray(h, dtype=float))
    if A.shape[1] != n or G.shape[1] != n:
        raise ValueError("constraint matrices must have n columns")
    if len(b) != A.shape[0] or len(h) != G.shape[0]:
        raise ValueError("rhs length mismatch")
    return P, q, A, b, G, h


def _mehrotra(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    tol: float,
    max_iter: int,
    trace: IPQPTrace | None = None,
    trace_every: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """The dense Mehrotra predictor-corrector loop, from given iterates.

    Requires ``m >= 1`` inequality rows and slacks/duals ``s, z > 0``.
    Converges when the dual, equality and inequality residuals and the
    average complementarity all fall below ``tol * (1 + max(|q|, |h|,
    |b|))``.  The cold solve starts it at ``x = 0``; the warm-IPM rung
    of :func:`~repro.optim.warm.solve_qp_warm` at the shifted previous
    slot's iterates, so both meet one acceptance test.  ``trace``, when
    given, is appended to in place; it never changes the iterates.

    Returns:
        ``(x, y, s, z, iterations, converged)``.
    """
    n, p, m = len(q), A.shape[0], G.shape[0]
    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0),
                      np.abs(b).max(initial=0.0))
    converged = False
    it = 0
    # Iteration workspaces, allocated once: the condensed KKT buffer,
    # the Newton right-hand side, and the step-length scratch pair.
    # Refilling them each iteration is bit-identical to reallocating.
    kkt = np.zeros((n + p, n + p))
    rhs = np.empty(n + p)
    step_work = np.empty(m)
    step_mask = np.empty(m, dtype=bool)
    for it in range(1, max_iter + 1):
        r_dual = P @ x + q + A.T @ y + G.T @ z
        r_eq = A @ x - b
        r_ineq = G @ x + s - h
        mu = float(s @ z) / m
        traced = trace is not None and (it - 1) % trace_every == 0

        if traced:
            trace.gap.append(mu)
            trace.residual.append(
                max(
                    float(np.abs(r_dual).max()),
                    float(np.abs(r_eq).max(initial=0.0)),
                    float(np.abs(r_ineq).max()),
                )
            )

        if (
            np.abs(r_dual).max() < tol * scale
            and (p == 0 or np.abs(r_eq).max() < tol * scale)
            and np.abs(r_ineq).max() < tol * scale
            and mu < tol * scale
        ):
            converged = True
            break

        w = z / s
        # Assemble the condensed KKT system in the preallocated buffer
        # (bit-identical to the np.block expression, without its
        # per-iteration list/concatenate overhead).
        kkt.fill(0.0)
        kkt[:n, :n] = P + G.T @ (w[:, None] * G)
        kkt[:n, n:] = A.T
        kkt[n:, :n] = A
        kkt[n:, n:].flat[:: p + 1] = -1e-12

        def solve_newton(r_comp: np.ndarray) -> tuple[np.ndarray, ...]:
            # Eliminate ds = -r_ineq - G dx, dz = (r_comp - z*ds)/s.
            rhs[:n] = -r_dual - G.T @ ((r_comp + z * r_ineq) / s)
            np.negative(r_eq, out=rhs[n:])
            sol = _solve_kkt(kkt, rhs)
            dx = sol[:n]
            dy = sol[n:]
            ds = -r_ineq - G @ dx
            dz = (r_comp - z * ds) / s
            return dx, dy, ds, dz

        # Affine (predictor) direction.
        dx_a, dy_a, ds_a, dz_a = solve_newton(-s * z)
        alpha_p = _step_length(s, ds_a, fraction=1.0, work=step_work, mask=step_mask)
        alpha_d = _step_length(z, dz_a, fraction=1.0, work=step_work, mask=step_mask)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector direction.  A single common step length is used for
        # primal and dual: separate steps are marginally faster on easy
        # problems but can cycle between vertices on degenerate QPs
        # (observed on small equality+nonnegativity instances), while
        # the common step is provably monotone in the merit sense.
        r_comp = -s * z + sigma * mu - ds_a * dz_a
        dx, dy, ds, dz = solve_newton(r_comp)
        alpha = min(
            _step_length(s, ds, work=step_work, mask=step_mask),
            _step_length(z, dz, work=step_work, mask=step_mask),
        )

        if traced:
            trace.alpha_affine.append(min(alpha_p, alpha_d))
            trace.alpha.append(alpha)

        x = x + alpha * dx
        s = s + alpha * ds
        y = y + alpha * dy
        z = z + alpha * dz
    return x, y, s, z, it, converged


def _solve_cold(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    tol: float,
    max_iter: int,
    trace: bool,
    trace_every: int,
) -> IPQPResult:
    """:func:`_mehrotra` from the cold start ``x = 0, y = 0,
    s = max(h - G x, 1), z = 1`` on the data as given (``m >= 1``)."""
    n, p, m = len(q), A.shape[0], G.shape[0]
    trace_rec = IPQPTrace() if trace else None
    x, y, s, z, it, converged = _mehrotra(
        P, q, A, b, G, h, np.zeros(n), np.zeros(p), np.maximum(h, 1.0),
        np.ones(m), tol, max_iter, trace_rec, trace_every,
    )
    return IPQPResult(
        x=x,
        eq_dual=y,
        ineq_dual=z,
        value=float(0.5 * x @ P @ x + q @ x),
        iterations=it,
        converged=converged,
        gap=float(s @ z) / m,
        trace=trace_rec,
    )


def solve_qp(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
    equilibrate: bool = True,
    trace: bool = False,
    trace_every: int = 1,
    metrics=None,
) -> IPQPResult:
    """Solve a dense convex QP with a Mehrotra predictor-corrector method.

    ``P`` must be symmetric positive semidefinite.  Equality and
    inequality blocks are each optional; with neither, the unconstrained
    minimizer is returned via a linear solve.  By default the data is
    Ruiz-equilibrated first, which makes the solver robust to badly
    scaled problems (the UFC QP mixes workload variables ~1e4 with
    power variables ~1 and couplings ~1e-4).  With ``trace=True`` the
    result carries a per-iteration :class:`IPQPTrace` (duality gap,
    KKT residual, step lengths); the iterates themselves are identical
    with tracing on or off.  ``trace_every=k`` keeps only every k-th
    iteration of the trace, bounding memory on long traced horizons.
    ``metrics`` accepts a duck-typed
    :class:`~repro.obs.metrics.MetricsRegistry` (anything with
    ``counter``/``histogram``) and records solve counts, iteration
    totals and an iteration histogram — once per outer solve, not per
    equilibration retry.

    Raises:
        ValueError: on inconsistent shapes.
        np.linalg.LinAlgError: if the KKT system is numerically singular
            even after regularization.
    """
    P, q, A, b, G, h = _as_qp(P, q, A, b, G, h)
    n, p, m = len(q), A.shape[0], G.shape[0]
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every}")

    if m == 0:
        if p == 0:
            x = np.linalg.solve(P + 1e-12 * np.eye(n), -q)
            y = np.zeros(0)
        else:
            # Pure equality-constrained QP: one KKT solve.
            kkt = np.block([[P, A.T], [A, np.zeros((p, p))]])
            reg = 1e-12 * np.eye(n + p)
            reg[n:, n:] *= -1.0
            sol = np.linalg.solve(kkt + reg, np.concatenate([-q, b]))
            x, y = sol[:n], sol[n:]
        _record_metrics(metrics, 0, True)
        return IPQPResult(
            x=x,
            eq_dual=y,
            ineq_dual=np.zeros(0),
            value=float(0.5 * x @ P @ x + q @ x),
            iterations=0,
            converged=True,
            gap=0.0,
            trace=IPQPTrace() if trace else None,
        )

    if not equilibrate:
        res = _solve_cold(P, q, A, b, G, h, tol, max_iter, trace, trace_every)
        _record_metrics(metrics, res.iterations, res.converged)
        return res

    P_s, q_s, A_s, b_s, G_s, h_s, d, r_a, r_g, gamma = _ruiz_equilibrate(
        P, q, A, b, G, h
    )
    inner = _solve_cold(
        P_s, q_s, A_s, b_s, G_s, h_s, tol, max_iter, trace, trace_every
    )
    if not inner.converged:
        # Equilibration helps badly scaled instances but can send the
        # Mehrotra iteration into a limit cycle on small well-scaled
        # ones (residual traces show the gap orbiting a period-3 cycle
        # while the KKT residual sits at 1e-12).  Retry on the raw
        # data; converging solves never get here, so their iterates
        # are untouched.
        raw = _solve_cold(P, q, A, b, G, h, tol, max_iter, trace, trace_every)
        if raw.converged:
            _record_metrics(metrics, raw.iterations, raw.converged)
            return raw
    x = d * inner.x
    _record_metrics(metrics, inner.iterations, inner.converged)
    return IPQPResult(
        x=x,
        eq_dual=gamma * r_a * inner.eq_dual,
        ineq_dual=gamma * r_g * inner.ineq_dual,
        value=float(0.5 * x @ P @ x + q @ x),
        iterations=inner.iterations,
        converged=inner.converged,
        gap=inner.gap * gamma,
        trace=inner.trace,
    )
