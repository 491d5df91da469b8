"""Batched interior-point solves over slot instances sharing one structure.

The horizon's T slot QPs are independent and share one compiled
constraint structure — only the parameter vectors differ hour to hour.
Solving them one by one pays the Python/numpy dispatch overhead of
every small linear-algebra call T times per iteration; stacking them
into ``(T, n, n)`` arrays and driving one *masked* Mehrotra iteration
over the whole batch pays it once.

:func:`solve_qp_batch` is that iteration: per-instance step lengths,
per-instance convergence masking (converged instances are frozen and
the active set shrinks as the batch drains), factored Ruiz
equilibration, and a per-instance fallback to the scalar
:func:`~repro.optim.ipqp.solve_qp` for instances that fail to converge.
Its convergence test and step rules are the dense loop's, per
instance, but the batched matmuls, the Schur-complement Newton solve
and the coordinate-form equilibration sweeps round differently from
the scalar matvecs, so batched solutions agree with the scalar path to
solver tolerance rather than bit-for-bit.

The iteration exploits three facts about compiled horizon batches: the
constraint matrices are literally the same arrays for every slot (so
residuals collapse to single dgemms against the shared matrix, with
per-instance Ruiz scalings carried as factored row/column vectors),
most inequality rows are single-nonzero variable bounds (so the
``G^T W G`` term of the condensed KKT splits into a cheap diagonal
scatter plus a tiny dense-row product), and the Hessians are sparse
(so equilibration sweeps touch only the nonzero coordinates).  The
Newton system is then solved by eliminating the equality block: factor
the n-by-n condensed matrix once per predictor/corrector solve and form
the small p-by-p Schur complement, instead of factoring the full (n+p)
KKT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.optim.ipqp import IPQPResult, solve_qp

__all__ = ["BatchIPQPResult", "solve_qp_batch"]


@dataclass(frozen=True)
class BatchIPQPResult:
    """Result of a batched interior-point QP solve over T instances.

    Attributes:
        x: (T, n) primal minimizers, one row per instance.
        eq_dual: (T, p) equality multipliers.
        ineq_dual: (T, m) inequality multipliers.
        value: (T,) objective values at ``x``.
        iterations: (T,) interior-point iterations each instance used
            (a frozen instance stops counting when it converges).
        converged: (T,) per-instance convergence flags.
        gap: (T,) final average complementarity per instance.
        fallback: (T,) True where the batched iteration did not
            converge and the scalar :func:`~repro.optim.ipqp.solve_qp`
            re-solved the instance (those entries carry the scalar
            solver's full semantics, including its equilibration
            retry).
    """

    x: np.ndarray
    eq_dual: np.ndarray
    ineq_dual: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gap: np.ndarray
    fallback: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def instance(self, t: int) -> IPQPResult:
        """Instance ``t``'s solution as a scalar-shaped result."""
        return IPQPResult(
            x=self.x[t],
            eq_dual=self.eq_dual[t],
            ineq_dual=self.ineq_dual[t],
            value=float(self.value[t]),
            iterations=int(self.iterations[t]),
            converged=bool(self.converged[t]),
            gap=float(self.gap[t]),
        )


def _bmv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product: ``(T, r, c) @ (T, c) -> (T, r)``."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


#: Relative residual threshold for batched Newton solves, matching
#: ``repro.optim.ipqp._KKT_RESIDUAL_TOL``.
_BATCH_RESIDUAL_TOL = 1e-6


def _solve_checked(M: np.ndarray, rhs: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Batched ``np.linalg.solve`` with a per-element residual safeguard.

    ``M`` is (T, n, n), ``rhs`` (T, n, r), ``reg`` a broadcastable
    diagonal regularizer (e.g. ``1e-10 * np.eye(n)``).  A nearly
    singular element can return a finite garbage block without
    raising; elements whose relative residual exceeds the threshold
    are re-solved with the regularization, touching only the bad rows
    — healthy elements keep the plain solve's bits.

    Falls back to regularizing the whole batch when the plain solve
    raises (exactly the old LinAlgError-only behavior).
    """
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.solve(M + reg, rhs)
    resid = np.abs(np.matmul(M, sol) - rhs).max(axis=(1, 2), initial=0.0)
    rhs_scale = 1.0 + np.abs(rhs).max(axis=(1, 2), initial=0.0)
    bad = ~(np.isfinite(resid) & (resid <= _BATCH_RESIDUAL_TOL * rhs_scale))
    if bad.any():
        try:
            sol[bad] = np.linalg.solve(M[bad] + reg, rhs[bad])
        except np.linalg.LinAlgError:
            pass  # keep the least-bad unregularized blocks
    return sol


def _step_length_batch(
    v: np.ndarray, dv: np.ndarray, fraction: float = 0.99
) -> np.ndarray:
    """Per-instance largest alpha in (0, 1] keeping ``v + alpha dv > 0``.

    Row-wise equivalent of the scalar ``_step_length``: the max of
    ``v/dv`` over the negative-direction entries is the negated min of
    ``-v/dv``, both exact in IEEE arithmetic.
    """
    ratio = np.full_like(v, -np.inf)
    np.divide(v, dv, out=ratio, where=dv < 0.0)
    worst = ratio.max(axis=1)
    return np.where(
        np.isneginf(worst), 1.0, np.minimum(1.0, fraction * -worst)
    )


class _GroupMax:
    """Segmented row-wise max over fixed coordinate groups.

    Built once from the (shared) sparsity coordinates of a matrix,
    grouped by row or by column; each Ruiz sweep then reduces the
    per-instance scaled values ``(T, nnz)`` to per-group maxima with one
    ``np.maximum.reduceat`` instead of a pass over the dense matrix.
    """

    def __init__(self, keys: np.ndarray, size: int):
        self.order = np.argsort(keys, kind="stable")
        sorted_keys = keys[self.order]
        if sorted_keys.size:
            self.starts = np.flatnonzero(
                np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
            )
            self.present = sorted_keys[self.starts]
        else:
            self.starts = np.zeros(0, dtype=int)
            self.present = np.zeros(0, dtype=int)
        self.size = size

    def max_into(self, vals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fold each group's max of ``vals`` (T, nnz) into ``out``."""
        if self.present.size:
            seg = np.maximum.reduceat(
                vals[:, self.order], self.starts, axis=1
            )
            out[:, self.present] = np.maximum(out[:, self.present], seg)
        return out


def _ruiz_scales_shared(
    P: np.ndarray,
    q: np.ndarray,
    A0: np.ndarray,
    G0: np.ndarray,
    iterations: int = 6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ruiz scale vectors for a batch sharing one constraint structure.

    Runs the scalar equilibration's sweep structure (column phase over
    ``[P; A; G]``, then row phases over ``A`` and ``G``) but never
    materializes scaled matrices: the per-instance scaled magnitudes
    are recomputed from the sparsity coordinates and the accumulated
    scale vectors each sweep, so a sweep costs O(nnz) per instance
    rather than O(n^2).  Six sweeps (vs. the scalar solver's 15) are
    enough here: the scalings converge geometrically and the
    interior-point convergence test is unaffected — iteration counts
    and certification on the UFC horizon are measurably identical.

    Returns ``(d, r_a, r_g, gamma)`` — column scales, equality and
    inequality row scales, and the objective normalization.
    """
    batch, n = q.shape
    p_rows, m_rows = A0.shape[0], G0.shape[0]
    pattern = np.abs(P).max(axis=0) > 0
    rows_p, cols_p = np.nonzero(pattern)
    vals_p = np.abs(P[:, rows_p, cols_p])
    p_by_col = _GroupMax(cols_p, n)
    rows_a, cols_a = np.nonzero(A0)
    base_a = np.abs(A0[rows_a, cols_a])[None, :]
    a_by_col = _GroupMax(cols_a, n)
    a_by_row = _GroupMax(rows_a, p_rows)
    rows_g, cols_g = np.nonzero(G0)
    base_g = np.abs(G0[rows_g, cols_g])[None, :]
    g_by_col = _GroupMax(cols_g, n)
    g_by_row = _GroupMax(rows_g, m_rows)

    d = np.ones((batch, n))
    r_a = np.ones((batch, p_rows))
    r_g = np.ones((batch, m_rows))
    for _ in range(iterations):
        col_norm = np.zeros((batch, n))
        p_by_col.max_into(vals_p * (d[:, rows_p] * d[:, cols_p]), col_norm)
        if p_rows:
            a_by_col.max_into(
                base_a * (r_a[:, rows_a] * d[:, cols_a]), col_norm
            )
        if m_rows:
            g_by_col.max_into(
                base_g * (r_g[:, rows_g] * d[:, cols_g]), col_norm
            )
        d *= 1.0 / np.sqrt(np.maximum(col_norm, 1e-12))
        if p_rows:
            row_norm = np.zeros((batch, p_rows))
            a_by_row.max_into(
                base_a * (r_a[:, rows_a] * d[:, cols_a]), row_norm
            )
            r_a *= 1.0 / np.sqrt(np.maximum(row_norm, 1e-12))
        if m_rows:
            row_norm = np.zeros((batch, m_rows))
            g_by_row.max_into(
                base_g * (r_g[:, rows_g] * d[:, cols_g]), row_norm
            )
            r_g *= 1.0 / np.sqrt(np.maximum(row_norm, 1e-12))
    p_max = np.zeros(batch)
    if rows_p.size:
        p_max = (vals_p * (d[:, rows_p] * d[:, cols_p])).max(axis=1)
    gamma = np.maximum(
        1e-12, np.maximum(np.abs(d * q).max(axis=1, initial=0.0), p_max)
    )
    return d, r_a, r_g, gamma


class _SharedSplit:
    """Row split of a shared inequality matrix for fast KKT assembly.

    ``G^T diag(w) G = sum_i w_i g_i g_i^T``; rows with a single nonzero
    (variable bounds — the vast majority in compiled horizon QPs)
    contribute only to the diagonal, so they reduce to one small
    ``(T, mb) @ (mb, n)`` product against a precomputed scatter of
    squared bound coefficients.  The remaining dense rows go through a
    precomputed ``(md, n*n)`` outer-product matrix (one dgemm) when
    small, or a batched matmul otherwise.
    """

    _OUTER_LIMIT = 4_000_000

    def __init__(self, G0: np.ndarray):
        m, n = G0.shape
        self.n = n
        nnz_per_row = (G0 != 0).sum(axis=1)
        bound = nnz_per_row == 1
        self.bound_rows = np.flatnonzero(bound)
        if self.bound_rows.size:
            b_cols = np.nonzero(G0[self.bound_rows])[1]
            b_vals = G0[self.bound_rows, b_cols]
            self.bound_sq = np.zeros((self.bound_rows.size, n))
            self.bound_sq[np.arange(self.bound_rows.size), b_cols] = (
                b_vals * b_vals
            )
        else:
            self.bound_sq = None
        self.dense_rows = np.flatnonzero(~bound)
        self.Gd = G0[self.dense_rows]
        if self.Gd.size and self.Gd.shape[0] * n * n <= self._OUTER_LIMIT:
            self.outer = (
                self.Gd[:, :, None] * self.Gd[:, None, :]
            ).reshape(self.Gd.shape[0], n * n)
        else:
            self.outer = None

    def assemble(
        self, Pw: np.ndarray, wt: np.ndarray, d: np.ndarray
    ) -> np.ndarray:
        """``Pw + diag(d) (sum_i wt_i g_i g_i^T) diag(d)`` batched."""
        k, n = Pw.shape[:2]
        if self.outer is not None:
            core = (wt[:, self.dense_rows] @ self.outer).reshape(k, n, n)
        elif self.dense_rows.size:
            scaled = wt[:, self.dense_rows, None] * self.Gd[None]
            core = np.matmul(self.Gd.T[None], scaled)
        else:
            core = np.zeros((k, n, n))
        if self.bound_sq is not None:
            diag = np.einsum("kii->ki", core)
            diag += wt[:, self.bound_rows] @ self.bound_sq
        core *= d[:, :, None]
        core *= d[:, None, :]
        core += Pw
        return core


def _ip_iterate_shared(
    Pw: np.ndarray,
    qw: np.ndarray,
    A0: np.ndarray,
    bw: np.ndarray,
    G0: np.ndarray,
    hw: np.ndarray,
    d: np.ndarray,
    r_a: np.ndarray,
    r_g: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, ...]:
    """Masked Mehrotra iteration for batches sharing one structure.

    The dense loop's (:func:`~repro.optim.ipqp._mehrotra`) convergence
    test and predictor-corrector step rules, per instance, with
    converged instances frozen and dropped from the working arrays so
    the per-iteration cost tracks the active set.  It is built around
    the shared constraint matrices: the per-instance Ruiz scalings stay
    factored (``A_t = diag(r_a[t]) A0 diag(d[t])`` and likewise for
    ``G``), so constraint products are single dgemms against the shared
    matrix, and each Newton system is solved by eliminating the
    equality block — factor the condensed n-by-n matrix, then a p-by-p
    Schur complement — instead of factoring the (n+p) KKT.  A primal warm
    start (the equality-regularized ``W = I`` solve) replaces the cold
    ``x = 0`` start; it typically removes a few interior-point
    iterations and never changes what convergence means.
    """
    batch, n = qw.shape
    p = A0.shape[0]
    m = G0.shape[0]
    split = _SharedSplit(G0)
    A0T = A0.T.copy()
    G0T = G0.T.copy()
    reg_n = 1e-10 * np.eye(n)

    x_out = np.zeros((batch, n))
    y_out = np.zeros((batch, p))
    z_out = np.zeros((batch, m))
    iters = np.full(batch, max_iter, dtype=int)
    conv = np.zeros(batch, dtype=bool)
    gap_out = np.zeros(batch)

    idx = np.arange(batch)
    scale = 1.0 + np.maximum(
        np.abs(qw).max(axis=1, initial=0.0),
        np.maximum(
            np.abs(hw).max(axis=1, initial=0.0),
            np.abs(bw).max(axis=1, initial=0.0),
        ),
    )

    def hsolve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return _solve_checked(H, rhs, reg_n)

    def newton_core(
        H: np.ndarray, rhs_x: np.ndarray, r_eq: np.ndarray,
        At_scaled: np.ndarray | None, A_scaled: np.ndarray | None,
    ) -> tuple[np.ndarray, ...]:
        """Solve the condensed KKT via the equality Schur complement.

        Returns ``(dx, dy, X, Sinv)``; pass ``X``/``Sinv`` back in (via
        the closure below) to reuse the complement within an iteration.
        """
        if not p:
            dx = hsolve(H, rhs_x[:, :, None])[:, :, 0]
            return dx, np.zeros((len(H), 0)), None, None
        sol = hsolve(
            H, np.concatenate([At_scaled, rhs_x[:, :, None]], axis=2)
        )
        X, u = sol[:, :, :p], sol[:, :, p]
        S = np.matmul(A_scaled, X)
        diag = np.einsum("kii->ki", S)
        diag += 1e-12
        try:
            Sinv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            Sinv = np.linalg.inv(S + 1e-10 * np.eye(p))
        dy = np.matmul(
            Sinv, (_bmv(A_scaled, u) + r_eq)[:, :, None]
        )[:, :, 0]
        dx = u - _bmv(X, dy)
        return dx, dy, X, Sinv

    # Warm start: the W = I equality-regularized solve gives a primal
    # iterate near the central path's analytic region; slacks are
    # clamped exactly like the cold start clamps h.
    x = np.zeros((batch, n))
    y = np.zeros((batch, p))
    s = np.maximum(hw, 1.0)
    z = np.ones((batch, m))
    try:
        wt0 = r_g * r_g
        H0 = split.assemble(Pw, wt0, d)
        At0 = d[:, :, None] * (A0T[None] * r_a[:, None, :]) if p else None
        A0s = (A0[None] * d[:, None, :]) * r_a[:, :, None] if p else None
        x0, y0, _, _ = newton_core(
            H0,
            -qw + d * ((r_g * hw) @ G0),
            -bw if p else np.zeros((batch, 0)),
            At0,
            A0s,
        )
        finite = np.isfinite(x0).all(axis=1)
        good = finite & (np.abs(x0).max(axis=1, initial=0.0) < 1e6)
        if good.any():
            x[good] = x0[good]
            if p:
                y[good] = np.where(
                    np.isfinite(y0[good]), y0[good], 0.0
                )
            slack = hw[good] - r_g[good] * ((d[good] * x0[good]) @ G0T)
            s[good] = np.maximum(slack, 1.0)
    except np.linalg.LinAlgError:
        pass

    for it in range(1, max_iter + 1):
        dx_ = d * x
        Ax = r_a * (dx_ @ A0T) if p else np.zeros((len(x), 0))
        Gx = r_g * (dx_ @ G0T)
        r_dual = (
            _bmv(Pw, x) + qw + d * (((r_g * z) @ G0))
        )
        if p:
            r_dual += d * ((r_a * y) @ A0)
        r_eq = Ax - bw
        r_ineq = Gx + s - hw
        mu = (s * z).sum(axis=1) / m

        done = (
            (np.abs(r_dual).max(axis=1) < tol * scale)
            & (np.abs(r_ineq).max(axis=1) < tol * scale)
            & (mu < tol * scale)
        )
        if p:
            done &= np.abs(r_eq).max(axis=1) < tol * scale
        if done.any():
            fin = idx[done]
            x_out[fin] = x[done]
            y_out[fin] = y[done]
            z_out[fin] = z[done]
            iters[fin] = it
            conv[fin] = True
            gap_out[fin] = mu[done]
            keep = ~done
            if not keep.any():
                idx = idx[:0]
                break
            idx = idx[keep]
            Pw, qw, bw, hw = Pw[keep], qw[keep], bw[keep], hw[keep]
            d, r_a, r_g, scale = d[keep], r_a[keep], r_g[keep], scale[keep]
            x, y, s, z = x[keep], y[keep], s[keep], z[keep]
            r_dual, r_eq, r_ineq = r_dual[keep], r_eq[keep], r_ineq[keep]
            mu = mu[keep]

        w = z / s
        H = split.assemble(Pw, w * (r_g * r_g), d)
        At_scaled = (
            d[:, :, None] * (A0T[None] * r_a[:, None, :]) if p else None
        )
        A_scaled = (
            (A0[None] * d[:, None, :]) * r_a[:, :, None] if p else None
        )
        X = Sinv = None

        def solve_newton(r_comp: np.ndarray) -> tuple[np.ndarray, ...]:
            nonlocal X, Sinv
            rhs_x = -r_dual - d * (
                ((r_g * ((r_comp + z * r_ineq) / s)) @ G0)
            )
            if p and X is not None:
                # Reuse the iteration's Schur complement: only the
                # right-hand side changed between predictor/corrector.
                u = hsolve(H, rhs_x[:, :, None])[:, :, 0]
                dy = np.matmul(
                    Sinv, (_bmv(A_scaled, u) + r_eq)[:, :, None]
                )[:, :, 0]
                dx = u - _bmv(X, dy)
            else:
                dx, dy, X, Sinv = newton_core(
                    H, rhs_x, r_eq, At_scaled, A_scaled
                )
            ds = -r_ineq - r_g * ((d * dx) @ G0T)
            dz = (r_comp - z * ds) / s
            return dx, dy, ds, dz

        dx_a, dy_a, ds_a, dz_a = solve_newton(-s * z)
        alpha_p = _step_length_batch(s, ds_a, fraction=1.0)
        alpha_d = _step_length_batch(z, dz_a, fraction=1.0)
        mu_aff = (
            (s + alpha_p[:, None] * ds_a) * (z + alpha_d[:, None] * dz_a)
        ).sum(axis=1) / m
        sigma = np.zeros(len(mu))
        pos = mu > 0
        np.divide(mu_aff, mu, out=sigma, where=pos)
        sigma = np.where(pos, sigma**3, 0.0)

        r_comp = -s * z + sigma[:, None] * mu[:, None] - ds_a * dz_a
        dx, dy, ds, dz = solve_newton(r_comp)
        alpha = np.minimum(
            _step_length_batch(s, ds), _step_length_batch(z, dz)
        )

        x = x + alpha[:, None] * dx
        s = s + alpha[:, None] * ds
        y = y + alpha[:, None] * dy
        z = z + alpha[:, None] * dz

    if idx.size:
        x_out[idx] = x
        y_out[idx] = y
        z_out[idx] = z
        gap_out[idx] = (s * z).sum(axis=1) / m
    return x_out, y_out, z_out, iters, conv, gap_out


def _shared_rows(
    M: np.ndarray | None,
    r: np.ndarray | None,
    batch: int,
    n: int,
    name: str,
) -> tuple[np.ndarray, np.ndarray]:
    """A shared ``(rows, n)`` constraint matrix and its ``(T, rows)``
    right-hand side (a 1-D one is broadcast); a missing or empty matrix
    gives zero rows."""
    if M is None or np.size(M) == 0:
        return np.zeros((0, n)), np.zeros((batch, 0))
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] != n:
        raise ValueError(
            f"{name} must be one shared (rows, {n}) matrix, got shape {M.shape}"
        )
    if r is None:
        raise ValueError(f"{name} given without its right-hand side")
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        r = np.broadcast_to(r, (batch, len(r)))
    if r.shape != (batch, M.shape[0]):
        raise ValueError(
            f"rhs shape {r.shape} incompatible with {name} rows {M.shape[0]}"
        )
    return M, r


def solve_qp_batch(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> BatchIPQPResult:
    """Solve T independent convex QPs in one masked batched iteration.

    Instance ``t`` solves ``min 0.5 x^T P_t x + q_t^T x`` subject to
    ``A x = b_t`` and ``G x <= h_t``: the constraint matrices are shared
    by the whole batch (the compiled-structure case) and only the
    right-hand sides vary per instance.  The convergence test,
    initialization and step rules mirror the scalar
    :func:`~repro.optim.ipqp.solve_qp` per instance; converged
    instances are frozen mid-flight so stragglers don't pay for the
    drained majority.

    Instances the batched iteration fails to converge are re-solved by
    the scalar solver, inheriting its full semantics — including the
    raw-data retry after a failed equilibrated solve — and flagged in
    the result's ``fallback`` mask.

    Args:
        P: (T, n, n) stacked Hessians, or (n, n) shared.
        q: (T, n) stacked linear terms (defines T and n).
        A: optional shared (p, n) equality matrix.
        b: equality rhs, (p,) shared or (T, p); required with ``A``.
        G: shared (m, n) inequality matrix with m >= 1.
        h: inequality rhs, (m,) shared or (T, m).
        tol: per-instance convergence tolerance (scalar semantics).
        max_iter: per-instance iteration cap.

    Raises:
        ValueError: on inconsistent shapes, per-instance 3-D constraint
            stacks, or a missing or empty ``G``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"expected a 2-d stacked q, got shape {q.shape}")
    batch, n = q.shape
    P = np.asarray(P, dtype=float)
    if P.ndim == 2:
        P = np.broadcast_to(P, (batch, n, n))
    if P.shape != (batch, n, n):
        raise ValueError(
            f"P shape {P.shape} incompatible with stacked q {q.shape}"
        )
    G0, h2 = _shared_rows(G, h, batch, n, "G")
    if not len(G0):
        raise ValueError("solve_qp_batch needs at least one inequality row")
    A0, b2 = _shared_rows(A, b, batch, n, "A")
    p, m = A0.shape[0], G0.shape[0]

    x = np.zeros((batch, n))
    y = np.zeros((batch, p))
    z = np.zeros((batch, m))
    iters = np.zeros(batch, dtype=int)
    conv = np.zeros(batch, dtype=bool)
    gap = np.zeros(batch)
    if batch:
        try:
            d, r_a, r_g, gamma = _ruiz_scales_shared(P, q, A0, G0)
            P_s = P * d[:, :, None]
            P_s *= d[:, None, :]
            P_s /= gamma[:, None, None]
            x_h, y_h, z_h, iters, conv, gap = _ip_iterate_shared(
                P_s, d * q / gamma[:, None], A0, r_a * b2, G0, r_g * h2,
                d, r_a, r_g, tol, max_iter,
            )
            x = d * x_h
            y = gamma[:, None] * r_a * y_h
            z = gamma[:, None] * r_g * z_h
            gap = gap * gamma
        except np.linalg.LinAlgError:
            pass  # every instance falls back to the scalar solver

    fallback = ~conv
    for t in np.nonzero(fallback)[0]:
        res = solve_qp(
            P[t], q[t],
            A=A0 if p else None, b=b2[t] if p else None,
            G=G0, h=h2[t],
            tol=tol, max_iter=max_iter,
        )
        x[t], y[t], z[t] = res.x, res.eq_dual, res.ineq_dual
        iters[t] = res.iterations
        conv[t] = res.converged
        gap[t] = res.gap

    value = 0.5 * np.einsum("ti,tij,tj->t", x, P, x) + (q * x).sum(axis=1)
    return BatchIPQPResult(
        x=x, eq_dual=y, ineq_dual=z, value=value, iterations=iters,
        converged=conv, gap=gap, fallback=fallback,
    )
