"""Tests for repro.optim.batch: the batched interior-point solver.

The batched solver promises scalar *semantics* (same convergence test,
same tolerances) but iterates all instances jointly over one shared
constraint structure, so its tests compare solutions to the scalar
solver within solver tolerance and check the masking/fallback machinery
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim.batch import BatchIPQPResult, solve_qp_batch
from repro.optim.ipqp import solve_qp


def _random_qp(rng, n, p, m, scale=1.0):
    """A feasible strictly convex QP with interior point x0."""
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n) * scale
    x0 = rng.normal(size=n)
    A = rng.normal(size=(p, n)) if p else None
    b = A @ x0 if p else None
    G = rng.normal(size=(m, n)) if m else None
    h = G @ x0 + rng.uniform(0.5, 2.0, size=m) if m else None
    return P, q, A, b, G, h


def _shared_batch(rng, n, p, m, T, scales=None):
    """T strictly convex QPs over one shared A/G, each with its own
    interior point: per-instance P, q, b and h."""
    A = rng.normal(size=(p, n)) if p else None
    G = rng.normal(size=(m, n))
    Ps, qs, bs, hs = [], [], [], []
    for t in range(T):
        M = rng.normal(size=(n, n))
        Ps.append(M @ M.T + 0.5 * np.eye(n))
        qs.append(rng.normal(size=n) * (1.0 if scales is None else scales[t]))
        x0 = rng.normal(size=n)
        bs.append(A @ x0 if p else np.zeros(0))
        hs.append(G @ x0 + rng.uniform(0.5, 2.0, size=m))
    return np.stack(Ps), np.stack(qs), A, np.stack(bs), G, np.stack(hs)


class TestSolveQPBatchStacked:
    """Per-instance stacked P/q/b/h over one shared 2-D A/G."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        P, q, A, b, G, h = _shared_batch(rng, n=6, p=2, m=8, T=5)
        res = solve_qp_batch(P, q, A=A, b=b, G=G, h=h)
        assert res.converged.all()
        assert not res.fallback.any()
        for t in range(len(q)):
            ref = solve_qp(P[t], q[t], A=A, b=b[t], G=G, h=h[t])
            assert ref.converged
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-6, rtol=1e-6)
            # Six factored Ruiz sweeps (vs. the scalar fifteen) move the
            # stopping point within solver tolerance.
            assert res.value[t] == pytest.approx(ref.value, rel=1e-7, abs=1e-7)

    def test_single_instance_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        P, q, A, b, G, h = _random_qp(rng, 5, 1, 6)
        res = solve_qp_batch(P[None], q[None], A=A, b=b[None], G=G, h=h[None])
        ref = solve_qp(P, q, A=A, b=b, G=G, h=h)
        assert len(res) == 1
        assert bool(res.converged[0]) == ref.converged
        np.testing.assert_allclose(res.x[0], ref.x, atol=1e-7, rtol=1e-7)

    def test_mixed_difficulty_iteration_masking(self):
        """Joint iteration is per-instance: each instance converges in
        exactly the iterations it would take alone (convergence masking
        freezes finished instances without perturbing stragglers)."""
        rng = np.random.default_rng(12)
        # The second linear term is badly scaled.
        P, q, _, _, G, h = _shared_batch(rng, n=6, p=0, m=6, T=2, scales=[1.0, 1e4])
        P[1] *= 1e3
        res = solve_qp_batch(P, q, G=G, h=h)
        assert res.converged.all()
        for t in range(2):
            solo = solve_qp_batch(P[t : t + 1], q[t : t + 1], G=G, h=h[t : t + 1])
            assert int(solo.iterations[0]) == int(res.iterations[t])
            # Matmuls over the shared matrix round by batch size, so the
            # iterates agree to rounding rather than bit-for-bit.
            np.testing.assert_allclose(solo.x[0], res.x[t], atol=1e-9, rtol=1e-9)

    def test_fallback_instances_carry_scalar_solution(self):
        """Instances the batch cannot converge within max_iter are
        re-solved scalar (same budget) and flagged in the mask."""
        rng = np.random.default_rng(13)
        P, q, _, _, G, h = _shared_batch(rng, n=5, p=0, m=6, T=3)
        res = solve_qp_batch(P, q, G=G, h=h, max_iter=2)
        # Two iterations are never enough: every instance falls back.
        assert res.fallback.all()
        for t in np.nonzero(res.fallback)[0]:
            ref = solve_qp(P[t], q[t], G=G, h=h[t], max_iter=2)
            assert np.array_equal(res.x[t], ref.x)
            assert bool(res.converged[t]) == ref.converged
            assert int(res.iterations[t]) == ref.iterations


class TestSolveQPBatchShared:
    """The shared-structure fast path: one 2-D A/G for the whole batch."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_matches_scalar(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, p, m, T = 7, 2, 10, 6
        _, _, A, _, G, _ = _random_qp(rng, n, p, m)
        x0 = rng.normal(size=n)
        b0 = A @ x0
        qs, Ps, hs = [], [], []
        for _ in range(T):
            M = rng.normal(size=(n, n))
            Ps.append(M @ M.T + 0.5 * np.eye(n))
            qs.append(rng.normal(size=n))
            hs.append(G @ x0 + rng.uniform(0.5, 2.0, size=m))
        res = solve_qp_batch(
            np.stack(Ps), np.stack(qs),
            A=A, b=np.tile(b0, (T, 1)), G=G, h=np.stack(hs),
        )
        assert res.converged.all()
        for t in range(T):
            ref = solve_qp(Ps[t], qs[t], A=A, b=b0, G=G, h=hs[t])
            assert ref.converged
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-6, rtol=1e-6)
            assert res.value[t] == pytest.approx(ref.value, rel=1e-8, abs=1e-8)

    def test_bound_rows_plus_dense_rows(self):
        """Simple-bound G rows (one nonzero) split from dense rows must
        not change solutions: box-constrained batch vs scalar."""
        rng = np.random.default_rng(42)
        n, T = 5, 4
        G = np.vstack([-np.eye(n), np.eye(n), rng.normal(size=(2, n))])
        x0 = rng.uniform(0.2, 0.8, size=n)
        Ps, qs, hs = [], [], []
        for _ in range(T):
            M = rng.normal(size=(n, n))
            Ps.append(M @ M.T + np.eye(n))
            qs.append(rng.normal(size=n))
            hs.append(G @ x0 + rng.uniform(0.5, 1.5, size=2 * n + 2))
        res = solve_qp_batch(np.stack(Ps), np.stack(qs), G=G, h=np.stack(hs))
        assert res.converged.all()
        for t in range(T):
            ref = solve_qp(Ps[t], qs[t], G=G, h=hs[t])
            # Structural check (split correctness), not a precision
            # race: both solvers stop at tol, so allow solver-tolerance
            # slack along weakly determined directions.
            np.testing.assert_allclose(res.x[t], ref.x, atol=1e-4, rtol=1e-4)
            assert res.value[t] == pytest.approx(ref.value, rel=1e-7, abs=1e-7)


class TestSolveQPBatchEdges:
    def test_empty_batch(self):
        res = solve_qp_batch(
            np.zeros((0, 3, 3)), np.zeros((0, 3)), G=-np.eye(3), h=np.zeros(3)
        )
        assert isinstance(res, BatchIPQPResult)
        assert len(res) == 0
        assert res.x.shape == (0, 3)
        assert res.ineq_dual.shape == (0, 3)

    def test_shared_2d_hessian_broadcasts(self):
        rng = np.random.default_rng(23)
        M = rng.normal(size=(3, 3))
        P = M @ M.T + np.eye(3)
        qs = rng.normal(size=(5, 3))
        G, h = np.eye(3), np.full(3, 1e3)  # bounds that never bind
        res = solve_qp_batch(P, qs, G=G, h=h)
        assert res.converged.all()
        for t in range(5):
            np.testing.assert_allclose(res.x[t], np.linalg.solve(P, -qs[t]), atol=1e-6)

    def test_instance_view(self):
        rng = np.random.default_rng(24)
        P, q, _, _, G, h = _random_qp(rng, 4, 0, 5)
        res = solve_qp_batch(P[None], q[None], G=G, h=h[None])
        inst = res.instance(0)
        assert np.array_equal(inst.x, res.x[0])
        assert inst.value == float(res.value[0])
        assert inst.iterations == int(res.iterations[0])
        assert inst.converged == bool(res.converged[0])

    def test_shape_validation(self):
        P, q = np.zeros((2, 3, 3)), np.zeros((2, 3))
        G, h = -np.eye(3), np.zeros(3)
        with pytest.raises(ValueError):
            solve_qp_batch(P, np.zeros(3), G=G, h=h)  # 1-D q
        with pytest.raises(ValueError):
            solve_qp_batch(np.zeros((2, 4, 4)), q, G=G, h=h)  # P/q mismatch
        with pytest.raises(ValueError):
            solve_qp_batch(P, q, G=G, h=np.zeros((3, 3)))  # wrong batch dim
        with pytest.raises(ValueError):
            solve_qp_batch(P, q, G=G)  # G without its rhs
        with pytest.raises(ValueError, match="shared"):
            solve_qp_batch(P, q, G=np.zeros((2, 3, 3)), h=np.zeros((2, 3)))  # 3-D G
        with pytest.raises(ValueError, match="shared"):
            solve_qp_batch(
                P, q, A=np.zeros((2, 1, 3)), b=np.zeros((2, 1)), G=G, h=h
            )  # 3-D A
        with pytest.raises(ValueError, match="inequality"):
            solve_qp_batch(P, q)  # no G
        with pytest.raises(ValueError, match="inequality"):
            solve_qp_batch(P, q, G=np.zeros((0, 3)), h=np.zeros(0))  # empty G
