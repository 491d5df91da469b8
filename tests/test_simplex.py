"""Tests for repro.optim.simplex: projections and simplex QPs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim.simplex import minimize_qp_simplex, project_box, project_simplex

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def vectors(min_size=1, max_size=12):
    return hnp.arrays(
        dtype=float,
        shape=st.integers(min_size, max_size),
        elements=finite_floats,
    )


class TestProjectSimplex:
    def test_already_on_simplex_is_fixed_point(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(v, 1.0), v, atol=1e-12)

    def test_single_element(self):
        np.testing.assert_allclose(project_simplex(np.array([-5.0]), 3.0), [3.0])

    def test_uniform_from_symmetric_input(self):
        out = project_simplex(np.zeros(4), 2.0)
        np.testing.assert_allclose(out, np.full(4, 0.5))

    def test_dominant_coordinate_takes_all(self):
        out = project_simplex(np.array([100.0, 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_total_zero_returns_zero(self):
        out = project_simplex(np.array([3.0, -1.0]), 0.0)
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0]), -1.0)

    def test_3d_input_rejected(self):
        # Only 1-D points project; matrices of any rank are rejected.
        with pytest.raises(ValueError, match="1-d"):
            project_simplex(np.zeros((2, 2, 2)), 1.0)
        with pytest.raises(ValueError, match="1-d"):
            project_simplex(np.zeros((2, 3)), 1.0)

    @given(v=vectors(), total=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=150, deadline=None)
    def test_output_is_feasible(self, v, total):
        x = project_simplex(v, total)
        assert (x >= -1e-12).all()
        assert x.sum() == pytest.approx(total, abs=1e-8 * max(1.0, total))

    @given(v=vectors(min_size=2), total=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_projection_is_closest_feasible_point(self, v, total):
        """No random feasible point may be closer than the projection."""
        x = project_simplex(v, total)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.random(len(v))
            y = total * w / w.sum()
            assert np.sum((x - v) ** 2) <= np.sum((y - v) ** 2) + 1e-9

    @given(v=vectors(), shift=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, v, shift):
        """Projection onto a sum-constrained set ignores uniform shifts."""
        a = project_simplex(v, 1.0)
        b = project_simplex(v + shift, 1.0)
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestProjectBox:
    def test_inside_unchanged(self):
        np.testing.assert_allclose(project_box(np.array([0.5]), 0.0, 1.0), [0.5])

    def test_clips_both_sides(self):
        out = project_box(np.array([-1.0, 2.0]), 0.0, 1.0)
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_vector_bounds(self):
        out = project_box(np.array([5.0, 5.0]), np.array([0.0, 6.0]), np.array([4.0, 9.0]))
        np.testing.assert_allclose(out, [4.0, 6.0])

    def test_2d_batch_matches_rowwise(self):
        v = np.array([[-1.0, 2.0], [0.5, 0.5], [9.0, -9.0]])
        out = project_box(v, 0.0, 1.0)
        for r in range(v.shape[0]):
            assert np.array_equal(out[r], project_box(v[r], 0.0, 1.0))

    def test_2d_broadcast_column_bounds(self):
        v = np.array([[5.0, 5.0], [-5.0, -5.0]])
        out = project_box(v, np.array([0.0, 6.0]), np.array([4.0, 9.0]))
        np.testing.assert_allclose(out, [[4.0, 6.0], [0.0, 6.0]])


def _brute_force_simplex_min(H, q, total, grid=60):
    """Dense grid search over the 2-simplex (for 2-3 dim checks)."""
    n = len(q)
    best, best_val = None, np.inf
    if n == 2:
        for t in np.linspace(0, total, grid + 1):
            x = np.array([t, total - t])
            val = 0.5 * x @ H @ x + q @ x
            if val < best_val:
                best, best_val = x, val
    else:
        for t1 in np.linspace(0, total, grid + 1):
            for t2 in np.linspace(0, total - t1, grid + 1):
                x = np.array([t1, t2, total - t1 - t2])
                val = 0.5 * x @ H @ x + q @ x
                if val < best_val:
                    best, best_val = x, val
    return best, best_val


class TestMinimizeQPSimplex:
    def test_projection_special_case(self):
        """With H = I and q = -v the QP is a Euclidean projection."""
        v = np.array([0.9, 0.2, -0.4, 0.5])
        res = minimize_qp_simplex(np.eye(4), -v, 1.0)
        np.testing.assert_allclose(res.x, project_simplex(v, 1.0), atol=1e-8)

    def test_matches_brute_force_2d(self):
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        q = np.array([-1.0, 0.3])
        res = minimize_qp_simplex(H, q, 2.0)
        _, best_val = _brute_force_simplex_min(H, q, 2.0, grid=2000)
        assert res.value <= best_val + 1e-6

    def test_matches_brute_force_3d(self):
        H = np.diag([1.0, 2.0, 3.0]) + 0.2
        q = np.array([0.5, -1.0, 0.1])
        res = minimize_qp_simplex(H, q, 1.0)
        _, best_val = _brute_force_simplex_min(H, q, 1.0, grid=120)
        assert res.value <= best_val + 1e-4

    def test_linear_objective_picks_cheapest_vertex(self):
        res = minimize_qp_simplex(np.zeros((3, 3)), np.array([3.0, 1.0, 2.0]), 5.0)
        np.testing.assert_allclose(res.x, [0.0, 5.0, 0.0], atol=1e-9)

    def test_total_zero(self):
        res = minimize_qp_simplex(np.eye(2), np.ones(2), 0.0)
        np.testing.assert_allclose(res.x, [0.0, 0.0])
        assert res.value == 0.0

    def test_rank_one_plus_diagonal_hessian(self):
        """The lambda-minimization structure: rho*I + c * l l^T."""
        l = np.array([0.01, 0.03, 0.02, 0.05])
        H = 0.3 * np.eye(4) + 40.0 * np.outer(l, l)
        q = np.array([0.1, -0.2, 0.0, 0.3])
        res = minimize_qp_simplex(H, q, 3.0)
        assert res.kkt_residual < 1e-7 * 3.0
        assert res.x.sum() == pytest.approx(3.0, abs=1e-8)

    def test_warm_start_agrees_with_cold(self):
        H = np.diag([1.0, 4.0, 2.0])
        q = np.array([0.0, -3.0, 1.0])
        cold = minimize_qp_simplex(H, q, 2.0)
        warm = minimize_qp_simplex(H, q, 2.0, x0=cold.x)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-7)
        assert warm.iterations == 0  # direct active-set hit

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minimize_qp_simplex(np.eye(3), np.zeros(2), 1.0)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            minimize_qp_simplex(np.eye(2), np.zeros(2), -1.0)

    @given(
        diag=hnp.arrays(
            dtype=float, shape=st.integers(2, 6),
            elements=st.floats(min_value=0.1, max_value=10.0),
        ),
        seed=st.integers(0, 1000),
        total=st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_kkt_conditions_hold(self, diag, seed, total):
        """Solutions satisfy stationarity/complementarity within tolerance."""
        n = len(diag)
        rng = np.random.default_rng(seed)
        low_rank = rng.normal(size=n)
        H = np.diag(diag) + np.outer(low_rank, low_rank)
        q = rng.normal(size=n) * 5
        res = minimize_qp_simplex(H, q, total)
        assert res.x.sum() == pytest.approx(total, rel=1e-6)
        assert (res.x >= -1e-10).all()
        g = H @ res.x + q
        support = res.x > 1e-8 * total
        assert support.any()
        theta = g[support].mean()
        # Stationarity on the support, dual feasibility off it.
        assert np.abs(g[support] - theta).max() < 1e-5 * max(1.0, np.abs(g).max())
        if (~support).any():
            assert (g[~support] >= theta - 1e-5 * max(1.0, np.abs(g).max())).all()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_uniform_point(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 8)
        a = rng.normal(size=(n, n))
        H = a @ a.T + 0.01 * np.eye(n)
        q = rng.normal(size=n)
        res = minimize_qp_simplex(H, q, 1.0)
        uniform = np.full(n, 1.0 / n)
        assert res.value <= 0.5 * uniform @ H @ uniform + q @ uniform + 1e-8
