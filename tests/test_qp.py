"""Tests for the dense active-set QP solver."""

from __future__ import annotations

import numpy as np
import pytest

from ecocruise.qp import QpError, solve_qp


def random_convex_qp(rng, n, n_in):
    """Random strictly convex QP with a known interior-feasible point."""
    m = rng.normal(size=(n, n))
    h = m @ m.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    x_feas = rng.normal(size=n)
    a_in = rng.normal(size=(n_in, n))
    b_in = a_in @ x_feas + rng.uniform(0.1, 2.0, size=n_in)
    return h, c, a_in, b_in, x_feas


class TestUnconstrained:
    def test_matches_closed_form_newton(self):
        rng = np.random.default_rng(0)
        h, c, _, _, _ = random_convex_qp(rng, 8, 0)
        newton = -np.linalg.solve(h, c)
        # a box ten times wider than the minimizer: its rows never bind
        box = 10.0 * (1.0 + np.max(np.abs(newton)))
        res = solve_qp(h, c, np.vstack([np.eye(8), -np.eye(8)]), np.full(16, box), np.zeros(8))
        assert res.working == [] and not res.in_mult.any()
        assert np.allclose(res.x, newton, atol=1e-9)
        assert res.stationarity < 1e-9


class TestInequalities:
    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(4, 10))
            h, c, a_in, b_in, x_feas = random_convex_qp(rng, n, int(rng.integers(2, 8)))
            res = solve_qp(h, c, a_in, b_in, x_feas)
            obj = lambda x: 0.5 * x @ h @ x + c @ x
            for _ in range(200):
                cand = x_feas + rng.normal(scale=0.5, size=n)
                if np.all(a_in @ cand <= b_in + 1e-12):
                    assert obj(cand) >= obj(res.x) - 1e-9

    def test_active_bounds_satisfied_exactly(self):
        rng = np.random.default_rng(3)
        n = 6
        h = np.eye(n)
        c = -np.ones(n) * 5.0  # unconstrained optimum at 5, boxed at 1
        a_in = np.eye(n)
        b_in = np.ones(n)
        res = solve_qp(h, c, a_in, b_in, np.zeros(n))
        assert np.allclose(res.x, 1.0, atol=1e-10)
        assert np.all(res.in_mult >= 0)
        assert res.stationarity < 1e-9

    def test_nonnegative_least_squares_shape(self):
        # min ||Ay - b|| with y >= 0: compare against projected exhaustive
        # search over active sign patterns
        rng = np.random.default_rng(4)
        a = rng.normal(size=(12, 4))
        b = rng.normal(size=12)
        h = 2 * a.T @ a
        c = -2 * a.T @ b
        res = solve_qp(h, c, -np.eye(4), np.zeros(4), np.zeros(4))
        best = np.inf
        from itertools import product
        for pattern in product([0, 1], repeat=4):
            free = [i for i, keep in enumerate(pattern) if keep]
            y = np.zeros(4)
            if free:
                sol, *_ = np.linalg.lstsq(a[:, free], b, rcond=None)
                y[free] = sol
            if np.all(y >= -1e-12):
                best = min(best, float(np.sum((a @ y - b) ** 2)))
        achieved = float(np.sum((a @ res.x - b) ** 2))
        assert achieved == pytest.approx(best, abs=1e-9)
        assert np.all(res.x >= -1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        h, c, a_in, b_in, x_feas = random_convex_qp(rng, 9, 10)
        a = solve_qp(h, c, a_in, b_in, x_feas)
        b = solve_qp(h, c, a_in, b_in, x_feas)
        assert np.array_equal(a.x, b.x)
        assert a.working == b.working


class TestValidation:
    def test_infeasible_start_rejected(self):
        h = np.eye(2)
        with pytest.raises(QpError, match="starting point"):
            solve_qp(h, np.zeros(2), np.eye(2), -np.ones(2), np.zeros(2))

    def test_semidefinite_hessian_handled(self):
        # a rank-1 Hessian is outside the solver's contract: its singular KKT
        # system is reported, never answered with an arbitrary minimizer
        h = np.outer([1.0, 1.0], [1.0, 1.0])
        c = np.array([-1.0, -1.0])
        a_in = np.vstack([np.eye(2), -np.eye(2)])
        b_in = np.ones(4)
        with pytest.raises(QpError, match="singular"):
            solve_qp(h, c, a_in, b_in, np.zeros(2))
