"""Tests for the horizon QP: assembly, solve certification, trade-off shape."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecocruise import mpc
from ecocruise.vehicle import VehicleParams, linearize
from oracles import as_vector, build_pair, kkt_residual, solve_full


@pytest.fixture(scope="module")
def params() -> VehicleParams:
    return VehicleParams()


@pytest.fixture(scope="module")
def lin(params):
    return linearize(params, 30.0)


def make_problem(params, lin, gamma=0.003, n=60, seed=0, v_init=0.0):
    """The condensed problem of a random window and its full-space program."""
    rng = np.random.default_rng(seed)
    grades = rng.uniform(-0.05, 0.05, n)
    return build_pair(gamma, lin, grades, v_init, params, v_ref=30.0)


class TestBuild:
    def test_zero_point_cost_is_fuel_constant(self, params, lin):
        _, full = build_pair(0.003, lin, np.zeros(60), 0.0, params, v_ref=30.0)
        c0 = lin.fuel_lin[0]
        assert full.objective_at(np.zeros(full.n_vars)) == pytest.approx(
            0.003 * 60 * c0 * c0, rel=1e-12
        )

    def test_tracking_divisor_uses_all_horizon_samples(self, params, lin):
        # a unit bump in one velocity sample moves the squared-mean term by
        # exactly (1/(N+1))^2 when the target sits at zero deviation
        n = 10
        _, full = build_pair(0.0, lin, np.zeros(n), 0.0, params, v_ref=30.0)
        z = np.zeros(full.n_vars)
        z[3] = 1.0
        assert full.objective_at(z) == pytest.approx(1.0 / (n + 1) ** 2, rel=1e-12)

    def test_negative_weight_rejected(self, params, lin):
        for gamma in (-1e-6, np.nan, np.inf):  # a NaN passes a bare ``< 0`` test
            with pytest.raises(ValueError, match="finite and nonnegative"):
                mpc.build(gamma, lin, np.zeros(10), 0.0, params, lin.v_lin)

    def test_hessian_positive_semidefinite(self, params, lin):
        for gamma in (0.0, 1e-4, 0.003, 0.05, 1.0):
            _, full = build_pair(gamma, lin, np.zeros(8), 0.3, params, lin.v_lin)
            eigvals = np.linalg.eigvalsh(full.h_mat)
            assert eigvals.min() >= -1e-12


class TestSolve:
    def test_two_step_horizon_matches_closed_form(self, params, lin):
        # no active bounds: equality-constrained least squares via KKT
        grades = np.array([0.01, -0.02])
        problem, full = build_pair(0.002, lin, grades, 0.2, params, v_ref=30.0)
        sol = mpc.solve(problem)
        n_z = full.n_vars
        kkt = np.block(
            [
                [full.h_mat, full.a_eq.T],
                [full.a_eq, np.zeros((full.a_eq.shape[0],) * 2)],
            ]
        )
        ref = np.linalg.solve(kkt, np.concatenate([-full.c_vec, full.b_eq]))[:n_z]
        assert np.allclose(as_vector(sol), ref, atol=1e-8)

    def test_dynamics_satisfied_tightly(self, params, lin):
        problem, full = make_problem(params, lin, seed=1)
        sol = mpc.solve(problem)
        resid = full.a_eq @ as_vector(sol) - full.b_eq
        assert np.max(np.abs(resid)) < 1e-9

    def test_torque_bounds_hard_and_slacks_nonnegative(self, params, lin):
        problem, _ = make_problem(params, lin, gamma=0.05, seed=2, v_init=-2.0)
        sol = mpc.solve(problem)
        v_lo, v_hi, t_lo, t_hi = problem.bounds
        assert np.all(sol.te >= t_lo - 1e-10)
        assert np.all(sol.te <= t_hi + 1e-10)
        assert np.all(sol.slack >= 0.0)

    def test_certified_kkt_residual(self, params, lin):
        for seed in range(5):
            problem, full = make_problem(params, lin, gamma=10 ** -np.random.default_rng(seed).uniform(2, 4), seed=seed)
            sol = mpc.solve(problem)
            assert sol.kkt_residual <= 1e-6
            assert kkt_residual(full, sol) <= 1e-6

    def test_beats_random_feasible_points(self, params, lin):
        rng = np.random.default_rng(7)
        problem, full = make_problem(params, lin, gamma=0.003, seed=3)
        sol = mpc.solve(problem)
        n = problem.n
        v_lo, v_hi, t_lo, t_hi = problem.bounds
        for _ in range(300):
            te = rng.uniform(t_lo, t_hi, n)
            z = np.zeros(full.n_vars)
            z[0] = full.v_init
            for k in range(n):
                z[k + 1] = lin.a_coef * z[k] + lin.b1 * te[k] + lin.b2 * full.grade_window[k]
                z[n + 1 + k] = te[k]
                z[2 * n + 1 + k] = max(0.0, z[k + 1] - v_hi, v_lo - z[k + 1])
            assert full.objective_at(z) >= full.objective_at(as_vector(sol)) - 1e-10

    def test_pure_tracker_recovers_zero_mean(self, params, lin):
        problem = mpc.build(0.0, lin, np.zeros(30), 1.0, params, v_ref=30.0)
        sol = mpc.solve(problem)
        assert np.mean(sol.v) == pytest.approx(0.0, abs=1e-8)

    def test_large_weight_drifts_down_to_slack_balance(self, params, lin):
        free = mpc.solve(mpc.build(1.0, lin, np.zeros(60), 0.0, params, v_ref=30.0))
        assert np.mean(free.v) < -1.0
        # the glide is caught by the softened floor: velocities barely cross
        # the bound by the amount the slack penalty tolerates
        v_lo = params.v_min - lin.v_lin
        assert free.v.min() > v_lo - 1.0

    def test_plan_mean_velocity_monotone_in_weight(self, params, lin):
        means = []
        for gamma in np.geomspace(1e-4, 1.0, 10):
            sol = mpc.solve(mpc.build(gamma, lin, np.zeros(60), 0.0, params, v_ref=30.0))
            means.append(float(np.mean(sol.v)))
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    def test_pareto_monotone_fuel_and_tracking_terms(self, params, lin):
        rng = np.random.default_rng(11)
        grades = rng.uniform(-0.05, 0.05, 60)
        fuel_terms, track_terms = [], []
        for gamma in np.geomspace(1e-4, 0.05, 10):
            problem = mpc.build(gamma, lin, grades, 0.4, params, v_ref=30.0)
            sol = mpc.solve(problem)
            c0, c_v, c_t = lin.fuel_lin
            rho = c0 + c_v * sol.v[:-1] + c_t * sol.te
            fuel_terms.append(float(np.sum(rho**2)))
            track_terms.append(float(np.mean(sol.v) ** 2))
        for a, b in zip(fuel_terms, fuel_terms[1:]):
            assert b <= a + 1e-9
        for a, b in zip(track_terms, track_terms[1:]):
            assert b >= a - 1e-9

    def test_grade_shift_response_is_linear(self, params, lin):
        # interior solutions respond to a constant grade offset identically
        # regardless of the base window
        shift = 0.004
        rng = np.random.default_rng(13)
        responses = []
        for seed in range(2):
            grades = rng.uniform(-0.02, 0.02, 40)
            base = mpc.solve(mpc.build(0.002, lin, grades, 0.1, params, v_ref=30.0))
            moved = mpc.solve(mpc.build(0.002, lin, grades + shift, 0.1, params, v_ref=30.0))
            responses.append(as_vector(moved) - as_vector(base))
        assert np.allclose(responses[0], responses[1], atol=1e-7)


class TestCondensedMatchesFullSpace:
    """The condensed solve reproduces the full-space program it eliminates,
    including windows where torque and velocity bounds bind."""

    @settings(max_examples=40, deadline=None)
    @given(
        te_max=st.sampled_from([150.0, 240.0]),
        gamma=st.just(0.0) | st.floats(-9.0, -1.0).map(lambda e: 10.0**e),
        n=st.integers(1, 60),
        grade_seed=st.integers(0, 2**32 - 1),
        steepness=st.floats(0.0, 0.08),
        climb=st.floats(-0.05, 0.05),
        v_init=st.floats(-20.0, 15.0),
    )
    def test_same_optimum_and_working_set(self, te_max, gamma, n, grade_seed, steepness,
                                          climb, v_init):
        params = VehicleParams(te_max=te_max)
        lin = linearize(params, 30.0)
        grades = np.random.default_rng(grade_seed).uniform(-steepness, steepness, n) + climb
        problem, full = build_pair(gamma, lin, grades, v_init, params, v_ref=30.0)
        sol = mpc.solve(problem)
        z, working, in_mult, _ = solve_full(full)
        v, te, slack = full.split(z)
        plan = np.concatenate([v, te, np.maximum(slack, 0.0)])
        assert np.max(np.abs(as_vector(sol) - plan)) <= 1e-8
        # on degenerate windows the two paths may end with different weakly
        # active rows: met with equality and carrying no multiplier
        for row in set(sol.working_set) ^ set(working):
            assert in_mult[row] <= 1e-9
            assert abs(full.a_in[row] @ z - full.b_in[row]) <= 1e-9
        assert sol.kkt_residual <= 1e-6
        assert kkt_residual(full, sol) <= 1e-6


class TestKktResidual:
    def test_perturbation_strictly_increases_residual(self, params, lin):
        problem, full = make_problem(params, lin, seed=6)
        sol = mpc.solve(problem)
        base = kkt_residual(full, sol)
        z = as_vector(sol).copy()
        z[5] += 1e-3
        assert kkt_residual(full, z) > base + 1e-9

    def test_zero_problem_zero_point(self, params, lin):
        _, full = build_pair(0.0, lin, np.zeros(5), 0.0, params, v_ref=30.0)
        assert kkt_residual(full, np.zeros(full.n_vars)) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self, params, lin):
        _, full = build_pair(0.0, lin, np.zeros(5), 0.0, params, lin.v_lin)
        with pytest.raises(ValueError):
            kkt_residual(full, np.zeros(3))

