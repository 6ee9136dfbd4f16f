"""Tests for cost-weight recovery from observed optimal trajectories."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ecocruise import invopt, mpc
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.invopt import (
    ACTIVE_TOL,
    detect_active,
    gamma_series,
    read_gamma_csv,
    recover_weights,
    write_gamma_csv,
)
from ecocruise.qp import solve_qp
from ecocruise.road import RoadProfile
from ecocruise.vehicle import VehicleParams, linearize
from oracles import build_pair, solve_full


@pytest.fixture(scope="module")
def lin(params):
    return linearize(params, 30.0)


def solved_window(params, lin, gamma, seed=0, v_init=0.2, n=60):
    """The full-space program of a random window, its solved plan and its grades."""
    rng = np.random.default_rng(seed)
    grades = rng.uniform(-0.05, 0.05, n)
    problem, full = build_pair(gamma, lin, grades, v_init, params, v_ref=30.0)
    solution = mpc.solve(problem)
    return full, solution, grades


def recover_one(v, te, lin, params, v_ref=30.0):
    """Weight, residual and flag of one window, as a one-window stack."""
    fit = recover_weights(np.asarray(v)[None], np.asarray(te)[None], lin, params, v_ref)
    return fit.gamma[0], fit.residuals[0], fit.flags[0]


def stationarity_system(v, te, lin, params, v_ref=30.0):
    """The unprojected system of one window, built without invopt's
    projection: ``q @ [gamma | p(0..N) | q_active] = b`` over the window's
    velocity and torque rows, with the square roots of the linearly
    decaying row weights.  The oracle the fits are checked against."""
    n = len(te)
    program = mpc.horizon_program(lin, n)
    z = np.concatenate([v, te, np.zeros(n)])
    active = detect_active(np.asarray(v)[None], np.asarray(te)[None], lin, params)[0]
    rows = slice(0, 2 * n + 1)
    q = np.hstack([program.fuel_gradient(z)[rows, None], program.a_eq[:, rows].T,
                   program.a_in[: 4 * n][active, rows].T])
    b = -program.rest_gradient(z, v_ref - lin.v_lin)[rows]
    steps = np.arange(n + 1)
    sqrt_r = np.sqrt(np.concatenate([(n - steps) / n, (n - steps[:n]) / n]))
    return q, b, sqrt_r, int(active.sum())


def oracle_fit(v, te, lin, params, v_ref=30.0):
    """Weighted least squares over every unknown of the unprojected system,
    the weight and the bound multipliers nonnegative, by the general QP."""
    q, b, sqrt_r, n_active = stationarity_system(v, te, lin, params, v_ref)
    a, rhs = sqrt_r[:, None] * q, sqrt_r * b
    n_cols = a.shape[1]
    nonneg = [0, *range(n_cols - n_active, n_cols)]
    y = solve_qp(2.0 * a.T @ a, -2.0 * a.T @ rhs, -np.eye(n_cols)[nonneg],
                 np.zeros(len(nonneg)), np.zeros(n_cols)).x
    y[nonneg] = np.maximum(y[nonneg], 0.0)
    return y, a, rhs


def capped_bound_window():
    """A plan whose torque rides the 150 N·m ceiling on a steep climb."""
    capped = VehicleParams(te_max=150.0)
    lin_c = linearize(capped, 30.0)
    grades = np.concatenate([np.full(20, 0.045), np.zeros(40)])
    sol = mpc.solve(mpc.build(0.002, lin_c, grades, 0.0, capped, v_ref=30.0))
    return capped, lin_c, sol


class TestDetectActive:
    def test_interior_window_is_empty(self, params, lin):
        _, sol, _ = solved_window(params, lin, 0.003)
        assert not detect_active(sol.v[None], sol.te[None], lin, params).any()

    def test_torque_ceiling_lands_in_first_block(self, params, lin):
        n = 10
        te = np.zeros(n)
        te[4] = params.te_max - lin.te_lin  # exactly at the upper bound
        active = detect_active(np.zeros((1, n + 1)), te[None], lin, params)
        assert np.flatnonzero(active).tolist() == [4]

    def test_velocity_floor_lands_in_last_block(self, params, lin):
        n = 8
        v = np.zeros(n + 1)
        v[3] = params.v_min - lin.v_lin
        active = detect_active(v[None], np.zeros((1, n)), lin, params)
        assert np.flatnonzero(active).tolist() == [3 * n + 2]  # bound on v(1..N), j=2

    def test_tolerance_controls_grazing_detection(self, params, lin):
        n = 6
        for gap, active in ((0.1 * ACTIVE_TOL, [0]), (10 * ACTIVE_TOL, [])):
            te = np.zeros(n)
            te[0] = params.te_max - lin.te_lin - gap  # grazes the ceiling within ACTIVE_TOL or not
            mask = detect_active(np.zeros((1, n + 1)), te[None], lin, params)
            assert np.flatnonzero(mask).tolist() == active


class TestBuildKkt:
    def test_forward_solve_multipliers_satisfy_system(self, params, lin):
        gamma = 0.004
        full, _, _ = solved_window(params, lin, gamma, seed=5, v_init=0.3)
        z, _, _, eq_mult = solve_full(full)
        v, te, _ = full.split(z)
        q, b, _, n_active = stationarity_system(v, te, lin, params)
        assert n_active == 0
        y = np.concatenate([[gamma], eq_mult])
        assert np.linalg.norm(q @ y - b) <= 1e-8
        weight, residual, flag = recover_one(v, te, lin, params)
        assert weight == pytest.approx(gamma, rel=1e-8)
        assert residual <= 1e-8
        assert flag == ""

    def test_row_weights_decay_linearly_from_one(self, lin):
        n = 10
        r_weights = invopt._fit_basis(lin, n)[0] ** 2
        assert r_weights[0] == 1.0
        assert r_weights[n] == 0.0  # last velocity row
        assert r_weights[n + 1] == 1.0  # first torque row
        v_rows = r_weights[: n + 1]
        assert np.allclose(np.diff(v_rows), -1.0 / n)


class TestRecoverGamma:
    def test_round_trip_interior(self, params, lin):
        for gamma in (1e-4, 0.003, 0.01):
            _, sol, _ = solved_window(params, lin, gamma, seed=3)
            weight, _, flag = recover_one(sol.v, sol.te, lin, params)
            assert weight == pytest.approx(gamma, rel=1e-6)
            assert flag == ""

    def test_round_trip_with_active_torque_bound(self):
        capped, lin_c, sol = capped_bound_window()
        assert np.max(sol.te) == pytest.approx(capped.te_max - lin_c.te_lin, abs=1e-8)
        assert detect_active(sol.v[None], sol.te[None], lin_c, capped).any()
        weight, _, flag = recover_one(sol.v, sol.te, lin_c, capped)
        assert weight == pytest.approx(0.002, rel=1e-4)
        assert flag == ""

    def test_interior_matches_normal_equations_oracle(self, params, lin):
        _, sol, _ = solved_window(params, lin, 0.005, seed=9)
        q, b, sqrt_r, n_active = stationarity_system(sol.v, sol.te, lin, params)
        assert n_active == 0
        a = sqrt_r[:, None] * q
        y_ls = np.linalg.solve(a.T @ a, a.T @ (sqrt_r * b))
        assert y_ls[0] >= 0  # interior instance: sign constraint inactive
        assert recover_one(sol.v, sol.te, lin, params)[0] == pytest.approx(y_ls[0], abs=1e-8)

    def test_bound_windows_match_sign_constrained_oracle(self, params, lin):
        """Windows meeting bounds, inexact ones included: the projected fit
        and the general QP over every unknown agree on the weight and the
        residual."""
        capped, lin_c, sol = capped_bound_window()
        cases = [(capped, lin_c, sol.v, sol.te)]
        for seed, lo, hi in ((5, 0, 15), (7, 30, 45), (11, 50, 60)):
            _, sol, _ = solved_window(params, lin, 0.003, seed=seed)
            te = sol.te.copy()
            te[lo:hi] += 2.0  # off the plan: the system is no longer consistent
            te[lo] = params.te_max - lin.te_lin  # and one torque on its ceiling
            cases.append((params, lin, sol.v, te))
        for case_params, case_lin, v, te in cases:
            assert detect_active(v[None], te[None], case_lin, case_params).any()
            y, a, rhs = oracle_fit(v, te, case_lin, case_params)
            weight, residual, flag = recover_one(v, te, case_lin, case_params)
            assert flag == ""
            assert weight == pytest.approx(y[0], abs=1e-9)
            assert residual == pytest.approx(np.linalg.norm(a @ y - rhs), rel=1e-6, abs=1e-9)

    def test_feasible_perturbations_increase_residual(self, params, lin):
        _, sol, _ = solved_window(params, lin, 0.003, seed=13)
        te = sol.te + 0.5  # inexact, so the minimum residual is positive
        _, residual, _ = recover_one(sol.v, te, lin, params)
        y_opt, a, rhs = oracle_fit(sol.v, te, lin, params)
        assert residual > 0.0
        rng = np.random.default_rng(0)
        for _ in range(30):
            y = y_opt + rng.normal(scale=1e-3, size=len(y_opt))
            y[0] = max(y[0], 0.0)
            assert np.linalg.norm(a @ y - rhs) >= residual - 1e-12

    def test_early_window_errors_move_gamma_more(self, params, lin):
        _, sol, _ = solved_window(params, lin, 0.003, seed=5)
        base = recover_one(sol.v, sol.te, lin, params)[0]

        def perturbed(lo, hi):
            te = sol.te.copy()
            te[lo:hi] += 2.0
            return recover_one(sol.v, te, lin, params)[0]

        early = abs(perturbed(0, 15) - base)
        late = abs(perturbed(45, 60) - base)
        assert early > late

    def test_rank_deficient_system_flagged(self, params, lin):
        # a one-step horizon: the two multipliers absorb both weighted rows,
        # so the weight column projects to zero and the weight is unidentifiable
        weight, residual, flag = recover_one(np.array([0.3, 0.1]), np.array([2.0]), lin, params)
        assert flag == "degenerate"
        assert weight == 0.0 and residual == 0.0

    def test_every_torque_on_a_bound_returns_the_clipped_minimum_norm_fit(self):
        capped = VehicleParams(te_max=150.0)
        lin_c = linearize(capped, 30.0)
        n = 50
        grades = np.full(n, 0.03)
        te = np.full(n, capped.te_max - lin_c.te_lin)
        v = np.zeros(n + 1)
        for k in range(n):
            v[k + 1] = lin_c.a_coef * v[k] + lin_c.b1 * te[k] + lin_c.b2 * grades[k]
        q, b, sqrt_r, n_active = stationarity_system(v, te, lin_c, capped)
        assert n_active == n
        # project the free multiplier columns out, then take the minimum-norm
        # fit, counting singular values below the degeneracy threshold as 0
        a, rhs = sqrt_r[:, None] * q, sqrt_r * b
        m = a[:, 1 : n + 2]
        proj = np.eye(len(a)) - m @ np.linalg.pinv(m)
        fit = proj @ np.delete(a, np.s_[1 : n + 2], axis=1)
        expected = np.linalg.lstsq(fit, proj @ rhs, rcond=invopt.DEGENERACY_RCOND)[0]
        expected = np.maximum(expected, 0.0)
        weight, residual, flag = recover_one(v, te, lin_c, capped)
        assert flag == "degenerate"
        assert weight == pytest.approx(expected[0], rel=1e-9, abs=1e-15)
        assert residual == pytest.approx(np.linalg.norm(fit @ expected - proj @ rhs), rel=1e-9)


class TestRoundTripThroughTheController:
    """The weight a plan was solved with comes back from the plan alone, on
    the windows invopt models (zero velocity slack), torque bounds binding
    included.  Draws as in ``test_mpc.TestCondensedMatchesFullSpace``."""

    @settings(max_examples=60, deadline=None)
    @given(
        te_max=st.sampled_from([150.0, 240.0]),
        gamma=st.floats(-4.0, -1.0).map(lambda e: 10.0**e),
        n=st.integers(1, 60),
        grade_seed=st.integers(0, 2**32 - 1),
        steepness=st.floats(0.0, 0.08),
        climb=st.floats(-0.05, 0.05),
        v_init=st.floats(-20.0, 15.0),
    )
    def test_weight_recovered_on_every_non_degenerate_window(
            self, te_max, gamma, n, grade_seed, steepness, climb, v_init):
        params = VehicleParams(te_max=te_max)
        lin = linearize(params, 30.0)
        grades = np.random.default_rng(grade_seed).uniform(-steepness, steepness, n) + climb
        sol = mpc.solve(mpc.build(gamma, lin, grades, v_init, params, v_ref=30.0))
        assume(np.max(sol.slack) == 0.0)
        rec = recover_weights(sol.v[None], sol.te[None], lin, params, 30.0)
        if rec.flags[0] != "degenerate":
            # worst seen over 2100 random non-degenerate windows: 3.5e-6
            assert rec.gamma[0] == pytest.approx(gamma, rel=1e-4)


class TestStackedRecovery:
    """A window's fit depends on that window alone: recovering a stack gives
    what recovering each window on its own gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        te_max=st.sampled_from([150.0, 240.0]),
        n=st.integers(1, 60),
        plans=st.lists(st.tuples(
            st.floats(-4.0, -1.0).map(lambda e: 10.0**e),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 0.08),
            st.floats(-0.05, 0.05),
            st.floats(-20.0, 15.0),
        ), min_size=2, max_size=6),
    )
    def test_stack_equals_each_window_alone(self, te_max, n, plans):
        params = VehicleParams(te_max=te_max)
        lin = linearize(params, 30.0)
        sols = []
        for gamma, grade_seed, steepness, climb, v_init in plans:
            grades = np.random.default_rng(grade_seed).uniform(-steepness, steepness, n) + climb
            sols.append(mpc.solve(mpc.build(gamma, lin, grades, v_init, params, v_ref=30.0)))
        stack = recover_weights(np.array([s.v for s in sols]), np.array([s.te for s in sols]),
                                lin, params, 30.0)
        for i, sol in enumerate(sols):
            weight, _, flag = recover_one(sol.v, sol.te, lin, params)
            assert stack.flags[i] == flag
            assert abs(stack.gamma[i] - weight) <= 1e-15

    def test_window_shapes_checked(self, params, lin):
        with pytest.raises(ValueError, match="one row"):
            recover_weights(np.zeros((2, 11)), np.zeros((2, 9)), lin, params, 30.0)


@pytest.fixture(scope="module")
def flat_setup(params):
    lin = linearize(params, 30.0)
    road = RoadProfile.from_elevation(np.zeros(201))
    cfg = DpConfig.default(params, 30.0, v_span=4.0)
    solution = dp_solve(params, road, cfg)
    series = gamma_series(solution, road, lin, params, 60, v_ref=30.0)
    return road, series


class TestGammaSeries:
    def test_steady_cruise_gives_near_constant_series(self, flat_setup):
        # regression pin: windows that see only steady cruising recover a
        # numerically zero weight; the terminal glide only enters later rows
        _, series = flat_setup
        head = series.gamma[:120]
        assert np.max(np.abs(head)) < 1e-6
        assert float(np.std(head)) < 1e-6
        assert all(not f for f in series.flags[:120])

    def test_length_and_invariants(self, flat_setup):
        road, series = flat_setup
        assert len(series) == road.n_steps
        assert np.all(series.gamma >= 0.0)
        assert np.all(series.residuals >= 0.0)

    def test_trajectory_must_cover_road(self, params, flat_setup):
        road, _ = flat_setup
        lin = linearize(params, 30.0)
        short = RoadProfile.from_elevation(np.zeros(150))
        cfg = DpConfig.default(params, 30.0, v_span=4.0)
        solution = dp_solve(params, short, cfg)
        with pytest.raises(ValueError, match="cover"):
            gamma_series(solution, road, lin, params, 60, lin.v_lin)

    def test_csv_roundtrip(self, flat_setup, tmp_path):
        _, series = flat_setup
        path = tmp_path / "gammas.csv"
        write_gamma_csv(series, path, header_lines=["labels"])
        back = read_gamma_csv(path)
        assert len(back) == len(series)
        assert np.allclose(back.gamma, series.gamma, atol=1e-12)
        assert back.flags == series.flags
