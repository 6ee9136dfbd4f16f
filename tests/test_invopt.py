"""Tests for cost-weight recovery from observed optimal trajectories."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ecocruise import invopt, mpc
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.invopt import (
    ACTIVE_TOL,
    DeviationWindow,
    GammaSeries,
    KktSystem,
    build_kkt,
    detect_active,
    gamma_series,
    read_gamma_csv,
    recover_gamma,
    window_from_absolute,
    write_gamma_csv,
)
from ecocruise.qp import solve_qp
from ecocruise.road import RoadProfile
from ecocruise.vehicle import VehicleParams, linearize


@pytest.fixture(scope="module")
def lin(params):
    return linearize(params, 30.0)


def solved_window(params, lin, gamma, seed=0, v_init=0.2, n=60):
    rng = np.random.default_rng(seed)
    grades = rng.uniform(-0.05, 0.05, n)
    problem = mpc.build(gamma, lin, grades, v_init, params, v_ref=30.0)
    solution = mpc.solve(problem)
    return problem, solution, grades


class TestDetectActive:
    def test_interior_window_is_empty(self, params, lin):
        _, sol, _ = solved_window(params, lin, 0.003)
        window = DeviationWindow(sol.v, sol.te)
        assert detect_active(window, lin, params) == ()

    def test_torque_ceiling_lands_in_last_block(self, params, lin):
        n = 10
        te = np.zeros(n)
        te[4] = params.te_max - lin.te_lin  # exactly at the upper bound
        window = DeviationWindow(np.zeros(n + 1), te)
        active = detect_active(window, lin, params)
        assert active == (3 * n + 4,)

    def test_velocity_floor_lands_in_first_block(self, params, lin):
        n = 8
        v = np.zeros(n + 1)
        v[3] = params.v_min - lin.v_lin
        window = DeviationWindow(v, np.zeros(n))
        assert detect_active(window, lin, params) == (2,)  # bound on v(1..N) slot j=2

    def test_tolerance_controls_grazing_detection(self, params, lin):
        n = 6
        for gap, active in ((0.1 * ACTIVE_TOL, (3 * n,)), (10 * ACTIVE_TOL, ())):
            te = np.zeros(n)
            te[0] = params.te_max - lin.te_lin - gap  # grazes the ceiling within ACTIVE_TOL or not
            window = DeviationWindow(np.zeros(n + 1), te)
            assert detect_active(window, lin, params) == active


class TestBuildKkt:
    def test_forward_solve_multipliers_satisfy_system(self, params, lin):
        gamma = 0.004
        problem, sol, grades = solved_window(params, lin, gamma, seed=5, v_init=0.3)
        res = solve_qp(
            problem.h_mat, problem.c_vec, problem.a_eq, problem.b_eq,
            problem.a_in, problem.b_in, mpc._feasible_start(problem),
        )
        v, te, _ = problem.split(res.x)
        kkt = build_kkt(DeviationWindow(v, te), grades, lin, params, (), v_ref=30.0)
        lam = res.eq_mult
        y = np.concatenate([[gamma], [-lam[0]], lam[1:]])
        assert np.linalg.norm(kkt.q_mat @ y - kkt.w_vec) <= 1e-8

    def test_zero_window_zero_grades_torque_rows_vanish(self, params, lin):
        n = 12
        kkt = build_kkt(
            DeviationWindow(np.zeros(n + 1), np.zeros(n)), np.zeros(n), lin, params, ()
        )
        assert np.all(kkt.w_vec[n + 1 :] == 0.0)

    def test_column_count_tracks_active_set(self, params, lin):
        n = 12
        window = DeviationWindow(np.zeros(n + 1), np.zeros(n))
        base = build_kkt(window, np.zeros(n), lin, params, ())
        grown = build_kkt(window, np.zeros(n), lin, params, (0, 3 * n + 2))
        assert base.q_mat.shape == (2 * n + 1, 1 + n + 1)
        assert grown.q_mat.shape[1] == base.q_mat.shape[1] + 2

    def test_row_weights_decay_linearly_from_one(self, params, lin):
        n = 10
        kkt = build_kkt(DeviationWindow(np.zeros(n + 1), np.zeros(n)), np.zeros(n), lin, params, ())
        assert kkt.r_weights[0] == 1.0
        assert kkt.r_weights[n] == 0.0  # last velocity row
        assert kkt.r_weights[n + 1] == 1.0  # first torque row
        v_rows = kkt.r_weights[: n + 1]
        assert np.allclose(np.diff(v_rows), -1.0 / n)

    def test_grade_window_length_checked(self, params, lin):
        with pytest.raises(ValueError):
            build_kkt(DeviationWindow(np.zeros(11), np.zeros(10)), np.zeros(9), lin, params, ())


class TestRecoverGamma:
    def test_round_trip_interior(self, params, lin):
        for gamma in (1e-4, 0.003, 0.01):
            _, sol, grades = solved_window(params, lin, gamma, seed=3)
            window = DeviationWindow(sol.v, sol.te)
            rec = recover_gamma(build_kkt(window, grades, lin, params, (), v_ref=30.0))
            assert rec.gamma == pytest.approx(gamma, rel=1e-6)
            assert not rec.degenerate

    def test_round_trip_with_active_torque_bound(self, lin):
        capped = VehicleParams(te_max=150.0)
        lin_c = linearize(capped, 30.0)
        grades = np.concatenate([np.full(20, 0.045), np.zeros(40)])
        problem = mpc.build(0.002, lin_c, grades, 0.0, capped, v_ref=30.0)
        sol = mpc.solve(problem)
        assert np.max(sol.te) == pytest.approx(capped.te_max - lin_c.te_lin, abs=1e-8)
        window = DeviationWindow(sol.v, sol.te)
        active = detect_active(window, lin_c, capped)
        assert len(active) > 0
        rec = recover_gamma(build_kkt(window, grades, lin_c, capped, active, v_ref=30.0))
        assert rec.gamma == pytest.approx(0.002, rel=1e-4)
        assert np.all(rec.y[len(rec.y) - len(active):] >= 0.0)

    def test_interior_matches_normal_equations_oracle(self, params, lin):
        _, sol, grades = solved_window(params, lin, 0.005, seed=9)
        kkt = build_kkt(DeviationWindow(sol.v, sol.te), grades, lin, params, (), v_ref=30.0)
        rec = recover_gamma(kkt)
        a = np.sqrt(kkt.r_weights)[:, None] * kkt.q_mat
        b = np.sqrt(kkt.r_weights) * kkt.w_vec
        y_ls = np.linalg.solve(a.T @ a, a.T @ b)
        assert y_ls[0] >= 0  # interior instance: sign constraint inactive
        assert rec.gamma == pytest.approx(y_ls[0], abs=1e-8)

    def test_weight_scaling_leaves_argmin_unchanged(self, params, lin):
        _, sol, grades = solved_window(params, lin, 0.002, seed=11)
        kkt = build_kkt(DeviationWindow(sol.v, sol.te), grades, lin, params, (), v_ref=30.0)
        scaled = KktSystem(
            q_mat=kkt.q_mat, w_vec=kkt.w_vec, r_weights=5.0 * kkt.r_weights,
            active_set=kkt.active_set, n=kkt.n,
        )
        assert recover_gamma(scaled).gamma == pytest.approx(recover_gamma(kkt).gamma, rel=1e-9)

    def test_feasible_perturbations_increase_residual(self, params, lin):
        _, sol, grades = solved_window(params, lin, 0.003, seed=13)
        kkt = build_kkt(DeviationWindow(sol.v, sol.te), grades, lin, params, (), v_ref=30.0)
        rec = recover_gamma(kkt)
        a = np.sqrt(kkt.r_weights)[:, None] * kkt.q_mat
        b = np.sqrt(kkt.r_weights) * kkt.w_vec
        rng = np.random.default_rng(0)
        for _ in range(30):
            step = rng.normal(scale=1e-3, size=len(rec.y))
            y = rec.y + step
            if y[0] < 0:
                y[0] = 0.0
            assert np.linalg.norm(a @ y - b) >= rec.residual - 1e-12

    def test_early_window_errors_move_gamma_more(self, params, lin):
        _, sol, grades = solved_window(params, lin, 0.003, seed=5)
        base = recover_gamma(
            build_kkt(DeviationWindow(sol.v, sol.te), grades, lin, params, (), v_ref=30.0)
        ).gamma

        def perturbed(lo, hi):
            te = sol.te.copy()
            te[lo:hi] += 2.0
            window = DeviationWindow(sol.v, te)
            active = detect_active(window, lin, params)
            return recover_gamma(build_kkt(window, grades, lin, params, active, v_ref=30.0)).gamma

        early = abs(perturbed(0, 15) - base)
        late = abs(perturbed(45, 60) - base)
        assert early > late

    def test_rank_deficient_system_flagged(self, params, lin):
        n = 4
        kkt = build_kkt(DeviationWindow(np.zeros(n + 1), np.zeros(n)), np.zeros(n), lin, params, ())
        # duplicate the weight column to force rank deficiency
        q = kkt.q_mat.copy()
        q = np.hstack([q, q[:, :1]])
        broken = KktSystem(q_mat=q, w_vec=kkt.w_vec, r_weights=kkt.r_weights,
                           active_set=(0,), n=n)
        assert recover_gamma(broken).degenerate

    def test_every_torque_on_a_bound_returns_the_clipped_minimum_norm_fit(self):
        capped = VehicleParams(te_max=150.0)
        lin_c = linearize(capped, 30.0)
        n = 50
        grades = np.full(n, 0.03)
        te = np.full(n, capped.te_max - lin_c.te_lin)
        v = np.zeros(n + 1)
        for k in range(n):
            v[k + 1] = lin_c.a_coef * v[k] + lin_c.b1 * te[k] + lin_c.b2 * grades[k]
        window = DeviationWindow(v, te)
        active = detect_active(window, lin_c, capped)
        assert len(active) == n
        kkt = build_kkt(window, grades, lin_c, capped, active, v_ref=30.0)
        rec = recover_gamma(kkt)
        a = np.sqrt(kkt.r_weights)[:, None] * kkt.q_mat
        b = np.sqrt(kkt.r_weights) * kkt.w_vec
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        nonneg = [kkt.gamma_col, *range(kkt.q_cols.start, kkt.q_cols.stop)]
        expected[nonneg] = np.maximum(expected[nonneg], 0.0)
        assert rec.degenerate
        assert rec.y.tobytes() == expected.tobytes()
        assert rec.residual == float(np.linalg.norm(a @ expected - b))


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
        window = DeviationWindow(sol.v, sol.te)
        kkt = build_kkt(window, grades, lin, params, detect_active(window, lin, params), 30.0)
        rec = recover_gamma(kkt)
        if not rec.degenerate:
            # worst seen over 2100 random non-degenerate windows: 3.5e-6
            assert rec.gamma == pytest.approx(gamma, rel=1e-4)


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
            gamma_series(solution, road, lin, params, 60)

    def test_csv_roundtrip(self, flat_setup, tmp_path):
        _, series = flat_setup
        path = tmp_path / "gammas.csv"
        write_gamma_csv(series, path, header_lines=["labels"])
        back = read_gamma_csv(path)
        assert len(back) == len(series)
        assert np.allclose(back.gamma, series.gamma, atol=1e-12)
        assert back.flags == series.flags
