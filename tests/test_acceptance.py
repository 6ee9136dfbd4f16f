"""Acceptance suite: one test per shipping criterion, all tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS line per criterion alongside the pytest verdicts.  The heavyweight
artifacts (a 100 km training pipeline and three 30 km evaluation sweeps) are
built once per session and shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import EXACT_TINY_SEEDS, enumerate_optimum, make_tiny_instance
from ecocruise import invopt, mpc, net
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.harness import Artifacts, ControllerSpec, SweepRow, pareto_sweep, run
from ecocruise.invopt import detect_active, recover_weights
from ecocruise.net import TrainConfig, evaluate, make_dataset, train
from ecocruise.road import DS, gen_sinusoidal
from ecocruise.vehicle import accel, linearize, next_velocity
from oracles import as_vector, build_pair, integrate_fine

V_REF = 30.0
TRAIN_ROAD_SEED = 101
TRAIN_ROAD_KM = 100.0
EVAL_ROAD_SEEDS = (2, 13, 14)
EVAL_ROAD_KM = 30.0
GAMMA_LADDER = (0.0002, 0.0005, 0.001, 0.002, 0.003, 0.005, 0.008, 0.012)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def lin(params):
    return linearize(params, V_REF)


@dataclass
class TrainedPipeline:
    road: object
    series: object
    model: object
    history: object
    test_metrics: object
    at_result: object
    pt_result: object


@pytest.fixture(scope="session")
def trained(params, lin) -> TrainedPipeline:
    """Training road, global optimum, recovered weights, fitted predictor,
    and the two closed-loop runs the agreement criteria compare."""
    road = gen_sinusoidal(seed=TRAIN_ROAD_SEED, length_m=TRAIN_ROAD_KM * 1000.0)
    solution = dp_solve(params, road, DpConfig.default(params, V_REF, dvavg=0.05))
    series = invopt.gamma_series(solution, road, lin, params, 60, v_ref=V_REF)
    dataset = make_dataset(road, series, V_REF)
    model, history = train(dataset, TrainConfig(seed=3))
    test_metrics = evaluate(
        model,
        dataset.features[history.test_indices],
        dataset.targets[history.test_indices],
    )
    at_result = run(
        ControllerSpec(kind="AT_MPC", v_ref=V_REF, v_i=V_REF),
        road, params, Artifacts(model=model, lin=lin),
    )
    pt_result = run(
        ControllerSpec(kind="PT_MPC", v_ref=V_REF, v_i=V_REF),
        road, params, Artifacts(series=series, lin=lin),
    )
    return TrainedPipeline(road, series, model, history, test_metrics, at_result, pt_result)


@pytest.fixture(scope="session")
def eval_sweeps(params, lin, trained) -> dict[int, list[SweepRow]]:
    """Full controller comparison on each evaluation road."""
    sweeps = {}
    for seed in EVAL_ROAD_SEEDS:
        road = gen_sinusoidal(seed=seed, length_m=EVAL_ROAD_KM * 1000.0)
        solution = dp_solve(params, road, DpConfig.default(params, V_REF, dvavg=0.05))
        series = invopt.gamma_series(solution, road, lin, params, 60, v_ref=V_REF)
        artifacts = Artifacts(model=trained.model, series=series,
                              dp_solution=solution, lin=lin)
        sweeps[seed] = pareto_sweep(road, params, list(GAMMA_LADDER), artifacts, V_REF)
    return sweeps


class TestCriterion1WeightRecovery:
    def test_round_trip_recovery_within_one_percent(self, params, lin):
        """50 randomized interior instances; relative error <= 1%; < 1 min."""
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            gamma_true = float(10 ** rng.uniform(-4, -2))
            grades = rng.uniform(-0.05, 0.05, 60)
            v_init = float(rng.uniform(-1.0, 1.0))
            problem = mpc.build(gamma_true, lin, grades, v_init, params, v_ref=V_REF)
            sol = mpc.solve(problem)
            active = detect_active(sol.v[None], sol.te[None], lin, params)
            assert not active.any(), f"trial {trial} not interior"
            assert np.max(sol.slack) == 0.0
            rec = recover_weights(sol.v[None], sol.te[None], lin, params, V_REF)
            rel = abs(rec.gamma[0] - gamma_true) / gamma_true
            worst = max(worst, rel)
            assert rel <= 0.01, f"trial {trial}: {rel:.3%} off"
        elapsed = time.perf_counter() - start
        _report("1 weight recovery", worst <= 0.01 and elapsed < 60,
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")
        assert elapsed < 60


class TestCriterion2DpExactness:
    def test_matches_enumeration_on_ten_instances(self, params):
        """Cost and argmin identical to brute force; < 1 min."""
        start = time.perf_counter()
        for seed in EXACT_TINY_SEEDS:
            inst = make_tiny_instance(seed, params)
            best_cost, best_seq = enumerate_optimum(params, inst.road, inst.config)
            assert best_seq is not None
            solution = dp_solve(params, inst.road, inst.config)
            assert np.array_equal(solution.trajectory.te, best_seq), f"seed {seed}"
            assert solution.total_fuel == pytest.approx(best_cost, abs=1e-12)
        elapsed = time.perf_counter() - start
        _report("2 DP exactness", elapsed < 60, f"10/10 exact, {elapsed:.1f}s")
        assert elapsed < 60


class TestCriterion3QpCertification:
    def test_kkt_residual_and_random_point_dominance(self, params, lin):
        """Residual <= 1e-6 and better than 1000 random feasible points,
        on 20 random instances."""
        rng = np.random.default_rng(7)
        worst_res = 0.0
        for trial in range(20):
            gamma = float(10 ** rng.uniform(-4, -1.3))
            grades = rng.uniform(-0.05, 0.05, 60)
            v_init = float(rng.uniform(-2.0, 2.0))
            problem, full = build_pair(gamma, lin, grades, v_init, params, v_ref=V_REF)
            sol = mpc.solve(problem)
            assert sol.kkt_residual <= 1e-6
            worst_res = max(worst_res, sol.kkt_residual)

            n = problem.n
            v_lo, v_hi, t_lo, t_hi = problem.bounds
            te = rng.uniform(t_lo, t_hi, size=(1000, n))
            v = np.empty((1000, n + 1))
            v[:, 0] = full.v_init
            for k in range(n):
                v[:, k + 1] = (lin.a_coef * v[:, k] + lin.b1 * te[:, k]
                               + lin.b2 * full.grade_window[k])
            slack = np.maximum.reduce(
                [np.zeros((1000, n)), v[:, 1:] - v_hi, v_lo - v[:, 1:]]
            ) + rng.uniform(0.0, 0.05, size=(1000, n))
            z = np.hstack([v, te, slack])
            objs = 0.5 * np.einsum("ij,jk,ik->i", z, full.h_mat, z) \
                + z @ full.c_vec + full.const
            assert np.min(objs) >= full.objective_at(as_vector(sol)) - 1e-10
        _report("3 QP certification", True, f"worst residual {worst_res:.2e}")


class TestCriterion4FuelImprovement:
    def test_dp_beats_pi_by_two_percent_average(self, eval_sweeps):
        """Global-optimum replay vs the conventional tracker on hilly roads."""
        start = time.perf_counter()
        gains = []
        for seed, rows in eval_sweeps.items():
            dp_row = next(r for r in rows if r.controller == "DP_REPLAY")
            pi_row = next(r for r in rows if r.controller == "PI")
            assert not dp_row.error and not pi_row.error
            gains.append(100.0 * (dp_row.fuel_economy_km_per_kg
                                  / pi_row.fuel_economy_km_per_kg - 1.0))
        mean_gain = float(np.mean(gains))
        _report("4 fuel improvement",
                mean_gain >= 2.0,
                "gains " + ", ".join(f"{g:+.2f}%" for g in gains)
                + f"; mean {mean_gain:+.2f}%")
        assert mean_gain >= 2.0
        assert time.perf_counter() - start < 1800

    def test_each_road_positive_gain(self, eval_sweeps):
        for seed, rows in eval_sweeps.items():
            dp_row = next(r for r in rows if r.controller == "DP_REPLAY")
            pi_row = next(r for r in rows if r.controller == "PI")
            assert dp_row.fuel_economy_km_per_kg > pi_row.fuel_economy_km_per_kg


class TestCriterion5ParetoProximity:
    def test_auto_tuned_point_on_fixed_weight_front(self, eval_sweeps):
        """AT point within 1.5% economy of the interpolated fixed front at
        matched average velocity (+/- 0.5 m/s) on each road."""
        worst = 0.0
        for seed, rows in eval_sweeps.items():
            fixed = sorted(
                ((r.avg_velocity_mps, r.fuel_economy_km_per_kg)
                 for r in rows if r.controller == "FIXED_LMPC" and not r.error)
            )
            at_row = next(r for r in rows if r.controller == "AT_MPC")
            assert not at_row.error
            xs = np.array([f[0] for f in fixed])
            ys = np.array([f[1] for f in fixed])
            assert xs[0] - 0.5 <= at_row.avg_velocity_mps <= xs[-1] + 0.5, (
                f"road {seed}: AT average velocity unmatched by the ladder"
            )
            front = float(np.interp(at_row.avg_velocity_mps, xs, ys))
            dev = 100.0 * abs(at_row.fuel_economy_km_per_kg - front) / front
            worst = max(worst, dev)
            assert dev <= 1.5, f"road {seed}: {dev:.2f}% off the front"
        _report("5 Pareto proximity", worst <= 1.5, f"worst deviation {worst:.2f}%")


class TestCriterion6AtPtAgreement:
    def test_total_fuel_within_one_percent_on_training_road(self, trained):
        diff = abs(trained.at_result.total_fuel_kg - trained.pt_result.total_fuel_kg)
        rel = 100.0 * diff / trained.pt_result.total_fuel_kg
        _report("6 AT/PT agreement", rel < 1.0, f"fuel difference {rel:.3f}%")
        assert rel < 1.0


class TestCriterion7PredictorQuality:
    def test_held_out_error_bounds(self, trained):
        m = trained.test_metrics
        ok = m.mse_scaled <= 5e-3 and m.mae_scaled <= 5e-2
        _report("7 predictor quality", ok,
                f"scaled mse {m.mse_scaled:.2e} (<=5e-3), mae {m.mae_scaled:.2e} (<=5e-2)")
        assert m.mse_scaled <= 5e-3
        assert m.mae_scaled <= 5e-2


class TestCriterion8Latency:
    def test_median_controller_step_under_budget(self, trained):
        med = trained.at_result.median_step_s
        _report("8 step latency", med <= 0.5, f"median AT step {med * 1e3:.1f} ms")
        assert med <= 0.5


class TestCriterion9DynamicsConsistency:
    def test_truncation_error_halves_with_step(self, params):
        rng = np.random.default_rng(3)
        ratios = []
        agreements = []
        for _ in range(100):
            v = rng.uniform(18.0, 38.0)
            te = rng.uniform(0.0, 220.0)
            phi = rng.uniform(-0.05, 0.05)
            exact = integrate_fine(params, v, te, phi, DS)
            coarse = next_velocity(params, v, te, phi)

            def half_step(u):
                # next_velocity's operation order at half the road step
                return u + (DS / 2) * accel(params, u, te, phi) / u
            two_halves = half_step(half_step(v))
            e1 = abs(coarse - exact)
            e2 = abs(two_halves - exact)
            agreements.append(e1)
            if e1 > 1e-10:
                ratios.append(e1 / e2)
        mean_ratio = float(np.mean(ratios))
        worst = float(np.max(agreements))
        _report("9 dynamics consistency", 1.6 < mean_ratio < 2.6,
                f"error ratio {mean_ratio:.2f} (target ~2), worst gap {worst:.2e} m/s")
        assert 1.6 < mean_ratio < 2.6
        assert worst < 0.05
