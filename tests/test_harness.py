"""Tests for the closed-loop simulation harness and controller comparison."""

from __future__ import annotations

import numpy as np
import pytest

from ecocruise import harness
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.harness import (
    Artifacts,
    ControllerSpec,
    SimResult,
    SweepRow,
    pareto_sweep,
    read_sweep_csv,
    run,
    write_sweep_csv,
)
from ecocruise.invopt import GammaSeries
from ecocruise.qp import QpError
from ecocruise.road import DS, RoadProfile, gen_sinusoidal
from ecocruise.vehicle import StepFailure, Trajectory, fuel_per_meter


@pytest.fixture(scope="module")
def flat_road(params):
    return RoadProfile.from_elevation(np.zeros(101))


@pytest.fixture(scope="module")
def hilly_road():
    return gen_sinusoidal(seed=13, length_m=6000.0)


def make_trajectory(speeds, fuel=1e-5):
    speeds = np.asarray(speeds, dtype=float)
    n = len(speeds) - 1
    vavg = [speeds[0]]
    for k in range(n):
        vavg.append((k + 1) * DS / ((k * DS / vavg[-1] if k else 0.0) + DS / speeds[k]))
    return Trajectory(
        v=speeds,
        vavg=np.asarray(vavg),
        te=np.full(n, 100.0),
        fuel_per_m=np.full(n, fuel),
    )


class TestMetrics:
    def test_constant_speed_average_exact(self):
        traj = make_trajectory(np.full(101, 30.0))
        m = SimResult(traj)
        assert m.avg_velocity_mps == pytest.approx(30.0, abs=1e-12)
        assert m.distance_km == pytest.approx(3.0, rel=1e-12)

    def test_two_segment_harmonic_mean(self):
        # equal distances at 20 and 30 m/s average 24 m/s, not 25
        speeds = np.concatenate([np.full(50, 20.0), np.full(50, 30.0), [30.0]])
        m = SimResult(make_trajectory(speeds))
        assert m.avg_velocity_mps == pytest.approx(24.0, rel=1e-12)

    def test_zero_fuel_flagged_infinite(self):
        m = SimResult(make_trajectory(np.full(11, 30.0), fuel=0.0))
        assert np.isinf(m.fuel_economy_km_per_kg)

    def test_economy_is_distance_over_fuel(self):
        traj = make_trajectory(np.full(101, 30.0), fuel=2e-5)
        m = SimResult(traj)
        assert m.fuel_economy_km_per_kg == pytest.approx(
            m.distance_km / m.total_fuel_kg, rel=1e-12
        )


class TestTripAverage:
    """A drive's average velocity is the last value of the rollout's
    trip-average recursion, the one the DP constrains."""

    LADDER = [round(g, 4) for g in np.linspace(0.0005, 0.005, 10)]

    @pytest.mark.parametrize("gamma", [None, *LADDER])
    def test_is_the_rollouts_trip_average(self, params, gamma):
        road = gen_sinusoidal(seed=1, length_m=3000.0)
        spec = ControllerSpec(kind="PI" if gamma is None else "FIXED_LMPC", v_ref=30.0,
                              v_i=30.0, gamma=gamma or 0.0)
        res = run(spec, road, params)
        v = res.trajectory.v[:-1]
        assert res.avg_velocity_mps == res.trajectory.vavg[-1]
        assert res.avg_velocity_mps == pytest.approx(len(v) * DS / np.sum(DS / v),
                                                     rel=1e-12, abs=0.0)


class TestPiController:
    def test_flat_start_on_speed_stays_locked(self, params, flat_road):
        res = run(ControllerSpec(kind="PI", v_ref=30.0, v_i=30.0), flat_road, params)
        assert np.max(np.abs(res.trajectory.v - 30.0)) < 1e-9
        assert abs(res.avg_velocity_mps - 30.0) < 0.05

    def test_flat_off_speed_settles(self, params, flat_road):
        res = run(ControllerSpec(kind="PI", v_ref=30.0, v_i=28.0), flat_road, params)
        tail = res.trajectory.v[40:]
        assert np.max(np.abs(tail - 30.0)) < 0.1

    def test_torque_saturates_on_steep_climb(self, params):
        climb = RoadProfile.from_elevation(np.arange(101) * DS * 0.05)
        res = run(ControllerSpec(kind="PI", v_ref=30.0, v_i=30.0), climb, params)
        assert np.max(res.trajectory.te) <= params.te_max + 1e-9
        assert np.max(res.trajectory.te) == pytest.approx(params.te_max, abs=1e-6)


class TestRun:
    def test_sim_result_invariants(self, params, hilly_road):
        res = run(ControllerSpec(kind="PI", v_ref=30.0, v_i=30.0), hilly_road, params)
        traj = res.trajectory
        elapsed = float(np.sum(DS / traj.v[:-1]))
        assert res.avg_velocity_mps == pytest.approx(
            hilly_road.length_m / elapsed, abs=1e-9
        )
        assert res.fuel_economy_km_per_kg == pytest.approx(
            res.distance_km / res.total_fuel_kg, rel=1e-12
        )
        assert len(res.step_runtimes) == hilly_road.n_steps

    def test_fuel_accounting_matches_plant_rate(self, params, hilly_road):
        res = run(ControllerSpec(kind="PI", v_ref=30.0, v_i=30.0), hilly_road, params)
        traj = res.trajectory
        recomputed = fuel_per_meter(params, traj.v[:-1], traj.te)
        assert np.allclose(recomputed, traj.fuel_per_m, atol=1e-15)

    def test_fixed_zero_weight_tracks_set_point(self, params, flat_road):
        res = run(
            ControllerSpec(kind="FIXED_LMPC", v_ref=30.0, v_i=30.0, gamma=0.0),
            flat_road,
            params,
        )
        assert abs(res.avg_velocity_mps - 30.0) < 0.05

    def test_mpc_applies_only_first_input(self, params, flat_road):
        # one plant step per controller invocation: torque history length
        # equals the road segment count even though each solve plans 60 moves
        res = run(
            ControllerSpec(kind="FIXED_LMPC", v_ref=30.0, v_i=29.5, gamma=0.001),
            flat_road,
            params,
        )
        assert len(res.trajectory.te) == flat_road.n_steps

    def test_dp_replay_needs_solution(self, params, hilly_road):
        with pytest.raises(ValueError, match="global optimum"):
            run(ControllerSpec(kind="DP_REPLAY", v_ref=30.0, v_i=30.0), hilly_road, params)

    def test_dp_replay_beats_pi_on_hills(self, params, hilly_road):
        solution = dp_solve(params, hilly_road, DpConfig.default(params, 30.0, dvavg=0.05))
        dp_res = run(
            ControllerSpec(kind="DP_REPLAY", v_ref=30.0, v_i=30.0),
            hilly_road,
            params,
            Artifacts(dp_solution=solution),
        )
        pi_res = run(ControllerSpec(kind="PI", v_ref=30.0, v_i=30.0), hilly_road, params)
        assert dp_res.total_fuel_kg < pi_res.total_fuel_kg
        assert dp_res.avg_velocity_mps >= 30.0 - 1e-6

    def test_velocity_collapse_reported_with_position(self, params):
        # absurd sustained 5% climb with a crippled engine
        climb = RoadProfile.from_elevation(np.arange(300) * DS * 0.05)
        from ecocruise.vehicle import VehicleParams

        weak = VehicleParams(te_max=240.0, te_min=-30.0, v_min=1.0, v_max=40.0)
        with pytest.raises(StepFailure, match="position"):
            run(ControllerSpec(kind="DP_REPLAY", v_ref=30.0, v_i=5.0), climb, weak,
                Artifacts(dp_solution=_fake_dp(np.zeros(299))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ControllerSpec(kind="LQR", v_ref=30.0, v_i=30.0)


def _fake_dp(te_seq):
    from ecocruise.dp import DpSolution

    n = len(te_seq)
    traj = Trajectory(
        v=np.full(n + 1, 30.0),
        vavg=np.full(n + 1, 30.0),
        te=np.asarray(te_seq, dtype=float),
        fuel_per_m=np.zeros(n),
    )
    return DpSolution(trajectory=traj)


class TestParetoSweep:
    def test_single_gamma_gives_five_rows(self, params, flat_road):
        series = GammaSeries(
            gamma=np.full(flat_road.n_steps, 0.002),
            residuals=np.zeros(flat_road.n_steps),
            flags=("",) * flat_road.n_steps,
        )
        solution = dp_solve(params, flat_road, DpConfig.default(params, 30.0, v_span=4.0))
        rows = pareto_sweep(
            flat_road, params, [0.003],
            Artifacts(series=series, dp_solution=solution, model=_constant_model(0.002)),
            v_ref=30.0,
        )
        assert len(rows) == 5
        assert [r.controller for r in rows] == [
            "FIXED_LMPC", "AT_MPC", "PT_MPC", "PI", "DP_REPLAY",
        ]
        assert all(not r.error for r in rows)

    def test_failures_recorded_not_raised(self, params, flat_road):
        rows = pareto_sweep(flat_road, params, [0.001], Artifacts(), v_ref=30.0)
        at_row = next(r for r in rows if r.controller == "AT_MPC")
        dp_row = next(r for r in rows if r.controller == "DP_REPLAY")
        assert at_row.error and dp_row.error
        fixed = next(r for r in rows if r.controller == "FIXED_LMPC")
        assert not fixed.error

    def test_predictor_of_another_input_width_fails_only_its_row(self, params, flat_road):
        series = GammaSeries(gamma=np.full(flat_road.n_steps, 0.002),
                             residuals=np.zeros(flat_road.n_steps),
                             flags=("",) * flat_road.n_steps)
        solution = dp_solve(params, flat_road, DpConfig.default(params, 30.0, v_span=4.0))
        model = _constant_model(0.002, inputs=51)
        rows = pareto_sweep(flat_road, params, [0.003],
                            Artifacts(series=series, dp_solution=solution, model=model),
                            v_ref=30.0)
        at_row = next(r for r in rows if r.controller == "AT_MPC")
        assert "takes 51 inputs" in at_row.error and "101" in at_row.error
        assert np.isnan(at_row.fuel_economy_km_per_kg)
        assert all(not r.error for r in rows if r.controller != "AT_MPC")

    def test_controller_bug_propagates(self, params, flat_road, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in the controller")

        monkeypatch.setattr(harness.mpc, "build", broken)
        with pytest.raises(ValueError, match="bug in the controller"):
            pareto_sweep(flat_road, params, [0.001], Artifacts(), v_ref=30.0)

    def test_solver_failure_recorded_not_raised(self, params, flat_road, monkeypatch):
        def failing(*args, **kwargs):
            raise QpError("did not converge")

        monkeypatch.setattr(harness.mpc, "solve", failing)
        rows = pareto_sweep(flat_road, params, [0.001, 0.002], Artifacts(), v_ref=30.0)
        fixed = [r for r in rows if r.controller == "FIXED_LMPC"]
        assert [r.error for r in fixed] == ["did not converge"] * 2
        assert all(np.isnan(r.fuel_economy_km_per_kg) for r in fixed)
        assert not next(r for r in rows if r.controller == "PI").error

    def test_ladder_must_ascend(self, params, flat_road):
        with pytest.raises(ValueError):
            pareto_sweep(flat_road, params, [0.003, 0.001], Artifacts(), v_ref=30.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_rung_is_bad_input(self, params, flat_road, gamma):
        # bad input propagates; it is not recorded as a solver failure
        with pytest.raises(ValueError, match="finite and nonnegative"):
            pareto_sweep(flat_road, params, [gamma], Artifacts(), v_ref=30.0)

    def test_csv_roundtrip(self, tmp_path):
        rows = [
            SweepRow("FIXED_LMPC", 0.003, 30.5, 22.1, 1.31),
            SweepRow("PI", None, 29.98, 21.8, 1.33),
            SweepRow("AT_MPC", None, np.nan, np.nan, np.nan, error="boom"),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path, header_lines=["meta"])
        back = read_sweep_csv(path)
        assert len(back) == 3
        assert back[0].gamma == 0.003
        assert back[1].gamma is None
        assert back[2].error == "boom"

    def test_two_sweeps_write_the_same_bytes(self, params, tmp_path):
        # the table holds no timing, so it is a pure function of the drives
        road = gen_sinusoidal(seed=1, length_m=3000.0)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            write_sweep_csv(pareto_sweep(road, params, [0.001, 0.003], Artifacts(), v_ref=30.0),
                            path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_reordered_columns_are_refused(self, tmp_path):
        # read by position, a reordered file would read as another row
        path = tmp_path / "sweep.csv"
        path.write_text("error,total_fuel_kg,fuel_economy_km_per_kg,"
                        "avg_velocity_mps,gamma,controller\n"
                        '"stopped, at k=3",1.31,22.0,30.5,0.003,FIXED_LMPC\n')
        with pytest.raises(ValueError, match=r"sweep.csv: row 1 \(line 1\): header 'error,"):
            read_sweep_csv(path)

    def test_a_missing_column_is_named(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("controller,gamma,avg_velocity_mps,total_fuel_kg,error\n"
                        "PI,,29.98,1.33,\n")
        with pytest.raises(ValueError, match="sweep.csv: .*fuel_economy_km_per_kg"):
            read_sweep_csv(path)


def _constant_model(value: float, inputs: int = 101):
    from ecocruise.net import LAYER_DIMS, MinMaxScaler, MlpModel

    dims = (inputs, *LAYER_DIMS[1:])
    weights = [np.zeros((dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    biases[-1][:] = 1.0
    return MlpModel(
        weights=weights,
        biases=biases,
        input_scaler=MinMaxScaler(mins=np.zeros(inputs), ranges=np.ones(inputs)),
        target_scaler=MinMaxScaler(mins=np.array([0.0]), ranges=np.array([value])),
    )


class TestLatencyRecording:
    def test_median_step_time_available(self, params, flat_road):
        res = run(
            ControllerSpec(kind="FIXED_LMPC", v_ref=30.0, v_i=30.0, gamma=0.003),
            flat_road,
            params,
        )
        assert res.median_step_s > 0.0
        assert res.median_step_s < 0.5


class TestOnePlantLoop:
    def test_dp_replay_run_matches_dp_replay_bitwise(self, params, hilly_road):
        from ecocruise.dp import replay

        solution = dp_solve(params, hilly_road, DpConfig.default(params, 30.0))
        res = run(ControllerSpec(kind="DP_REPLAY", v_ref=30.0, v_i=30.0), hilly_road, params,
                  Artifacts(dp_solution=solution))
        ref = replay(params, hilly_road, solution.trajectory.te, 30.0)
        for name in ("v", "vavg", "te", "fuel_per_m"):
            assert getattr(res.trajectory, name).tobytes() == getattr(ref, name).tobytes()
            # the DP's own forward pass steps the same plant
            assert getattr(solution.trajectory, name).tobytes() == getattr(ref, name).tobytes()


def _series(gamma, flags):
    n = len(gamma)
    return GammaSeries(gamma=np.asarray(gamma, dtype=float), residuals=np.zeros(n),
                       flags=tuple(flags))


class TestPretunedWeightHold:
    def _drive(self, params, road, series):
        spec = ControllerSpec(kind="PT_MPC", v_ref=30.0, v_i=30.0)
        return run(spec, road, params, Artifacts(series=series)).trajectory

    def test_flagged_rows_hold_the_last_clean_weight(self, params, hilly_road):
        n = hilly_road.n_steps
        clean = np.where(np.arange(n) < n // 2, 0.002, 0.006)
        flags = [""] * n
        junk = clean.copy()
        # leading rows take the first clean weight, later ones the last before them
        for lo, hi in ((0, 5), (n // 2 + 10, n // 2 + 30), (n - 7, n)):
            flags[lo:hi] = ["degenerate"] * (hi - lo)
            junk[lo:hi] = 0.04
        filled = clean.copy()
        filled[n // 2 + 10: n // 2 + 30] = 0.006
        filled[n - 7:] = 0.006
        held = self._drive(params, hilly_road, _series(junk, flags))
        ref = self._drive(params, hilly_road, _series(filled, [""] * n))
        for name in ("v", "vavg", "te", "fuel_per_m"):
            assert getattr(held, name).tobytes() == getattr(ref, name).tobytes()

    def test_series_must_cover_the_road(self, params, hilly_road):
        # neither held past its end nor cut short: a series is one weight per step
        n = hilly_road.n_steps
        for m in (n - 1, n + 1, 0):
            with pytest.raises(ValueError, match="does not cover this road"):
                self._drive(params, hilly_road, _series(np.full(m, 0.002), [""] * m))
        rows = pareto_sweep(hilly_road, params, [0.003],
                            Artifacts(series=_series(np.full(n - 1, 0.002), [""] * (n - 1))),
                            v_ref=30.0)
        pt = next(r for r in rows if r.controller == "PT_MPC")
        assert pt.error == "stored weight series does not cover this road"

    def test_all_flagged_series_drives_on_stored_weights(self, params, hilly_road):
        n = hilly_road.n_steps
        raw = np.linspace(0.0, 0.01, n)
        flagged = self._drive(params, hilly_road, _series(raw, ["clamped"] * n))
        ref = self._drive(params, hilly_road, _series(raw, [""] * n))
        for name in ("v", "vavg", "te", "fuel_per_m"):
            assert getattr(flagged, name).tobytes() == getattr(ref, name).tobytes()
