"""Unit tests for the longitudinal dynamics, fuel maps and linearization."""

from __future__ import annotations

import numpy as np
import pytest

from ecocruise.road import DS, gen_sinusoidal
from ecocruise.vehicle import (
    DEFAULT_LAMBDA,
    LinearizedModel,
    StepFailure,
    VehicleParams,
    accel,
    equilibrium_torque,
    fuel_per_meter,
    fuel_rate_time,
    linearize,
    load_vehicle_config,
    next_velocity,
    rollout,
    vavg_update,
)


@pytest.fixture
def params() -> VehicleParams:
    return VehicleParams()


class TestAccel:
    def test_equilibrium_torque_gives_zero_accel(self, params):
        te = equilibrium_torque(params, 30.0)
        assert te == pytest.approx(120.16126984126983, rel=1e-12)
        assert accel(params, 30.0, te, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_torque_flat_road(self, params):
        a0, a1, a2, a3, a4 = params.alpha
        expected = -(a2 + a3 * 30.0 + a4 * 900.0)
        assert accel(params, 30.0, 0.0, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_polynomial_oracle(self, params):
        # independent re-evaluation of the acceleration polynomial
        a = params.alpha
        v, te, phi = 20.0, 100.0, 0.05
        oracle = a[0] * te - a[1] * phi - a[2] - a[3] * v - a[4] * v**2
        assert accel(params, v, te, phi) == pytest.approx(oracle, rel=1e-15)


class TestFuelMaps:
    def test_time_map_reference_point(self, params):
        assert fuel_rate_time(params, 30.0, 120.0) == pytest.approx(4.518732, abs=1e-9)

    def test_time_map_constant_term(self, params):
        assert fuel_rate_time(params, 0.0, 0.0) == pytest.approx(0.5352, rel=1e-15)

    def test_time_map_zero_torque(self, params):
        l = params.lam
        assert fuel_rate_time(params, 30.0, 0.0) == pytest.approx(
            l[0] + 30.0 * l[1] + 900.0 * l[5], rel=1e-14
        )

    def test_space_rate_is_flow_over_speed(self, params):
        # kg/m: the hourly flow over speed, per second of an hour
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.uniform(16.0, 39.0)
            te = rng.uniform(-20.0, 230.0)
            assert fuel_per_meter(params, v, te) == pytest.approx(
                fuel_rate_time(params, v, te) / v / 3600.0, rel=1e-12
            )

    def test_space_rate_unit_velocity(self, params):
        l = params.lam
        assert fuel_per_meter(params, 1.0, 0.0) == pytest.approx(
            (l[0] + l[1] + l[5]) / 3600.0, rel=1e-14)

    def test_per_meter_reconciles_units(self, params):
        # kg/m accounting is the hourly flow spread over the meters per hour
        v, te = 28.0, 90.0
        assert fuel_per_meter(params, v, te) == pytest.approx(
            fuel_rate_time(params, v, te) / (v * 3600.0), rel=1e-12
        )

    def test_space_rate_monotone_in_torque(self, params):
        for v in (15.0, 25.0, 35.0):
            te = np.linspace(0.0, 240.0, 40)
            rates = fuel_per_meter(params, v, te)
            assert np.all(np.diff(rates) > 0)


class TestSpaceStep:
    def test_equilibrium_holds_speed(self, params):
        te = equilibrium_torque(params, 30.0)
        assert next_velocity(params, 30.0, te, 0.0) == pytest.approx(30.0, abs=1e-12)

    def test_downhill_max_torque_accelerates(self, params):
        v_next = next_velocity(params, 30.0, params.te_max, -0.05)
        hand = 30.0 + DS * accel(params, 30.0, params.te_max, -0.05) / 30.0
        assert v_next > 30.0
        assert v_next == pytest.approx(hand, rel=1e-15)

    def test_sign_matches_acceleration(self, params):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rng.uniform(16.0, 39.0)
            te = rng.uniform(params.te_min, params.te_max)
            phi = rng.uniform(-0.05, 0.05)
            dv = next_velocity(params, v, te, phi) - v
            a = accel(params, v, te, phi)
            assert np.sign(dv) == np.sign(a) or a == 0.0


class TestLinearize:
    def test_grade_coefficient_exact(self, params):
        lin = linearize(params, 30.0)
        assert lin.b2 == pytest.approx(-DS * params.alpha[1] / 30.0, rel=1e-15)

    def test_jacobians_match_central_differences(self, params):
        for v_ref in (20.0, 30.0, 35.0):
            lin = linearize(params, v_ref)
            eps = 1e-5
            fd_a = (
                next_velocity(params, v_ref + eps, lin.te_lin, 0.0)
                - next_velocity(params, v_ref - eps, lin.te_lin, 0.0)
            ) / (2 * eps)
            fd_b1 = (
                next_velocity(params, v_ref, lin.te_lin + eps, 0.0)
                - next_velocity(params, v_ref, lin.te_lin - eps, 0.0)
            ) / (2 * eps)
            fd_b2 = (
                next_velocity(params, v_ref, lin.te_lin, eps)
                - next_velocity(params, v_ref, lin.te_lin, -eps)
            ) / (2 * eps)
            assert lin.a_coef == pytest.approx(fd_a, rel=1e-6)
            assert lin.b1 == pytest.approx(fd_b1, rel=1e-6)
            assert lin.b2 == pytest.approx(fd_b2, rel=1e-6)

    def test_expansion_point_is_equilibrium(self, params):
        lin = linearize(params, 30.0)
        # zero deviations on flat road map to zero deviation
        assert lin.a_coef * 0.0 + lin.b1 * 0.0 + lin.b2 * 0.0 == 0.0
        assert next_velocity(params, lin.v_lin, lin.te_lin, 0.0) == pytest.approx(
            lin.v_lin, abs=1e-12
        )

    def test_fuel_affine_anchored_to_flow_map(self, params):
        lin = linearize(params, 30.0)
        assert lin.fuel_lin[0] == pytest.approx(
            fuel_rate_time(params, lin.v_lin, lin.te_lin), abs=1e-12
        )

    def test_fuel_affine_matches_finite_differences(self, params):
        lin = linearize(params, 30.0)
        eps = 1e-5
        fd_v = (
            fuel_rate_time(params, 30.0 + eps, lin.te_lin)
            - fuel_rate_time(params, 30.0 - eps, lin.te_lin)
        ) / (2 * eps)
        fd_t = (
            fuel_rate_time(params, 30.0, lin.te_lin + eps)
            - fuel_rate_time(params, 30.0, lin.te_lin - eps)
        ) / (2 * eps)
        assert lin.fuel_lin[1] == pytest.approx(fd_v, rel=1e-6)
        assert lin.fuel_lin[2] == pytest.approx(fd_t, rel=1e-6)

    def test_prediction_error_bound_over_operating_box(self, params):
        # regression pin: one-step linear-vs-nonlinear error over the
        # +/-2 m/s, +/-40 N.m, +/-5% grade box around the expansion point
        lin = linearize(params, 30.0)
        worst = 0.0
        for dv in np.linspace(-2.0, 2.0, 9):
            for dte in np.linspace(-40.0, 40.0, 9):
                for phi in np.linspace(-0.05, 0.05, 5):
                    exact = next_velocity(params, 30.0 + dv, lin.te_lin + dte, phi)
                    pred = 30.0 + lin.a_coef * dv + lin.b1 * dte + lin.b2 * phi
                    worst = max(worst, abs(exact - pred))
        assert worst < 0.05

    def test_out_of_range_reference_rejected(self, params):
        with pytest.raises(ValueError):
            linearize(params, params.v_max + 1.0)

    def test_equilibrium_torque_outside_actuator_rejected(self):
        weak = VehicleParams(te_max=100.0)
        with pytest.raises(ValueError):
            linearize(weak, 35.0)


class TestParams:
    def test_defaults_match_published_coefficients(self, params):
        assert params.alpha == (0.00315, 9.81, 0.05536, 0.00229, 2.8272e-4)
        assert params.lam == (0.5352, -0.03021, 0.00062, 5.503e-5, 0.00079, 0.00131)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": DEFAULT_LAMBDA[:5]},
            {"v_min": 0.0},
            {"v_min": 40.0, "v_max": 30.0},
            {"te_min": 250.0},
            {"alpha": (0.0, 9.81, 0.05536, 0.00229, 2.8272e-4)},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VehicleParams(**kwargs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [*(f"alpha{i}" for i in range(5)),
                                      *(f"lambda{i}" for i in range(6)),
                                      "v_min", "v_max", "te_min", "te_max"])
    def test_non_finite_param_is_named(self, tmp_path, name, value):
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text(f"{name} = {value}\n")
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            load_vehicle_config(cfg)

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text("alpha0 = 0.004\nte_max = 260  # uprated engine\n")
        loaded = load_vehicle_config(cfg)
        assert loaded.alpha[0] == 0.004
        assert loaded.te_max == 260.0
        assert loaded.lam == VehicleParams().lam

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text("alpha9 = 1.0\n")
        with pytest.raises(ValueError, match="alpha9"):
            load_vehicle_config(cfg)

    def test_config_file_bad_number(self, tmp_path):
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text("alpha0 = fast\n")
        with pytest.raises(ValueError, match="bad number"):
            load_vehicle_config(cfg)


class TestRollout:
    def test_steps_agree_with_the_vehicle_formulas(self, params):
        road = gen_sinusoidal(seed=3, length_m=3000.0)
        traj = rollout(params, road, 30.0, lambda k, v, vavg: 100.0 + 40.0 * np.sin(k / 7.0))
        for k in range(road.n_steps):
            v, te = traj.v[k], traj.te[k]
            assert traj.fuel_per_m[k] == fuel_per_meter(params, v, te)
            assert traj.vavg[k + 1] == vavg_update(k, traj.vavg[k], v)
            assert traj.v[k + 1] == next_velocity(params, v, te, road.grade[k])

    def test_start_velocity_checked_before_the_first_step(self, params):
        calls = []
        road = gen_sinusoidal(seed=3, length_m=3000.0)
        for v_i in (0.0, float("nan")):
            with pytest.raises(ValueError, match="velocity must be positive"):
                rollout(params, road, v_i, lambda k, v, vavg: calls.append(k) or 0.0)
        assert calls == []

    @pytest.mark.parametrize("te", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_torque_stops_the_drive_where_it_enters(self, params, te):
        road = gen_sinusoidal(seed=3, length_m=3000.0)
        with pytest.raises(StepFailure, match=r"step 4 \(position 120 m\)"):
            rollout(params, road, 30.0, lambda k, v, vavg: te if k == 4 else 90.0)
