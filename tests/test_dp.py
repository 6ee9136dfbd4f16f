"""Tests for the grid dynamic-programming solver and open-loop replay."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXACT_TINY_SEEDS, enumerate_optimum, make_tiny_instance
from ecocruise.dp import (
    INFEASIBLE_COST,
    DpConfig,
    InfeasibleError,
    _cost_to_go_tables,
    _interp_weights,
    read_dp_csv,
    replay,
    solve,
    vavg_update,
    write_dp_csv,
)
from ecocruise.road import DS, RoadProfile, gen_sinusoidal
from ecocruise.vehicle import equilibrium_torque, fuel_per_meter, next_velocity, rollout


class TestVavgUpdate:
    def test_constant_speed_is_fixed_point(self):
        assert vavg_update(10, 27.5, 27.5) == pytest.approx(27.5, rel=1e-14)

    def test_hand_computed_example(self):
        assert vavg_update(1, 30.0, 20.0) == pytest.approx(24.0, rel=1e-14)

    def test_first_segment_returns_current_speed(self):
        assert vavg_update(0, 30.0, 26.0) == pytest.approx(26.0, rel=1e-14)

    def test_recursion_telescopes_to_harmonic_mean(self):
        rng = np.random.default_rng(0)
        speeds = rng.uniform(24.0, 36.0, 50)
        vavg = speeds[0]
        for k in range(len(speeds)):
            vavg = vavg_update(k, vavg, speeds[k])
        closed_form = len(speeds) * DS / np.sum(DS / speeds)
        assert vavg == pytest.approx(closed_form, rel=1e-12)


class TestSolveTinyExact:
    @pytest.mark.parametrize("seed", EXACT_TINY_SEEDS[:4])
    def test_matches_exhaustive_enumeration(self, params, seed):
        inst = make_tiny_instance(seed, params)
        best_cost, best_seq = enumerate_optimum(params, inst.road, inst.config)
        solution = solve(params, inst.road, inst.config)
        assert np.array_equal(solution.trajectory.te, best_seq)
        assert solution.total_fuel == pytest.approx(best_cost, abs=1e-12)

    def test_never_beats_enumeration(self, params):
        # the rollout returns a true feasible sequence, so grid interpolation
        # can cost fuel but can never fabricate a better-than-optimal result
        for seed in range(3050, 3060):
            inst = make_tiny_instance(seed, params)
            best_cost, best_seq = enumerate_optimum(params, inst.road, inst.config)
            if best_seq is None:
                continue
            solution = solve(params, inst.road, inst.config)
            assert solution.total_fuel >= best_cost - 1e-12

    def test_gap_to_enumeration_over_a_hundred_seeds(self, params):
        # every seed, not a curated few: linear interpolation of the
        # cost-to-go across the kink at the velocity floor can steer the grid
        # DP off a cheap path that runs close to the floor.  Over 3000-3099,
        # 91 seeds are exact and the worst gap is +4.41% (seed 3068).
        exact = 0
        for seed in range(3000, 3100):
            inst = make_tiny_instance(seed, params)
            best_cost, _ = enumerate_optimum(params, inst.road, inst.config)
            gap = solve(params, inst.road, inst.config).total_fuel / best_cost - 1.0
            assert -1e-12 <= gap <= 0.045, seed
            exact += gap <= 1e-12
        assert exact >= 91

    def test_wider_torque_bounds_never_cost_more(self, params):
        for seed in EXACT_TINY_SEEDS[:3]:
            inst = make_tiny_instance(seed, params)
            cfg = inst.config
            narrow = solve(params, inst.road, cfg)
            te = cfg.te_grid
            step = te[1] - te[0]
            wider = DpConfig(
                v_grid=cfg.v_grid,
                vavg_grid=cfg.vavg_grid,
                te_grid=np.concatenate([[te[0] - step], te, [te[-1] + step]]),
                v_ref=cfg.v_ref,
                v_i=cfg.v_i,
            )
            assert solve(params, inst.road, wider).total_fuel <= narrow.total_fuel + 1e-12


class TestSolveBehavior:
    def test_flat_road_near_constant_with_terminal_glide(self, params):
        flat = RoadProfile.from_elevation(np.zeros(201))
        cfg = DpConfig.default(params, 30.0, v_span=4.0)
        solution = solve(params, flat, cfg)
        traj = solution.trajectory
        # near-constant until the optimizer cashes speed out at the end,
        # where slowing down is free once the trip average is banked
        bulk = traj.v[: int(0.8 * len(traj.v))]
        assert np.max(np.abs(bulk - 30.0)) < 1.0
        # no worse than the best constant-speed policy meeting the terminal
        # average (holding the set point), and within grid tolerance of it
        const_fuel = float(fuel_per_meter(params, 30.0, equilibrium_torque(params, 30.0))) * flat.length_m
        assert solution.total_fuel <= const_fuel + 1e-9
        assert solution.total_fuel == pytest.approx(const_fuel, rel=0.03)
        assert traj.vavg[-1] >= cfg.v_ref - 1e-9

    def test_constraints_hold_along_trajectory(self, params):
        road = gen_sinusoidal(seed=13, length_m=6000.0)
        cfg = DpConfig.default(params, 30.0)
        solution = solve(params, road, cfg)
        traj = solution.trajectory
        assert np.all(traj.v >= cfg.v_grid[0] - 1e-9)
        assert np.all(traj.v <= cfg.v_grid[-1] + 1e-9)
        assert np.all(traj.te >= cfg.te_grid[0] - 1e-9)
        assert np.all(traj.te <= cfg.te_grid[-1] + 1e-9)
        assert np.all(traj.vavg >= cfg.vavg_grid[0] - 1e-9)
        assert np.all(traj.vavg <= cfg.vavg_grid[-1] + 1e-9)

    def test_infeasible_configuration_names_step(self, params):
        road = gen_sinusoidal(seed=1, length_m=3000.0)
        cfg = DpConfig(
            v_grid=np.linspace(28.0, 32.0, 9),
            vavg_grid=np.linspace(29.0, 31.0, 9),
            te_grid=np.linspace(0.0, 10.0, 3),  # torque too weak to climb
            v_ref=30.0,
            v_i=30.0,
        )
        with pytest.raises(InfeasibleError, match="step"):
            solve(params, road, cfg)

    def test_config_validation(self, params):
        with pytest.raises(ValueError):
            DpConfig(
                v_grid=np.array([30.0, 29.0]),
                vavg_grid=np.array([29.0, 31.0]),
                te_grid=np.array([0.0, 100.0]),
                v_ref=30.0,
                v_i=30.0,
            )
        with pytest.raises(ValueError, match="corridor"):
            DpConfig(
                v_grid=np.array([28.0, 32.0]),
                vavg_grid=np.array([29.0, 31.0]),
                te_grid=np.array([0.0, 100.0]),
                v_ref=32.0,
                v_i=30.0,
            )


class TestReplay:
    def test_reproduces_solver_trajectory_exactly(self, params):
        # the rollout already steps the true dynamics, so replay agrees to
        # machine precision, well inside the one-grid-cell contract
        road = gen_sinusoidal(seed=9, length_m=4500.0)
        cfg = DpConfig.default(params, 30.0)
        solution = solve(params, road, cfg)
        traj = replay(params, road, solution.trajectory.te, cfg.v_i)
        assert np.allclose(traj.v, solution.trajectory.v, atol=1e-10)
        assert np.allclose(traj.vavg, solution.trajectory.vavg, atol=1e-10)
        assert traj.total_fuel_kg == pytest.approx(solution.total_fuel, abs=1e-12)

    def test_zero_length_road(self, params):
        road = RoadProfile.from_elevation([0.0])
        traj = replay(params, road, [], 28.0)
        assert traj.n_steps == 0
        assert traj.v[0] == 28.0
        assert traj.total_fuel_kg == 0.0

    def test_equilibrium_torque_holds_speed_on_flat(self, params):
        flat = RoadProfile.from_elevation(np.zeros(51))
        te = equilibrium_torque(params, 30.0)
        traj = replay(params, flat, np.full(50, te), 30.0)
        assert np.allclose(traj.v, 30.0, atol=1e-10)
        assert np.allclose(traj.vavg, 30.0, atol=1e-10)

    def test_length_mismatch_rejected(self, params):
        flat = RoadProfile.from_elevation(np.zeros(51))
        with pytest.raises(ValueError):
            replay(params, flat, np.zeros(9), 30.0)

    def test_nonpositive_start_velocity_is_bad_input(self, params):
        # bad input, not a solver failure: the rollout's ValueError, never
        # InfeasibleError (a RuntimeError)
        flat = RoadProfile.from_elevation(np.zeros(11))
        with pytest.raises(ValueError, match="velocity must be positive"):
            replay(params, flat, np.zeros(10), v_i=0.0)


class TestCsv:
    def test_roundtrip(self, params, tmp_path):
        inst = make_tiny_instance(3000, params)
        solution = solve(params, inst.road, inst.config)
        path = tmp_path / "dp.csv"
        write_dp_csv(solution.trajectory, path, header_lines=["unit test"])
        back = read_dp_csv(path)
        assert np.allclose(back.v, solution.trajectory.v, atol=1e-7)
        assert np.allclose(back.te, solution.trajectory.te, atol=1e-7)
        assert len(back.te) == len(back.v) - 1


def reference_solve(params, road, config):
    """Unblocked backward pass: four 2-D gathers per stage over (na, nv, nu),
    both penalties added to the full stage array, then the forward re-pick.

    Returns (every stage's cost-to-go table, trajectory or None, infeasible
    message or None, velocity-infeasible cell count, trip-average-infeasible
    cell count).
    """
    v_grid, a_grid, te_grid = config.v_grid, config.vavg_grid, config.te_grid
    ds, big = DS, INFEASIBLE_COST
    p_steps = road.n_steps
    vv, te = v_grid[:, None], te_grid[None, :]
    step_fuel = fuel_per_meter(params, vv, te) * ds
    tables = np.empty((p_steps + 1, len(v_grid), len(a_grid)))
    tables[p_steps] = np.where(a_grid[None, :] >= config.v_ref - 1e-12, 0.0, big)
    bad_v = bad_a = 0
    for k in range(p_steps - 1, -1, -1):
        value = tables[k + 1]
        next_v = next_velocity(params, vv, te, road.grade[k])
        ok_v = (next_v >= v_grid[0]) & (next_v <= v_grid[-1])
        iv, tv = _interp_weights(v_grid, np.clip(next_v, v_grid[0], v_grid[-1]))
        next_a = vavg_update(k, a_grid[:, None], v_grid[None, :])
        ok_a = (next_a >= config.vavg_grid[0] - 1e-12) & (next_a <= config.vavg_grid[-1] + 1e-12)
        ia, ta = _interp_weights(a_grid, np.clip(next_a, a_grid[0], a_grid[-1]))
        bad_v += int(np.sum(~ok_v))
        bad_a += int(np.sum(~ok_a))
        iv_b, tv_b = iv[None, :, :], tv[None, :, :]
        ia_b, ta_b = ia[:, :, None], ta[:, :, None]
        total = (1 - tv_b) * ((1 - ta_b) * value[iv_b, ia_b] + ta_b * value[iv_b, ia_b + 1])
        total += tv_b * ((1 - ta_b) * value[iv_b + 1, ia_b] + ta_b * value[iv_b + 1, ia_b + 1])
        total += step_fuel[None, :, :]
        total += np.where(ok_v[None, :, :], 0.0, big)
        total += np.where(ok_a[:, :, None], 0.0, big)
        tables[k] = np.minimum(total.min(axis=2).T, big)

    def pick(k, v, vavg):
        cand_v = next_velocity(params, v, te_grid, road.grade[k])
        cand_ok = (cand_v >= v_grid[0]) & (cand_v <= v_grid[-1])
        next_a = vavg_update(k, vavg, v)
        a_ok = config.vavg_grid[0] - 1e-12 <= next_a <= config.vavg_grid[-1] + 1e-12
        table = tables[k + 1]
        iv, tv = _interp_weights(v_grid, np.clip(cand_v, v_grid[0], v_grid[-1]))
        ia, ta = _interp_weights(a_grid, np.clip(next_a, a_grid[0], a_grid[-1]))
        j_next = (1 - tv) * ((1 - ta) * table[iv, ia] + ta * table[iv, ia + 1]) + tv * (
            (1 - ta) * table[iv + 1, ia] + ta * table[iv + 1, ia + 1]
        )
        cost = fuel_per_meter(params, v, te_grid) * ds + j_next
        cost = cost + np.where(cand_ok, 0.0, big)
        if not a_ok:
            cost = cost + big
        best = int(np.argmin(cost))
        if cost[best] >= big:
            raise InfeasibleError(
                f"no feasible torque at step {k} (position {k * ds:.0f} m, v={v:.2f} m/s)"
            )
        return float(te_grid[best])

    try:
        traj, message = rollout(params, road, config.v_i, pick), None
    except InfeasibleError as exc:
        traj, message = None, str(exc)
    return tables, traj, message, bad_v, bad_a


@st.composite
def penalized_instances(draw):
    """Short roads on small grids whose edges are infeasible by construction.

    Grades stay within 2%, where full torque cannot hold the top velocity
    node and zero-or-less torque cannot hold the bottom one, so velocity
    penalties appear at every stage.  The trip-average corridor is narrower
    than the velocity grid, so the first stage (where the new average equals
    the current speed) has trip-average penalties.  ``na`` runs from 2 to 21:
    a stage splits its ``na`` rows into blocks of ceil(na / 4), so this covers
    one-row blocks, whole blocks and a ragged last block.
    """
    p_steps = draw(st.integers(2, 7))
    grades = draw(st.lists(st.floats(-0.02, 0.02), min_size=p_steps, max_size=p_steps))
    road = RoadProfile.from_elevation(np.concatenate([[0.0], np.cumsum(grades) * DS]))
    v_i = 30.0
    v_half = draw(st.floats(0.4, 3.0))
    a_half = draw(st.floats(0.1, 0.9)) * v_half
    vavg_min, vavg_max = v_i - a_half, v_i + a_half
    v_ref = vavg_min + draw(st.floats(0.0, 0.6)) * (vavg_max - vavg_min)
    config = DpConfig(
        v_grid=np.linspace(v_i - v_half, v_i + v_half, draw(st.integers(2, 12))),
        vavg_grid=np.linspace(vavg_min, vavg_max, draw(st.integers(2, 21))),
        te_grid=np.linspace(-30.0, 240.0, draw(st.integers(2, 9))),
        v_ref=v_ref,
        v_i=v_i,
    )
    return road, config


class TestBlockedStageMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(penalized_instances())
    def test_bitwise_equal_to_unblocked_pass(self, params, instance):
        road, config = instance
        tables, traj, message, bad_v, bad_a = reference_solve(params, road, config)
        assert bad_v > 0 and bad_a > 0
        assert _cost_to_go_tables(params, road, config).tobytes() == tables.tobytes()
        if message is not None:
            with pytest.raises(InfeasibleError) as err:
                solve(params, road, config)
            assert str(err.value) == message
            return
        solution = solve(params, road, config)
        for field in ("v", "vavg", "te", "fuel_per_m"):
            assert getattr(solution.trajectory, field).tobytes() == getattr(traj, field).tobytes()
        assert solution.total_fuel == traj.total_fuel_kg


def _steep_road() -> RoadProfile:
    grades = np.random.default_rng(6).uniform(-0.06, 0.06, 100)
    return RoadProfile.from_elevation(np.concatenate([[0.0], np.cumsum(grades) * DS]))


class TestNodeSpanStageAtFullGrid:
    """The stage interpolates the trip average once per reachable velocity
    node; at the default grid (65 x 43 x 28) it still matches the unblocked
    reference pass byte for byte, tables, picks and error text alike."""

    @pytest.mark.parametrize("make_road", [
        lambda: gen_sinusoidal(seed=7, length_m=3000.0),
        _steep_road,
    ], ids=["seeded_3km", "steep_6pct"])
    def test_bitwise_equal_to_unblocked_pass(self, params, make_road):
        road = make_road()
        config = DpConfig.default(params, 30.0)
        assert (len(config.v_grid), len(config.vavg_grid), len(config.te_grid)) == (65, 43, 28)
        # next velocities leave the grid at both ends, so the clip and the
        # velocity penalty are exercised at the floor and at the ceiling
        next_v = next_velocity(params, config.v_grid, config.te_grid[:, None],
                               road.grade[:, None, None])
        assert np.any(next_v < config.v_grid[0]) and np.any(next_v > config.v_grid[-1])
        tables, traj, message, _, _ = reference_solve(params, road, config)
        assert _cost_to_go_tables(params, road, config).tobytes() == tables.tobytes()
        if message is not None:
            with pytest.raises(InfeasibleError) as err:
                solve(params, road, config)
            assert str(err.value) == message
            return
        solution = solve(params, road, config)
        for field in ("v", "vavg", "te", "fuel_per_m"):
            assert getattr(solution.trajectory, field).tobytes() == getattr(traj, field).tobytes()


class TestConfigRejectsBadGrids:
    """A grid node that is not finite, out of order or, for the velocity and
    trip-average grids, not positive is bad input at construction, not a
    solver failure or a division warning inside ``solve``."""

    @pytest.mark.parametrize("v_grid, message", [
        ([28.0, np.nan, 32.0], "v_grid must be finite"),
        ([-1.0, 0.0, 32.0], "v_grid must be positive"),
        ([28.0, np.inf], "v_grid must be finite"),
    ], ids=["nan", "negative", "inf"])
    def test_velocity_grid(self, v_grid, message):
        with pytest.raises(ValueError, match=message):
            DpConfig(v_grid=np.array(v_grid), vavg_grid=np.array([29.0, 31.0]),
                     te_grid=np.array([0.0, 100.0, 200.0]), v_ref=30.0, v_i=30.0)

    def test_trip_average_grid(self):
        with pytest.raises(ValueError, match="vavg_grid must be positive"):
            DpConfig(v_grid=np.array([28.0, 32.0]), vavg_grid=np.array([0.0, 31.0]),
                     te_grid=np.array([0.0, 100.0]), v_ref=30.0, v_i=30.0)

    def test_torque_grid_may_be_negative_but_not_nan(self):
        DpConfig(v_grid=np.array([28.0, 32.0]), vavg_grid=np.array([29.0, 31.0]),
                 te_grid=np.array([-30.0, 0.0, 100.0]), v_ref=30.0, v_i=30.0)
        with pytest.raises(ValueError, match="te_grid must be finite"):
            DpConfig(v_grid=np.array([28.0, 32.0]), vavg_grid=np.array([29.0, 31.0]),
                     te_grid=np.array([0.0, np.nan, 100.0]), v_ref=30.0, v_i=30.0)
