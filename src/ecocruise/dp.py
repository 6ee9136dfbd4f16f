"""Global minimum-fuel trajectory over a whole road by grid dynamic programming.

States are velocity and trip-average velocity, both marched in the position
domain; the input is engine torque on a uniform grid.  The average-velocity
state carries the "do not arrive late" coupling: the terminal set requires the
trip average to finish at or above the set point, which is what forces the
optimizer to bank speed before climbs instead of simply driving slowly.

The backward sweep stores one cost-to-go table per step (bilinear
interpolation between grid nodes, additive big-penalty encoding outside the
feasible set); the forward rollout then re-picks torques from the continuous
state through the same stage kernel, so the returned trajectory satisfies
the true nonlinear dynamics exactly, not just on the grid.

The stage kernel is vectorized over the whole grid in the manner of
Sundström, Ambühl & Guzzella (2010), ordered by node span: the next trip
average does not depend on the torque, and over all torques the next
velocity of a grid column reaches only a few velocity nodes.  So a stage
interpolates the cost-to-go in the trip average once per reachable node,
then in velocity once per torque.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .formats import num
from .road import DS, RoadProfile
from .vehicle import Trajectory, VehicleParams, fuel_per_meter, next_velocity, rollout, vavg_update

DEFAULT_V_SPAN = 8.0
DEFAULT_DV = 0.25
DEFAULT_DVAVG = 0.1
DEFAULT_DTE = 10.0
DEFAULT_VAVG_BAND = 0.07
INFEASIBLE_COST = 1e6
TRAJECTORY_COLUMNS = ("index", "position_m", "v_mps", "vavg_mps", "te_nm", "fuel_kg_per_m")


class InfeasibleError(RuntimeError):
    """No torque choice keeps the trajectory inside the constraint set."""


def _uniform_grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(2, int(round((hi - lo) / step)) + 1)
    return np.linspace(lo, hi, n)


@dataclass(frozen=True)
class DpConfig:
    v_grid: np.ndarray
    vavg_grid: np.ndarray
    te_grid: np.ndarray
    v_ref: float
    v_i: float

    def __post_init__(self) -> None:
        for name in ("v_grid", "vavg_grid", "te_grid"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.ndim != 1 or len(g) < 2:
                raise ValueError(f"{name} must hold at least two points")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"{name} must be finite")
            if not np.all(np.diff(g) > 0):
                raise ValueError(f"{name} must be strictly increasing")
            # the stage divides by velocities and trip averages
            if name != "te_grid" and not g[0] > 0:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, g)
        if not (self.vavg_grid[0] <= self.v_ref <= self.vavg_grid[-1]):
            raise ValueError("v_ref must lie inside the average-velocity corridor, vavg_grid")
        if not (self.v_grid[0] <= self.v_i <= self.v_grid[-1]):
            raise ValueError("initial velocity outside the velocity grid")

    @staticmethod
    def default(
        params: VehicleParams,
        v_ref: float,
        v_i: float | None = None,
        v_span: float = DEFAULT_V_SPAN,
        dv: float = DEFAULT_DV,
        dvavg: float = DEFAULT_DVAVG,
        dte: float = DEFAULT_DTE,
        vavg_band: float = DEFAULT_VAVG_BAND,
    ) -> "DpConfig":
        """Grids centered on the cruise set point, clipped to the vehicle limits."""
        for name, step in (("dv", dv), ("dvavg", dvavg), ("dte", dte)):
            if not step > 0:
                raise ValueError(f"grid step {name} must be positive, got {step}")
        lo = max(params.v_min, v_ref - v_span)
        hi = min(params.v_max, v_ref + v_span)
        return DpConfig(
            v_grid=_uniform_grid(lo, hi, dv),
            vavg_grid=_uniform_grid((1.0 - vavg_band) * v_ref, (1.0 + vavg_band) * v_ref, dvavg),
            te_grid=_uniform_grid(params.te_min, params.te_max, dte),
            v_ref=v_ref,
            v_i=v_ref if v_i is None else v_i,
        )


@dataclass(frozen=True)
class DpSolution:
    trajectory: Trajectory

    @property
    def total_fuel(self) -> float:
        return self.trajectory.total_fuel_kg


def _interp_weights(grid: np.ndarray, values: np.ndarray):
    """Bracketing indices and fractional offsets for linear interpolation."""
    idx = np.clip(np.searchsorted(grid, values, side="right") - 1, 0, len(grid) - 2)
    frac = (values - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, frac


def _stage(params: VehicleParams, road: RoadProfile, config: DpConfig, k: int,
           value: np.ndarray, v: np.ndarray, vavg: np.ndarray):
    """The one stage rule of the backward pass and the forward pick: from
    velocities ``v`` and trip averages ``vavg`` at step ``k``, each torque's
    stage fuel plus the interpolated cost-to-go ``value`` of step ``k + 1``.

    Yields, per block of ``vavg`` entries, the block's first index, its
    (nu, len(v), n) totals and the (len(v), n) mask of trip averages inside
    the span of ``vavg_grid``.  The velocity penalty rides on the small
    stage-fuel table: as the value table and the stage fuel are nonnegative
    (a fuel map positive on the grid), a penalized total is at least
    ``INFEASIBLE_COST`` either way.

    The next trip average depends on ``(v, vavg)`` only, not on the torque,
    and over all torques the next velocity of a column ``v`` spans a few
    velocity nodes.  So a block first interpolates the trip average once per
    node of that span, ``j_a[node] = (1-ta) value[node, ia] + ta value[node,
    ia+1]`` over (span, len(v), n), and then, per torque, only the velocity:
    ``(1-tv) j_a[iv] + tv j_a[iv+1] + fuel``, gathering whole runs of ``n``
    trip averages.  These are the operations of the unblocked reference pass
    in tests/test_dp.py in the same order, so the tables and picks match it
    bit for bit.
    """
    v_grid, a_grid, te_grid = config.v_grid, config.vavg_grid, config.te_grid
    nv, na, nu = len(v_grid), len(a_grid), len(te_grid)
    cols = len(v)
    te = te_grid[:, None]                                          # (nu, 1)
    next_v = next_velocity(params, v, te, road.grade[k])           # (nu, cols)
    ok_v = (next_v >= v_grid[0]) & (next_v <= v_grid[-1])
    iv, tv = _interp_weights(v_grid, np.clip(next_v, v_grid[0], v_grid[-1]))
    fuel_v = fuel_per_meter(params, v, te) * DS + np.where(ok_v, 0.0, INFEASIBLE_COST)
    # the velocity nodes a column can reach: span nodes from its first one,
    # which is moved down where the span would run past the grid's top
    low = iv.min(axis=0)                                           # (cols,)
    span = int((iv.max(axis=0) - low).max()) + 2
    first = np.minimum(low, nv - span)
    # row of column c's node iv in a block's (span * cols, n) node table;
    # node iv + 1 sits cols rows further on
    at_v = (iv - first) * cols + np.arange(cols)                   # (nu, cols)
    wv, tv, fuel_v = (a[:, :, None] for a in (1 - tv, tv, fuel_v))

    next_a = vavg_update(k, vavg, v[:, None])                      # (cols, len(vavg))
    ok_a = (next_a >= a_grid[0] - 1e-12) & (next_a <= a_grid[-1] + 1e-12)
    ia, ta = _interp_weights(a_grid, np.clip(next_a, a_grid[0], a_grid[-1]))
    wa = 1 - ta
    corner = (first * na)[:, None] + ia    # flat index of value[first, ia]
    nodes = np.arange(span)[:, None, None] * na                    # (span, 1, 1)

    # blocks of at most `block` trip averages whose scratch, three
    # (span, cols, block) and two (nu, cols, block) arrays, stays within
    # four (ceil(len(vavg) / 4), nu, cols) blocks; a block holds at least one
    block = max(1, min(len(vavg), 4 * -(-len(vavg) // 4) * nu // (3 * span + 2 * nu)))
    scratch = [np.empty(span * cols * block, dtype=np.intp)] + [
        np.empty(size * cols * block) for size in (span, span, nu, nu)]
    flat = value.ravel()
    for lo in range(0, len(vavg), block):
        n = min(block, len(vavg) - lo)
        at_a, j_a, part_a, total, part = (
            b[: size * cols * n].reshape(size, cols, n)
            for b, size in zip(scratch, (span, span, span, nu, nu)))
        # mode="clip" skips the buffered bounds check of the default mode;
        # every index is in range by construction
        np.add(corner[:, lo:lo + n], nodes, out=at_a)
        np.take(flat, at_a, out=j_a, mode="clip")
        j_a *= wa[:, lo:lo + n]
        np.take(flat[1:], at_a, out=part_a, mode="clip")
        part_a *= ta[:, lo:lo + n]
        j_a += part_a
        j_rows = j_a.reshape(span * cols, n)
        np.take(j_rows, at_v, axis=0, out=total, mode="clip")
        total *= wv
        np.take(j_rows[cols:], at_v, axis=0, out=part, mode="clip")
        part *= tv
        total += part
        total += fuel_v
        yield lo, total, ok_a[:, lo:lo + n]


def _cost_to_go_tables(params: VehicleParams, road: RoadProfile, config: DpConfig) -> np.ndarray:
    """Backward value iteration: the (n_steps + 1, nv, na) cost-to-go tables.

    Each stage allocates its own scratch, so none of it outlives the
    backward pass into the forward rollout.
    """
    v_grid, a_grid = config.v_grid, config.vavg_grid
    big = INFEASIBLE_COST
    # tables[k] is the cost-to-go at step k; terminal value: finish with the
    # trip average at or above the set point
    tables = np.empty((road.n_steps + 1, len(v_grid), len(a_grid)))
    tables[-1] = np.where(a_grid[None, :] >= config.v_ref - 1e-12, 0.0, big)
    # the stage totals come in blocks of trip averages laid out (nu, nv, n),
    # torque first so the minimum over torque is elementwise and lands in
    # the table's own (nv, n) layout
    for k in range(road.n_steps - 1, -1, -1):
        for lo, total, ok_a in _stage(params, road, config, k, tables[k + 1], v_grid, a_grid):
            # an infeasible trip average replaces the stage minimum, and the
            # clamp maps every penalized minimum to ``big``
            best = np.where(ok_a, total.min(axis=0), big)          # (nv, n)
            np.minimum(best, big, out=tables[k][:, lo:lo + best.shape[1]])
    return tables


def solve(params: VehicleParams, road: RoadProfile, config: DpConfig) -> DpSolution:
    """Backward value iteration plus exact-dynamics forward rollout."""
    if road.n_steps < 2:
        raise ValueError("road must contain at least two segments")
    tables = _cost_to_go_tables(params, road, config)

    def pick(k: int, v: float, vavg: float) -> float:
        """Re-pick the torque from the continuous state against the tables."""
        (_, total, ok_a), = _stage(params, road, config, k, tables[k + 1],
                                   np.array([v]), np.array([vavg]))
        cost = total[:, 0, 0]
        best = int(np.argmin(cost))
        if not ok_a[0, 0] or cost[best] >= INFEASIBLE_COST:
            raise InfeasibleError(
                f"no feasible torque at step {k} (position {k * DS:.0f} m, v={v:.2f} m/s)"
            )
        return float(config.te_grid[best])

    # forward rollout from the exact initial state
    return DpSolution(trajectory=rollout(params, road, config.v_i, pick))


def replay(params: VehicleParams, road: RoadProfile, torque_sequence, v_i: float) -> Trajectory:
    """Open-loop simulation of a torque sequence through the nonlinear plant."""
    te_seq = np.asarray(torque_sequence, dtype=float)
    if len(te_seq) != road.n_steps:
        raise ValueError(f"torque sequence length {len(te_seq)} != road segments {road.n_steps}")
    return rollout(params, road, v_i, lambda k, v, vavg: float(te_seq[k]))


def write_dp_csv(traj: Trajectory, path, header_lines: list[str] | None = None) -> None:
    """Export ``index,position_m,v_mps,vavg_mps,te_nm,fuel_kg_per_m``; the final
    node carries no input so those cells are empty."""
    formats.write_table(
        path,
        TRAJECTORY_COLUMNS,
        (
            [i, num(i * DS), num(traj.v[i]), num(traj.vavg[i])]
            + ([num(traj.te[i]), num(traj.fuel_per_m[i])] if i < traj.n_steps else ["", ""])
            for i in range(len(traj.v))
        ),
        header_lines,
    )


def read_dp_csv(path) -> Trajectory:
    """Read back a trajectory written by :func:`write_dp_csv`; a non-finite
    number is rejected naming its row."""
    _, rows = formats.read_table(path, TRAJECTORY_COLUMNS)
    v, vavg = formats.float_columns(path, rows, (2, 3))
    te, fuel = formats.float_columns(path, rows[:-1], (4, 5))
    formats.check_finite(path, rows, "number", v, vavg, te, fuel)
    return Trajectory(v=v, vavg=vavg, te=te, fuel_per_m=fuel)
