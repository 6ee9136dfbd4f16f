"""Global minimum-fuel trajectory over a whole road by grid dynamic programming.

States are velocity and trip-average velocity, both marched in the position
domain; the input is engine torque on a uniform grid.  The average-velocity
state carries the "do not arrive late" coupling: the terminal set requires the
trip average to finish at or above the set point, which is what forces the
optimizer to bank speed before climbs instead of simply driving slowly.

The backward sweep stores one cost-to-go table per step (bilinear
interpolation between grid nodes, additive big-penalty encoding outside the
feasible set); the forward rollout then re-picks torques from the continuous
state so the returned trajectory satisfies the true nonlinear dynamics
exactly, not just on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .road import RoadProfile
from .vehicle import Trajectory, VehicleParams, fuel_per_meter

DEFAULT_DV = 0.25
DEFAULT_DVAVG = 0.1
DEFAULT_DTE = 10.0
DEFAULT_VAVG_BAND = 0.07
DEFAULT_INFEASIBLE_COST = 1e6


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
    vavg_min: float
    vavg_max: float
    v_ref: float
    v_i: float
    infeasible_cost: float = DEFAULT_INFEASIBLE_COST
    keep_cost_to_go: bool = False

    def __post_init__(self) -> None:
        for name in ("v_grid", "vavg_grid", "te_grid"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.ndim != 1 or len(g) < 2:
                raise ValueError(f"{name} must hold at least two points")
            if np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, g)
        if not (self.vavg_min <= self.v_ref <= self.vavg_max):
            raise ValueError("v_ref must lie inside the average-velocity corridor")
        if not (self.v_grid[0] <= self.v_i <= self.v_grid[-1]):
            raise ValueError("initial velocity outside the velocity grid")
        if self.infeasible_cost <= 0:
            raise ValueError("infeasible_cost must be positive")

    @staticmethod
    def default(
        params: VehicleParams,
        v_ref: float,
        v_i: float | None = None,
        v_span: float = 8.0,
        dv: float = DEFAULT_DV,
        dvavg: float = DEFAULT_DVAVG,
        dte: float = DEFAULT_DTE,
        vavg_band: float = DEFAULT_VAVG_BAND,
        infeasible_cost: float = DEFAULT_INFEASIBLE_COST,
        keep_cost_to_go: bool = False,
    ) -> "DpConfig":
        """Grids centered on the cruise set point, clipped to the vehicle limits."""
        lo = max(params.v_min, v_ref - v_span)
        hi = min(params.v_max, v_ref + v_span)
        vavg_lo = (1.0 - vavg_band) * v_ref
        vavg_hi = (1.0 + vavg_band) * v_ref
        return DpConfig(
            v_grid=_uniform_grid(lo, hi, dv),
            vavg_grid=_uniform_grid(vavg_lo, vavg_hi, dvavg),
            te_grid=_uniform_grid(params.te_min, params.te_max, dte),
            vavg_min=vavg_lo,
            vavg_max=vavg_hi,
            v_ref=v_ref,
            v_i=v_ref if v_i is None else v_i,
            infeasible_cost=infeasible_cost,
            keep_cost_to_go=keep_cost_to_go,
        )


@dataclass(frozen=True)
class DpSolution:
    trajectory: Trajectory
    total_fuel: float
    cost_to_go: np.ndarray | None  # value table at the first step, if retained


def vavg_update(s_k: float, vavg_k: float, v_k: float, ds: float):
    """Trip-average velocity after one more segment.

    Total distance over total elapsed time: the new average harmonically
    blends the history (distance ``s_k`` at average ``vavg_k``) with one more
    segment of length ``ds`` traversed at ``v_k``.  ``s_k = 0`` is the start
    of the trip, where the result is simply ``v_k``.
    """
    if np.any(np.asarray(vavg_k) <= 0) or np.any(np.asarray(v_k) <= 0):
        raise ValueError("velocities must be positive")
    if s_k < 0 or ds <= 0:
        raise ValueError("distances must be nonnegative (ds positive)")
    return (s_k + ds) / (s_k / vavg_k + ds / v_k)


def _interp_weights(grid: np.ndarray, values: np.ndarray):
    """Bracketing indices and fractional offsets for linear interpolation."""
    idx = np.clip(np.searchsorted(grid, values, side="right") - 1, 0, len(grid) - 2)
    frac = (values - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, frac


def solve(params: VehicleParams, road: RoadProfile, config: DpConfig) -> DpSolution:
    """Backward value iteration plus exact-dynamics forward rollout."""
    p_steps = road.n_steps
    if p_steps < 2:
        raise ValueError("road must contain at least two segments")
    v_grid = config.v_grid
    a_grid = config.vavg_grid
    te_grid = config.te_grid
    ds = params.ds
    big = config.infeasible_cost

    nv, na, nu = len(v_grid), len(a_grid), len(te_grid)
    vv = v_grid[:, None]                      # (nv, 1)
    te = te_grid[None, :]                     # (1, nu)
    a0, a1, a2, a3, a4 = params.alpha
    # grade-free part of the one-step velocity map; the grade term is added
    # per stage as -ds*a1*phi/v
    base_next_v = vv + ds * (a0 * te - a2 - a3 * vv - a4 * vv * vv) / vv
    grade_coef = (ds * a1 / v_grid)[:, None]  # (nv, 1)
    step_fuel = fuel_per_meter(params, vv, te) * ds  # (nv, nu), kg per segment

    # tables[k] is the cost-to-go at step k; terminal value: finish with the
    # trip average at or above the set point
    tables = np.empty((p_steps + 1, nv, na))
    tables[p_steps] = np.where(a_grid[None, :] >= config.v_ref - 1e-12, 0.0, big)

    for k in range(p_steps - 1, -1, -1):
        value = tables[k + 1]
        next_v = base_next_v - grade_coef * road.grade[k]          # (nv, nu)
        ok_v = (next_v >= v_grid[0]) & (next_v <= v_grid[-1])
        iv, tv = _interp_weights(v_grid, np.clip(next_v, v_grid[0], v_grid[-1]))

        s_k = k * ds
        next_a = (s_k + ds) / (s_k / a_grid[:, None] + ds / v_grid[None, :])  # (na, nv)
        ok_a = (next_a >= config.vavg_min - 1e-12) & (next_a <= config.vavg_max + 1e-12)
        ia, ta = _interp_weights(a_grid, np.clip(next_a, a_grid[0], a_grid[-1]))

        iv_b = iv[None, :, :]
        tv_b = tv[None, :, :]
        ia_b = ia[:, :, None]
        ta_b = ta[:, :, None]
        # bilinear interpolation (1-tv)((1-ta)j00 + ta j01) + tv((1-ta)j10 + ta j11)
        # plus stage fuel and penalties, accumulated in place so a stage holds
        # three (na, nv, nu) arrays rather than seven; the same operations in
        # the same order give the same bits
        total = value[iv_b, ia_b]
        total *= 1 - ta_b
        part = value[iv_b, ia_b + 1]
        part *= ta_b
        total += part
        del part
        total *= 1 - tv_b
        upper = value[iv_b + 1, ia_b]
        upper *= 1 - ta_b
        part = value[iv_b + 1, ia_b + 1]
        part *= ta_b
        upper += part
        del part
        upper *= tv_b
        total += upper
        del upper

        total += step_fuel[None, :, :]
        total += np.where(ok_v[None, :, :], 0.0, big)
        total += np.where(ok_a[:, :, None], 0.0, big)
        np.minimum(total.min(axis=2).T, big, out=tables[k])        # (nv, na)

    # forward rollout from the exact initial state
    v = float(config.v_i)
    vavg = float(config.v_i)
    vs = [v]
    vavgs = [vavg]
    tes: list[float] = []
    fuels: list[float] = []
    for k in range(p_steps):
        cand_v = v + ds * (a0 * te_grid - a1 * road.grade[k] - a2 - a3 * v - a4 * v * v) / v
        cand_ok = (cand_v >= v_grid[0]) & (cand_v <= v_grid[-1])
        s_k = k * ds
        next_a = (s_k + ds) / (s_k / vavg + ds / v)
        a_ok = config.vavg_min - 1e-12 <= next_a <= config.vavg_max + 1e-12

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
        tes.append(float(te_grid[best]))
        fuels.append(float(fuel_per_meter(params, v, te_grid[best])))
        v = float(cand_v[best])
        vavg = float(next_a)
        vs.append(v)
        vavgs.append(vavg)

    traj = Trajectory(
        position=np.arange(p_steps + 1) * ds,
        v=np.asarray(vs),
        vavg=np.asarray(vavgs),
        te=np.asarray(tes),
        fuel_per_m=np.asarray(fuels),
    )
    cost_to_go = tables[0].copy() if config.keep_cost_to_go else None
    return DpSolution(trajectory=traj, total_fuel=traj.total_fuel_kg, cost_to_go=cost_to_go)


def replay(params: VehicleParams, road: RoadProfile, torque_sequence, v_i: float) -> Trajectory:
    """Open-loop simulation of a torque sequence through the nonlinear plant."""
    te_seq = np.asarray(torque_sequence, dtype=float)
    if len(te_seq) != road.n_steps:
        raise ValueError(f"torque sequence length {len(te_seq)} != road segments {road.n_steps}")
    ds = params.ds
    v = float(v_i)
    vavg = float(v_i)
    vs = [v]
    vavgs = [vavg]
    fuels = []
    a0, a1, a2, a3, a4 = params.alpha
    for k, te in enumerate(te_seq):
        if v <= 0:
            raise InfeasibleError(f"velocity collapsed at step {k}")
        fuels.append(float(fuel_per_meter(params, v, te)))
        v_next = v + ds * (a0 * te - a1 * road.grade[k] - a2 - a3 * v - a4 * v * v) / v
        if v_next <= 0:
            raise InfeasibleError(f"velocity collapsed at step {k} (position {k * ds:.0f} m)")
        vavg = float(vavg_update(k * ds, vavg, v, ds))
        v = float(v_next)
        vs.append(v)
        vavgs.append(vavg)
    return Trajectory(
        position=np.arange(len(te_seq) + 1) * ds,
        v=np.asarray(vs),
        vavg=np.asarray(vavgs),
        te=te_seq.copy(),
        fuel_per_m=np.asarray(fuels),
    )


def write_dp_csv(solution, path, header_lines: list[str] | None = None) -> None:
    """Export ``index,position_m,v_mps,vavg_mps,te_nm,fuel_kg_per_m``; the final
    node carries no input so those cells are empty.

    Accepts a solved optimum or any bare trajectory (closed-loop runs share
    the format)."""
    traj = solution.trajectory if isinstance(solution, DpSolution) else solution
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write("index,position_m,v_mps,vavg_mps,te_nm,fuel_kg_per_m\n")
        for i in range(len(traj.v)):
            te = f"{traj.te[i]:.9g}" if i < traj.n_steps else ""
            fuel = f"{traj.fuel_per_m[i]:.9g}" if i < traj.n_steps else ""
            fh.write(
                f"{i},{traj.position[i]:.9g},{traj.v[i]:.9g},{traj.vavg[i]:.9g},{te},{fuel}\n"
            )


def read_dp_csv(path) -> Trajectory:
    """Read back a trajectory written by :func:`write_dp_csv`."""
    import csv as _csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in _csv.reader(line for line in fh if not line.startswith("#"))]
    if not rows or rows[0][:2] != ["index", "position_m"]:
        raise ValueError(f"{path}: not a trajectory export")
    body = [r for r in rows[1:] if r and any(c.strip() for c in r)]
    pos = np.array([float(r[1]) for r in body])
    v = np.array([float(r[2]) for r in body])
    vavg = np.array([float(r[3]) for r in body])
    te = np.array([float(r[4]) for r in body if r[4].strip() != ""])
    fuel = np.array([float(r[5]) for r in body if r[5].strip() != ""])
    return Trajectory(position=pos, v=v, vavg=vavg, te=te, fuel_per_m=fuel)
