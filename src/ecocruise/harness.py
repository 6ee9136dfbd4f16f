"""Closed-loop simulation of every controller against the nonlinear plant.

All controllers drive the same plant: the fixed-gear longitudinal model
stepped every 30 m, with fuel integrated from the per-meter rate.  One
builder, ``_policy``, turns a spec into a torque callback ``torque(k, v)``:

* ``AT_MPC``     horizon QP with the fuel weight predicted online from the
                 3 km grade preview.
* ``PT_MPC``     same QP, weight read from a precomputed per-position series.
* ``FIXED_LMPC`` same QP with one constant weight.
* ``PI``         set-point tracker with conditional anti-windup, the
                 conventional-cruise baseline.
* ``DP_REPLAY``  the global optimizer's torque schedule applied open loop.

The three MPC kinds share one receding-horizon loop and differ only in where
the weight comes from.  No controller carries state between calls except PI's
integral: an MPC torque is a function of ``(k, v)`` alone.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from . import formats, mpc
from .dp import DpSolution
from .formats import num
from .invopt import GammaSeries
from .net import MlpModel, PREVIEW_LEN, predict
from .qp import QpError
from .road import DS, RoadProfile, preview
from .vehicle import (
    LinearizedModel,
    StepFailure,
    Trajectory,
    VehicleParams,
    equilibrium_torque,
    linearize,
    rollout,
)

CONTROLLER_KINDS = ("AT_MPC", "PT_MPC", "FIXED_LMPC", "PI", "DP_REPLAY")
SWEEP_COLUMNS = ("controller", "gamma", "avg_velocity_mps", "fuel_economy_km_per_kg",
                 "total_fuel_kg", "error")
# PI gains: torque per m/s of speed error, and per m/s of its per-step sum
PI_KP = 150.0
PI_KI = 15.0


@dataclass(frozen=True)
class ControllerSpec:
    kind: str
    v_ref: float
    v_i: float
    horizon: int = mpc.DEFAULT_HORIZON
    gamma: float = 0.0            # FIXED_LMPC weight

    def __post_init__(self) -> None:
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind == "FIXED_LMPC" and not 0 <= self.gamma < np.inf:
            raise ValueError(f"fixed fuel weight must be finite and nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class Artifacts:
    """Precomputed inputs a controller may need."""

    model: MlpModel | None = None
    series: GammaSeries | None = None
    dp_solution: DpSolution | None = None
    lin: LinearizedModel | None = None


@dataclass(frozen=True)
class SimResult:
    """A nonempty drive, with ``step_runtimes`` timing each controller call;
    fuel, distance and the trip-average velocity are read off the drive."""

    trajectory: Trajectory
    step_runtimes: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if self.trajectory.n_steps == 0:
            raise ValueError("empty trajectory")

    @property
    def total_fuel_kg(self) -> float:
        return self.trajectory.total_fuel_kg

    @property
    def distance_km(self) -> float:
        return self.trajectory.n_steps * DS / 1000.0

    @property
    def avg_velocity_mps(self) -> float:
        return float(self.trajectory.vavg[-1])

    @property
    def fuel_economy_km_per_kg(self) -> float:
        fuel = self.total_fuel_kg
        return self.distance_km / fuel if fuel > 0 else float("inf")

    @property
    def median_step_s(self) -> float:
        return float(median(self.step_runtimes)) if len(self.step_runtimes) else 0.0


def _artifact_error(spec: ControllerSpec, road: RoadProfile, artifacts: Artifacts) -> str:
    """Why ``artifacts`` cannot drive ``spec`` on ``road``, or ``""``."""
    if spec.kind == "DP_REPLAY":
        if artifacts.dp_solution is None:
            return "DP_REPLAY needs a solved global optimum"
        if len(artifacts.dp_solution.trajectory.te) != road.n_steps:
            return "stored torque schedule does not cover this road"
    if spec.kind == "PT_MPC":
        if artifacts.series is None:
            return "PT_MPC needs a precomputed weight series"
        if len(artifacts.series) != road.n_steps:
            return "stored weight series does not cover this road"
    if spec.kind == "AT_MPC":
        if artifacts.model is None:
            return "AT_MPC needs a trained weight predictor"
        if artifacts.model.weights[0].shape[0] != PREVIEW_LEN + 1:
            return (f"weight predictor takes {artifacts.model.weights[0].shape[0]} inputs; "
                    f"AT_MPC feeds it {PREVIEW_LEN + 1} (the grade preview and the set point)")
    return ""


def _held_weights(series: GammaSeries) -> np.ndarray:
    """The stored weights with every flagged row replaced by the last clean
    one before it, leading flagged rows by the first clean one: a flag marks
    a recovery that was degenerate or clamped, not a weight worth steering
    with.  A series with no clean row is returned as stored."""
    gamma = np.array(series.gamma, dtype=float)
    clean = np.array([not flag for flag in series.flags], dtype=bool)
    if not clean.any():
        return gamma
    last_clean = np.maximum.accumulate(np.where(clean, np.arange(len(clean)), clean.argmax()))
    return gamma[last_clean]


def _policy(spec: ControllerSpec, road: RoadProfile, params: VehicleParams,
            artifacts: Artifacts) -> Callable[[int, float], float]:
    """The controller's torque callback ``torque(k, v)`` at position ``k``."""
    error = _artifact_error(spec, road, artifacts)
    if error:
        raise ValueError(error)
    if spec.kind == "DP_REPLAY":
        schedule = artifacts.dp_solution.trajectory.te
        return lambda k, v: float(schedule[k])
    if spec.kind == "PI":
        # preloaded with the cruise torque so an on-speed start does not dip
        integral = equilibrium_torque(params, spec.v_ref) / PI_KI

        def pi_torque(k: int, v: float) -> float:
            nonlocal integral
            err = spec.v_ref - v
            te = PI_KP * err + PI_KI * (integral + err)
            if params.te_min < te < params.te_max:  # conditional anti-windup
                integral += err
            return float(np.clip(te, params.te_min, params.te_max))
        return pi_torque

    if spec.kind == "FIXED_LMPC":
        weight = lambda k: spec.gamma  # noqa: E731
    elif spec.kind == "PT_MPC":
        held = _held_weights(artifacts.series)
        weight = lambda k: float(held[k])  # noqa: E731
    else:
        weight = lambda k: predict(  # noqa: E731
            artifacts.model, preview(road, k, PREVIEW_LEN), spec.v_ref)
    lin = artifacts.lin if artifacts.lin is not None else linearize(params, spec.v_ref)

    def mpc_torque(k: int, v: float) -> float:
        problem = mpc.build(weight(k), lin, preview(road, k, spec.horizon), v - lin.v_lin,
                            params, v_ref=spec.v_ref)
        return float(np.clip(lin.te_lin + mpc.solve(problem).te[0], params.te_min, params.te_max))
    return mpc_torque


def run(
    spec: ControllerSpec,
    road: RoadProfile,
    params: VehicleParams,
    artifacts: Artifacts | None = None,
) -> SimResult:
    """Drive the road once with the requested controller; a plant failure
    raises the rollout's :class:`StepFailure`."""
    policy = _policy(spec, road, params, artifacts or Artifacts())
    runtimes: list[float] = []

    def timed_torque(k: int, v: float, vavg: float) -> float:
        tic = time.perf_counter()
        te = policy(k, v)
        runtimes.append(time.perf_counter() - tic)
        return te

    traj = rollout(params, road, spec.v_i, timed_torque)
    return SimResult(traj, np.asarray(runtimes))


@dataclass(frozen=True)
class SweepRow:
    controller: str
    gamma: float | None
    avg_velocity_mps: float
    fuel_economy_km_per_kg: float
    total_fuel_kg: float
    error: str = ""

    @staticmethod
    def of(controller: str, gamma: float | None, result: SimResult) -> "SweepRow":
        """One drive's summary as a sweep-table row."""
        return SweepRow(controller, gamma, result.avg_velocity_mps,
                        result.fuel_economy_km_per_kg, result.total_fuel_kg)


def pareto_sweep(
    road: RoadProfile,
    params: VehicleParams,
    gamma_ladder,
    artifacts: Artifacts,
    v_ref: float,
    v_i: float | None = None,
    horizon: int = mpc.DEFAULT_HORIZON,
) -> list[SweepRow]:
    """Fixed-weight ladder plus the four reference controllers, one row each.

    A missing or mismatched artifact, a plant failure or a solver failure
    lands in the row's ``error`` column and the sweep carries on, so one bad
    configuration cannot sink a whole comparison; any other exception is a
    bug or bad input and propagates.
    """
    ladder = list(gamma_ladder)
    if not ladder or any(b < a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("gamma ladder must be nonempty and ascending")
    v_i = v_ref if v_i is None else v_i
    rows: list[SweepRow] = []
    others = [(kind, None) for kind in CONTROLLER_KINDS if kind != "FIXED_LMPC"]
    for kind, gamma in [("FIXED_LMPC", g) for g in ladder] + others:
        spec = ControllerSpec(kind=kind, v_ref=v_ref, v_i=v_i, horizon=horizon,
                              gamma=0.0 if gamma is None else gamma)
        error = _artifact_error(spec, road, artifacts)
        if not error:
            try:
                rows.append(SweepRow.of(kind, gamma, run(spec, road, params, artifacts)))
                continue
            except (StepFailure, QpError) as exc:
                error = str(exc)
        rows.append(SweepRow(kind, gamma, np.nan, np.nan, np.nan, error=error))
    return rows


def write_sweep_csv(rows: list[SweepRow], path, header_lines: list[str] | None = None) -> None:
    """Export ``controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,
    total_fuel_kg,error``: a pure function of the drives, with no timing."""
    formats.write_table(
        path,
        SWEEP_COLUMNS,
        (
            [r.controller, "" if r.gamma is None else num(r.gamma), num(r.avg_velocity_mps),
             num(r.fuel_economy_km_per_kg), num(r.total_fuel_kg), r.error]
            for r in rows
        ),
        header_lines,
    )


def read_sweep_csv(path) -> list[SweepRow]:
    """Read back a sweep written by :func:`write_sweep_csv`."""
    _, rows = formats.read_table(path, SWEEP_COLUMNS)
    return formats.parse_rows(path, rows, lambda r: SweepRow(
        controller=r[0],
        gamma=float(r[1]) if r[1].strip() else None,
        avg_velocity_mps=float(r[2]),
        fuel_economy_km_per_kg=float(r[3]),
        total_fuel_kg=float(r[4]),
        error=r[5],
    ))
