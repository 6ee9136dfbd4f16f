"""Closed-loop simulation of every controller against the nonlinear plant.

All controllers drive the same plant: the fixed-gear longitudinal model
stepped every 30 m, with fuel integrated from the per-meter rate.  The cast:

* ``AT_MPC``     horizon QP with the fuel weight predicted online from the
                 3 km grade preview.
* ``PT_MPC``     same QP, weight read from a precomputed per-position series.
* ``FIXED_LMPC`` same QP with one constant weight.
* ``PI``         set-point tracker with conditional anti-windup, the
                 conventional-cruise baseline.
* ``DP_REPLAY``  the global optimizer's torque schedule applied open loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from . import formats, mpc
from .dp import DpSolution
from .formats import num
from .invopt import GammaSeries
from .net import MlpModel, PREVIEW_LEN, predict
from .road import RoadProfile, preview
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
# PI gains: torque per m/s of speed error, and per m/s of its per-step sum
PI_KP = 150.0
PI_KI = 15.0


class SimulationError(RuntimeError):
    """The plant left its physical envelope during a run."""


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
        if self.kind == "FIXED_LMPC" and self.gamma < 0:
            raise ValueError("fixed fuel weight must be nonnegative")


@dataclass(frozen=True)
class Artifacts:
    """Precomputed inputs a controller may need."""

    model: MlpModel | None = None
    series: GammaSeries | None = None
    dp_solution: DpSolution | None = None
    lin: LinearizedModel | None = None


@dataclass(frozen=True)
class SimResult:
    """A drive and its summary; ``step_runtimes`` times each controller call."""

    trajectory: Trajectory
    total_fuel_kg: float
    distance_km: float
    avg_velocity_mps: float
    fuel_economy_km_per_kg: float
    step_runtimes: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def median_step_s(self) -> float:
        return float(median(self.step_runtimes)) if len(self.step_runtimes) else 0.0


def metrics(trajectory: Trajectory, skip_m: float = 0.0) -> SimResult:
    """Fuel, distance and harmonic-average velocity, optionally dropping an
    initial transient stretch; the result carries no step times."""
    if trajectory.n_steps == 0:
        raise ValueError("empty trajectory")
    ds = float(trajectory.position[1] - trajectory.position[0])
    start = int(np.ceil(skip_m / ds)) if skip_m > 0 else 0
    if start >= trajectory.n_steps:
        raise ValueError(f"skip {skip_m} m leaves no samples")
    v = trajectory.v[start:-1]
    fuel = float(np.sum(trajectory.fuel_per_m[start:]) * ds)
    distance_m = (trajectory.n_steps - start) * ds
    elapsed = float(np.sum(ds / v))
    avg_v = distance_m / elapsed
    economy = (distance_m / 1000.0) / fuel if fuel > 0 else float("inf")
    return SimResult(
        trajectory=trajectory,
        total_fuel_kg=fuel,
        distance_km=distance_m / 1000.0,
        avg_velocity_mps=avg_v,
        fuel_economy_km_per_kg=economy,
    )


class _PiController:
    """Feedback tracker with torque saturation and conditional anti-windup.

    The integrator is preloaded with the cruise equilibrium torque so a run
    that starts on-speed does not dip while the integral spools up.
    """

    def __init__(self, spec: ControllerSpec, params: VehicleParams):
        self.v_ref = spec.v_ref
        self.params = params
        self.integral = equilibrium_torque(params, spec.v_ref) / PI_KI

    def torque(self, v: float, k: int, road: RoadProfile) -> float:
        err = self.v_ref - v
        te = PI_KP * err + PI_KI * (self.integral + err)
        if self.params.te_min < te < self.params.te_max:
            self.integral += err
        return float(np.clip(te, self.params.te_min, self.params.te_max))


class _MpcController:
    """Shared receding-horizon driver; subclasses only choose the weight."""

    def __init__(self, spec: ControllerSpec, params: VehicleParams, artifacts: Artifacts):
        self.spec = spec
        self.params = params
        self.artifacts = artifacts
        self.lin = artifacts.lin if artifacts.lin is not None else linearize(params, spec.v_ref)
        self.warm: tuple[int, ...] | None = None

    def weight_at(self, k: int, road: RoadProfile) -> float:
        raise NotImplementedError

    def torque(self, v: float, k: int, road: RoadProfile) -> float:
        gamma = self.weight_at(k, road)
        window = preview(road, k, self.spec.horizon).samples
        problem = mpc.build(gamma, self.lin, window, v - self.lin.v_lin, self.params,
                            v_ref=self.spec.v_ref)
        solution = mpc.solve(problem, warm_working=self.warm)
        self.warm = solution.working_set
        te = self.lin.te_lin + solution.te[0]
        return float(np.clip(te, self.params.te_min, self.params.te_max))


class _FixedMpc(_MpcController):
    def weight_at(self, k: int, road: RoadProfile) -> float:
        return self.spec.gamma


class _PretunedMpc(_MpcController):
    """Drives with the stored per-position weights, holding the last clean
    value across flagged rows: a flag marks a recovery that was degenerate or
    clamped, not a weight worth steering with."""

    def __init__(self, spec, params, artifacts):
        super().__init__(spec, params, artifacts)
        if artifacts.series is None:
            raise ValueError("PT_MPC needs a precomputed weight series")
        series = artifacts.series
        filled = np.array(series.gamma, dtype=float)
        last = None
        for i in range(len(filled)):
            if not series.flags[i]:
                last = filled[i]
            elif last is not None:
                filled[i] = last
        clean_idx = [i for i in range(len(filled)) if not series.flags[i]]
        if clean_idx:
            filled[: clean_idx[0]] = filled[clean_idx[0]]
        self._weights = filled

    def weight_at(self, k: int, road: RoadProfile) -> float:
        return float(self._weights[min(k, len(self._weights) - 1)])


class _AutoTunedMpc(_MpcController):
    def __init__(self, spec, params, artifacts):
        super().__init__(spec, params, artifacts)
        if artifacts.model is None:
            raise ValueError("AT_MPC needs a trained weight predictor")

    def weight_at(self, k: int, road: RoadProfile) -> float:
        window = preview(road, k, PREVIEW_LEN).samples
        return max(0.0, predict(self.artifacts.model, window, self.spec.v_ref))


def _make_controller(spec: ControllerSpec, params: VehicleParams, artifacts: Artifacts):
    if spec.kind == "PI":
        return _PiController(spec, params)
    if spec.kind == "FIXED_LMPC":
        return _FixedMpc(spec, params, artifacts)
    if spec.kind == "PT_MPC":
        return _PretunedMpc(spec, params, artifacts)
    if spec.kind == "AT_MPC":
        return _AutoTunedMpc(spec, params, artifacts)
    raise ValueError(spec.kind)


def run(
    spec: ControllerSpec,
    road: RoadProfile,
    params: VehicleParams,
    artifacts: Artifacts | None = None,
) -> SimResult:
    """Drive the road once with the requested controller."""
    artifacts = artifacts or Artifacts()
    if spec.kind == "DP_REPLAY":
        if artifacts.dp_solution is None:
            raise ValueError("DP_REPLAY needs a solved global optimum")
        dp_te = artifacts.dp_solution.trajectory.te
        if len(dp_te) != road.n_steps:
            raise ValueError("stored torque schedule does not cover this road")
        policy = lambda v, k, road: float(dp_te[k])  # noqa: E731
    else:
        policy = _make_controller(spec, params, artifacts).torque

    runtimes: list[float] = []

    def timed_torque(k: int, v: float, vavg: float) -> float:
        tic = time.perf_counter()
        te = policy(v, k, road)
        runtimes.append(time.perf_counter() - tic)
        return te

    try:
        traj = rollout(params, road, spec.v_i, timed_torque)
    except StepFailure as exc:
        raise SimulationError(f"{spec.kind}: {exc}") from exc
    return replace(metrics(traj), step_runtimes=np.asarray(runtimes))


@dataclass(frozen=True)
class SweepRow:
    controller: str
    gamma: float | None
    avg_velocity_mps: float
    fuel_economy_km_per_kg: float
    total_fuel_kg: float
    median_step_s: float
    error: str = ""

    @staticmethod
    def of(controller: str, gamma: float | None, result: SimResult) -> "SweepRow":
        """One drive's summary as a sweep-table row."""
        return SweepRow(controller, gamma, result.avg_velocity_mps,
                        result.fuel_economy_km_per_kg, result.total_fuel_kg, result.median_step_s)


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

    Individual run failures land in the row's ``error`` column; the sweep
    carries on so one bad configuration cannot sink a whole comparison.
    """
    ladder = list(gamma_ladder)
    if not ladder or any(b < a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("gamma ladder must be nonempty and ascending")
    v_i = v_ref if v_i is None else v_i
    rows: list[SweepRow] = []

    def attempt(name: str, spec: ControllerSpec, gamma: float | None) -> None:
        try:
            rows.append(SweepRow.of(name, gamma, run(spec, road, params, artifacts)))
        except (SimulationError, StepFailure, ValueError) as exc:
            rows.append(SweepRow(name, gamma, np.nan, np.nan, np.nan, np.nan, error=str(exc)))

    for gamma in ladder:
        attempt(
            "FIXED_LMPC",
            ControllerSpec(kind="FIXED_LMPC", v_ref=v_ref, v_i=v_i, horizon=horizon, gamma=gamma),
            gamma,
        )
    attempt("AT_MPC", ControllerSpec(kind="AT_MPC", v_ref=v_ref, v_i=v_i, horizon=horizon), None)
    attempt("PT_MPC", ControllerSpec(kind="PT_MPC", v_ref=v_ref, v_i=v_i, horizon=horizon), None)
    attempt("PI", ControllerSpec(kind="PI", v_ref=v_ref, v_i=v_i), None)
    attempt("DP_REPLAY", ControllerSpec(kind="DP_REPLAY", v_ref=v_ref, v_i=v_i), None)
    return rows


def write_sweep_csv(rows: list[SweepRow], path, header_lines: list[str] | None = None) -> None:
    """Export ``controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,
    total_fuel_kg,median_step_s,error``."""
    formats.write_table(
        path,
        ["controller", "gamma", "avg_velocity_mps", "fuel_economy_km_per_kg",
         "total_fuel_kg", "median_step_s", "error"],
        (
            [r.controller, "" if r.gamma is None else num(r.gamma), num(r.avg_velocity_mps),
             num(r.fuel_economy_km_per_kg), num(r.total_fuel_kg), num(r.median_step_s), r.error]
            for r in rows
        ),
        header_lines,
    )


def read_sweep_csv(path) -> list[SweepRow]:
    columns, rows = formats.read_table(path)
    if columns[0] != "controller":
        raise ValueError(f"{path}: not a sweep export")
    return formats.parse_rows(path, rows, lambda r: SweepRow(
        controller=r[0],
        gamma=float(r[1]) if r[1].strip() else None,
        avg_velocity_mps=float(r[2]),
        fuel_economy_km_per_kg=float(r[3]),
        total_fuel_kg=float(r[4]),
        median_step_s=float(r[5]),
        error=r[6] if len(r) > 6 else "",
    ))
