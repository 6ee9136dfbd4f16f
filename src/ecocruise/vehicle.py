"""Longitudinal vehicle dynamics, fuel maps, and the one-point linear model.

The plant is a mid-size SUV cruising in top gear.  Acceleration is affine in
engine torque and road grade with quadratic speed losses; fuel flow is a
quadratic polynomial in speed and torque.  Everything is also expressed per
meter traveled ("position domain"), which makes road grade an exogenous
signal indexed by distance instead of a function of the trip time.

Unit conventions
----------------
* ``fuel_rate_time`` returns the engine map's fuel flow in kg/h.  The
  predictive controller weighs this flow, linearized in
  ``LinearizedModel.fuel_lin``, against velocity tracking.
* ``fuel_per_meter`` returns the fuel burned per meter traveled in kg/m: the
  flow divided by speed and by 3600 s/h.  Every fuel accounting path
  integrates it.

The formulas check nothing.  Values are checked where they enter the
program: ``VehicleParams`` keeps every coefficient and limit finite and
``v_min`` positive, ``dp.DpConfig`` keeps its velocity and trip-average grids
positive, and :func:`rollout` checks its start velocity and stops when a step
collapses the velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import read_key_values
from .road import DS

# Fixed-gear coefficient sets for the reference SUV.
DEFAULT_ALPHA = (0.00315, 9.81, 0.05536, 0.00229, 2.8272e-4)
DEFAULT_LAMBDA = (0.5352, -0.03021, 0.00062, 5.503e-5, 0.00079, 0.00131)

SECONDS_PER_HOUR = 3600.0


class StepFailure(RuntimeError):
    """A position-domain integration step produced a non-physical state."""


_LIMITS = ("v_min", "v_max", "te_min", "te_max")


def _by_name(params: VehicleParams) -> dict[str, float]:
    """Every coefficient and limit under its config key: ``alpha{i}``,
    ``lambda{i}``, then the limits under their field names."""
    return {**{f"alpha{i}": a for i, a in enumerate(params.alpha)},
            **{f"lambda{i}": c for i, c in enumerate(params.lam)},
            **{k: getattr(params, k) for k in _LIMITS}}


@dataclass(frozen=True)
class VehicleParams:
    """Coefficient sets plus actuator/velocity limits; the plant steps the
    road grid, ``road.DS`` per grade sample."""

    alpha: tuple[float, ...] = DEFAULT_ALPHA
    lam: tuple[float, ...] = DEFAULT_LAMBDA
    v_min: float = 15.0
    v_max: float = 40.0
    te_min: float = -30.0
    te_max: float = 240.0

    def __post_init__(self) -> None:
        if len(self.alpha) != 5 or len(self.lam) != 6:
            raise ValueError("expected 5 dynamics and 6 fuel coefficients")
        for name, value in _by_name(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.alpha[0] <= 0:
            raise ValueError("alpha0 must be positive (torque must propel)")
        if self.v_min <= 0:
            raise ValueError("v_min must be positive (position-domain rates divide by V)")
        if self.v_min >= self.v_max:
            raise ValueError("v_min must be below v_max")
        if self.te_min >= self.te_max:
            raise ValueError("te_min must be below te_max")


@dataclass(frozen=True)
class LinearizedModel:
    """Discrete linear velocity model and affine fuel model at one cruise point.

    Deviation dynamics over one position step:

        dv(k+1) = a_coef * dv(k) + b1 * dte(k) + b2 * phi(k)

    and the affine fuel-flow model (kg/h, the engine-map units)

        mf(k) ~= c0 + c_v * dv(k) + c_t * dte(k)

    where ``dv``/``dte`` are deviations from ``(v_lin, te_lin)`` and ``phi``
    is the absolute road grade (the expansion point is a zero-grade cruise
    equilibrium, so grade enters undeviated).

    The controller weighs the squared affine fuel flow against velocity
    tracking.  The flow is kept in kg/h rather than per-meter units: the
    large constant term then dominates the achievable swing, so squaring
    behaves like total fuel and the weight trades off against tracking in
    its conventional 1e-4..1e-2 range.  A per-meter fuel residual is small
    enough to reach zero inside the actuator box, which makes the squared
    cost reward "burn early, glide at the horizon tail" plans that a
    receding horizon keeps deferring; the closed loop then ratchets above
    the set point for every weight and the weight sweep degenerates.
    """

    a_coef: float
    b1: float
    b2: float
    v_lin: float
    te_lin: float
    fuel_lin: tuple[float, float, float]  # (c0, c_v, c_t), kg/h


@dataclass(frozen=True)
class Trajectory:
    """Aligned per-step records of a simulated or optimized drive.

    ``v`` and ``vavg`` have one more sample than ``te`` and ``fuel_per_m``
    (states at nodes, inputs over segments); node ``k`` lies ``k * DS`` from
    the start.
    """

    v: np.ndarray
    vavg: np.ndarray
    te: np.ndarray
    fuel_per_m: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.te)

    @property
    def total_fuel_kg(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return float(np.sum(self.fuel_per_m) * DS)


def accel(params: VehicleParams, v, te, phi):
    """Acceleration (m/s^2): tractive torque minus grade, rolling and drag loads."""
    a0, a1, a2, a3, a4 = params.alpha
    return a0 * te - a1 * phi - a2 - a3 * v - a4 * v * v


def fuel_rate_time(params: VehicleParams, v, te):
    """Fuel flow (kg/h) from the quadratic engine map."""
    l0, l1, l2, l3, l4, l5 = params.lam
    return l0 + l1 * v + l2 * te + l3 * te * te + l4 * te * v + l5 * v * v


def fuel_per_meter(params: VehicleParams, v, te):
    """Fuel burned per meter traveled (kg/m): the fuel map divided by speed,
    expanded term by term, over the seconds of an hour."""
    l0, l1, l2, l3, l4, l5 = params.lam
    return (l0 / v + l1 + l2 * te / v + l3 * te * te / v + l4 * te + l5 * v) / SECONDS_PER_HOUR


def next_velocity(params: VehicleParams, v, te, phi):
    """Velocity after one position step (forward Euler in distance).

    The one plant step: the DP sweeps, replays and closed-loop runs all
    advance the plant through it, elementwise over arrays or on scalars, so
    their trajectories agree to the bit.
    """
    return v + DS * accel(params, v, te, phi) / v


def vavg_update(k: int, vavg_k: float, v_k: float):
    """Trip-average velocity after segment ``k``.

    Total distance over total elapsed time: the new average harmonically
    blends the history (distance ``k * DS`` at average ``vavg_k``) with one
    more segment traversed at ``v_k``.  ``k = 0`` is the start of the trip,
    where the result is simply ``v_k``.
    """
    s_k = k * DS
    return (s_k + DS) / (s_k / vavg_k + DS / v_k)


def rollout(params: VehicleParams, road, v_i: float, torque) -> Trajectory:
    """Drive ``road`` from ``v_i`` with ``te = torque(k, v, vavg)`` per segment.

    The one loop that steps the plant along a road: it accumulates the
    per-meter fuel and the trip-average velocity and raises
    :class:`StepFailure` naming the step and position where velocity
    collapses or turns non-finite.  Errors raised by ``torque`` pass through
    unchanged.  Only the start velocity is checked; the collapse guard keeps
    every later velocity positive and finite.
    """
    if not v_i > 0:
        raise ValueError("velocity must be positive")
    v = vavg = float(v_i)
    vs = [v]
    vavgs = [vavg]
    tes: list[float] = []
    fuels: list[float] = []
    for k in range(road.n_steps):
        te = torque(k, v, vavg)
        fuels.append(float(fuel_per_meter(params, v, te)))
        v_next = float(next_velocity(params, v, te, road.grade[k]))
        if not 0.0 < v_next < np.inf:
            raise StepFailure(f"velocity collapsed to {v_next:g} at step {k} "
                              f"(position {k * DS:.0f} m)")
        vavg = float(vavg_update(k, vavg, v))
        v = v_next
        vs.append(v)
        vavgs.append(vavg)
        tes.append(te)
    return Trajectory(
        v=np.asarray(vs),
        vavg=np.asarray(vavgs),
        te=np.asarray(tes, dtype=float),
        fuel_per_m=np.asarray(fuels),
    )


def equilibrium_torque(params: VehicleParams, v: float) -> float:
    """Engine torque holding speed v exactly on flat road."""
    a0, _, a2, a3, a4 = params.alpha
    return (a2 + a3 * v + a4 * v * v) / a0


def linearize(params: VehicleParams, v_ref: float) -> LinearizedModel:
    """Linearize the position-domain dynamics and fuel rate at a cruise point.

    The expansion point is the zero-grade equilibrium at ``v_ref``; deviation
    inputs of zero on flat road then map zero deviation to zero deviation.
    """
    if not (params.v_min <= v_ref <= params.v_max):
        raise ValueError(f"v_ref {v_ref} outside [{params.v_min}, {params.v_max}]")
    te_lin = equilibrium_torque(params, v_ref)
    if not (params.te_min <= te_lin <= params.te_max):
        raise ValueError(
            f"equilibrium torque {te_lin:.1f} N.m at {v_ref} m/s outside "
            f"[{params.te_min}, {params.te_max}]"
        )
    a0, a1, a2, a3, a4 = params.alpha
    # d(a/V)/dV at the equilibrium collapses to -(a3/V + 2*a4).
    a_coef = 1.0 + DS * (-(a0 * te_lin) / v_ref**2 + a2 / v_ref**2 - a4)
    b1 = DS * a0 / v_ref
    b2 = -DS * a1 / v_ref

    l0, l1, l2, l3, l4, l5 = params.lam
    c0 = fuel_rate_time(params, v_ref, te_lin)
    c_v = l1 + l4 * te_lin + 2.0 * l5 * v_ref
    c_t = l2 + 2.0 * l3 * te_lin + l4 * v_ref
    return LinearizedModel(
        a_coef=float(a_coef),
        b1=float(b1),
        b2=float(b2),
        v_lin=float(v_ref),
        te_lin=float(te_lin),
        fuel_lin=(float(c0), float(c_v), float(c_t)),
    )


def load_vehicle_config(path) -> VehicleParams:
    """Read vehicle parameters from a key-value text file.

    One ``key = value`` pair per line, ``#`` comments allowed; any key left
    out keeps its default.
    """
    values = _by_name(VehicleParams())
    for key, (lineno, value) in read_key_values(path, values).items():
        try:
            values[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number {value!r}") from exc
    return VehicleParams(alpha=tuple(v for k, v in values.items() if k.startswith("alpha")),
                         lam=tuple(v for k, v in values.items() if k.startswith("lambda")),
                         **{k: values[k] for k in _LIMITS})
