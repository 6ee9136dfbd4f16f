"""Receding-horizon cruise controller as a condensed convex quadratic program.

The stage cost trades the squared affine fuel flow (weighted by ``gamma``)
against the squared gap between the horizon-mean velocity and the set point,
plus a tiny torque-slew tie-break.  Dynamics are the one-point linear model
in deviation variables; torque bounds are hard, velocity bounds are softened
with one symmetric quadratic slack per step so the program never goes
infeasible in closed loop.

``gamma`` is the only cost weight.  The slack weight (``SOFT_WEIGHT``, 1e3)
and the slew ridge (``TE_RIDGE``, 1e-6) are fixed constants of the
controller.

The program is written out once, in :func:`horizon_program`, per model and
horizon N, over the full-space vector

    z = [ dv(0..N) | dte(0..N-1) | s(0..N-1) ]

as fuel rows F with their constant c0, the tracking row t, the weight-free
Hessian (tracking, slew and slack), the N+1 equality rows of the initial
condition and the dynamics, and the 5N inequality rows (in the order that
``MpcSolution.working_set`` numbers them):

    [0,N)   dte(k) <= te_max_dev          [N,2N)  -dte(k) <= -te_min_dev
    [2N,3N) dv(k+1) - s(k) <= v_max_dev   [3N,4N) -dv(k+1) - s(k) <= -v_min_dev
    [4N,5N) -s(k) <= 0

The objective is gamma*||c0 + F z||^2 + (t z - v_ref_dev)^2 plus the slew
and slack terms; only the right-hand sides (initial velocity, grades,
bounds) and ``gamma`` change between problems.  The solver works on the
condensed vector

    y = [ dte(0..N-1) | s(0..N-1) ]

with no equality rows: the velocities follow from the torques by the
rollout dv = Phi * v0 + Gamma @ dte + Psi @ phi, so the condensed blocks are
the images of the full-space ones through that map, built once with them.  A
step scales the fuel block by ``gamma`` and forms the linear term and the
right-hand side from ``v0`` and the grade window.  :mod:`ecocruise.invopt`
inverts the full-space arrays.  Both programs share their optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qp import solve_qp
from .vehicle import LinearizedModel, VehicleParams

DEFAULT_HORIZON = 60
SOFT_WEIGHT = 1e3
# Tiny quadratic penalty on torque slew between consecutive steps.  The
# fuel/tracking cost alone is indifferent between torque profiles with equal
# horizon-mean velocity, so the optimizer snaps to burn-early/glide-late
# plans for any positive fuel weight, making closed-loop behavior jump at
# zero weight and react steeply to small weight changes.  Slew resolves the
# tie toward steady actuation: constant-torque profiles (all cruising
# equilibria, the whole zero-weight tracking family) cost nothing, while the
# glide shapes are almost entirely slew.
TE_RIDGE = 1e-6


@dataclass(frozen=True)
class HorizonProgram:
    """The weight-free horizon program of one model and horizon (read-only)."""

    # full space over z = [dv | dte | s]
    fuel0: float         # fuel flow at the linearization point
    fuel: np.ndarray     # (N, 3N+1) fuel flow minus fuel0
    track: np.ndarray    # (3N+1,) horizon-mean velocity
    h_rest: np.ndarray   # (3N+1, 3N+1) tracking + slew + slack Hessian
    a_eq: np.ndarray     # (N+1, 3N+1) initial condition and dynamics
    a_in: np.ndarray     # (5N, 3N+1) inequality rows
    # rollout of the velocities and the condensed images over y = [dte | s]
    phi: np.ndarray      # (N+1,) velocity response to v0
    gam: np.ndarray      # (N+1, N) velocity response to dte
    psi: np.ndarray      # (N+1, N) velocity response to grade
    fuel_y: np.ndarray   # (N, 2N)
    track_y: np.ndarray  # (2N,)
    h_fuel_y: np.ndarray  # (2N, 2N) fuel Hessian per unit weight
    h_rest_y: np.ndarray  # (2N, 2N)
    a_in_y: np.ndarray   # (5N, 2N)

    def fuel_gradient(self, z: np.ndarray) -> np.ndarray:
        """Gradient of the fuel term ||fuel0 + F z||^2 per unit weight, at a
        point or at each row of a stack of points."""
        return 2.0 * (self.fuel0 + z @ self.fuel.T) @ self.fuel

    def rest_gradient(self, z: np.ndarray, v_ref_dev: float) -> np.ndarray:
        """Gradient of the tracking, slew and slack terms, at a point or at
        each row of a stack of points (the Hessian is symmetric)."""
        return z @ self.h_rest - 2.0 * v_ref_dev * self.track

    def in_rhs(self, bounds: tuple[float, float, float, float]) -> np.ndarray:
        """Right-hand side of the inequality rows for ``deviation_bounds``."""
        v_lo, v_hi, t_lo, t_hi = bounds
        return np.repeat([t_hi, -t_lo, v_hi, -v_lo, 0.0], len(self.fuel))


@lru_cache(maxsize=16)
def horizon_program(lin: LinearizedModel, n: int) -> HorizonProgram:
    """Build the program once per model and horizon; every problem built
    with it shares the same read-only arrays."""
    # one row per velocity sample, columns [v0 | dte(0..N-1) | phi(0..N-1)]
    resp = np.zeros((n + 1, 2 * n + 1))
    resp[0, 0] = 1.0
    for k in range(n):
        resp[k + 1] = lin.a_coef * resp[k]
        resp[k + 1, 1 + k] += lin.b1
        resp[k + 1, 1 + n + k] += lin.b2
    phi, gam, psi = resp[:, 0], resp[:, 1 : n + 1], resp[:, n + 1 :]

    # selector rows of z: dv(0..N), dte(0..N-1), s(0..N-1)
    pick = np.eye(3 * n + 1)
    p_v, p_te, p_s = pick[: n + 1], pick[n + 1 : 2 * n + 1], pick[2 * n + 1 :]
    c0, c_v, c_t = lin.fuel_lin
    fuel = c_v * p_v[:n] + c_t * p_te
    track = p_v.sum(axis=0) / (n + 1)
    slew = np.diff(p_te, axis=0)
    h_rest = 2.0 * (np.outer(track, track) + TE_RIDGE * slew.T @ slew + SOFT_WEIGHT * p_s.T @ p_s)
    a_eq = p_v.copy()
    a_eq[1:] -= lin.a_coef * p_v[:n] + lin.b1 * p_te
    a_in = np.vstack([p_te, -p_te, p_v[1:] - p_s, -p_v[1:] - p_s, -p_s])

    # z = roll @ y + [Phi v0 + Psi phi | 0 | 0]
    roll = np.zeros((3 * n + 1, 2 * n))
    roll[: n + 1, :n] = gam
    roll[n + 1 :] = np.eye(2 * n)
    fuel_y = fuel @ roll
    program = HorizonProgram(
        fuel0=c0, fuel=fuel, track=track, h_rest=h_rest, a_eq=a_eq, a_in=a_in,
        phi=phi, gam=gam, psi=psi, fuel_y=fuel_y, track_y=track @ roll,
        h_fuel_y=2.0 * fuel_y.T @ fuel_y, h_rest_y=roll.T @ h_rest @ roll, a_in_y=a_in @ roll,
    )
    for arr in vars(program).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return program


def deviation_bounds(lin: LinearizedModel, params: VehicleParams) -> tuple[float, ...]:
    """The vehicle's velocity and torque box in deviation coordinates:
    v_min_dev, v_max_dev, te_min_dev, te_max_dev."""
    return (params.v_min - lin.v_lin, params.v_max - lin.v_lin,
            params.te_min - lin.te_lin, params.te_max - lin.te_lin)


@dataclass(frozen=True)
class MpcProblem:
    n: int
    bounds: tuple[float, float, float, float]  # v_min_dev, v_max_dev, te_min_dev, te_max_dev
    v_free: np.ndarray           # N+1 velocities of the zero-torque-deviation rollout
    # condensed program over y = [dte | s]: 0.5 y'(h_y)y + (c_y)'y plus a
    # constant, subject to program.a_in_y @ y <= b_in_y
    h_y: np.ndarray
    c_y: np.ndarray
    b_in_y: np.ndarray
    program: HorizonProgram


@dataclass(frozen=True)
class MpcSolution:
    """Optimal plan of one horizon.

    ``kkt_residual`` is the stationarity norm of the condensed program.  It
    equals the full-space residual when the dynamics multipliers are taken
    from the exact back-substitution through the velocity rows, since the
    torque and slack rows of the two stationarity conditions coincide.
    """

    v: np.ndarray                # N+1 velocity deviations
    te: np.ndarray               # N torque deviations
    slack: np.ndarray            # N velocity-violation slacks
    kkt_residual: float
    working_set: tuple[int, ...]  # active inequality rows at the optimum


def build(
    gamma: float,
    lin: LinearizedModel,
    grade_window,
    v_init: float,
    params: VehicleParams,
    v_ref: float,
) -> MpcProblem:
    """Assemble the condensed horizon QP for one control step.

    ``grade_window`` fixes the horizon length.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError(f"fuel weight must be finite and nonnegative, got {gamma}")
    grades = np.asarray(grade_window, dtype=float)
    n = len(grades)
    if n < 1:
        raise ValueError("horizon must contain at least one step")

    v_ref_dev = float(v_ref - lin.v_lin)
    v_lo, v_hi, t_lo, t_hi = bounds = deviation_bounds(lin, params)
    if not (t_lo <= 0.0 <= t_hi):
        raise ValueError("linearization torque outside actuator range")

    program = horizon_program(lin, n)
    _, c_v, _ = lin.fuel_lin
    v_free = program.phi * v_init + program.psi @ grades
    # fuel flow and tracking gap of the zero-torque-deviation plan; y moves
    # them by program.fuel_y @ y and -program.track_y @ y
    rho = program.fuel0 + c_v * v_free[:n]
    gap = v_ref_dev - float(np.mean(v_free))
    v_next = v_free[1:]

    return MpcProblem(
        n=n,
        bounds=bounds,
        v_free=v_free,
        h_y=gamma * program.h_fuel_y + program.h_rest_y,
        c_y=2.0 * gamma * (program.fuel_y.T @ rho) - 2.0 * gap * program.track_y,
        b_in_y=np.concatenate([np.full(n, t_hi), np.full(n, -t_lo),
                               v_hi - v_next, v_next - v_lo, np.zeros(n)]),
        program=program,
    )


def _feasible_start(problem: MpcProblem) -> np.ndarray:
    """The condensed start ``[dte | s]``: zero torque deviation, with slacks
    absorbing any velocity-bound spill of the free rollout."""
    v_lo, v_hi, _, _ = problem.bounds
    v_next = problem.v_free[1:]
    spill = np.maximum(0.0, np.maximum(v_next - v_hi, v_lo - v_next))
    return np.concatenate([np.zeros(problem.n), spill])


def solve(problem: MpcProblem) -> MpcSolution:
    """Solve the condensed horizon QP to optimality and certify the result."""
    n = problem.n
    result = solve_qp(problem.h_y, problem.c_y, problem.program.a_in_y, problem.b_in_y,
                      _feasible_start(problem))
    te, slack = result.x[:n], result.x[n:]
    return MpcSolution(
        v=problem.v_free + problem.program.gam @ te,
        te=te,
        slack=np.maximum(slack, 0.0),
        kkt_residual=result.stationarity,
        working_set=tuple(result.working),
    )
