"""Receding-horizon cruise controller as a condensed convex quadratic program.

The stage cost trades the squared affine fuel flow (weighted by ``gamma``)
against the squared gap between the horizon-mean velocity and the set point,
plus a tiny torque-slew tie-break.  Dynamics are the one-point linear model
in deviation variables; torque bounds are hard, velocity bounds are softened
with one symmetric quadratic slack per step so the program never goes
infeasible in closed loop.

``gamma`` is the only cost weight.  The slack weight (``SOFT_WEIGHT``, 1e3)
and the slew ridge (``TE_RIDGE``, 1e-6) are fixed constants of the
controller, shared with the weight recovery in :mod:`ecocruise.invopt`.

The velocities are not decision variables.  The linear model never changes,
so they follow from the torques by rollout,

    dv = Phi * v0 + Gamma @ dte + Psi @ phi        (N+1 samples, dv(0) = v0)

and the solver works on the condensed vector, horizon N,

    y = [ dte(0..N-1) | s(0..N-1) ]

with no equality rows.  Phi, Gamma, Psi, the fuel block, the tracking, slew
and slack block and the inequality matrix depend only on the model, the
horizon and the fixed penalty weights, so they are built once per controller
(see ``_blocks``).  A step scales the fuel block by ``gamma`` and forms the
linear term and the right-hand side from ``v0`` and the grade window.

Inequality rows, with dv(k+1) substituted from the rollout (order matters for
warm starts):

    [0,N)   dte(k) <= te_max_dev          [N,2N)  -dte(k) <= -te_min_dev
    [2N,3N) dv(k+1) - s(k) <= v_max_dev   [3N,4N) -dv(k+1) - s(k) <= -v_min_dev
    [4N,5N) -s(k) <= 0

The equivalent full-space program over

    z = [ dv(0..N) | dte(0..N-1) | s(0..N-1) ]

with the dynamics as N+1 equality rows and the same inequality rows is
available on :class:`MpcProblem` (``h_mat``, ``c_vec``, ``a_eq``, ``b_eq``,
``a_in``, ``b_in``), built on first access, for certification,
:func:`dump_problem` and as the reference the tests solve.  The closed loop
never forms it.  Both programs share their optimum and objective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
class _Blocks:
    """Weight-independent pieces of the condensed program (read-only)."""

    phi: np.ndarray      # (N+1,) velocity response to v0
    gam: np.ndarray      # (N+1, N) velocity response to dte
    psi: np.ndarray      # (N+1, N) velocity response to grade
    fuel: np.ndarray     # (N, N) fuel-flow response to dte
    track: np.ndarray    # (N,) horizon-mean velocity response to dte
    slew: np.ndarray     # (N, N) torque-slew Hessian
    h_fuel: np.ndarray   # (2N, 2N) fuel Hessian per unit weight
    h_rest: np.ndarray   # (2N, 2N) tracking + slew + slack Hessian
    a_in: np.ndarray     # (5N, 2N) inequality rows


@lru_cache(maxsize=16)
def _blocks(lin: LinearizedModel, n: int) -> _Blocks:
    """Build the blocks once per model and horizon; every problem built with
    them shares the same read-only arrays."""
    # one row per velocity sample, columns [v0 | dte(0..N-1) | phi(0..N-1)]
    resp = np.zeros((n + 1, 2 * n + 1))
    resp[0, 0] = 1.0
    for k in range(n):
        resp[k + 1] = lin.a_coef * resp[k]
        resp[k + 1, 1 + k] += lin.b1
        resp[k + 1, 1 + n + k] += lin.b2
    phi, gam, psi = resp[:, 0], resp[:, 1 : n + 1], resp[:, n + 1 :]

    _, c_v, c_t = lin.fuel_lin
    fuel = c_v * gam[:n] + c_t * np.eye(n)
    track = gam.sum(axis=0) / (n + 1)
    diff = np.diff(np.eye(n), axis=0)
    slew = 2.0 * TE_RIDGE * diff.T @ diff

    h_fuel = np.zeros((2 * n, 2 * n))
    h_fuel[:n, :n] = 2.0 * fuel.T @ fuel
    h_rest = np.zeros((2 * n, 2 * n))
    h_rest[:n, :n] = 2.0 * np.outer(track, track) + slew
    h_rest[n:, n:] = 2.0 * SOFT_WEIGHT * np.eye(n)

    eye, zero = np.eye(n), np.zeros((n, n))
    a_in = np.block([[eye, zero], [-eye, zero], [gam[1:], -eye], [-gam[1:], -eye], [zero, -eye]])

    blocks = _Blocks(phi, gam, psi, fuel, track, slew, h_fuel, h_rest, a_in)
    for arr in vars(blocks).values():
        arr.flags.writeable = False
    return blocks


@dataclass(frozen=True)
class MpcProblem:
    gamma: float
    n: int
    lin: LinearizedModel
    grade_window: np.ndarray
    v_init: float                # initial velocity deviation
    v_ref_dev: float             # set point in deviation coordinates
    bounds: tuple[float, float, float, float]  # v_min_dev, v_max_dev, te_min_dev, te_max_dev
    const: float                 # constant term of the full-space objective
    v_free: np.ndarray           # N+1 velocities of the zero-torque-deviation rollout
    # condensed program over y = [dte | s]: 0.5 y'(h_y)y + (c_y)'y + const_y
    h_y: np.ndarray
    c_y: np.ndarray
    const_y: float
    a_in_y: np.ndarray
    b_in_y: np.ndarray
    blocks: _Blocks

    @property
    def n_vars(self) -> int:
        return 3 * self.n + 1

    def objective_at(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.h_mat @ z + self.c_vec @ z + self.const)

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n
        return z[: n + 1], z[n + 1 : 2 * n + 1], z[2 * n + 1 :]

    # full-space view over z = [dv | dte | s], built on first access

    @cached_property
    def h_mat(self) -> np.ndarray:
        n = self.n
        _, c_v, c_t = self.lin.fuel_lin
        # fuel flow minus its constant, c_v dv(k) + c_t dte(k), as rows over z
        fuel = np.zeros((n, self.n_vars))
        fuel[:, :n] = c_v * np.eye(n)
        fuel[:, n + 1 : 2 * n + 1] = c_t * np.eye(n)
        track = np.zeros(self.n_vars)
        track[: n + 1] = 1.0 / (n + 1)
        h = 2.0 * self.gamma * fuel.T @ fuel + 2.0 * np.outer(track, track)
        h[n + 1 : 2 * n + 1, n + 1 : 2 * n + 1] += self.blocks.slew
        h[2 * n + 1 :, 2 * n + 1 :] += 2.0 * SOFT_WEIGHT * np.eye(n)
        return h

    @cached_property
    def c_vec(self) -> np.ndarray:
        n = self.n
        c0, c_v, c_t = self.lin.fuel_lin
        c = np.zeros(self.n_vars)
        c[:n] = 2.0 * self.gamma * c0 * c_v
        c[n + 1 : 2 * n + 1] = 2.0 * self.gamma * c0 * c_t
        c[: n + 1] -= 2.0 * self.v_ref_dev / (n + 1)
        return c

    @cached_property
    def a_eq(self) -> np.ndarray:
        n = self.n
        rows = np.arange(n)
        a_eq = np.zeros((n + 1, self.n_vars))
        a_eq[0, 0] = 1.0
        a_eq[rows + 1, rows + 1] = 1.0
        a_eq[rows + 1, rows] = -self.lin.a_coef
        a_eq[rows + 1, n + 1 + rows] = -self.lin.b1
        return a_eq

    @cached_property
    def b_eq(self) -> np.ndarray:
        return np.concatenate([[self.v_init], self.lin.b2 * self.grade_window])

    @cached_property
    def a_in(self) -> np.ndarray:
        n = self.n
        eye, zero = np.eye(n), np.zeros((n, n))
        v_next = np.hstack([np.zeros((n, 1)), eye])
        v_none = np.zeros((n, n + 1))
        return np.block([
            [v_none, eye, zero],
            [v_none, -eye, zero],
            [v_next, zero, -eye],
            [-v_next, zero, -eye],
            [v_none, zero, -eye],
        ])

    @cached_property
    def b_in(self) -> np.ndarray:
        v_lo, v_hi, t_lo, t_hi = self.bounds
        return np.repeat([t_hi, -t_lo, v_hi, -v_lo, 0.0], self.n)


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
    objective: float
    kkt_residual: float
    working_set: tuple[int, ...]  # active inequality rows, reusable as warm start
    iterations: int

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.v, self.te, self.slack])


def build(
    gamma: float,
    lin: LinearizedModel,
    grade_window,
    v_init: float,
    params: VehicleParams,
    v_ref: float | None = None,
) -> MpcProblem:
    """Assemble the condensed horizon QP for one control step.

    ``grade_window`` fixes the horizon length.  ``v_ref`` defaults to the
    linearization speed, which makes the tracking target zero deviation.
    """
    if gamma < 0:
        raise ValueError("fuel weight must be nonnegative to keep the program convex")
    grades = np.asarray(grade_window, dtype=float)
    n = len(grades)
    if n < 1:
        raise ValueError("horizon must contain at least one step")

    v_ref_dev = 0.0 if v_ref is None else float(v_ref - lin.v_lin)
    v_lo = params.v_min - lin.v_lin
    v_hi = params.v_max - lin.v_lin
    t_lo = params.te_min - lin.te_lin
    t_hi = params.te_max - lin.te_lin
    if not (t_lo <= 0.0 <= t_hi):
        raise ValueError("linearization torque outside actuator range")

    blocks = _blocks(lin, n)
    c0, c_v, _ = lin.fuel_lin
    v_free = blocks.phi * v_init + blocks.psi @ grades
    # fuel flow and tracking gap of the zero-torque-deviation plan; dte moves
    # them by blocks.fuel @ dte and -blocks.track @ dte
    rho = c0 + c_v * v_free[:n]
    gap = v_ref_dev - float(np.mean(v_free))

    c_y = np.zeros(2 * n)
    c_y[:n] = 2.0 * gamma * (blocks.fuel.T @ rho) - 2.0 * gap * blocks.track
    v_next = v_free[1:]
    b_in_y = np.concatenate([np.full(n, t_hi), np.full(n, -t_lo),
                             v_hi - v_next, v_next - v_lo, np.zeros(n)])

    return MpcProblem(
        gamma=float(gamma),
        n=n,
        lin=lin,
        grade_window=grades,
        v_init=float(v_init),
        v_ref_dev=v_ref_dev,
        bounds=(v_lo, v_hi, t_lo, t_hi),
        const=gamma * n * c0 * c0 + v_ref_dev * v_ref_dev,
        v_free=v_free,
        h_y=gamma * blocks.h_fuel + blocks.h_rest,
        c_y=c_y,
        const_y=float(gamma * rho @ rho + gap * gap),
        a_in_y=blocks.a_in,
        b_in_y=b_in_y,
        blocks=blocks,
    )


def _feasible_start(problem: MpcProblem) -> np.ndarray:
    """Zero-torque rollout of the linear dynamics with slacks absorbing any
    velocity-bound spill, in the full-space layout."""
    v_lo, v_hi, _, _ = problem.bounds
    v_next = problem.v_free[1:]
    spill = np.maximum(0.0, np.maximum(v_next - v_hi, v_lo - v_next))
    return np.concatenate([problem.v_free, np.zeros(problem.n), spill])


def solve(problem: MpcProblem, warm_working: tuple[int, ...] | None = None) -> MpcSolution:
    """Solve the condensed horizon QP to optimality and certify the result."""
    n = problem.n
    result = solve_qp(
        problem.h_y,
        problem.c_y,
        None,
        None,
        problem.a_in_y,
        problem.b_in_y,
        _feasible_start(problem)[n + 1 :],
        working0=list(warm_working) if warm_working else None,
    )
    te, slack = result.x[:n], result.x[n:]
    return MpcSolution(
        v=problem.v_free + problem.blocks.gam @ te,
        te=te,
        slack=np.maximum(slack, 0.0),
        objective=result.objective + problem.const_y,
        kkt_residual=result.stationarity,
        working_set=tuple(result.working),
        iterations=result.iterations,
    )


def kkt_residual(problem: MpcProblem, solution, active_tol: float = 1e-7) -> float:
    """Stationarity norm of a candidate full-space point ``z`` for this program.

    Multipliers are fitted by least squares over the constraints active at the
    point (inequality multipliers clipped at zero), so a true optimum scores
    ~0 and any perturbation scores strictly worse.
    """
    z = solution.as_vector() if isinstance(solution, MpcSolution) else np.asarray(solution, float)
    if len(z) != problem.n_vars:
        raise ValueError(f"expected {problem.n_vars} variables, got {len(z)}")
    grad = problem.h_mat @ z + problem.c_vec
    rows = [problem.a_eq]
    slack = problem.a_in @ z - problem.b_in
    active = np.where(slack > -active_tol * (1.0 + np.abs(problem.b_in)))[0]
    if len(active):
        rows.append(problem.a_in[active])
    a_t = np.vstack(rows).T
    mult, *_ = np.linalg.lstsq(a_t, -grad, rcond=None)
    n_eq = problem.a_eq.shape[0]
    mult[n_eq:] = np.maximum(mult[n_eq:], 0.0)
    return float(np.linalg.norm(grad + a_t @ mult))


def dump_problem(problem: MpcProblem, path) -> None:
    """Write the assembled QP in a labeled matrix-text format.

    Blocks are ``name rows cols`` headers followed by whitespace-separated
    rows at full precision, so any external tool can re-check a solve.
    """
    blocks = [
        ("H", problem.h_mat),
        ("c", problem.c_vec.reshape(1, -1)),
        ("A_eq", problem.a_eq),
        ("b_eq", problem.b_eq.reshape(1, -1)),
        ("A_in", problem.a_in),
        ("b_in", problem.b_in.reshape(1, -1)),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# horizon QP dump: n={problem.n} gamma={problem.gamma:.9g} "
                 f"soft_weight={SOFT_WEIGHT:.9g} te_ridge={TE_RIDGE:.9g}\n")
        fh.write(f"# objective constant term: {problem.const:.17g}\n")
        for name, mat in blocks:
            fh.write(f"{name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fh.write(" ".join(f"{val:.17g}" for val in row) + "\n")
