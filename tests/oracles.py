"""The references the tests compare the package against.

:func:`full_space` writes the horizon program out over the full vector
z = [dv(0..N) | dte(0..N-1) | s(0..N-1)] from the inputs of ``mpc.build``
and the blocks of ``mpc.horizon_program``, never from the condensed problem
it certifies.  :func:`loss_and_grads` is the training loss the
finite-difference checks differentiate, :func:`replay_train` a step-by-step
replay of ``net.train`` that its epoch losses are checked against, and
:func:`integrate_fine` an RK4 truth value for the plant step's truncation
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ecocruise import mpc, net
from ecocruise.blas import serial
from ecocruise.qp import solve_qp
from ecocruise.vehicle import StepFailure

# relative slack below which kkt_residual counts an inequality row as active
KKT_ACTIVE_TOL = 1e-7


@dataclass(frozen=True)
class FullSpace:
    """min 0.5 z'(h_mat)z + (c_vec)'z + const  s.t.  a_eq z = b_eq, a_in z <= b_in."""

    n: int
    v_init: float
    grade_window: np.ndarray
    bounds: tuple[float, float, float, float]
    h_mat: np.ndarray
    c_vec: np.ndarray
    const: float
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray

    @property
    def n_vars(self) -> int:
        return 3 * self.n + 1

    def objective_at(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.h_mat @ z + self.c_vec @ z + self.const)

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n
        return z[: n + 1], z[n + 1 : 2 * n + 1], z[2 * n + 1 :]

    def feasible_start(self) -> np.ndarray:
        """Zero-torque rollout, with slacks absorbing any velocity-bound spill."""
        v = np.linalg.solve(self.a_eq[:, : self.n + 1], self.b_eq)
        v_lo, v_hi, _, _ = self.bounds
        spill = np.maximum(0.0, np.maximum(v[1:] - v_hi, v_lo - v[1:]))
        return np.concatenate([v, np.zeros(self.n), spill])


def full_space(gamma, lin, grade_window, v_init, params, v_ref) -> FullSpace:
    grades = np.asarray(grade_window, dtype=float)
    n = len(grades)
    program = mpc.horizon_program(lin, n)
    v_ref_dev = float(v_ref - lin.v_lin)
    bounds = mpc.deviation_bounds(lin, params)
    zero = np.zeros(3 * n + 1)
    return FullSpace(
        n=n, v_init=float(v_init), grade_window=grades, bounds=bounds,
        h_mat=2.0 * gamma * program.fuel.T @ program.fuel + program.h_rest,
        c_vec=gamma * program.fuel_gradient(zero) + program.rest_gradient(zero, v_ref_dev),
        const=gamma * n * program.fuel0 * program.fuel0 + v_ref_dev * v_ref_dev,
        a_eq=program.a_eq, b_eq=np.concatenate([[v_init], lin.b2 * grades]),
        a_in=program.a_in, b_in=program.in_rhs(bounds),
    )


def solve_full(full: FullSpace) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """The optimum z, working set, inequality multipliers and dynamics
    multipliers of the full-space program.

    The velocity columns of ``a_eq`` are square and lower triangular, so a
    linear solve with them writes z as an affine image of u = [dte | s],
    independently of ``mpc``'s rollout recursion; the reduced program goes
    to ``solve_qp``.  The dynamics multipliers follow by back-substitution
    through the velocity rows of the stationarity condition.
    """
    nv = full.n + 1
    a_v = full.a_eq[:, :nv]
    basis = np.vstack([-np.linalg.solve(a_v, full.a_eq[:, nv:]), np.eye(full.n_vars - nv)])
    shift = np.concatenate([np.linalg.solve(a_v, full.b_eq), np.zeros(full.n_vars - nv)])
    res = solve_qp(basis.T @ full.h_mat @ basis, basis.T @ (full.h_mat @ shift + full.c_vec),
                   full.a_in @ basis, full.b_in - full.a_in @ shift, full.feasible_start()[nv:])
    z = basis @ res.x + shift
    grad = full.h_mat @ z + full.c_vec + full.a_in.T @ res.in_mult
    return z, res.working, res.in_mult, np.linalg.solve(a_v.T, -grad[:nv])


def build_pair(*args, **kwargs) -> tuple[mpc.MpcProblem, FullSpace]:
    """The problem ``mpc.build`` condenses, with its full-space program."""
    return mpc.build(*args, **kwargs), full_space(*args, **kwargs)


def as_vector(solution: mpc.MpcSolution) -> np.ndarray:
    return np.concatenate([solution.v, solution.te, solution.slack])


def kkt_residual(full: FullSpace, solution) -> float:
    """Stationarity norm of a solution or full-space point ``z``.

    Multipliers are fitted by least squares over the constraints active at the
    point (inequality multipliers clipped at zero), so a true optimum scores
    ~0 and any perturbation scores strictly worse.
    """
    z = as_vector(solution) if isinstance(solution, mpc.MpcSolution) else np.asarray(solution, float)
    if len(z) != full.n_vars:
        raise ValueError(f"expected {full.n_vars} variables, got {len(z)}")
    grad = full.h_mat @ z + full.c_vec
    active = full.a_in @ z - full.b_in > -KKT_ACTIVE_TOL * (1.0 + np.abs(full.b_in))
    a_t = np.vstack([full.a_eq, full.a_in[active]]).T
    mult, *_ = np.linalg.lstsq(a_t, -grad, rcond=None)
    mult[full.n + 1 :] = np.maximum(mult[full.n + 1 :], 0.0)
    return float(np.linalg.norm(grad + a_t @ mult))


def loss_and_grads(weights, biases, x, y, l2):
    """The training loss, mean squared ``net._error`` plus the L2 penalty on
    the weights, with its analytic backprop gradients."""
    acts = net._forward(weights, biases, x)
    err = net._error(acts[-1][:, 0], y)
    grads = [np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases]
    net._grads(weights, acts, err, l2, grads)
    loss = float(np.mean(err * err)) + l2 * sum(float(np.sum(w * w)) for w in weights)
    return (loss, *grads)


def fit_rows(config: net.TrainConfig, n: int) -> np.ndarray:
    """The rows ``net.train`` fits on: its seed's permutation past the test
    and validation slices."""
    perm = np.random.default_rng(config.seed).permutation(n)
    n_test = max(1, int(round(config.test_fraction * n)))
    n_val = max(1, int(round(config.val_fraction * (n - n_test))))
    return perm[n_test + n_val :]


@serial
def replay_train(dataset: net.Dataset, config: net.TrainConfig):
    """Every epoch's mean squared minibatch error and the final parameters of
    ``net.train``, replayed from the seed's split and permutations with the
    Nesterov step written out of place (no early stop, no snapshot).  Each
    minibatch's error is taken at the weights before its step."""
    rows = fit_rows(config, len(dataset))
    x = net.MinMaxScaler.fit(dataset.features[rows]).transform(dataset.features[rows])
    y_scaler = net.MinMaxScaler.fit(np.append(dataset.targets[rows], 0.0)[:, None])
    y = y_scaler.transform(dataset.targets[rows, None])[:, 0]
    rng = np.random.default_rng(config.seed)
    rng.permutation(len(dataset))  # the split
    params = net._init_params(net.LAYER_DIMS, rng)
    velocity = np.zeros_like(params)
    grad = np.empty_like(params)
    losses = []
    for _ in range(config.epochs):
        sq_err = 0.0
        order = rng.permutation(len(rows))
        for start in range(0, len(rows), config.batch_size):
            batch = order[start : start + config.batch_size]
            weights, biases = net._layers(params, net.LAYER_DIMS)
            acts = net._forward(weights, biases, x[batch])
            err = net._error(acts[-1][:, 0], y[batch])
            sq_err += float(err @ err)
            net._grads(weights, acts, err, config.l2, net._layers(grad, net.LAYER_DIMS))
            step = config.learning_rate * grad
            velocity = net.MOMENTUM * velocity - step
            params = params - step + net.MOMENTUM * velocity
        losses.append(sq_err / len(rows))
    return losses, params


def integrate_fine(params, v0: float, te: float, phi: float, distance: float) -> float:
    """RK4 on dv/ds = a(v)/v at millimeter steps: the continuous flow the
    one-shot Euler plant step approximates."""
    a0, a1, a2, a3, a4 = params.alpha

    def f(vv: float) -> float:
        if vv <= 0:
            raise StepFailure("reference integration stalled")
        return (a0 * te - a1 * phi - a2 - a3 * vv - a4 * vv * vv) / vv

    v = float(v0)
    n_sub = max(1, int(round(distance / 1e-3)))
    h = distance / n_sub
    for _ in range(n_sub):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return v
