"""Recover the controller's fuel weight from an observed optimal trajectory.

A trajectory window that is optimal for the horizon problem must satisfy its
first-order optimality conditions.  Writing those conditions with the fuel
weight and the constraint multipliers as the only unknowns gives a linear
system Q y = w with

    y = [ weight | p(0..N) equality multipliers | q_j active-bound multipliers ]

one stationarity row per primal variable (2N+1 rows), so the system is
overdetermined whenever few bounds are active.  Windows cut from the global
optimizer do not satisfy the linear horizon dynamics exactly, so instead of
solving we minimize a row-weighted residual with the weight and all bound
multipliers constrained nonnegative; the row weights decay linearly from the
start of the window to its end because only the first control of a horizon is
ever applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .formats import num
from .mpc import TE_RIDGE
from .qp import QpError, solve_qp
from .road import RoadProfile
from .vehicle import LinearizedModel, VehicleParams, equilibrium_torque

ACTIVE_TOL = 1e-6
GAMMA_CAP = 0.05
DEGENERACY_RCOND = 1e-10


@dataclass(frozen=True)
class DeviationWindow:
    """One horizon of states/inputs expressed as deviations from the
    linearization point: N+1 velocities, N torques."""

    v: np.ndarray
    te: np.ndarray

    def __post_init__(self) -> None:
        if len(self.v) != len(self.te) + 1:
            raise ValueError("window needs one more velocity than torque samples")

    @property
    def n(self) -> int:
        return len(self.te)


@dataclass(frozen=True)
class KktSystem:
    """Stationarity system Q y = w with row weights and the unknown layout."""

    q_mat: np.ndarray
    w_vec: np.ndarray
    r_weights: np.ndarray
    active_set: tuple[int, ...]
    n: int

    @property
    def gamma_col(self) -> int:
        return 0

    @property
    def q_cols(self) -> slice:
        return slice(self.n + 2, self.n + 2 + len(self.active_set))


@dataclass(frozen=True)
class GammaRecovery:
    gamma: float
    residual: float
    degenerate: bool
    y: np.ndarray


@dataclass(frozen=True)
class GammaSeries:
    """Per-position recovered fuel weights along a road.

    ``flags`` holds an empty string for clean recoveries and a short reason
    ("degenerate", "clamped", "failed") otherwise; flagged rows are excluded
    from training datasets.
    """

    positions: np.ndarray
    gamma: np.ndarray
    residuals: np.ndarray
    flags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.gamma)


def window_from_absolute(v_abs, te_abs, lin: LinearizedModel) -> DeviationWindow:
    """Shift absolute velocity/torque samples into deviation coordinates."""
    return DeviationWindow(
        v=np.asarray(v_abs, dtype=float) - lin.v_lin,
        te=np.asarray(te_abs, dtype=float) - lin.te_lin,
    )


def detect_active(
    window: DeviationWindow,
    lin: LinearizedModel,
    params: VehicleParams,
    tol: float = ACTIVE_TOL,
) -> tuple[int, ...]:
    """Indices of bounds met within ``tol``.

    Layout over 4N slots: velocity-floor hits on v(1..N) in [0,N), ceiling
    hits in [N,2N), torque-floor hits in [2N,3N), torque-ceiling in [3N,4N).
    The first velocity carries no bound; it is pinned by the initial
    condition.
    """
    n = window.n
    v_lo = params.v_min - lin.v_lin
    v_hi = params.v_max - lin.v_lin
    t_lo = params.te_min - lin.te_lin
    t_hi = params.te_max - lin.te_lin
    active: list[int] = []
    v_tail = window.v[1:]
    for j in range(n):
        if v_tail[j] - v_lo <= tol:
            active.append(j)
    for j in range(n):
        if v_hi - v_tail[j] <= tol:
            active.append(n + j)
    for j in range(n):
        if window.te[j] - t_lo <= tol:
            active.append(2 * n + j)
    for j in range(n):
        if t_hi - window.te[j] <= tol:
            active.append(3 * n + j)
    return tuple(active)


def build_kkt(
    window: DeviationWindow,
    grade_window,
    lin: LinearizedModel,
    params: VehicleParams,
    active_set: tuple[int, ...] = (),
    v_ref: float | None = None,
) -> KktSystem:
    """Assemble the stationarity system at an observed window.

    Row r is the derivative of the Lagrangian with respect to primal variable
    r (velocities first, then torques).  Column 0 carries the fuel-term
    gradient (multiplied by the unknown weight), the next N+1 columns the
    dynamics/initial-condition gradients, then one column per active bound.
    The known right side collects the weight-free gradients: the tracking
    term plus the controller's torque tie-break ridge.
    """
    grades = np.asarray(grade_window, dtype=float)
    n = window.n
    if len(grades) != n:
        raise ValueError(f"grade window length {len(grades)} != horizon {n}")
    n_x = 2 * n + 1
    c0, c_v, c_t = lin.fuel_lin
    r_bar = 0.0 if v_ref is None else float(v_ref - lin.v_lin)

    n_cols = 1 + (n + 1) + len(active_set)
    q = np.zeros((n_x, n_cols))
    w = np.zeros(n_x)

    # fuel-term gradient (column of the unknown weight)
    rho = c0 + c_v * window.v[:n] + c_t * window.te
    q[:n, 0] = 2.0 * rho * c_v
    q[n + 1 :, 0] = 2.0 * rho * c_t

    # weight-free gradients move to the right side: tracking on the velocity
    # rows, the torque-slew tie-break on the torque rows
    m = 1.0 / (n + 1)
    track = r_bar - m * float(np.sum(window.v))
    w[: n + 1] = 2.0 * track * m
    slew_grad = np.zeros(n)
    if n > 1:
        d = np.diff(window.te)
        slew_grad[0] = -2.0 * TE_RIDGE * d[0]
        slew_grad[-1] = 2.0 * TE_RIDGE * d[-1]
        slew_grad[1:-1] = 2.0 * TE_RIDGE * (d[:-1] - d[1:])
    w[n + 1 :] = -slew_grad

    # equality-constraint gradients: initial condition then dynamics
    q[0, 1] = -1.0
    for i in range(n):
        col = 2 + i
        q[i + 1, col] = 1.0
        q[i, col] = -lin.a_coef
        q[n + 1 + i, col] = -lin.b1

    # active-bound gradients
    for pos, j in enumerate(active_set):
        col = n + 2 + pos
        if j < n:
            q[1 + j, col] = -1.0
        elif j < 2 * n:
            q[1 + (j - n), col] = 1.0
        elif j < 3 * n:
            q[n + 1 + (j - 2 * n), col] = -1.0
        elif j < 4 * n:
            q[n + 1 + (j - 3 * n), col] = 1.0
        else:
            raise ValueError(f"active index {j} outside 4N layout")

    # near-term rows weigh most: linear decay from 1 at the window start
    steps = np.arange(n + 1)
    r_weights = np.concatenate([(n - steps) / n, (n - steps[:n]) / n])
    return KktSystem(q_mat=q, w_vec=w, r_weights=r_weights, active_set=tuple(active_set), n=n)


def recover_gamma(kkt: KktSystem) -> GammaRecovery:
    """Weighted least-squares fit of the unknowns with sign constraints.

    The weight and every active-bound multiplier are projected onto the
    nonnegative orthant exactly (active-set QP), not truncated afterwards.
    Rank deficiency of the weighted system is reported via ``degenerate``;
    the minimum-norm solution is still returned.
    """
    sqrt_r = np.sqrt(kkt.r_weights)
    a_mat = sqrt_r[:, None] * kkt.q_mat
    b_vec = sqrt_r * kkt.w_vec
    svals = np.linalg.svd(a_mat, compute_uv=False)
    degenerate = bool(svals[-1] <= DEGENERACY_RCOND * svals[0]) if len(svals) else True

    n_cols = a_mat.shape[1]
    h = 2.0 * a_mat.T @ a_mat
    c = -2.0 * a_mat.T @ b_vec
    nonneg = [kkt.gamma_col] + list(range(kkt.q_cols.start, kkt.q_cols.stop))
    a_in = np.zeros((len(nonneg), n_cols))
    for row, idx in enumerate(nonneg):
        a_in[row, idx] = -1.0
    b_in = np.zeros(len(nonneg))
    result = solve_qp(h, c, None, None, a_in, b_in, np.zeros(n_cols))
    y = result.x.copy()
    # bound-active entries come back with numerical dust; project exactly
    if np.min(y[nonneg], initial=0.0) < -1e-9:
        raise QpError("sign-constrained entries escaped their bound")
    y[nonneg] = np.maximum(y[nonneg], 0.0)
    residual = float(np.linalg.norm(a_mat @ y - b_vec))
    return GammaRecovery(gamma=float(y[0]), residual=residual, degenerate=degenerate, y=y)


def gamma_series(
    dp_solution,
    road: RoadProfile,
    lin: LinearizedModel,
    params: VehicleParams,
    n: int,
    v_ref: float | None = None,
) -> GammaSeries:
    """Recover one fuel weight per road position from a global-optimum run.

    Windows that run past the end of the road are continued as steady flat
    cruising at the final speed, matching the zero-grade padding previews use.
    """
    traj = dp_solution.trajectory
    p_steps = road.n_steps
    if len(traj.v) != p_steps + 1 or traj.n_steps != p_steps:
        raise ValueError("trajectory does not cover the road")

    pad_v = float(traj.v[-1])
    pad_te = equilibrium_torque(params, pad_v)
    v_ext = np.concatenate([traj.v, np.full(n, pad_v)])
    te_ext = np.concatenate([traj.te, np.full(n, pad_te)])
    grade_ext = np.concatenate([road.grade, np.zeros(n)])

    gammas = np.zeros(p_steps)
    residuals = np.zeros(p_steps)
    flags: list[str] = []
    for k in range(p_steps):
        window = window_from_absolute(v_ext[k : k + n + 1], te_ext[k : k + n], lin)
        grades = grade_ext[k : k + n]
        flag = ""
        try:
            active = detect_active(window, lin, params)
            rec = recover_gamma(build_kkt(window, grades, lin, params, active, v_ref))
            gamma = rec.gamma
            residuals[k] = rec.residual
            if rec.degenerate:
                flag = "degenerate"
            if gamma > GAMMA_CAP or gamma < 0.0:
                gamma = min(max(gamma, 0.0), GAMMA_CAP)
                flag = flag or "clamped"
        except QpError:
            gamma = 0.0
            residuals[k] = np.inf
            flag = "failed"
        gammas[k] = gamma
        flags.append(flag)
    return GammaSeries(
        positions=np.arange(p_steps),
        gamma=gammas,
        residuals=residuals,
        flags=tuple(flags),
    )


def write_gamma_csv(series: GammaSeries, path, ds: float = 30.0,
                    header_lines: list[str] | None = None) -> None:
    """Export ``index,position_m,gamma,residual,flags`` (the training labels)."""
    formats.write_table(
        path,
        ["index", "position_m", "gamma", "residual", "flags"],
        (
            [int(series.positions[i]), num(series.positions[i] * ds), num(series.gamma[i]),
             num(series.residuals[i]), series.flags[i]]
            for i in range(len(series))
        ),
        header_lines,
    )


def read_gamma_csv(path) -> GammaSeries:
    columns, rows = formats.read_table(path)
    if columns[:3] != ["index", "position_m", "gamma"]:
        raise ValueError(f"{path}: not a gamma-series export")
    index, gamma, residuals = formats.float_columns(path, rows, (0, 2, 3))
    return GammaSeries(
        positions=index.astype(int),
        gamma=gamma,
        residuals=residuals,
        flags=tuple(r[4] if len(r) > 4 else "" for _, r in rows),
    )
