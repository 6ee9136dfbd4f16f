"""Recover the controller's fuel weight from an observed optimal trajectory.

A trajectory window that is optimal for the horizon problem must satisfy its
first-order optimality conditions.  Writing those conditions with the fuel
weight and the constraint multipliers as the only unknowns gives a linear
system Q y = w with

    y = [ weight | p(0..N) equality multipliers | q_j active-bound multipliers ]

one stationarity row per primal variable (2N+1 rows), so the system is
overdetermined whenever few bounds are active.  Every entry is read off the
controller's own program, :func:`ecocruise.mpc.horizon_program`, at zero
slack: the weight column is its fuel gradient, the multiplier columns its
equality and bound rows, the right side its negated weight-free gradient.
Windows cut from the global optimizer do not satisfy the linear horizon
dynamics exactly, so instead of solving we minimize a row-weighted residual
with the weight and all bound multipliers constrained nonnegative; the row
weights decay linearly from the start of the window to its end because only
the first control of a horizon is ever applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats, mpc
from .formats import num
from .qp import QpError, solve_qp
from .road import DS, RoadProfile
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

    @property
    def z(self) -> np.ndarray:
        """The window as a point of the controller's program, zero slack."""
        return np.concatenate([self.v, self.te, np.zeros(self.n)])


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
    """Per-position recovered fuel weights along a road: entry ``k`` is the
    weight at step ``k``.

    ``flags`` holds an empty string for clean recoveries and a short reason
    ("degenerate", "clamped", "failed") otherwise; flagged rows are excluded
    from training datasets.
    """

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
    window: DeviationWindow, lin: LinearizedModel, params: VehicleParams
) -> tuple[int, ...]:
    """Indices of bounds met within ``ACTIVE_TOL``.

    Layout over 4N slots: velocity-floor hits on v(1..N) in [0,N), ceiling
    hits in [N,2N), torque-floor hits in [2N,3N), torque-ceiling in [3N,4N).
    These are the controller's inequality rows [3N,4N), [2N,3N), [N,2N) and
    [0,N) at zero slack.  The first velocity carries no bound; it is pinned
    by the initial condition.
    """
    n = window.n
    program = mpc.horizon_program(lin, n)
    rhs = program.in_rhs(mpc.deviation_bounds(lin, params))[: 4 * n]
    slack = (rhs - program.a_in[: 4 * n] @ window.z).reshape(4, n)[::-1]
    return tuple(np.flatnonzero(slack.ravel() <= ACTIVE_TOL).tolist())


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
    r (velocities first, then torques) of the controller's program at zero
    slack.  Column 0 carries the fuel-term gradient (multiplied by the
    unknown weight), the next N+1 columns the initial-condition and dynamics
    rows, then one column per active bound.  The known right side is the
    negated weight-free gradient: tracking plus the torque-slew tie-break.
    """
    n = window.n
    if len(grade_window) != n:
        raise ValueError(f"grade window length {len(grade_window)} != horizon {n}")
    bad = [j for j in active_set if not 0 <= j < 4 * n]
    if bad:
        raise ValueError(f"active index {bad[0]} outside 4N layout")
    program = mpc.horizon_program(lin, n)
    n_x = 2 * n + 1
    z = window.z
    r_bar = 0.0 if v_ref is None else float(v_ref - lin.v_lin)
    rows = [(3 - j // n) * n + j % n for j in active_set]  # slot -> row, see detect_active

    q = np.empty((n_x, n + 2 + len(rows)))
    q[:, 0] = program.fuel_gradient(z)[:n_x]
    q[:, 1 : n + 2] = program.a_eq[:, :n_x].T
    q[:, 1] *= -1.0
    q[:, n + 2 :] = program.a_in[rows, :n_x].T
    w = -program.rest_gradient(z, r_bar)[:n_x]

    # near-term rows weigh most: linear decay from 1 at the window start
    steps = np.arange(n + 1)
    r_weights = np.concatenate([(n - steps) / n, (n - steps[:n]) / n])
    return KktSystem(q_mat=q, w_vec=w, r_weights=r_weights, active_set=tuple(active_set), n=n)


def recover_gamma(kkt: KktSystem) -> GammaRecovery:
    """Weighted least-squares fit of the unknowns with sign constraints.

    The weight and every active-bound multiplier are projected onto the
    nonnegative orthant exactly (active-set QP), not truncated afterwards.
    When the weighted system is rank-deficient (smallest singular value at
    most ``DEGENERACY_RCOND`` times the largest, e.g. every torque of the
    window on a bound) its fit is not unique and the active-set method can
    cycle, so the QP is skipped: ``y`` is then the minimum-norm
    least-squares solution with its sign-constrained entries clipped at 0,
    ``degenerate`` is set, and ``residual`` is the weighted residual of that
    clipped ``y``.
    """
    sqrt_r = np.sqrt(kkt.r_weights)
    a_mat = sqrt_r[:, None] * kkt.q_mat
    b_vec = sqrt_r * kkt.w_vec
    svals = np.linalg.svd(a_mat, compute_uv=False)
    degenerate = bool(svals[-1] <= DEGENERACY_RCOND * svals[0]) if len(svals) else True

    nonneg = [kkt.gamma_col] + list(range(kkt.q_cols.start, kkt.q_cols.stop))
    if degenerate:
        y = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
    else:
        n_cols = a_mat.shape[1]
        h = 2.0 * a_mat.T @ a_mat
        c = -2.0 * a_mat.T @ b_vec
        a_in = np.zeros((len(nonneg), n_cols))
        for row, idx in enumerate(nonneg):
            a_in[row, idx] = -1.0
        b_in = np.zeros(len(nonneg))
        y = solve_qp(h, c, None, None, a_in, b_in, np.zeros(n_cols)).x.copy()
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
    return GammaSeries(gamma=gammas, residuals=residuals, flags=tuple(flags))


def write_gamma_csv(series: GammaSeries, path, header_lines: list[str] | None = None) -> None:
    """Export ``index,position_m,gamma,residual,flags`` (the training labels)."""
    formats.write_table(
        path,
        ["index", "position_m", "gamma", "residual", "flags"],
        (
            [i, num(i * DS), num(series.gamma[i]), num(series.residuals[i]), series.flags[i]]
            for i in range(len(series))
        ),
        header_lines,
    )


def read_gamma_csv(path) -> GammaSeries:
    columns, rows = formats.read_table(path)
    if columns[:3] != ["index", "position_m", "gamma"]:
        raise ValueError(f"{path}: not a gamma-series export")
    gamma, residuals = formats.float_columns(path, rows, (2, 3))
    return GammaSeries(gamma=gamma, residuals=residuals,
                       flags=tuple(r[4] if len(r) > 4 else "" for _, r in rows))
