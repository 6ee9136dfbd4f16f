"""Recover the controller's fuel weight from observed optimal trajectories.

A trajectory window that is optimal for the horizon problem must satisfy its
first-order optimality conditions.  With the fuel weight ``gamma``, the N+1
equality multipliers ``p`` and the multipliers ``q`` of the bounds the
window meets as the only unknowns, stationarity in the window's 2N+1 primal
variables (velocities, then torques, at zero slack) reads

    a gamma + M p + C q = b

Every entry is read off the controller's own program,
:func:`ecocruise.mpc.horizon_program`: ``a`` is its fuel gradient at the
window, ``M`` its equality rows, ``C`` its met bound rows and ``b`` its
negated weight-free gradient.  Windows cut from the global optimizer do not
satisfy the linear horizon dynamics exactly, so instead of solving we fit
the unknowns by row-weighted least squares with ``gamma`` and ``q``
nonnegative; the row weights decay linearly from the start of the window to
its end because only the first control of a horizon is ever applied.

``M`` and the row weights are the same for every window of a horizon and
``p`` is free, so one QR of the weighted ``M`` per model and horizon
projects ``p`` out (Keshavarz, Wang & Boyd, "Imputing a convex objective
function", 2011): ``gamma`` and ``q`` fit ``P a`` and ``P C`` to ``P b``,
with ``P`` the projector onto the complement of the weighted ``M``.  A
window that meets no bound needs only the clipped ratio
``max(0, <Pa, Pb> / <Pa, Pa>)``, which a few matrix products give for a
whole stack of windows; a window that meets bounds solves the small
sign-constrained fit in ``gamma`` and ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import formats, mpc
from .blas import serial
from .formats import num
from .qp import QpError, solve_qp
from .road import DS, RoadProfile
from .vehicle import LinearizedModel, VehicleParams, equilibrium_torque

ACTIVE_TOL = 1e-6
GAMMA_CAP = 0.05
DEGENERACY_RCOND = 1e-10
GAMMA_COLUMNS = ("index", "position_m", "gamma", "residual", "flags")


@dataclass(frozen=True)
class GammaSeries:
    """Recovered fuel weights, one per window: along a road (from
    :func:`gamma_series`) entry ``k`` is the weight at step ``k``.

    ``flags`` holds an empty string for clean recoveries and a short reason
    ("degenerate", "clamped", "failed") otherwise; flagged rows are excluded
    from training datasets.
    """

    gamma: np.ndarray
    residuals: np.ndarray
    flags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.gamma)


def _points(v, te) -> np.ndarray:
    """A stack of windows as points of the controller's program, one per
    row, at zero slack."""
    v = np.asarray(v, dtype=float)
    te = np.asarray(te, dtype=float)
    if te.ndim != 2 or v.shape != (len(te), te.shape[1] + 1):
        raise ValueError("need one row of N+1 velocities per row of N torques")
    return np.hstack([v, te, np.zeros_like(te)])


@lru_cache(maxsize=16)
def _fit_basis(lin: LinearizedModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Square roots of the row weights, and a basis that maps a stationarity
    row vector to the coordinates of its weighted image with the weighted
    multiplier block ``M`` projected out.  One complete QR per model and
    horizon; every window of the program shares it."""
    steps = np.arange(n + 1)
    sqrt_r = np.sqrt(np.concatenate([(n - steps) / n, (n - steps[:n]) / n]))
    multipliers = sqrt_r[:, None] * mpc.horizon_program(lin, n).a_eq[:, : 2 * n + 1].T
    complement = np.linalg.qr(multipliers, mode="complete")[0][:, n + 1 :]
    basis = sqrt_r[:, None] * complement
    for arr in (sqrt_r, basis):
        arr.flags.writeable = False
    return sqrt_r, basis


def _min_norm_fit(fit: np.ndarray, rhs: np.ndarray, cutoff: float) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution of ``fit @ y = rhs`` with the
    singular values at or below ``cutoff`` counted as zero, and the rank
    that leaves."""
    u, svals, vt = np.linalg.svd(fit, full_matrices=False)
    keep = svals > cutoff
    return vt[keep].T @ (u[:, keep].T @ rhs / svals[keep]), int(keep.sum())


def detect_active(v, te, lin: LinearizedModel, params: VehicleParams) -> np.ndarray:
    """Which bounds each window of a stack meets within ``ACTIVE_TOL``.

    ``v`` holds one row of N+1 velocity deviations per window and ``te`` one
    row of N torque deviations.  The (windows, 4N) mask covers the
    controller's inequality rows [0, 4N) at zero slack: torque ceiling and
    floor on te(0..N-1), then velocity ceiling and floor on v(1..N).  The
    first velocity carries no bound; it is pinned by the initial condition.
    """
    z = _points(v, te)
    n = z.shape[1] // 3
    program = mpc.horizon_program(lin, n)
    rhs = program.in_rhs(mpc.deviation_bounds(lin, params))[: 4 * n]
    return rhs - z @ program.a_in[: 4 * n].T <= ACTIVE_TOL


@serial
def recover_weights(v, te, lin: LinearizedModel, params: VehicleParams,
                    v_ref: float) -> GammaSeries:
    """Fit the fuel weight of every window of a stack (layout as in
    :func:`detect_active`); each window's fit depends on that window alone.

    The weights are nonnegative but not capped.  A window is flagged
    "degenerate" when its projected weight and bound columns are
    rank-deficient: a singular value is at most ``DEGENERACY_RCOND`` times
    the norm of the weighted unprojected columns, e.g. when every torque of
    the window sits on a bound.  Its fit is not unique, so it is the
    minimum-norm least-squares fit, with those singular values counted as
    zero and the sign-constrained entries clipped at 0.  A window whose
    sign-constrained fit raises ``QpError`` is flagged "failed", with weight
    0 and an infinite residual.  ``residuals`` are the weighted
    stationarity residuals.
    """
    active = detect_active(v, te, lin, params)
    n = active.shape[1] // 4
    program = mpc.horizon_program(lin, n)
    sqrt_r, basis = _fit_basis(lin, n)
    r_bar = float(v_ref - lin.v_lin)
    # each window a one-row matrix: no product mixes windows, so a window's
    # numbers are the same bits in any stack
    z = _points(v, te)[:, None, :]
    a = program.fuel_gradient(z)[..., : 2 * n + 1]
    pa = (a @ basis)[:, 0]
    pb = (-program.rest_gradient(z, r_bar)[..., : 2 * n + 1] @ basis)[:, 0]
    a = a[:, 0]

    # no bound met: one sign-constrained unknown, the clipped ratio
    paa = np.einsum("ij,ij->i", pa, pa)
    degenerate = np.sqrt(paa) <= DEGENERACY_RCOND * np.linalg.norm(sqrt_r * a, axis=1)
    ratio = np.divide(np.einsum("ij,ij->i", pa, pb), paa, out=np.zeros_like(paa),
                      where=~degenerate)
    gamma = np.maximum(ratio, 0.0)
    residuals = np.linalg.norm(pb - gamma[:, None] * pa, axis=1)
    failed = np.zeros(len(a), dtype=bool)

    bound_rows = program.a_in[: 4 * n, : 2 * n + 1]
    for i in np.flatnonzero(active.any(axis=1)):
        columns = np.vstack([a[i], bound_rows[active[i]]])  # gamma, then q
        fit = (columns @ basis).T
        cutoff = DEGENERACY_RCOND * np.linalg.norm(sqrt_r * columns)
        y, rank = _min_norm_fit(fit, pb[i], cutoff)
        degenerate[i] = rank < len(y)
        if not degenerate[i]:
            try:
                working = solve_qp(2.0 * fit.T @ fit, -2.0 * fit.T @ pb[i], -np.eye(len(y)),
                                   np.zeros(len(y)), np.zeros(len(y))).working
            except QpError:
                failed[i] = True
                gamma[i], residuals[i] = 0.0, np.inf
                continue
            # the QP's normal equations square the fit's condition number:
            # keep its support and refit the entries off their bound
            free = np.delete(np.arange(len(y)), working)
            y = np.zeros(len(y))
            y[free] = _min_norm_fit(fit[:, free], pb[i], cutoff)[0]
        y = np.maximum(y, 0.0)
        gamma[i], residuals[i] = y[0], np.linalg.norm(fit @ y - pb[i])

    flags = tuple("failed" if f else "degenerate" if d else "" for f, d in zip(failed, degenerate))
    return GammaSeries(gamma=gamma, residuals=residuals, flags=flags)


def gamma_series(
    dp_solution,
    road: RoadProfile,
    lin: LinearizedModel,
    params: VehicleParams,
    n: int,
    v_ref: float,
) -> GammaSeries:
    """Recover one fuel weight per road position from a global-optimum run,
    capped at ``GAMMA_CAP`` (flagged "clamped" where the cap bites).

    Windows that run past the end of the road are continued as steady flat
    cruising at the final speed, matching the zero-grade padding previews use.
    """
    if n < 1:
        raise ValueError(f"horizon must contain at least one step, got {n}")
    traj = dp_solution.trajectory
    p_steps = road.n_steps
    if len(traj.v) != p_steps + 1 or traj.n_steps != p_steps:
        raise ValueError("trajectory does not cover the road")

    pad_v = float(traj.v[-1])
    v_ext = np.concatenate([traj.v, np.full(n, pad_v)]) - lin.v_lin
    te_ext = np.concatenate([traj.te, np.full(n, equilibrium_torque(params, pad_v))]) - lin.te_lin
    windows = np.lib.stride_tricks.sliding_window_view
    fits = recover_weights(windows(v_ext, n + 1)[:p_steps], windows(te_ext, n)[:p_steps],
                           lin, params, v_ref)
    flags = tuple(flag or ("clamped" if g > GAMMA_CAP else "")
                  for flag, g in zip(fits.flags, fits.gamma))
    return GammaSeries(gamma=np.minimum(fits.gamma, GAMMA_CAP), residuals=fits.residuals,
                       flags=flags)


def write_gamma_csv(series: GammaSeries, path, header_lines: list[str] | None = None) -> None:
    """Export ``index,position_m,gamma,residual,flags`` (the training labels)."""
    formats.write_table(
        path,
        GAMMA_COLUMNS,
        (
            [i, num(i * DS), num(series.gamma[i]), num(series.residuals[i]), series.flags[i]]
            for i in range(len(series))
        ),
        header_lines,
    )


def read_gamma_csv(path) -> GammaSeries:
    """Read back a series written by :func:`write_gamma_csv`; a non-finite
    or negative weight is rejected naming its row."""
    _, rows = formats.read_table(path, GAMMA_COLUMNS)
    gamma, residuals = formats.float_columns(path, rows, (2, 3))
    flags = formats.parse_rows(path, rows, lambda cells: cells[4])
    # not the residuals: a "failed" window's is inf
    formats.check_finite(path, rows, "gamma", gamma)
    negative = np.flatnonzero(gamma < 0.0)
    if len(negative):
        i = negative[0]
        raise ValueError(f"{path}: {formats.where(i, rows[i][0])}: negative gamma "
                         f"in {rows[i][1]!r}")
    return GammaSeries(gamma=gamma, residuals=residuals, flags=tuple(flags))
