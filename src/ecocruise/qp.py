"""Dense strictly convex quadratic programming by a primal active-set method.

Solves

    min  0.5 x'Hx + c'x
    s.t. A_in x <= b_in

for positive definite H and at least one inequality row, starting from a
caller-supplied feasible point.
Each iteration solves the equality-constrained subproblem for the current
working set through the bordered KKT system, steps to the nearest blocking
inequality, and drops working constraints with negative multipliers.  The
working set starts empty; the solve is deterministic and certifies its
result with its stationarity residual.

The solve runs its BLAS and LAPACK kernels on the calling thread (see
:func:`ecocruise.blas.serial`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import serial

FEAS_TOL = 1e-7    # relative violation a start point may carry
STEP_TOL = 1e-11   # relative step length that counts as the subproblem optimum
MULT_TOL = 1e-10   # most negative working multiplier accepted at the optimum
KKT_TOL = 1e-7     # scaled residual beyond which a KKT solve is not trusted


class QpError(RuntimeError):
    """Solver could not produce a certified optimum."""


@dataclass
class QpResult:
    x: np.ndarray
    in_mult: np.ndarray          # one entry per inequality row, 0 off the working set
    working: list[int]
    iterations: int
    stationarity: float          # ||Hx + c + A_in'(in_mult)||_2


def _kkt_solve(h_mat, g_mat, grad):
    """Solve the bordered system [[H, G'], [G, 0]] [p; mu] = [-grad; 0].

    With H positive definite and the working rows independent the system is
    nonsingular; a singular or inaccurate solve raises ``QpError``.
    """
    n, m = h_mat.shape[0], g_mat.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = h_mat
    if m:
        kkt[:n, n:] = g_mat.T
        kkt[n:, :n] = g_mat
    rhs = np.concatenate([-grad, np.zeros(m)])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(n + m, np.nan)
    if not np.max(np.abs(kkt @ sol - rhs)) <= KKT_TOL * (1.0 + np.max(np.abs(rhs))):
        raise QpError("KKT subsystem singular or solved inaccurately "
                      "(is the Hessian positive definite?)")
    return sol[:n], sol[n:]


@serial
def solve_qp(h_mat, c_vec, a_in, b_in, x0) -> QpResult:
    h_mat = np.asarray(h_mat, dtype=float)
    c_vec = np.asarray(c_vec, dtype=float)
    n = len(c_vec)
    a_in = np.asarray(a_in, dtype=float).reshape(-1, n)
    b_in = np.asarray(b_in, dtype=float).ravel()
    x = np.asarray(x0, dtype=float).copy()

    if np.max(a_in @ x - b_in) > FEAS_TOL * (1.0 + np.max(np.abs(b_in))):
        raise QpError("starting point violates inequality constraints")

    n_in = a_in.shape[0]
    working: list[int] = []
    max_iter = 20 * (n + n_in) + 50

    for iteration in range(1, max_iter + 1):
        grad = h_mat @ x + c_vec
        p, w_mult = _kkt_solve(h_mat, a_in[working], grad)

        if np.max(np.abs(p), initial=0.0) > STEP_TOL * (1.0 + np.max(np.abs(x), initial=0.0)):
            # ratio test against inequalities outside the working set
            alpha, blocking = 1.0, -1
            denom = a_in @ p
            slack = b_in - a_in @ x
            moving = denom > 1e-13
            moving[working] = False
            ratios = np.full(n_in, np.inf)
            ratios[moving] = np.maximum(slack[moving], 0.0) / denom[moving]
            # first row within rounding of the smallest ratio
            first = int(np.argmax(ratios <= ratios.min() + 1e-15))
            if ratios[first] < alpha - 1e-15:
                alpha = ratios[first]
                blocking = first
            x = x + alpha * p
            if blocking >= 0:
                working.append(blocking)
                continue
            # full unblocked step lands on the subproblem optimum, where the
            # multipliers from this same solve are valid: check them now
            # rather than waiting for the next solve to return p ~ 0

        if len(working) == 0 or np.min(w_mult, initial=0.0) >= -MULT_TOL:
            in_mult = np.zeros(n_in)
            in_mult[working] = np.maximum(w_mult, 0.0)
            return QpResult(
                x=x,
                in_mult=in_mult,
                working=sorted(working),
                iterations=iteration,
                stationarity=float(np.linalg.norm(h_mat @ x + c_vec + a_in.T @ in_mult)),
            )
        # drop the most negative working constraint and re-solve
        drop = int(np.argmin(w_mult))
        working.pop(drop)

    raise QpError(f"active-set method did not converge in {max_iter} iterations "
                  f"(n={n}, working set size {len(working)})")
