"""Recovering the controller's fuel weight from optimal behavior.

Two experiments.  First the self-consistency round trip: solve the horizon
problem with a known weight, hand only the trajectory to the recovery
machinery, and get the weight back.  Then the production use: cut one
horizon window per road position out of a global-optimum trajectory and
recover all their weights in one pass over the stack; these become training
labels for the online predictor.
"""

import numpy as np

from ecocruise import mpc
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.invopt import detect_active, gamma_series, recover_weights
from ecocruise.road import gen_sinusoidal
from ecocruise.vehicle import VehicleParams, linearize

params = VehicleParams()
v_ref = 30.0
lin = linearize(params, v_ref)

print("== round trip: the weight is identifiable from the trajectory ==")
rng = np.random.default_rng(1)
for gamma_true in (0.0005, 0.003, 0.009):
    grades = rng.uniform(-0.05, 0.05, 60)
    problem = mpc.build(gamma_true, lin, grades, rng.uniform(-1, 1), params, v_ref=v_ref)
    sol = mpc.solve(problem)
    # a stack of one window: one row of velocities, one row of torques
    active = detect_active(sol.v[None], sol.te[None], lin, params)
    rec = recover_weights(sol.v[None], sol.te[None], lin, params, v_ref)
    print(f"true {gamma_true:.4f} -> recovered {rec.gamma[0]:.6f} "
          f"(residual {rec.residuals[0]:.2e}, active bounds: {active.sum()})")

print("\n== per-position weights along a road ==")
road = gen_sinusoidal(seed=13, length_m=9000.0)
solution = dp_solve(params, road, DpConfig.default(params, v_ref, dvavg=0.05))
series = gamma_series(solution, road, lin, params, 60, v_ref=v_ref)
clean = np.array([not f for f in series.flags])
g = series.gamma[clean]
print(f"{clean.sum()}/{len(series)} clean recoveries")
print(f"weight stats: median {np.median(g):.5f}, p90 {np.percentile(g, 90):.5f}, "
      f"max {g.max():.5f}")

# the weight rises exactly where the optimum rides below the set point
# (typically easing off before descents); only a substantial fuel weight
# makes a horizon controller accept that below-target average
traj = solution.trajectory
mean_dev = np.array([traj.v[k:k + 61].mean() - v_ref for k in range(len(series))])
grade_ahead = np.array(
    [road.grade[k : min(k + 60, road.n_steps)].mean() for k in range(len(series))]
)
hi = clean & (series.gamma > 0.003)
lo = clean & (series.gamma < 1e-6)
print(f"high-weight windows ({hi.sum()}): optimal speed runs "
      f"{mean_dev[hi].mean():+.2f} m/s vs target, grade ahead {grade_ahead[hi].mean():+.4f}")
print(f"zero-weight windows ({lo.sum()}): optimal speed runs "
      f"{mean_dev[lo].mean():+.2f} m/s vs target, grade ahead {grade_ahead[lo].mean():+.4f}")
