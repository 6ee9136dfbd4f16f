"""Tour of the plant model and road tooling.

Walks the longitudinal dynamics and fuel maps at a 30 m/s cruise, shows how
good the one-point linear model is around that cruise, then builds a synthetic
hilly road and round-trips real elevation data through the road reader.
"""

import tempfile
from pathlib import Path

import numpy as np

from ecocruise.road import gen_sinusoidal, preview, read_road_csv, write_road_csv
from ecocruise.vehicle import (
    VehicleParams,
    accel,
    equilibrium_torque,
    fuel_per_meter,
    fuel_rate_time,
    linearize,
    next_velocity,
)

params = VehicleParams()
print("== cruise point ==")
v_ref = 30.0
te_eq = equilibrium_torque(params, v_ref)
print(f"holding {v_ref} m/s on flat road needs {te_eq:.2f} N.m")
print(f"fuel flow there: {fuel_rate_time(params, v_ref, te_eq):.4f} kg/h "
      f"({fuel_per_meter(params, v_ref, te_eq) * 1e5:.3f} kg per 100 km... per meter x1e5)")

print("\n== grade sensitivity ==")
for phi in (-0.05, -0.02, 0.0, 0.02, 0.05):
    a = accel(params, v_ref, te_eq, phi)
    print(f"grade {phi:+.2f}: acceleration {a:+.4f} m/s^2 at the cruise torque")

print("\n== linear model quality over one 30 m step ==")
lin = linearize(params, v_ref)
print(f"A={lin.a_coef:.6f}  B1={lin.b1:.6f}  B2={lin.b2:.3f}")
worst = 0.0
for dv in np.linspace(-2, 2, 5):
    for dte in np.linspace(-40, 40, 5):
        for phi in (-0.05, 0.0, 0.05):
            truth = next_velocity(params, v_ref + dv, lin.te_lin + dte, phi)
            pred = v_ref + lin.a_coef * dv + lin.b1 * dte + lin.b2 * phi
            worst = max(worst, abs(truth - pred))
print(f"worst one-step prediction error over a +/-2 m/s, +/-40 N.m, +/-5% box: {worst:.4f} m/s")

print("\n== synthetic road ==")
road = gen_sinusoidal(seed=7, length_m=12000.0)
print(f"{road.length_m / 1000:.0f} km road, {road.n_steps} segments, "
      f"grade range [{road.grade.min():+.4f}, {road.grade.max():+.4f}]")
window = preview(road, 150, 100)
print(f"3 km preview at 4.5 km: mean grade {window.mean():+.5f}")

print("\n== elevation CSV round trip ==")
with tempfile.TemporaryDirectory() as tmp:
    raw = Path(tmp) / "survey.csv"
    rows = ["distance_m,elevation_m"] + [
        f"{d},{50 + 8 * np.sin(d / 900.0):.3f}" for d in range(0, 9001, 45)
    ]
    raw.write_text("\n".join(rows) + "\n")
    ingested = read_road_csv(raw)
    print(f"ingested {len(ingested.elevation)} uniform samples from 45 m survey spacing")
    out = Path(tmp) / "road.csv"
    write_road_csv(ingested, out)
    print(f"exported to {out.name}: {len(out.read_text().splitlines())} lines")
