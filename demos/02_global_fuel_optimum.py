"""Global minimum-fuel driving versus plain cruise control.

Solves the whole-road fuel minimization on a 12 km hilly road, replays the
optimal torque schedule open loop, and compares fuel economy against a PI
tracker holding the set point.  The optimizer banks speed before climbs and
gives it back on descents while keeping the trip average at the set point.
"""

from ecocruise.dp import DpConfig, solve, write_dp_csv
from ecocruise.harness import Artifacts, ControllerSpec, run
from ecocruise.road import gen_sinusoidal
from ecocruise.vehicle import VehicleParams

params = VehicleParams()
road = gen_sinusoidal(seed=13, length_m=12000.0)
v_ref = 30.0

print(f"road: {road.length_m / 1000:.0f} km, grades in "
      f"[{road.grade.min():+.3f}, {road.grade.max():+.3f}]")

config = DpConfig.default(params, v_ref, dvavg=0.05)
print(f"grids: {len(config.v_grid)} velocities x {len(config.vavg_grid)} averages "
      f"x {len(config.te_grid)} torques")
solution = solve(params, road, config)
traj = solution.trajectory
print(f"optimal fuel: {solution.total_fuel:.4f} kg, trip average "
      f"{traj.vavg[-1]:.3f} m/s, speed range [{traj.v.min():.2f}, {traj.v.max():.2f}]")

pi = run(ControllerSpec(kind="PI", v_ref=v_ref, v_i=v_ref), road, params)
dp = run(ControllerSpec(kind="DP_REPLAY", v_ref=v_ref, v_i=v_ref), road, params,
         Artifacts(dp_solution=solution))
gain = 100 * (dp.fuel_economy_km_per_kg / pi.fuel_economy_km_per_kg - 1)
print(f"\nPI tracker : {pi.total_fuel_kg:.4f} kg at {pi.avg_velocity_mps:.3f} m/s "
      f"-> {pi.fuel_economy_km_per_kg:.3f} km/kg")
print(f"optimum    : {dp.total_fuel_kg:.4f} kg at {dp.avg_velocity_mps:.3f} m/s "
      f"-> {dp.fuel_economy_km_per_kg:.3f} km/kg")
print(f"fuel economy gain: {gain:+.2f}%")

# where does the saving come from: speed vs grade correlation
downhill = road.grade < -0.015
uphill = road.grade > 0.015
print(f"\nmean optimal speed on descents: {traj.v[:-1][downhill].mean():.2f} m/s")
print(f"mean optimal speed on climbs:   {traj.v[:-1][uphill].mean():.2f} m/s")

write_dp_csv(traj, "dp_trajectory.csv", header_lines=["demo 02 export"])
print("\nwrote dp_trajectory.csv")
