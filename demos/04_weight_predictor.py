"""Training the grade-preview weight predictor.

Builds labels on a 30 km road (global optimum -> per-position weight
recovery), fits the 250-80-16 network on 80% of the samples, and
reports held-out accuracy in scaled and original units.  A short road keeps
the demo quick; the shipping configuration trains on 100 km or more.
"""

from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.invopt import gamma_series
from ecocruise.net import TrainConfig, evaluate, make_dataset, predict, train
from ecocruise.road import DS, gen_sinusoidal, preview
from ecocruise.vehicle import VehicleParams, linearize

params = VehicleParams()
v_ref = 30.0
lin = linearize(params, v_ref)

road = gen_sinusoidal(seed=101, length_m=30000.0)
print(f"building labels on a {road.length_m / 1000:.0f} km road...")
solution = dp_solve(params, road, DpConfig.default(params, v_ref, dvavg=0.05))
series = gamma_series(solution, road, lin, params, 60, v_ref=v_ref)
dataset = make_dataset(road, series, v_ref)
print(f"dataset: {len(dataset)} samples of 100 preview grades + set point")

config = TrainConfig(seed=3)
model, history = train(dataset, config)
print(f"trained {len(history.train_loss)} epochs "
      f"(best validation at {history.best_epoch})")

metrics = evaluate(
    model,
    dataset.features[history.test_indices],
    dataset.targets[history.test_indices],
)
print(f"held-out scaled:   mse {metrics.mse_scaled:.3e}  mae {metrics.mae_scaled:.3e}")
print(f"held-out original: mse {metrics.mse_original:.3e}  mae {metrics.mae_original:.3e}")

print("\nsample predictions along the road:")
for k in (10, 200, 500, 800):
    window = preview(road, k, 100)
    print(f"position {k * DS / 1000:5.2f} km: predicted weight "
          f"{predict(model, window, v_ref):.5f}  "
          f"(label {series.gamma[k]:.5f}{' [' + series.flags[k] + ']' if series.flags[k] else ''})")
