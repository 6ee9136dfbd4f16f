"""Every controller on one road: the full comparison table.

Runs the fixed-weight ladder, the auto-tuned and pre-tuned horizon
controllers, the PI baseline and the global-optimum replay on an unseen road,
then prints the comparison with ``ecocruise report``.  The predictor is
trained on a different road, so this is a generalization test.
"""

import sys

from ecocruise.cli import main
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.harness import Artifacts, pareto_sweep, write_sweep_csv
from ecocruise.invopt import gamma_series
from ecocruise.net import TrainConfig, make_dataset, train
from ecocruise.road import gen_sinusoidal
from ecocruise.vehicle import VehicleParams, linearize

params = VehicleParams()
v_ref = 30.0
lin = linearize(params, v_ref)

print("training the weight predictor on road seed 101...")
train_road = gen_sinusoidal(seed=101, length_m=30000.0)
train_dp = dp_solve(params, train_road, DpConfig.default(params, v_ref, dvavg=0.05))
train_series = gamma_series(train_dp, train_road, lin, params, 60, v_ref=v_ref)
model, _ = train(make_dataset(train_road, train_series, v_ref), TrainConfig(seed=3))

print("evaluating on unseen road seed 13...")
road = gen_sinusoidal(seed=13, length_m=15000.0)
solution = dp_solve(params, road, DpConfig.default(params, v_ref, dvavg=0.05))
series = gamma_series(solution, road, lin, params, 60, v_ref=v_ref)

ladder = [0.0005, 0.001, 0.002, 0.003, 0.005, 0.008]
rows = pareto_sweep(
    road, params, ladder,
    Artifacts(model=model, series=series, dp_solution=solution, lin=lin),
    v_ref,
)

write_sweep_csv(rows, "faceoff_sweep.csv", header_lines=["demo 05 export"])
print("wrote faceoff_sweep.csv\n")
sys.exit(main(["report", "--sweep", "faceoff_sweep.csv"]))
