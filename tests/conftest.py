"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from ecocruise.dp import DpConfig
from ecocruise.net import LAYER_DIMS, MinMaxScaler, MlpModel, save_model
from ecocruise.road import DS, RoadProfile
from ecocruise.vehicle import VehicleParams, accel, equilibrium_torque, fuel_per_meter


@dataclass(frozen=True)
class TinyInstance:
    road: RoadProfile
    config: DpConfig


def make_tiny_instance(seed: int, params: VehicleParams) -> TinyInstance:
    """Small enumerable problem whose optimum stays clear of value-table kinks.

    Grades are mild and the velocity box is wide enough that every grid state
    keeps at least one feasible torque, so the cost-to-go stays smooth and a
    grid solver can reproduce the enumerated optimum exactly.  The
    average-velocity corridor is slack by construction; the binding structure
    comes from the velocity floor, which both solvers check identically.
    """
    rng = np.random.default_rng(seed)
    p_steps = int(rng.integers(3, 6))
    grades = rng.uniform(-0.025, 0.025, p_steps)
    road = RoadProfile.from_elevation(np.concatenate([[0.0], np.cumsum(grades) * DS]))
    v_i = 30.0
    te_eq = equilibrium_torque(params, v_i)
    n_te = int(rng.integers(5, 8))
    config = DpConfig(
        v_grid=np.linspace(v_i - 2.0, v_i + 2.0, 7),
        vavg_grid=np.linspace(v_i - 3.0, v_i + 3.0, 7),
        te_grid=np.linspace(te_eq - 120.0, te_eq + 80.0, n_te),
        v_ref=v_i - 2.5,
        v_i=v_i,
    )
    return TinyInstance(road=road, config=config)


def enumerate_optimum(params: VehicleParams, road: RoadProfile, config: DpConfig):
    """Exhaustive search over torque-grid sequences (vectorized across
    sequences), applying exactly the feasibility rules the grid solver uses.

    Returns (best_cost, best_sequence) or (inf, None) when nothing survives.
    """
    p_steps = road.n_steps
    te_grid = np.asarray(config.te_grid)
    seqs = np.array(list(itertools.product(range(len(te_grid)), repeat=p_steps)), dtype=int)
    n_seq = len(seqs)
    v = np.full(n_seq, config.v_i)
    vavg = np.full(n_seq, config.v_i)
    cost = np.zeros(n_seq)
    alive = np.ones(n_seq, dtype=bool)
    ds = DS
    for k in range(p_steps):
        te = te_grid[seqs[:, k]]
        cost += fuel_per_meter(params, v, te) * ds
        v_next = v + ds * accel(params, v, te, road.grade[k]) / v
        alive &= (v_next >= config.v_grid[0]) & (v_next <= config.v_grid[-1])
        vavg_next = (k * ds + ds) / (k * ds / vavg + ds / v)
        alive &= (vavg_next >= config.vavg_grid[0] - 1e-12) & (vavg_next <= config.vavg_grid[-1] + 1e-12)
        # park dead sequences at a safe positive state; the mask excludes them
        v = np.where(alive, v_next, 1.0)
        vavg = np.where(alive, vavg_next, 1.0)
    alive &= vavg >= config.v_ref - 1e-12
    if not np.any(alive):
        return np.inf, None
    cost = np.where(alive, cost, np.inf)
    best = int(np.argmin(cost))
    return float(cost[best]), te_grid[seqs[best]]


def write_model(path, dims=LAYER_DIMS) -> None:
    """Save an all-zero predictor of layer widths ``dims`` under one ``#``
    line, so that row ``r`` of the file (its header row is row 1) is line
    ``r + 1``."""
    save_model(MlpModel(weights=[np.zeros(shape) for shape in zip(dims, dims[1:])],
                        biases=[np.zeros(width) for width in dims[1:]],
                        input_scaler=MinMaxScaler(np.zeros(dims[0]), np.ones(dims[0])),
                        target_scaler=MinMaxScaler(np.zeros(1), np.ones(1))),
               path, ["an all-zero test model"])


# seeds of tiny instances verified to have enumeration-exact grid solutions
EXACT_TINY_SEEDS = (3000, 3001, 3002, 3003, 3004, 3005, 3006, 3009, 3010, 3011)


@pytest.fixture(scope="session")
def params() -> VehicleParams:
    return VehicleParams()
