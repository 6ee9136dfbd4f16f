"""Small feed-forward network mapping a grade preview to a fuel weight.

Input is a 100-sample (3 km at 30 m) grade look-ahead plus the cruise set
point; hidden widths are 250-80-16, rectified, and the output unit is
linear.  The predicted weight is clipped at 0 where it is used
(:func:`predict_batch`), not inside the network: a rectified output unit
that goes negative for every input stops learning for good.  Training is
minibatch SGD with Nesterov momentum (Sutskever, Martens, Dahl & Hinton,
ICML 2013) on the mean squared error of the clipped weight wherever the clip
makes it exact, and of the unclipped output elsewhere (:func:`_error`), with
an L2 penalty on the weights, all implemented on numpy arrays so runs are
bit-reproducible from a seed.  An epoch's loss is the mean squared error of
its minibatches, each before its step; weights a step makes non-finite show
in the next minibatch's loss or, after the epoch's last step, in the
validation loss, and raise :class:`TrainingError` in that epoch.  Training
and the forward pass run on one BLAS thread (:func:`ecocruise.blas.serial`):
a multithreaded matrix product rounds differently with the thread count, so
the same seed would give different weights on hosts with different cores.
A trained model is a :mod:`ecocruise.formats` table (:func:`save_model`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import formats
from .blas import serial
from .road import RoadProfile, preview

PREVIEW_LEN = 100
LAYER_DIMS = (PREVIEW_LEN + 1, 250, 80, 16, 1)
MOMENTUM = 0.9  # Nesterov momentum of every training step
# Heads every model file, which the loader refuses under another version:
# raised whenever a change to training or to the forward pass makes older
# model files wrong to drive with.  Version 1 had a rectified output unit;
# version 2 was a block format of its own, before model files became tables.
MODEL_VERSION = 3
MODEL_COLUMNS = (f"mlp v{MODEL_VERSION}",)


class TrainingError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-feature min-max map to [0, 1]; constant features map to 0."""

    mins: np.ndarray
    ranges: np.ndarray

    @staticmethod
    def fit(data: np.ndarray) -> "MinMaxScaler":
        arr = np.atleast_2d(np.asarray(data, dtype=float))
        mins = arr.min(axis=0)
        ranges = arr.max(axis=0) - mins
        ranges = np.where(ranges > 0.0, ranges, 1.0)
        return MinMaxScaler(mins=mins, ranges=ranges)

    def transform(self, data):
        return (np.asarray(data, dtype=float) - self.mins) / self.ranges

    def inverse(self, data):
        return np.asarray(data, dtype=float) * self.ranges + self.mins


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_scaler: MinMaxScaler
    target_scaler: MinMaxScaler


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-2
    epochs: int = 150
    batch_size: int = 32
    l2: float = 1e-5
    test_fraction: float = 0.2
    val_fraction: float = 0.05
    patience: int = 150
    restore_best: bool = True  # return the best-validation snapshot
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.l2 >= 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        for name in ("test_fraction", "val_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, "
                                 f"got {getattr(self, name)}")
        if self.patience < 0:
            raise ValueError(f"patience must be nonnegative, got {self.patience}")


@dataclass
class TrainHistory:
    train_loss: list[float]  # per epoch: its minibatches' MSE, without the L2 term
    best_epoch: int
    test_indices: np.ndarray


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, 101)
    targets: np.ndarray   # (n,)

    def __len__(self) -> int:
        return len(self.targets)


def make_dataset(road: RoadProfile, series, v_ref: float) -> Dataset:
    """One sample per road position: preview grades plus the set point.

    Rows whose recovered weight carries any flag are dropped; a dataset whose
    features never vary (a flat road) is allowed but warned about since the
    network cannot learn anything from it.
    """
    if len(series) != road.n_steps:
        raise ValueError(
            f"series length {len(series)} does not match road segments {road.n_steps}"
        )
    rows = []
    targets = []
    for k in range(road.n_steps):
        if series.flags[k]:
            continue
        window = preview(road, k, PREVIEW_LEN)
        rows.append(np.concatenate([window, [v_ref]]))
        targets.append(series.gamma[k])
    features = np.asarray(rows, dtype=float)
    if len(features) and float(np.max(np.var(features, axis=0))) == 0.0:
        warnings.warn("dataset features have zero variance; nothing to learn from")
    return Dataset(features=features, targets=np.asarray(targets, dtype=float))


def _layers(flat: np.ndarray, dims: tuple[int, ...]):
    """Each layer's weight and bias as views into one flat vector, layer by
    layer, so an optimizer step updates every parameter in a few calls."""
    weights, biases = [], []
    at = 0
    for rows, cols in zip(dims, dims[1:]):
        weights.append(flat[at : at + rows * cols].reshape(rows, cols))
        biases.append(flat[at + rows * cols : at + (rows + 1) * cols])
        at += (rows + 1) * cols
    return weights, biases


def _init_params(dims: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Every parameter in one flat vector, laid out as :func:`_layers` reads it."""
    flat = np.empty(sum((rows + 1) * cols for rows, cols in zip(dims, dims[1:])))
    weights, biases = _layers(flat, dims)
    for i, (w, b) in enumerate(zip(weights, biases)):
        # the output layer starts at zero weights with its bias mid-way up the
        # scaled target range: every input starts at the same prediction, and
        # no random output weight sends a hidden unit an outsized first step
        last = i == len(weights) - 1
        w[:] = 0.0 if last else rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=w.shape)
        b[:] = 0.5 if last else 0.01
    return flat


def _forward(weights, biases, x):
    """Every layer's activation, the input first and the output last: the
    hidden layers rectified, the output linear."""
    acts = [x]
    for w, b in zip(weights, biases):
        # in place on the fresh product: the same operations, no temporaries
        h = acts[-1] @ w
        h += b
        if len(acts) < len(weights):
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _error(out, y):
    """Output minus target, but 0 where the clip at use makes the prediction
    exact: an output at or below the floor (scaled 0, weight 0) for a target
    on it.  Below a target above the floor the unclipped error keeps the
    output unit's gradient."""
    return np.where((out > 0.0) | (y > 0.0), out - y, 0.0)


def _grads(weights, acts, err, l2, out):
    """Backprop gradients of the MSE + L2 loss from the activations of
    :func:`_forward` and their :func:`_error` ``err``, into the (weights,
    biases) arrays of ``out``.  A hidden rectifier passes gradient where its
    output is positive, which is where its input is (a NaN input fails both)."""
    grads_w, grads_b = out
    delta = (2.0 * err / len(err))[:, None]
    for layer in range(len(weights) - 1, -1, -1):
        g = np.matmul(acts[layer].T, delta, out=grads_w[layer])
        g += 2.0 * l2 * weights[layer]
        np.sum(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            delta = delta @ weights[layer].T
            delta *= acts[layer] > 0.0
    return grads_w, grads_b


@serial
def train(dataset: Dataset, config: TrainConfig) -> tuple[MlpModel, TrainHistory]:
    """Fit the network; deterministic for a fixed seed.

    The test split is carved off first and never touched; scalers are fitted
    on the training portion only; a small validation slice of the training
    data drives early stopping with best-weight restore.
    """
    n = len(dataset)
    if n < 10:
        raise ValueError(f"need at least 10 samples to split and train, got {n}")
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(config.test_fraction * n)))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    n_val = max(1, int(round(config.val_fraction * len(train_idx))))
    val_idx = train_idx[:n_val]
    fit_idx = train_idx[n_val:]
    if len(fit_idx) == 0:
        raise ValueError(f"test_fraction {config.test_fraction} and val_fraction "
                         f"{config.val_fraction} leave none of {n} samples to fit on")

    input_scaler = MinMaxScaler.fit(dataset.features[fit_idx])
    # the target scale starts at weight 0, so scaled 0 is the floor that
    # predictions are clipped at
    target_scaler = MinMaxScaler.fit(np.append(dataset.targets[fit_idx], 0.0)[:, None])
    x_fit = input_scaler.transform(dataset.features[fit_idx])
    y_fit = target_scaler.transform(dataset.targets[fit_idx, None])[:, 0]
    x_val = input_scaler.transform(dataset.features[val_idx])
    y_val = target_scaler.transform(dataset.targets[val_idx, None])[:, 0]

    # Nesterov momentum in its look-ahead form: params holds theta + MOMENTUM
    # * velocity, the point each gradient is taken at (and the one returned)
    params = _init_params(LAYER_DIMS, rng)
    weights, biases = _layers(params, LAYER_DIMS)
    grad = np.empty_like(params)
    grad_layers = _layers(grad, LAYER_DIMS)
    velocity = np.zeros_like(params)
    best = params.copy()
    best_val = np.inf
    best_epoch = 0
    since_best = 0
    train_losses: list[float] = []

    n_fit = len(fit_idx)
    for epoch in range(config.epochs):
        order = rng.permutation(n_fit)
        sq_err = 0.0
        for start in range(0, n_fit, config.batch_size):
            batch = order[start : start + config.batch_size]
            acts = _forward(weights, biases, x_fit[batch])
            err = _error(acts[-1][:, 0], y_fit[batch])
            sq_err += float(err @ err)
            _grads(weights, acts, err, config.l2, grad_layers)
            grad *= config.learning_rate
            velocity *= MOMENTUM
            velocity -= grad
            params -= grad
            np.multiply(velocity, MOMENTUM, out=grad)
            params += grad

        # non-finite weights never turn finite again: the epoch's last step
        # shows here, every other one in the next minibatch's error
        val_out = _forward(weights, biases, x_val)[-1][:, 0]
        val_loss = float(np.mean(_error(val_out, y_val) ** 2))
        if not (np.isfinite(sq_err) and np.isfinite(val_loss)):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        train_losses.append(sq_err / n_fit)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best[:] = params
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break

    final = _layers(best if config.restore_best else params, LAYER_DIMS)
    model = MlpModel(
        weights=final[0],
        biases=final[1],
        input_scaler=input_scaler,
        target_scaler=target_scaler,
    )
    return model, TrainHistory(train_loss=train_losses, best_epoch=best_epoch,
                               test_indices=test_idx)


def predict(model: MlpModel, grade_preview, v_ref: float) -> float:
    """Fuel weight for one preview; nonnegative by construction."""
    window = np.asarray(grade_preview, dtype=float)
    if len(window) != PREVIEW_LEN:
        raise ValueError(f"preview must hold {PREVIEW_LEN} samples, got {len(window)}")
    return float(predict_batch(model, np.concatenate([window, [v_ref]])[None, :])[0])


@serial
def predict_batch(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Fuel weights of a batch of feature rows, clipped at 0: the linear
    output unit can go below the smallest weight, the weight cannot."""
    out = _forward(model.weights, model.biases, model.input_scaler.transform(features))[-1]
    return np.maximum(model.target_scaler.inverse(out)[:, 0], 0.0)


@dataclass(frozen=True)
class EvalMetrics:
    mse_scaled: float
    mae_scaled: float
    mse_original: float
    mae_original: float


def evaluate(model: MlpModel, features: np.ndarray, targets: np.ndarray) -> EvalMetrics:
    """MSE/MAE on both the scaled and the original target units."""
    pred = predict_batch(model, features)
    err = pred - targets
    t_scaled = model.target_scaler.transform(targets[:, None])[:, 0]
    p_scaled = model.target_scaler.transform(pred[:, None])[:, 0]
    err_s = p_scaled - t_scaled
    return EvalMetrics(
        mse_scaled=float(np.mean(err_s * err_s)),
        mae_scaled=float(np.mean(np.abs(err_s))),
        mse_original=float(np.mean(err * err)),
        mae_original=float(np.mean(np.abs(err))),
    )


def save_model(model: MlpModel, path, header_lines) -> None:
    """Write ``model`` as a table: ``header_lines``, the header row ``mlp
    v<MODEL_VERSION>``, then one row per parameter row (the input and target
    scalers' mins and ranges, then each layer's weight rows and bias row),
    each one cell of space-separated ``%.17g`` numbers, exact on reading."""
    rows = [model.input_scaler.mins, model.input_scaler.ranges,
            model.target_scaler.mins, model.target_scaler.ranges]
    for w, b in zip(model.weights, model.biases):
        rows += [*w, b]
    formats.write_table(path, MODEL_COLUMNS,
                        ([" ".join(["%.17g"] * len(r)) % tuple(r.tolist())] for r in rows),
                        header_lines)


def load_model(path) -> MlpModel:
    """Read a :func:`save_model` file of a ``LAYER_DIMS`` network.  A file of
    another format version, a missing or extra row, or a row of the wrong
    width or with a bad or non-finite number is a ``ValueError`` that names
    it."""
    _, rows = formats.read_table(path, MODEL_COLUMNS)
    # the scaler rows, then each layer's weight rows and bias row
    widths = [LAYER_DIMS[0]] * 2 + [LAYER_DIMS[-1]] * 2 + [
        cols for n_in, cols in zip(LAYER_DIMS, LAYER_DIMS[1:]) for _ in range(n_in + 1)]
    values = []
    for i, ((lineno, cells), width) in enumerate(zip(rows, widths)):
        at = f"{path}: {formats.where(i, lineno)}"
        try:
            row = np.array(cells[0].split(), dtype=float)
        except ValueError:
            raise ValueError(f"{at}: not a row of numbers") from None
        if len(row) != width:
            raise ValueError(f"{at}: holds {len(row)} values, expected {width}")
        if not np.all(np.isfinite(row)):
            raise ValueError(f"{at}: holds a non-finite value")
        values.append(row)
    if len(rows) != len(widths):
        end = formats.where(len(rows) - 1, rows[-1][0]) if rows else "its header row"
        raise ValueError(f"{path}: model file ends at {end}, "
                         f"but a model has {len(widths) + 1} rows")
    weights, biases = _layers(np.concatenate(values[4:]), LAYER_DIMS)
    return MlpModel(weights=weights, biases=biases,
                    input_scaler=MinMaxScaler(mins=values[0], ranges=values[1]),
                    target_scaler=MinMaxScaler(mins=values[2], ranges=values[3]))
