"""Tests for the grade-preview weight predictor: scaling, training, inference."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from ecocruise import invopt, net
from ecocruise.cli import EXIT_VALIDATION, main
from ecocruise.dp import DpConfig, solve as dp_solve
from ecocruise.invopt import GammaSeries
from ecocruise.net import (
    Dataset,
    LAYER_DIMS,
    MinMaxScaler,
    MlpModel,
    TrainConfig,
    TrainingError,
    _init_params,
    evaluate,
    load_model,
    make_dataset,
    predict,
    save_model,
    train,
)
from conftest import write_model
from ecocruise.road import gen_sinusoidal, preview, write_road_csv
from ecocruise.vehicle import linearize
from oracles import fit_rows, loss_and_grads, replay_train


def toy_dataset(n=50, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-0.05, 0.05, size=(n, 101))
    feats[:, 100] = 30.0
    targs = rng.uniform(0.0005, 0.01, n)
    return Dataset(features=feats, targets=targs)


class TestScaler:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 7)) * rng.uniform(0.1, 100.0, 7)
        scaler = MinMaxScaler.fit(data)
        assert np.max(np.abs(scaler.inverse(scaler.transform(data)) - data)) < 1e-12

    def test_range_is_unit_interval(self):
        data = np.array([[2.0], [4.0], [3.0]])
        scaler = MinMaxScaler.fit(data)
        out = scaler.transform(data)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_constant_feature_maps_to_zero(self):
        data = np.full((5, 2), 3.3)
        scaler = MinMaxScaler.fit(data)
        assert np.all(scaler.transform(data) == 0.0)


@pytest.fixture(scope="module")
def dataset_road():
    return gen_sinusoidal(seed=21, length_m=6000.0)


class TestMakeDataset:
    def make_series(self, road, flags=None):
        p = road.n_steps
        rng = np.random.default_rng(4)
        return GammaSeries(
            gamma=rng.uniform(0.0, 0.01, p),
            residuals=np.zeros(p),
            flags=tuple(flags) if flags is not None else ("",) * p,
        )

    def test_sample_count_excludes_flagged(self, dataset_road):
        p = dataset_road.n_steps
        flags = [""] * p
        flags[3] = "degenerate"
        flags[10] = "clamped"
        series = self.make_series(dataset_road, flags)
        ds = make_dataset(dataset_road, series, 30.0)
        assert len(ds) == p - 2
        kept = [k for k in range(p) if k not in (3, 10)]
        assert np.array_equal(ds.features[:, :100],
                              [preview(dataset_road, k, 100) for k in kept])
        assert np.array_equal(ds.targets, series.gamma[kept])

    def test_features_reproduce_preview(self, dataset_road):
        # no row is flagged, so row k is road position k
        ds = make_dataset(dataset_road, self.make_series(dataset_road), 30.0)
        assert np.array_equal(ds.features[17, :100], preview(dataset_road, 17, 100))
        assert ds.features[17, 100] == 30.0

    def test_flat_road_warns_zero_variance(self, params):
        from ecocruise.road import RoadProfile

        flat = RoadProfile.from_elevation(np.zeros(121))
        series = self.make_series(flat)
        with pytest.warns(UserWarning, match="zero variance"):
            make_dataset(flat, series, 30.0)

    def test_alignment_mismatch_rejected(self, dataset_road):
        short = GammaSeries(gamma=np.zeros(5), residuals=np.zeros(5), flags=("",) * 5)
        with pytest.raises(ValueError, match="match"):
            make_dataset(dataset_road, short, 30.0)


class TestTrain:
    def test_memorizes_toy_dataset(self):
        ds = toy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, hist = train(ds, TrainConfig(learning_rate=0.05, batch_size=16,
                                            epochs=2000, patience=10**9, l2=0.0, seed=1))
        assert min(hist.train_loss) < 1e-4

    def test_l2_shrinks_weight_norm(self):
        ds = toy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bare, _ = train(ds, TrainConfig(learning_rate=0.02, epochs=100,
                                            patience=10**9, l2=0.0, seed=7))
            reg, _ = train(ds, TrainConfig(learning_rate=0.02, epochs=100,
                                           patience=10**9, l2=1e-5, seed=7))
        def norm_sq(model):
            return sum(float(np.sum(w * w)) for w in model.weights)

        assert norm_sq(reg) < norm_sq(bare)

    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(0)
        flat = _init_params(LAYER_DIMS, np.random.default_rng(2))
        weights, biases = net._layers(flat, LAYER_DIMS)
        x = rng.uniform(0.0, 1.0, size=(5, 101))
        y = rng.uniform(0.0, 1.0, 5)
        _, gw, gb = loss_and_grads(weights, biases, x, y, 1e-5)
        gmax = max(np.abs(g).max() for g in gw)
        probe = np.random.default_rng(3)
        eps = 1e-4
        for layer in range(len(weights)):
            for _ in range(8):
                i = int(probe.integers(0, weights[layer].shape[0]))
                j = int(probe.integers(0, weights[layer].shape[1]))
                weights[layer][i, j] += eps
                up, _, _ = loss_and_grads(weights, biases, x, y, 1e-5)
                weights[layer][i, j] -= 2 * eps
                down, _, _ = loss_and_grads(weights, biases, x, y, 1e-5)
                weights[layer][i, j] += eps
                fd = (up - down) / (2 * eps)
                if abs(fd) > 1e-3 * gmax:  # avoid relative noise on ~zero entries
                    assert abs(fd - gw[layer][i, j]) / abs(fd) < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_full_batch_loss_never_rises_above_its_start(self, seed):
        # momentum's loss is not monotone (it can overshoot and come back),
        # but at a stable rate it never climbs back to where it started
        ds = toy_dataset(n=20, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, hist = train(ds, TrainConfig(learning_rate=1e-2, batch_size=32,
                                            epochs=60, patience=10**9, l2=0.0, seed=2))
        assert max(hist.train_loss[1:]) < hist.train_loss[0]
        assert hist.train_loss[-1] < 0.1 * hist.train_loss[0]

    def test_deterministic_for_fixed_seed(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=0.02, epochs=20, patience=10**9, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a, _ = train(ds, cfg)
            b, _ = train(ds, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_non_finite_loss_raises_with_epoch(self):
        ds = toy_dataset()
        broken = Dataset(features=ds.features, targets=ds.targets.copy())
        broken.targets[0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingError, match="epoch"):
                train(broken, TrainConfig(epochs=5, seed=0))

    def test_divergent_rate_raises_in_first_epoch(self):
        # finite data, but every step overshoots: the weights overflow within
        # the first epoch, and the epoch-end loss check must see it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingError, match="loss diverged at epoch 0"):
                train(toy_dataset(n=200, seed=1), TrainConfig(learning_rate=1e8, seed=0))

    def test_overflow_on_the_last_step_raises(self):
        # one epoch of one full-fit-set minibatch: its loss is taken at the
        # initial weights, and only the validation pass sees that the step
        # sent them so far that the loss overflows
        cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=1e300,
                          restore_best=False, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingError, match="loss diverged at epoch 0"):
                train(toy_dataset(n=50, seed=1), cfg)

    def test_one_forward_pass_per_minibatch_and_one_for_validation(self, monkeypatch):
        calls = []
        forward = net._forward
        monkeypatch.setattr(net, "_forward", lambda *a: calls.append(1) or forward(*a))
        ds = toy_dataset(n=60, seed=2)
        cfg = TrainConfig(epochs=7, batch_size=16, patience=10**9, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, hist = train(ds, cfg)
        n_batches = -(-len(fit_rows(cfg, len(ds))) // cfg.batch_size)
        assert len(hist.train_loss) == cfg.epochs
        assert len(calls) == cfg.epochs * (n_batches + 1)

    def test_scalers_fitted_on_training_portion_only(self):
        ds = toy_dataset(n=60, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, hist = train(ds, TrainConfig(epochs=5, seed=0))
        # refitting on the held-out rows gives a measurably different scaler
        test_scaler = MinMaxScaler.fit(ds.targets[hist.test_indices, None])
        assert not np.allclose(test_scaler.mins, model.target_scaler.mins)

    def test_epoch_loss_is_the_mean_squared_error_of_its_minibatches(self):
        ds = toy_dataset(n=60, seed=12)
        cfg = TrainConfig(learning_rate=0.03, epochs=25, patience=10**9, l2=1e-4,
                          restore_best=False, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, hist = train(ds, cfg)
            losses, params = replay_train(ds, cfg)
        perm = np.random.default_rng(cfg.seed).permutation(len(ds))
        n_test = max(1, int(round(cfg.test_fraction * len(ds))))
        assert np.array_equal(perm[:n_test], hist.test_indices)
        assert hist.train_loss == losses
        # the replay stepped through the same weights that train returned
        replayed = net._layers(params, LAYER_DIMS)
        for got, want in zip((*model.weights, *model.biases), (*replayed[0], *replayed[1])):
            assert got.tobytes() == want.tobytes()

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(toy_dataset(n=5), TrainConfig())

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -2), ("batch_size", 0), ("batch_size", -4),
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("l2", -1e-5), ("l2", float("nan")),
        ("test_fraction", 0.0), ("test_fraction", 1.0), ("test_fraction", -0.5),
        ("test_fraction", float("nan")), ("val_fraction", 0.0), ("val_fraction", 1.0),
        ("val_fraction", 2.0), ("val_fraction", float("nan")), ("patience", -1),
    ])
    def test_config_rejects_values_that_train_nothing(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_split_that_leaves_no_fit_row_rejected(self):
        # 9 of 10 rows held out, and the one left goes to validation
        cfg = TrainConfig(test_fraction=0.9, val_fraction=0.5, epochs=1)
        with pytest.raises(ValueError, match="test_fraction 0.9 and val_fraction 0.5 leave"):
            train(toy_dataset(n=10), cfg)

    def test_config_accepts_the_edges(self):
        TrainConfig(epochs=1, batch_size=1, learning_rate=1e-12, l2=0.0, patience=0,
                    test_fraction=1e-9, val_fraction=1 - 1e-9)


@pytest.fixture(scope="module")
def toy_model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = train(toy_dataset(), TrainConfig(learning_rate=0.05, batch_size=16,
                                                    epochs=300, patience=10**9, seed=1))
    return model


class TestPredict:

    def test_output_nonnegative_everywhere(self, toy_model):
        rng = np.random.default_rng(6)
        for _ in range(100):
            window = rng.uniform(-0.3, 0.3, 100)  # far outside training range
            assert predict(toy_model, window, rng.uniform(10, 50)) >= 0.0

    def test_wrong_preview_length_rejected(self, toy_model):
        with pytest.raises(ValueError):
            predict(toy_model, np.zeros(60), 30.0)

    def test_memorized_sample_reproduced(self):
        ds = toy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=2000,
                              patience=10**9, l2=0.0, restore_best=False, seed=1)
            model, _ = train(ds, cfg)
        k = int(fit_rows(cfg, len(ds))[0])
        got = predict(model, ds.features[k, :100], ds.features[k, 100])
        scaled_err = abs(got - ds.targets[k]) / model.target_scaler.ranges[0]
        assert scaled_err < 1e-3

    def test_sensitive_to_preview_permutation(self, toy_model):
        rng = np.random.default_rng(8)
        window = rng.uniform(-0.05, 0.05, 100)
        base = predict(toy_model, window, 30.0)
        swapped = window.copy()
        swapped[[3, 60]] = swapped[[60, 3]]
        assert predict(toy_model, swapped, 30.0) != base


class TestLinearOutput:
    """The output unit is linear in training and the weight is clipped at 0
    where it is predicted."""

    def test_negative_output_predicts_zero_and_is_scored_so(self):
        ds = toy_dataset(n=40, seed=4)
        weights = [np.zeros((LAYER_DIMS[i], LAYER_DIMS[i + 1])) for i in range(len(LAYER_DIMS) - 1)]
        biases = [np.zeros(LAYER_DIMS[i + 1]) for i in range(len(LAYER_DIMS) - 1)]
        biases[-1][:] = -0.5  # half the target range below its minimum
        target_scaler = MinMaxScaler.fit(ds.targets[:, None])
        model = MlpModel(weights=weights, biases=biases,
                         input_scaler=MinMaxScaler.fit(ds.features),
                         target_scaler=target_scaler)
        out = net._forward(weights, biases, np.zeros((1, 101)))[-1]
        assert target_scaler.inverse(out)[0, 0] < 0.0
        assert predict(model, ds.features[0, :100], 30.0) == 0.0
        m = evaluate(model, ds.features, ds.targets)
        assert m.mse_original == float(np.mean(ds.targets * ds.targets))
        zero_scaled = target_scaler.transform(np.zeros((1, 1)))[0, 0]
        t_scaled = target_scaler.transform(ds.targets[:, None])[:, 0]
        assert m.mse_scaled == float(np.mean((zero_scaled - t_scaled) ** 2))

    @pytest.fixture(scope="class")
    def offline_fits(self, params):
        """The 150-epoch training of the benchmark's offline workload on eight
        6 km roads: (held-out predictions, held-out targets) per road."""
        lin = linearize(params, 30.0)
        fits = []
        for seed in range(8):
            road = gen_sinusoidal(seed=seed, length_m=6000.0)
            solution = dp_solve(params, road, DpConfig.default(params, 30.0, dvavg=0.05))
            series = invopt.gamma_series(solution, road, lin, params, 60, v_ref=30.0)
            ds = make_dataset(road, series, 30.0)
            model, hist = train(ds, TrainConfig(epochs=150, seed=3))
            test = hist.test_indices
            fits.append((net.predict_batch(model, ds.features[test]), ds.targets[test]))
        return fits

    def test_output_unit_stays_alive_on_offline_roads(self, offline_fits):
        # a dead output unit predicts one value for every row
        for seed, (pred, target) in enumerate(offline_fits):
            assert np.ptp(pred) > 0.0, f"road {seed}"
            assert np.isfinite(np.mean((pred - target) ** 2)), f"road {seed}"

    def test_a_zero_weight_is_predicted_as_zero_on_offline_roads(self, offline_fits):
        # most labels of these roads are weight 0, and the closed loop tells a
        # zero weight from a small one: the error that training takes below
        # the floor makes a clipped 0 the usual prediction there
        for seed, (pred, target) in enumerate(offline_fits):
            zero = target == 0.0
            assert zero.any() and np.mean(pred[zero] == 0.0) >= 0.8, f"road {seed}"


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        ds = toy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = train(ds, TrainConfig(epochs=3, seed=0))
        from ecocruise.net import predict_batch

        preds = predict_batch(model, ds.features)
        m = evaluate(model, ds.features, preds)
        assert m.mse_scaled == pytest.approx(0.0, abs=1e-20)
        assert m.mae_original == pytest.approx(0.0, abs=1e-12)

    def test_constant_mean_predictor_scores_variance(self):
        ds = toy_dataset(n=40, seed=3)
        scaler = MinMaxScaler.fit(ds.targets[:, None])
        scaled = scaler.transform(ds.targets[:, None])[:, 0]
        mean_scaled = float(np.mean(scaled))
        # constant-output network: zero weights, output bias at the mean
        weights = [np.zeros((LAYER_DIMS[i], LAYER_DIMS[i + 1])) for i in range(len(LAYER_DIMS) - 1)]
        biases = [np.zeros(LAYER_DIMS[i + 1]) for i in range(len(LAYER_DIMS) - 1)]
        biases[-1][:] = mean_scaled
        model = MlpModel(
            weights=weights,
            biases=biases,
            input_scaler=MinMaxScaler.fit(ds.features),
            target_scaler=scaler,
        )
        m = evaluate(model, ds.features, ds.targets)
        assert m.mse_scaled == pytest.approx(float(np.var(scaled)), rel=1e-10)


OLD_HEADER, HEADER = f"mlp v{net.MODEL_VERSION - 1}", f"mlp v{net.MODEL_VERSION}"


@pytest.fixture(scope="module")
def road_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("road") / "road.csv"
    write_road_csv(gen_sinusoidal(seed=7, length_m=3000.0), path)
    return path


class TestSerialization:
    """A model file is a table: one ``#`` line per header line, the header
    row, then one row per parameter row.  In :func:`write_model`'s files row
    ``r`` (the header row is row 1) is line ``r + 1``, which is
    ``splitlines()[r]``: the input-scaler rows
    are rows 2-3, the target scaler's rows 4-5, layer 0's weight rows 6-106
    and its bias row 107, layer 1's rows 108-357 and 358, layer 2's rows
    359-438 and 439, and layer 3's rows 440-455 and 456."""

    def test_roundtrip_preserves_predictions(self, tmp_path):
        ds = toy_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = train(ds, TrainConfig(epochs=10, seed=4))
        path = tmp_path / "model.txt"
        save_model(model, path, ["fingerprint: abc123"])
        loaded = load_model(path)
        assert [w.shape for w in loaded.weights] == [w.shape for w in model.weights]
        rng = np.random.default_rng(9)
        for _ in range(10):
            window = rng.uniform(-0.05, 0.05, 100)
            assert predict(loaded, window, 30.0) == predict(model, window, 30.0)
        assert path.read_text().startswith(f"# fingerprint: abc123\n{HEADER}\n")

    @pytest.mark.parametrize("text, message", [("", "empty file"),
                                               (f"{HEADER}\n", "ends at its header row")],
                             ids=["empty", "header_only"])
    def test_truncated_file_is_bad_input(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_model_of_an_earlier_version_is_rejected(self, tmp_path):
        # a version 2 file: a block format whose first block heads "dims"
        path = tmp_path / "model.txt"
        path.write_text("# ecocruise mlp v2\ndims 101 250 80 16 1\nscaler input train\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 1 (line 2): header 'dims 101 250 80 16 1' is not '{HEADER}'")):
            load_model(path)

    def test_layer_with_short_rows_is_rejected(self, tmp_path):
        # every row of layer 2 lost a value: read as is, it would load as an
        # (80, 15) weight under LAYER_DIMS (..., 16, 1)
        path = tmp_path / "model.txt"
        write_model(path)
        lines = path.read_text().splitlines()
        lines[359:439] = [line.rsplit(" ", 1)[0] for line in lines[359:439]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                "row 359 (line 360): holds 15 values, expected 16")):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: ls[:1] + [OLD_HEADER] + ls[2:],
         f"row 1 (line 2): header '{OLD_HEADER}' is not '{HEADER}'"),
        (lambda ls: ls[:1] + ["position_m,elevation_m"] + ls[2:],
         f"row 1 (line 2): header 'position_m,elevation_m' is not '{HEADER}'"),
        (lambda ls: ls[:-1],
         "model file ends at row 455 (line 456), but a model has 456 rows"),
        (lambda ls: ls + ls[-1:],
         "model file ends at row 457 (line 458), but a model has 456 rows"),
        (lambda ls: ls[:2] + [ls[2].rsplit(" ", 1)[0]] + ls[3:],
         "row 2 (line 3): holds 100 values, expected 101"),
        (lambda ls: ls[:2] + ls[4:6] + ls[2:4] + ls[6:],
         "row 2 (line 3): holds 1 values, expected 101"),
        (lambda ls: ls[:108] + [line + " 0" for line in ls[108:358]] + ls[358:],
         "row 108 (line 109): holds 81 values, expected 80"),
        (lambda ls: ls[:108] + ["x" + ls[108][1:]] + ls[109:],
         "row 108 (line 109): not a row of numbers"),
        (lambda ls: ls[:108] + ["nan" + ls[108][1:]] + ls[109:],
         "row 108 (line 109): holds a non-finite value"),
        (lambda ls: ls[:108] + ["-inf" + ls[108][1:]] + ls[109:],
         "row 108 (line 109): holds a non-finite value"),
    ], ids=["old_header", "foreign_header", "missing_row", "extra_row", "scaler_width",
            "scaler_order", "layer_shape", "layer_text", "layer_nan", "layer_inf"])
    def test_malformed_block_is_named(self, tmp_path, road_csv, capsys, edit, message):
        path = tmp_path / "model.txt"
        write_model(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_model(path)
        assert main(["simulate", "--road", str(road_csv), "--controller", "at",
                     "--model", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_values_written_as_shortest_round_trip_text(self, tmp_path):
        """Every number of a model, the extremes of a double among them,
        reads back to the bits written, and the model to the same weights."""
        rng = np.random.default_rng(6)
        weights, biases = net._layers(_init_params(LAYER_DIMS, rng), LAYER_DIMS)
        weights[-1][:] = rng.normal(0.0, 0.3, size=weights[-1].shape)  # a live output unit
        special = [-0.0, 5e-324, 1e-300]
        weights[1][3, :3] = special
        biases[2][:3] = special
        ranges = rng.uniform(0.01, 0.1, LAYER_DIMS[0])
        ranges[7] = 1.7976931348623157e308
        model = MlpModel(weights=weights, biases=biases,
                         input_scaler=MinMaxScaler(np.array([-0.0] * LAYER_DIMS[0]), ranges),
                         target_scaler=MinMaxScaler(np.array([5e-324]), np.array([0.01])))
        path = tmp_path / "model.txt"
        save_model(model, path, [])
        loaded = load_model(path)
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert got.tobytes() == want.tobytes()
        for name in ("input_scaler", "target_scaler"):
            for field in ("mins", "ranges"):
                got = getattr(getattr(loaded, name), field)
                assert got.tobytes() == getattr(getattr(model, name), field).tobytes()
        features = np.column_stack([rng.uniform(-0.05, 0.05, (20, 100)), np.full(20, 30.0)])
        expected = net.predict_batch(model, features)
        assert np.ptp(expected) > 0.0
        assert net.predict_batch(loaded, features).tobytes() == expected.tobytes()


class TestInPlacePasses:
    """The forward and backward passes work in place on their own fresh
    products: they change no array they are given, and compute what the
    out-of-place expressions do, bit for bit."""

    @staticmethod
    def network(seed):
        rng = np.random.default_rng(seed)
        weights, biases = net._layers(_init_params(LAYER_DIMS, rng), LAYER_DIMS)
        # a live, mixed-sign output layer, so every mask has both values
        weights[-1] = rng.normal(0.0, 0.3, size=weights[-1].shape)
        # inputs of both signs, so a rectifier applied to them in place shows
        x = rng.normal(0.0, 1.0, size=(16, LAYER_DIMS[0]))
        y = rng.uniform(0.0, 1.0, 16)
        return weights, biases, x, y

    def test_forward_leaves_its_input_and_parameters_alone(self):
        weights, biases, x, _ = self.network(4)
        before = [a.tobytes() for a in (x, *weights, *biases)]
        acts = net._forward(weights, biases, x)
        assert [a.tobytes() for a in (x, *weights, *biases)] == before
        expected = x
        for layer, (w, b, got) in enumerate(zip(weights, biases, acts[1:])):
            expected = expected @ w + b
            if layer < len(weights) - 1:  # the output unit is linear
                expected = np.maximum(expected, 0.0)
            assert got.tobytes() == expected.tobytes()

    def test_grads_leave_activations_and_weights_alone(self):
        weights, biases, x, y = self.network(5)
        acts = net._forward(weights, biases, x)
        assert 0.0 < np.mean(acts[-1] > 0.0) < 1.0
        before = [a.tobytes() for a in (*acts, *weights)]
        err = net._error(acts[-1][:, 0], y)
        gw, gb = [np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases]
        net._grads(weights, acts, err, 1e-5, (gw, gb))
        assert [a.tobytes() for a in (*acts, *weights)] == before
        delta = (2.0 * (acts[-1][:, 0] - y) / len(y))[:, None]
        for layer in range(len(weights) - 1, -1, -1):
            expected = acts[layer].T @ delta + 2.0 * 1e-5 * weights[layer]
            assert gw[layer].tobytes() == expected.tobytes()
            assert gb[layer].tobytes() == delta.sum(axis=0).tobytes()
            delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)

    def test_same_seed_trains_the_same_bytes(self):
        ds = toy_dataset(n=80, seed=3)
        cfg = TrainConfig(learning_rate=0.02, epochs=15, patience=10**9, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (a, ha), (b, hb) = train(ds, cfg), train(ds, cfg)
        for arr_a, arr_b in zip((*a.weights, *a.biases), (*b.weights, *b.biases)):
            assert arr_a.tobytes() == arr_b.tobytes()
        assert ha.train_loss == hb.train_loss and ha.best_epoch == hb.best_epoch
