"""Tests for running BLAS calls on the calling thread."""

from __future__ import annotations

import numpy as np
import pytest

from ecocruise import blas, net

THREADS = blas._openblas_threads()
needs_openblas = pytest.mark.skipif(THREADS is None, reason="numpy bundles no OpenBLAS")


@needs_openblas
class TestSerial:
    def test_one_thread_inside_previous_count_after(self):
        get, _ = THREADS
        before = get()
        assert blas.serial(get)() == 1
        assert get() == before

    def test_count_restored_when_the_call_raises(self):
        get, _ = THREADS
        before = get()

        def fail():
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            blas.serial(fail)()
        assert get() == before

    def test_training_does_not_depend_on_the_thread_count(self):
        rng = np.random.default_rng(0)
        # large enough that a threaded product rounds differently
        feats = rng.uniform(-0.05, 0.05, size=(1000, 101))
        feats[:, 100] = 30.0
        data = net.Dataset(features=feats, targets=rng.uniform(0.0005, 0.01, 1000))
        config = net.TrainConfig(epochs=3, seed=1)
        get, set_ = THREADS
        before = get()
        try:
            set_(2)
            two, _ = net.train(data, config)
            set_(1)
            one, _ = net.train(data, config)
        finally:
            set_(before)
        for a, b in zip(two.weights + two.biases, one.weights + one.biases):
            assert np.array_equal(a, b)

