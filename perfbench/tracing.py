"""In-memory span tracer that wraps ecocruise's public functions from outside.

The package source is not touched: a :class:`Tracer` replaces module
attributes with timing wrappers while it is installed and restores the
originals afterwards.  Each wrapper is installed where the caller looks the
function up, so ``harness.predict`` (imported by name into ``harness``) is
wrapped in ``harness``'s namespace, while ``mpc.build`` is wrapped on the
``mpc`` module that ``harness`` calls through.

Spans are kept as ``[name, start, end, parent, counted]`` lists and written out only
when the run ends.  Counters are only advanced while ``counting`` is true, so
a run can restrict them to a fixed, seed-determined portion of its work and
have them repeat exactly.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from ecocruise import cli, dp, harness, invopt, mpc, net, road


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.counting = True
        self._stack: list[int] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` timed as a span; ``name`` may be a callable of the
        call's arguments.  ``on_result(result, args, kwargs)`` feeds counters."""
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = [name(*args, **kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.counting]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None and self.counting:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], float(value))

    # -------------------------------------------------------------- hooks

    def _on_dp_solve(self, solution, args, kwargs):
        _, profile, config = args[:3]
        stages = profile.n_steps
        self.count("dp.stages", stages)
        self.count("dp.grid_points",
                   stages * len(config.v_grid) * len(config.vavg_grid) * len(config.te_grid))

    def _on_gamma_series(self, series, args, kwargs):
        self.count("invopt.windows", len(series))
        for flag in series.flags:
            self.count(f"invopt.flagged.{flag}" if flag else "invopt.clean")

    def _on_train(self, result, args, kwargs):
        self.count("net.epochs_run", len(result[1].train_loss))

    def _on_build(self, problem, args, kwargs):
        self.count("mpc.calls")

    def _on_solve_qp(self, result, args, kwargs):
        self.count("qp.calls")
        self.count("qp.iterations_total", result.iterations)
        self.count("qp.working_set_sum", len(result.working))
        self.peak("qp.iterations_max", result.iterations)
        self.peak("qp.kkt_residual_max", result.stationarity)

    def _on_run(self, result, args, kwargs):
        self.count("harness.steps", len(result.step_runtimes))
        self.count("harness.controller_s", float(np.sum(result.step_runtimes)))

    # ------------------------------------------------------------ install

    def _targets(self):
        cli_name = lambda argv=None, *a, **k: "cli." + (argv[0] if argv else "main")  # noqa: E731
        return [
            (road, "gen_sinusoidal", "road.gen_sinusoidal", None),
            (harness, "preview", "road.preview", None),
            (dp, "solve", "dp.solve", self._on_dp_solve),
            (invopt, "gamma_series", "invopt.gamma_series", self._on_gamma_series),
            (invopt, "solve_qp", "qp.solve_qp.invopt", None),
            (net, "make_dataset", "net.make_dataset", None),
            (net, "train", "net.train", self._on_train),
            (net, "evaluate", "net.evaluate", None),
            (harness, "predict", "net.predict", None),
            (mpc, "build", "mpc.build", self._on_build),
            (mpc, "solve", "mpc.solve", None),
            (mpc, "solve_qp", "qp.solve_qp", self._on_solve_qp),
            (harness, "run", "harness.run", self._on_run),
            (harness, "pareto_sweep", "harness.pareto_sweep", None),
            (cli, "main", cli_name, None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block; nested
        wrappers (such as the benchmark's own capture of ``harness.run``)
        stay inside the span."""
        saved = []
        try:
            for module, attr, name, hook in self._targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ------------------------------------------------------------ analysis

    def durations(self, name: str, counted_only: bool = False) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans
                         if s[0] == name and (s[4] or not counted_only)])

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the span name's first component) over the
        counted spans: each span's duration minus the time covered by its
        direct children."""
        child = np.zeros(len(self.spans))
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        layers: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if not span[4]:
                continue
            own = span[2] - span[1] - child[i]
            layers[span[0].split(".", 1)[0]] += own
            if span[0].startswith("cli."):
                layers["cli." + span[0][4:]] += own
        return dict(layers)

    def dump(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p, "counted": c}
                          for n, s, e, p, c in self.spans],
                "counts": dict(self.counts), "maxima": dict(self.maxima)}
