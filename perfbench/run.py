"""ecocruise benchmark: offline training, real-time drive and Pareto sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drive_at --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``offline_train`` repeats gen-road -> solve-dp -> invert -> train through
  ``ecocruise.cli.main`` into a fresh directory, then reruns the same four
  commands into that directory, which must hit the cache for every stage.
* ``drive_at`` repeats passes of ``harness.run`` with ``AT_MPC`` over
  freshly generated evaluation roads.
* ``sweep_ladder`` repeats ``harness.pareto_sweep`` over a fixed-weight
  ladder plus AT, PT, PI and DP_REPLAY.  It is not listed in BENCHMARK.json:
  within the time limit for all listed runs, two workloads get runs long
  enough to be steady on a shared 2-CPU host, and both listed workloads run
  the same sweep as a companion phase.

Every workload sets up the same way: it trains a reference predictor
(DP -> weight recovery -> MLP) on a fixed reference road and generates its
evaluation and sweep roads from ``--seed``.  The reference road is fixed
because the held-out MSE of a predictor trained on a small seeded road ranges
from 3e-4 to 5e-2 with the seed, which would leave the quality guards computed
from it (``dp_fuel_kg``, ``predictor_mse_scaled``) no usable bound; the timed
work itself runs on seeded roads.

Besides its rounds each workload runs the phases the others repeat (a short
drive pass after each round, or a sweep at the end), so every run reports
every metric.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer metrics from a separate traced run, whose
spans are written to ``.perfbench/`` in the checkout when the run ends.
Counters with unit ``count`` repeat exactly for a given seed: they are
taken over setup, the first traced round and the companion phases.

Every workload parameter is passed explicitly below; a package default that
the CLI cannot receive (``TrainConfig`` patience and split fractions) is
checked against the benchmark's value and a mismatch stops the run.  The
benchmark never sets BLAS or OpenMP thread variables; it records them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

V_REF = 30.0
V_I = 30.0
HORIZON = 60
# setup solves on the coarser grid to keep set-up short; the offline rounds use
# the acceptance suite's finer trip-average step, so DP dominates them
DP_GRID = {"v_span": 8.0, "dv": 0.25, "dvavg": 0.1, "dte": 10.0, "vavg_band": 0.07}
OFFLINE_DP_GRID = {**DP_GRID, "dvavg": 0.05}
TRAIN_FIELDS = {"learning_rate": 2e-2, "epochs": 150, "batch_size": 32, "l2": 1e-5,
                "test_fraction": 0.2, "val_fraction": 0.05, "patience": 150,
                "restore_best": True, "seed": 3}
LADDER = (0.0002, 0.0005, 0.001, 0.002, 0.003, 0.005, 0.008, 0.012)
REF_ROAD_SEED = 101          # the acceptance suite's training road seed
REF_ROAD_KM = 9.0
EVAL_ROAD_KM = 3.0
DRIVE_ROADS = 4              # roads per drive pass
COMPANION_ROADS = 2          # roads per drive pass that follows another workload's round
OFFLINE_ROAD_KM = 6.0
SETUP_REPS = 5               # setups per untraced run, spread over the rounds
MSE_BOUND = 5e-3             # acceptance criterion 7
V_SLACK = 1.0                # m/s beyond the vehicle box a soft bound may allow
REPLAY_RTOL = 1e-6           # CSV round trip keeps 9 significant digits

WORKLOADS = ("offline_train", "drive_at", "sweep_ladder")


def _load_package():
    if not (SRC / "ecocruise" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ecocruise source under {SRC}")
    sys.path.insert(0, str(SRC))


_load_package()

import numpy as np  # noqa: E402

from ecocruise import cli, dp, harness, invopt, net, road  # noqa: E402
from ecocruise.vehicle import VehicleParams, linearize  # noqa: E402

from tracing import Tracer  # noqa: E402

PARAMS = VehicleParams()
LIN = linearize(PARAMS, V_REF)
TRAIN = net.TrainConfig(**TRAIN_FIELDS)


def _seeds(*key: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(n)]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Ledger:
    """Operations attempted and failed, with the time spent checking them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0

    def check(self, what: str, fn) -> bool:
        tic = time.perf_counter()
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:  # a check that raises is a failed operation
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        self.check_s += time.perf_counter() - tic
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)


def _in_box(traj) -> bool:
    v = np.asarray(traj.v)
    return bool(np.all(np.isfinite(v)) and v.min() >= PARAMS.v_min - V_SLACK
                and v.max() <= PARAMS.v_max + V_SLACK)


def _replays(profile, traj, rtol: float) -> bool:
    replayed = dp.replay(PARAMS, profile, traj.te, float(traj.v[0]))
    return math.isclose(replayed.total_fuel_kg, traj.total_fuel_kg, rel_tol=rtol)


def _gammas_ok(gammas) -> bool:
    g = np.asarray(gammas)
    return bool(np.all(np.isfinite(g)) and g.min() >= 0.0 and g.max() <= invopt.GAMMA_CAP)


@dataclasses.dataclass
class Prepared:
    mse_scaled: float
    dp_fuel_kg: float
    offline_s: float
    sweep_road: object
    artifacts: object


class Bench:
    def __init__(self, workload: str, seed: int, tracer: Tracer | None) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.ledger = Ledger()
        self.runs: list[tuple[object, object, float]] = []  # (spec, SimResult, seconds)
        self.at_steps: list[np.ndarray] = []
        self.offline_cold_s: list[float] = []
        self.cached_rerun_s: list[float] = []
        self.at_economy: float | None = None
        self.front_ratio: float | None = None
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self._install_capture()

    # ------------------------------------------------------------- helpers

    def _install_capture(self) -> None:
        """Record every closed-loop run, including those inside pareto_sweep,
        which looks ``run`` up in the harness module at call time."""
        original = harness.run

        def captured(spec, *args, **kwargs):
            tic = time.perf_counter()
            result = original(spec, *args, **kwargs)
            self.runs.append((spec, result, time.perf_counter() - tic))
            return result

        harness.run = captured

    def _count(self, key: str, amount: float = 1.0) -> None:
        if self.tracer is not None and self.tracer.counting:
            self.tracer.count(key, amount)

    def _solve_and_invert(self, profile, label: str):
        config = dp.DpConfig.default(PARAMS, V_REF, v_i=V_I, **DP_GRID)
        solution = dp.solve(PARAMS, profile, config)
        self.ledger.check(f"{label}: dp.replay reproduces the DP fuel",
                          lambda: _replays(profile, solution.trajectory, 1e-9))
        series = invopt.gamma_series(solution, profile, LIN, PARAMS, HORIZON, v_ref=V_REF)
        self.ledger.check(f"{label}: recovered weights finite and in [0, GAMMA_CAP]",
                          lambda: _gammas_ok(series.gamma))
        return solution, series

    # --------------------------------------------------------------- setup

    def setup(self) -> Prepared:
        checks_before = self.ledger.check_s
        tic = time.perf_counter()
        ref_road = road.gen_sinusoidal(seed=REF_ROAD_SEED, length_m=REF_ROAD_KM * 1000.0)
        ref_dp, ref_series = self._solve_and_invert(ref_road, "reference road")
        dataset = net.make_dataset(ref_road, ref_series, V_REF)
        model, history = net.train(dataset, TRAIN)
        test = net.evaluate(model, dataset.features[history.test_indices],
                            dataset.targets[history.test_indices])
        offline_s = time.perf_counter() - tic - (self.ledger.check_s - checks_before)
        self.ledger.check(f"reference predictor: held-out scaled mse {test.mse_scaled:.3e} "
                          f"<= {MSE_BOUND}",
                          lambda: np.isfinite(test.mse_scaled) and test.mse_scaled <= MSE_BOUND)
        sweep_seed = _seeds(self.seed, 2, n=1)[0]
        sweep_road = road.gen_sinusoidal(seed=sweep_seed, length_m=EVAL_ROAD_KM * 1000.0)
        sweep_dp, sweep_series = self._solve_and_invert(sweep_road, "sweep road")
        artifacts = harness.Artifacts(model=model, series=sweep_series,
                                      dp_solution=sweep_dp, lin=LIN)
        return Prepared(test.mse_scaled, ref_dp.total_fuel, offline_s,
                        sweep_road, artifacts)

    # -------------------------------------------------------------- phases

    def drive_pass(self, prep: Prepared, index: int, roads: int = DRIVE_ROADS) -> None:
        """AT_MPC over ``roads`` fresh roads; pass 0 gives the economy guard."""
        spec = harness.ControllerSpec(kind="AT_MPC", v_ref=V_REF, v_i=V_I, horizon=HORIZON)
        km = fuel = 0.0
        for road_seed in _seeds(self.seed, 1, index, n=roads):
            profile = road.gen_sinusoidal(seed=road_seed, length_m=EVAL_ROAD_KM * 1000.0)
            try:
                result = harness.run(spec, profile, PARAMS, prep.artifacts)
            except Exception as exc:  # a raising drive is a failed operation
                self.ledger.fail(f"drive on road {road_seed}: {type(exc).__name__}: {exc}")
                continue
            self.at_steps.append(result.step_runtimes)
            self.ledger.check(f"drive on road {road_seed}: velocities in the vehicle box",
                              lambda: _in_box(result.trajectory))
            km += result.distance_km
            fuel += result.total_fuel_kg
        if self.at_economy is None and fuel > 0:
            self.at_economy = km / fuel

    def sweep(self, prep: Prepared, index: int) -> None:
        """One pareto_sweep on the sweep road; the first gives the front ratio."""
        first = len(self.runs)
        try:
            rows = harness.pareto_sweep(prep.sweep_road, PARAMS, list(LADDER), prep.artifacts,
                                        V_REF, v_i=V_I, horizon=HORIZON)
        except Exception as exc:  # pareto_sweep lets non-simulation errors escape
            self.ledger.fail(f"sweep: {type(exc).__name__}: {exc}")
            return
        runs = self.runs[first:]
        results = iter(result for _, result, _ in runs)
        for row in rows:
            if row.error:
                self.ledger.fail(f"sweep row {row.controller} {row.gamma}: {row.error}")
                self._count("harness.failed_rows")
                continue
            result = next(results)
            self.ledger.check(f"sweep row {row.controller} {row.gamma}: finite, in the box",
                              lambda: np.isfinite(row.fuel_economy_km_per_kg)
                              and _in_box(result.trajectory))
        self.at_steps.extend(r.step_runtimes for s, r, _ in runs if s.kind == "AT_MPC")
        if self.front_ratio is None:
            fixed = sorted((r.avg_velocity_mps, r.fuel_economy_km_per_kg) for r in rows
                           if r.controller == "FIXED_LMPC" and not r.error)
            at = next((r for r in rows if r.controller == "AT_MPC" and not r.error), None)
            if fixed and at is not None:
                front = float(np.interp(at.avg_velocity_mps, [f[0] for f in fixed],
                                        [f[1] for f in fixed]))
                self.front_ratio = at.fuel_economy_km_per_kg / front

    def _cli(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        tic = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue(), time.perf_counter() - tic

    def offline_round(self, prep: Prepared, index: int) -> None:
        """Cold CLI pipeline into a fresh directory, then a cached rerun."""
        out = self.work / f"round{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        road_csv, dp_csv = str(out / "road.csv"), str(out / "dp.csv")
        gam_csv, model_txt = str(out / "gammas.csv"), str(out / "model.txt")
        road_seed = _seeds(self.seed, 3, index, n=1)[0]
        t, g = TRAIN_FIELDS, OFFLINE_DP_GRID
        commands = [
            ["gen-road", "--length-km", repr(OFFLINE_ROAD_KM), "--seed", str(road_seed),
             "--out", road_csv],
            ["solve-dp", "--road", road_csv, "--v-ref", repr(V_REF), "--v-i", repr(V_I),
             "--dv", repr(g["dv"]), "--dvavg", repr(g["dvavg"]), "--dte", repr(g["dte"]),
             "--v-span", repr(g["v_span"]), "--vavg-band", repr(g["vavg_band"]),
             "--out", dp_csv],
            ["invert", "--road", road_csv, "--dp", dp_csv, "--v-ref", repr(V_REF),
             "--horizon", str(HORIZON), "--out", gam_csv],
            ["train", "--road", road_csv, "--gammas", gam_csv, "--v-ref", repr(V_REF),
             "--lr", repr(t["learning_rate"]), "--epochs", str(t["epochs"]),
             "--batch-size", str(t["batch_size"]), "--l2", repr(t["l2"]),
             "--nn-seed", str(t["seed"]), "--out", model_txt],
        ]
        cold = 0.0
        texts = {}
        for argv in commands:
            code, text, elapsed = self._cli(argv)
            cold += elapsed
            texts[argv[0]] = text
            self.ledger.check(f"cli {argv[0]} (cold) exits 0 without a cache hit: {text.strip()}",
                              lambda: code == 0 and not text.startswith("cache hit"))
        self.offline_cold_s.append(cold)

        profile = road.read_road_csv(road_csv)
        self.ledger.check("cli solve-dp: dp.replay of the written schedule reproduces its fuel",
                          lambda: _replays(profile, dp.read_dp_csv(dp_csv), REPLAY_RTOL))
        self.ledger.check("cli invert: weights finite and in [0, GAMMA_CAP]",
                          lambda: _gammas_ok(invopt.read_gamma_csv(gam_csv).gamma))
        mse = re.search(r"held-out scaled mse (\S+),", texts["train"])
        self.ledger.check("cli train: held-out scaled mse is finite",
                          lambda: mse is not None and np.isfinite(float(mse.group(1))))

        cached = 0.0
        for argv in commands:
            code, text, elapsed = self._cli(argv)
            cached += elapsed
            hit = code == 0 and text.startswith("cache hit")
            self.ledger.check(f"cli {argv[0]} (rerun) hits the cache", lambda: hit)
            self._count("cli.cache_hits", float(hit))
        self.cached_rerun_s.append(cached)
        shutil.rmtree(out, ignore_errors=True)


ROUNDS = {"offline_train": Bench.offline_round, "drive_at": Bench.drive_pass,
          "sweep_ladder": Bench.sweep}
# Phases a workload runs besides its rounds, so that every run reports every
# metric: the first after each round, the second once at the end.  A short
# drive after every round spreads the step samples over the whole run, so a
# burst of contention on the shared host lands on a few of them, not on a
# quarter.
_companion_drive = functools.partial(Bench.drive_pass, roads=COMPANION_ROADS)
COMPANIONS = {"offline_train": ((_companion_drive,), (Bench.sweep,)),
              "drive_at": ((), (Bench.sweep,)),
              "sweep_ladder": ((_companion_drive,), ())}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = {}
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Rounds run for ``seconds`` of their own time (companion phases not
    counted), stopping once less than half a round is left; the setups
    interleave at evenly spaced points of that time, so the setup median
    samples SETUP_REPS moments of the run, not one."""
    round_fn = ROUNDS[bench.workload]
    per_round, at_end = COMPANIONS[bench.workload]
    setups, offline = [], []
    rounds = 0
    spent = last = 0.0
    while len(setups) < SETUP_REPS or spent + last / 2 < seconds:
        if len(setups) < SETUP_REPS and spent >= len(setups) * seconds / SETUP_REPS:
            checks_before = bench.ledger.check_s
            tic = time.perf_counter()
            prep = bench.setup()
            setups.append(time.perf_counter() - tic - (bench.ledger.check_s - checks_before))
            offline.append(prep.offline_s)
            continue
        tic = time.perf_counter()
        round_fn(bench, prep, rounds)
        last = time.perf_counter() - tic
        spent += last
        for fn in per_round:
            fn(bench, prep, rounds)
        rounds += 1
    for fn in at_end:
        fn(bench, prep, 0)
    if bench.workload == "offline_train":
        offline = bench.offline_cold_s

    steps = np.concatenate(bench.at_steps or [np.zeros(0)]) * 1e3
    sim_steps = sum(len(result.step_runtimes) for _, result, _ in bench.runs)
    sim_s = sum(elapsed for _, _, elapsed in bench.runs)
    ledger = bench.ledger
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "offline_s": _metric(statistics.median(offline), "s"),
        # mean, not p50: step latencies are bimodal (the two modes about 1.6x
        # apart, each holding about half the steps), so the median sits in the
        # trough and jumps between modes when their mix shifts by a few steps
        "step_ms_mean": _metric(steps.mean() if len(steps) else 0.0, "ms"),
        # p95, not p99: on a shared 2-CPU box one contention episode fills
        # the top percent, and p99 spread 0.6-0.9 across ten seeds
        "step_ms_p95": _metric(_pct(steps, 95), "ms"),
        "sim_steps_per_s": _metric(sim_steps / sim_s, "1/s"),
        "success_rate": _metric(1.0 - ledger.failed / ledger.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "dp_fuel_kg": _metric(prep.dp_fuel_kg, "kg"),
        "predictor_mse_scaled": _metric(prep.mse_scaled, "1"),
        "at_economy_km_per_kg": _metric(bench.at_economy or 0.0, "km/kg"),
        "at_front_ratio": _metric(bench.front_ratio or 0.0, "ratio"),
    }
    details = {"rounds": rounds, "setup_s": setups, "offline_s": offline,
               "step_samples": int(len(steps)), "step_ms_p50": _pct(steps, 50),
               "sim_steps": sim_steps,
               "cached_rerun_s": bench.cached_rerun_s}
    return metrics, details


def _measure(bench: Bench, prep: Prepared, seconds: float, runner) -> int:
    """Hand rounds to ``runner`` for about ``seconds`` (at least one round),
    stopping once less than half a round's time is left; return the count."""
    round_fn = ROUNDS[bench.workload]
    start = time.perf_counter()
    index, last = 0, 0.0
    while index == 0 or time.perf_counter() - start + last / 2 < seconds:
        tic = time.perf_counter()
        runner(index, lambda: round_fn(bench, prep, index))
        last = time.perf_counter() - tic
        index += 1
    return index


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Setup and the companion phases traced; rounds run in pairs on the same
    input, one traced and one not, alternating which goes first, so that the
    difference of their medians is the tracing overhead."""
    tracer = bench.tracer
    with tracer.installed():
        prep = bench.setup()
    plain, traced = [], []

    def pair(index, round_fn):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            tracer.counting = with_trace and index == 0
            tic = time.perf_counter()
            if with_trace:
                with tracer.installed():
                    round_fn()
                traced.append(time.perf_counter() - tic)
            else:
                round_fn()
                plain.append(time.perf_counter() - tic)

    rounds = _measure(bench, prep, seconds, pair)
    tracer.counting = True
    with tracer.installed():
        for fn in sum(COMPANIONS[bench.workload], ()):
            fn(bench, prep, 0)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = layer_metrics(tracer, bench)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead / statistics.median(plain), "%")
    metrics["trace.spans"] = _metric(len(tracer.spans), "spans")
    details = {"rounds": rounds, "round_plain_s": plain, "round_traced_s": traced}
    return metrics, details


LAYERS = ("road", "dp", "invopt", "net", "mpc", "qp", "harness", "cli")
CLI_STAGES = ("gen-road", "solve-dp", "invert", "train")


def layer_metrics(tracer: Tracer, bench: Bench) -> dict:
    """Per-layer figures: percentiles over every traced span, counts and
    self times over the counted portion only."""
    c, peaks, own = tracer.counts, tracer.maxima, tracer.self_times()
    every, counted = tracer.durations, lambda n: tracer.durations(n, counted_only=True)

    def median(a) -> float:
        return float(np.median(a)) if len(a) else 0.0

    def per(total: float, base: float) -> float:
        return total / base if base else 0.0

    m = {
        "road.gen_s": _metric(median(every("road.gen_sinusoidal")), "s"),
        "road.preview_us_p50": _metric(_pct(every("road.preview") * 1e6, 50), "us"),
        "dp.solve_s": _metric(median(every("dp.solve")), "s"),
        "dp.stage_ms": _metric(per(1e3 * counted("dp.solve").sum(), c["dp.stages"]), "ms"),
        "dp.grid_points": _metric(c["dp.grid_points"], "count"),
        "invopt.gamma_series_s": _metric(median(every("invopt.gamma_series")), "s"),
        "invopt.window_ms": _metric(
            per(1e3 * counted("invopt.gamma_series").sum(), c["invopt.windows"]), "ms"),
        "invopt.windows": _metric(c["invopt.windows"], "count"),
        "invopt.clean_ratio": _metric(per(c["invopt.clean"], c["invopt.windows"]), "ratio"),
        "net.train_s": _metric(median(every("net.train")), "s"),
        "net.epoch_ms": _metric(per(1e3 * counted("net.train").sum(), c["net.epochs_run"]), "ms"),
        "net.epochs_run": _metric(c["net.epochs_run"], "count"),
        "mpc.calls": _metric(c["mpc.calls"], "count"),
        "qp.iterations_total": _metric(c["qp.iterations_total"], "count"),
        "qp.iterations_max": _metric(peaks["qp.iterations_max"], "count"),
        "qp.working_set_mean": _metric(per(c["qp.working_set_sum"], c["qp.calls"]), "rows"),
        "qp.kkt_residual_max": _metric(peaks["qp.kkt_residual_max"], "1"),
        "harness.run_s": _metric(counted("harness.run").sum(), "s"),
        "harness.plant_self_s": _metric(
            counted("harness.run").sum() - c["harness.controller_s"], "s"),
        "harness.failed_rows": _metric(c["harness.failed_rows"], "count"),
        "cli.cached_rerun_s": _metric(median(bench.cached_rerun_s), "s"),
        "cli.cache_hits": _metric(c["cli.cache_hits"], "count"),
    }
    for flag in ("degenerate", "clamped", "failed"):
        m[f"invopt.flagged.{flag}"] = _metric(c[f"invopt.flagged.{flag}"], "count")
    for name, span in (("net.predict", "net.predict"), ("mpc.build", "mpc.build"),
                       ("mpc.solve", "mpc.solve"), ("qp.solve_qp", "qp.solve_qp")):
        us = every(span) * 1e6
        m[f"{name}_us_p50"] = _metric(_pct(us, 50), "us")
        m[f"{name}_us_p99"] = _metric(_pct(us, 99), "us")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _metric(own.get(layer, 0.0), "s")
    for stage in CLI_STAGES:
        m[f"cli.self_s.{stage}"] = _metric(own.get(f"cli.{stage}", 0.0), "s")
    return m


def _check_train_defaults() -> None:
    """The CLI passes only some TrainConfig fields; the rest must still be
    the benchmark's values, or the offline workload would silently change."""
    passed = {k: TRAIN_FIELDS[k] for k in ("learning_rate", "epochs", "batch_size", "l2", "seed")}
    if dataclasses.replace(net.TrainConfig(), **passed) != TRAIN:
        sys.exit(f"perfbench: TrainConfig defaults differ from {TRAIN_FIELDS}; "
                 "update the benchmark in a change of its own")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_train_defaults()

    env = environment()
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    bench = Bench(args.workload, args.seed, tracer)
    tic = time.perf_counter()
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, details = runner(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    ledger = bench.ledger
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": time.perf_counter() - tic,
              "environment": env, "details": details, "failures": ledger.failures[:20]}
    if tracer is not None:
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"record": record, **tracer.dump()}), encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{name:<26} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
