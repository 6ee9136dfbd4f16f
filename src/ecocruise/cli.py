"""Command-line pipeline driver.

Stages mirror the offline/online split of the approach: generate or ingest a
road, solve the global fuel optimum, invert it into a per-position weight
series, train the weight predictor, then simulate and compare controllers.
``pipeline`` chains everything with content-addressed caching so a rerun with
an unchanged configuration touches nothing.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime failure, 4 I/O error
(an output or input file that cannot be written or read).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import dp as dp_mod
from . import formats, harness, invopt, mpc, net, road as road_mod
from .dp import DpConfig, DpSolution
from .formats import num
from .vehicle import VehicleParams, linearize, load_vehicle_config

DEFAULT_V_REF = 30.0  # cruise set point, m/s

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# Every tunable option, once: argparse dest, which is also its config-file
# key, -> (flag, type, default).  A command declares which of them it takes.
OPTIONS = {
    "length_km": ("--length-km", float, None),
    "seed": ("--seed", int, None),
    "v_ref": ("--v-ref", float, DEFAULT_V_REF),
    "v_i": ("--v-i", float, None),  # unset: start at v_ref
    "dv": ("--dv", float, dp_mod.DEFAULT_DV),
    "dvavg": ("--dvavg", float, dp_mod.DEFAULT_DVAVG),
    "dte": ("--dte", float, dp_mod.DEFAULT_DTE),
    "v_span": ("--v-span", float, dp_mod.DEFAULT_V_SPAN),
    "vavg_band": ("--vavg-band", float, dp_mod.DEFAULT_VAVG_BAND),
    "horizon": ("--horizon", int, mpc.DEFAULT_HORIZON),
    "lr": ("--lr", float, net.TrainConfig.learning_rate),
    "epochs": ("--epochs", int, net.TrainConfig.epochs),
    "batch_size": ("--batch-size", int, net.TrainConfig.batch_size),
    "l2": ("--l2", float, net.TrainConfig.l2),
    "nn_seed": ("--nn-seed", int, net.TrainConfig.seed),
    "gamma": ("--gamma", float, 0.0),
    "gamma_ladder": ("--gammas", str, "0.0005:0.005:10"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _fingerprint(stage: str, config: dict, input_paths: list[Path] | None = None,
                 params: VehicleParams | None = None) -> str:
    parts = [f"ecocruise={__version__}", f"stage={stage}"]
    for key in sorted(config):
        parts.append(f"{key}={config[key]!r}")
    if params is not None:
        # the repr the vehicle had while it still carried the road step, so
        # that caches written by earlier releases stay valid
        spelled = ", ".join(f"{k}={v!r}" for k, v in {**asdict(params), "ds": road_mod.DS}.items())
        parts.append(f"vehicle=VehicleParams({spelled})")
    for path in input_paths or []:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
        parts.append(f"input:{Path(path).name}={digest}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _cache_hit(path: Path, fingerprint: str) -> bool:
    """Whether one of the first 8 lines of ``path`` names ``fingerprint``; a
    file that cannot be read or decoded is a miss."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return any(f"fingerprint: {fingerprint}" in fh.readline() for _ in range(8))
    except (OSError, UnicodeDecodeError):
        return False


@contextlib.contextmanager
def _atomic(out: Path):
    """Yield a temporary path beside ``out`` and move it over ``out`` only
    after the writer returns, so an interrupted write never leaves a file
    whose fingerprint header passes for a finished artifact."""
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def _meta(stage: str, fingerprint: str, config: dict) -> list[str]:
    kv = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return [f"ecocruise {stage} v{__version__}", f"fingerprint: {fingerprint}",
            f"config: {kv}".rstrip()]


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    pairs = formats.read_key_values(_require_file(path, "config file"), OPTIONS)
    return {key: value for key, (_, value) in pairs.items()}


def _finite(text) -> float:
    """A float option's value: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _resolve(stage: str, args: argparse.Namespace, file_cfg: dict[str, str]) -> dict:
    """The stage's options: flag, else config file, else default; an unset
    ``v_i`` starts the drive at ``v_ref``.  A non-finite float is a usage
    error in a flag and a validation error in the config file."""
    cfg = {}
    for dest in _COMMANDS[stage].options:
        flag, cast, default = OPTIONS[dest]
        value, source, error = getattr(args, dest), f"argument {flag}", UsageError
        if value is None and dest in file_cfg:
            value, source, error = file_cfg[dest], f"config key {dest}", ValueError
        try:
            cfg[dest] = default if value is None else (_finite if cast is float else cast)(value)
        except ValueError as exc:
            raise error(f"{source}: {exc}") from exc
    if "v_i" in cfg and cfg["v_i"] is None:
        cfg["v_i"] = cfg["v_ref"]
    return cfg


def _produce(stage: str, outs: list, cfg: dict, inputs: list[Path],
             params: VehicleParams | None, make) -> int:
    """Write the files ``outs`` unless each already holds the artifact this
    configuration fingerprints to.  ``make(*tmps, fingerprint, header_lines)``
    computes and writes the artifact to one temporary path per file and
    returns the summary to print; no file is replaced until all are written."""
    if None in outs:
        raise UsageError(f"{stage} requires --out")
    paths = [Path(out) for out in outs]
    names = " and ".join(map(str, outs))
    fp = _fingerprint(stage, cfg, inputs, params)
    if all(_cache_hit(path, fp) for path in paths):
        print(f"cache hit: {names}")
        return EXIT_OK
    with contextlib.ExitStack() as stack:
        tmps = [stack.enter_context(_atomic(path)) for path in paths]
        summary = make(*tmps, fp, _meta(stage, fp, cfg))
    print(f"wrote {names} ({summary})")
    return EXIT_OK


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise ValueError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise ValueError(f"{what} not found: {path}")
    return p


def _out_dir(path: str | None) -> Path:
    chosen = Path(path or ".")
    chosen.mkdir(parents=True, exist_ok=True)
    return chosen


def _vehicle(args) -> VehicleParams:
    if getattr(args, "vehicle_config", None):
        return load_vehicle_config(_require_file(args.vehicle_config, "vehicle config"))
    return VehicleParams()


def _parse_ladder(text: str) -> list[float]:
    """The fixed weights of ``lo:hi:count`` or a comma list: at least one,
    ascending and nonnegative."""
    try:
        if ":" not in text:
            ladder = sorted(_finite(t) for t in text.split(",") if t.strip())
        else:
            lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = _finite(lo_s), _finite(hi_s), int(n_s)
            ladder = [float(g) for g in np.linspace(lo, hi, n)] if n >= 1 and hi >= lo else []
    except ValueError as exc:
        raise ValueError(f"bad ladder spec {text!r}; want lo:hi:count or a comma list: "
                         f"{exc}") from exc
    if not ladder or ladder[0] < 0:
        raise ValueError(f"bad ladder spec {text!r}")
    return ladder


def _train_config(cfg: dict) -> net.TrainConfig:
    return net.TrainConfig(learning_rate=cfg["lr"], epochs=cfg["epochs"],
                           batch_size=cfg["batch_size"], l2=cfg["l2"], seed=cfg["nn_seed"])


def _read_solution(path: Path) -> DpSolution:
    return DpSolution(trajectory=dp_mod.read_dp_csv(path))


# ---------------------------------------------------------------- commands

def cmd_gen_road(args, file_cfg) -> int:
    cfg = _resolve("gen-road", args, file_cfg)
    if cfg["length_km"] is None or cfg["seed"] is None:
        raise UsageError("gen-road requires --length-km and --seed")

    def make(tmp, fp, meta):
        profile = road_mod.gen_sinusoidal(seed=cfg["seed"], length_m=cfg["length_km"] * 1000.0)
        road_mod.write_road_csv(profile, tmp, header_lines=meta)
        return (f"{profile.n_steps} segments, max |grade| "
                f"{float(np.max(np.abs(profile.grade))):.4f}")

    return _produce("gen-road", [args.out], cfg, [], None, make)


def cmd_solve_dp(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    params = _vehicle(args)
    cfg = _resolve("solve-dp", args, file_cfg)

    def make(tmp, fp, meta):
        profile = road_mod.read_road_csv(road_path)
        solution = dp_mod.solve(params, profile, DpConfig.default(params, **cfg))
        dp_mod.write_dp_csv(solution.trajectory, tmp, header_lines=meta)
        return f"total fuel {solution.total_fuel:.9g} kg"

    return _produce("solve-dp", [args.out], cfg, [road_path], params, make)


def cmd_invert(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    dp_path = _require_file(args.dp, "trajectory file")
    params = _vehicle(args)
    cfg = _resolve("invert", args, file_cfg)

    def make(tmp, fp, meta):
        profile = road_mod.read_road_csv(road_path)
        lin = linearize(params, cfg["v_ref"])
        series = invopt.gamma_series(_read_solution(dp_path), profile, lin, params,
                                     cfg["horizon"], v_ref=cfg["v_ref"])
        invopt.write_gamma_csv(series, tmp, header_lines=meta)
        clean = sum(1 for f in series.flags if not f)
        return f"{clean}/{len(series)} clean recoveries"

    return _produce("invert", [args.out], cfg, [road_path, dp_path], params, make)


def cmd_train(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    gam_path = _require_file(args.gammas, "weight-series file")
    cfg = _resolve("train", args, file_cfg)
    train_cfg = _train_config(cfg)

    def make(tmp, fp, meta):
        profile = road_mod.read_road_csv(road_path)
        dataset = net.make_dataset(profile, invopt.read_gamma_csv(gam_path), cfg["v_ref"])
        model, history = net.train(dataset, train_cfg)
        test = net.evaluate(model, dataset.features[history.test_indices],
                            dataset.targets[history.test_indices])
        net.save_model(model, tmp, meta)
        return (f"held-out scaled mse {test.mse_scaled:.3e}, "
                f"mae {test.mae_scaled:.3e}; {len(history.train_loss)} epochs")

    # a model trained by an earlier algorithm is never a cache hit
    return _produce("train", [args.out], {**cfg, "model_version": net.MODEL_VERSION},
                    [road_path, gam_path], None, make)


_KIND_ALIASES = {"at": "AT_MPC", "pt": "PT_MPC", "fixed": "FIXED_LMPC",
                 "pi": "PI", "dp": "DP_REPLAY"}


def _artifact_files(args, kinds: set[str], gammas: str | None) -> dict[str, Path]:
    """The file each controller kind in ``kinds`` reads; ``gammas`` is the
    weight-series path, which simulate and sweep take under different flags."""
    given = {"AT_MPC": (args.model, "model file"), "PT_MPC": (gammas, "weight-series file"),
             "DP_REPLAY": (args.dp, "trajectory file")}
    return {kind: _require_file(*given[kind]) for kind in given if kind in kinds}


def _artifacts_for(files: dict[str, Path]) -> harness.Artifacts:
    model = series = solution = None
    if "AT_MPC" in files:
        model = net.load_model(files["AT_MPC"])
    if "PT_MPC" in files:
        series = invopt.read_gamma_csv(files["PT_MPC"])
    if "DP_REPLAY" in files:
        solution = _read_solution(files["DP_REPLAY"])
    return harness.Artifacts(model=model, series=series, dp_solution=solution)


def cmd_simulate(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    if args.controller not in _KIND_ALIASES:
        raise UsageError(f"--controller must be one of {sorted(_KIND_ALIASES)}")
    kind = _KIND_ALIASES[args.controller]
    params = _vehicle(args)
    cfg = _resolve("simulate", args, file_cfg)
    files = _artifact_files(args, {kind}, args.gammas)
    profile = road_mod.read_road_csv(road_path)
    result = harness.run(harness.ControllerSpec(kind=kind, **cfg), profile, params,
                         _artifacts_for(files))
    row = harness.SweepRow.of(kind, cfg["gamma"] if kind == "FIXED_LMPC" else None, result)
    print(f"{row.controller}: avg velocity {row.avg_velocity_mps:.9g} m/s, "
          f"fuel economy {row.fuel_economy_km_per_kg:.9g} km/kg, "
          f"total fuel {row.total_fuel_kg:.9g} kg, "
          f"median step {result.median_step_s:.9g} s")
    if args.out:
        cfg["controller"] = kind
        fp = _fingerprint("simulate", cfg, [road_path, *files.values()], params)
        with _atomic(Path(args.out)) as tmp:
            harness.write_sweep_csv([row], tmp, header_lines=_meta("simulate", fp, cfg))
    return EXIT_OK


def cmd_sweep(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    params = _vehicle(args)
    drive = _resolve("sweep", args, file_cfg)
    ladder = _parse_ladder(drive.pop("gamma_ladder"))
    files = _artifact_files(args, {"AT_MPC", "PT_MPC", "DP_REPLAY"}, args.gammas_csv)

    def make(tmp, fp, meta):
        profile = road_mod.read_road_csv(road_path)
        rows = harness.pareto_sweep(profile, params, ladder, _artifacts_for(files), **drive)
        harness.write_sweep_csv(rows, tmp, header_lines=meta)
        return f"{len(rows)} rows"

    cfg = {**drive, "gammas": ",".join(f"{g:.9g}" for g in ladder)}
    return _produce("sweep", [args.out], cfg, [road_path, *files.values()], params, make)


def cmd_report(args, file_cfg) -> int:
    sweep_path = _require_file(args.sweep, "sweep file")
    rows = harness.read_sweep_csv(sweep_path)
    if not rows:
        print("empty sweep: nothing to report")
        return EXIT_OK
    ok = [r for r in rows if not r.error]
    by_kind = {r.controller: r for r in ok if r.controller != "FIXED_LMPC"}
    front = sorted((r for r in ok if r.controller == "FIXED_LMPC"), key=lambda r: r.gamma or 0.0)

    print(f"{'controller':<12} {'gamma':>10} {'avg v (m/s)':>12} "
          f"{'economy (km/kg)':>16} {'fuel (kg)':>12}")
    for r in sorted(rows, key=lambda r: (r.controller, r.gamma or 0.0)):
        if r.error:
            print(f"{r.controller:<12} failed: {r.error}")
            continue
        g = f"{r.gamma:.9g}" if r.gamma is not None else "-"
        print(f"{r.controller:<12} {g:>10} {r.avg_velocity_mps:>12.9g} "
              f"{r.fuel_economy_km_per_kg:>16.9g} {r.total_fuel_kg:>12.9g}")

    pi = by_kind.get("PI")
    for name in ("DP_REPLAY", "AT_MPC", "PT_MPC"):
        other = by_kind.get(name)
        if pi and other and np.isfinite(other.fuel_economy_km_per_kg):
            gain = 100.0 * (other.fuel_economy_km_per_kg / pi.fuel_economy_km_per_kg - 1.0)
            print(f"{name} fuel economy vs PI: {gain:+.9g}%")

    if not args.out_dir:
        return EXIT_OK
    out_dir = _out_dir(args.out_dir)
    points = sorted(by_kind.items())

    def make(front_tmp, points_tmp, fp, meta):
        formats.write_table(front_tmp, ["gamma", "avg_velocity_mps", "fuel_economy_km_per_kg"],
                            ([num(r.gamma), num(r.avg_velocity_mps),
                              num(r.fuel_economy_km_per_kg)] for r in front), meta)
        formats.write_table(points_tmp,
                            ["controller", "avg_velocity_mps", "fuel_economy_km_per_kg"],
                            ([name, num(r.avg_velocity_mps), num(r.fuel_economy_km_per_kg)]
                             for name, r in points), meta)
        return f"{len(front)} fixed-weight points, {len(points)} controllers"

    return _produce("report", [out_dir / "pareto_fixed_front.csv",
                               out_dir / "pareto_controllers.csv"], {}, [sweep_path], None, make)


# each pipeline stage, the file it writes and the flags later stages read it by
_PIPELINE = (("gen-road", "road.csv", ("road",)), ("solve-dp", "dp.csv", ("dp",)),
             ("invert", "gammas.csv", ("gammas", "gammas_csv")),
             ("train", "model.txt", ("model",)), ("sweep", "sweep.csv", ("sweep",)),
             ("report", ".", ("out_dir",)))


def cmd_pipeline(args, file_cfg) -> int:
    # a bad option fails before any stage writes
    cfg = _resolve("pipeline", args, file_cfg)
    DpConfig.default(_vehicle(args), **{k: cfg[k] for k in _COMMANDS["solve-dp"].options})
    _train_config(cfg)
    _parse_ladder(cfg["gamma_ladder"])
    if cfg["horizon"] < 1:
        raise ValueError(f"horizon must contain at least one step, got {cfg['horizon']}")
    out_dir = _out_dir(args.out_dir or "runs")
    for stage, name, feeds in _PIPELINE:
        if stage == "gen-road" and args.road:
            continue  # a given road is read, not generated
        args.out = str(out_dir / name)
        for dest in feeds:
            setattr(args, dest, args.out)
        try:
            _COMMANDS[stage].run(args, file_cfg)
        except _FAILURES as exc:
            return _fail(exc, f"pipeline stage {stage} failed: ")
    return EXIT_OK


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, dict[str, str]], int]
    help: str
    files: tuple[str, ...]  # path flags, by dest
    options: tuple[str, ...]  # keys of OPTIONS


_COMMANDS = {
    "gen-road": _Command(cmd_gen_road, "generate a seeded synthetic hilly road", ("out",),
                         ("length_km", "seed")),
    "solve-dp": _Command(cmd_solve_dp, "global minimum-fuel trajectory", ("road", "out"),
                         ("v_ref", "v_i", "dv", "dvavg", "dte", "v_span", "vavg_band")),
    "invert": _Command(cmd_invert, "recover per-position fuel weights", ("road", "dp", "out"),
                       ("v_ref", "horizon")),
    "train": _Command(cmd_train, "fit the weight predictor", ("road", "gammas", "out"),
                      ("v_ref", "lr", "epochs", "batch_size", "l2", "nn_seed")),
    "simulate": _Command(cmd_simulate, "run one controller on one road",
                         ("road", "controller", "model", "gammas", "dp", "out"),
                         ("gamma", "v_ref", "v_i", "horizon")),
    "sweep": _Command(cmd_sweep, "full controller comparison table; --gammas is the "
                      "fixed-weight ladder, lo:hi:count or a comma list",
                      ("road", "model", "gammas_csv", "dp", "out"),
                      ("gamma_ladder", "v_ref", "v_i", "horizon")),
    "report": _Command(cmd_report, "summarize a sweep", ("sweep", "out_dir"), ()),
}
_COMMANDS["pipeline"] = _Command(
    cmd_pipeline, "run every stage with caching", ("road", "out_dir"),
    tuple(dict.fromkeys(o for stage, *_ in _PIPELINE for o in _COMMANDS[stage].options)))


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecocruise",
                     description="fuel-aware cruise control pipeline")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--vehicle-config", help="vehicle parameter overrides")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for dest in command.files:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           required=dest == "controller")
        for dest in command.options:
            flag, cast, _ = OPTIONS[dest]
            p.add_argument(flag, type=cast, dest=dest)
    return parser


# exit code and stderr label of every failure main reports: bad input is a
# ValueError, and the stages' own failures (QpError, InfeasibleError,
# StepFailure, TrainingError) are RuntimeErrors
_ERRORS = (((UsageError,), EXIT_USAGE, "usage error"),
           ((ValueError,), EXIT_VALIDATION, "validation error"),
           ((RuntimeError,), EXIT_RUNTIME, "runtime error"),
           ((OSError,), EXIT_IO, "I/O error"))
_FAILURES = tuple(kind for kinds, _, _ in _ERRORS for kind in kinds)


def _fail(exc: Exception, context: str = "") -> int:
    code, label = next((code, label) for kinds, code, label in _ERRORS
                       if isinstance(exc, kinds))
    print(f"{label}: {context}{exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = _load_config_file(args.config)
        return _COMMANDS[args.command].run(args, file_cfg)
    except _FAILURES as exc:
        return _fail(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
