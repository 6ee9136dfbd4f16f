"""Command-line pipeline driver.

Stages mirror the offline/online split of the approach: generate or ingest a
road, solve the global fuel optimum, invert it into a per-position weight
series, train the weight predictor, then simulate and compare controllers.
``pipeline`` chains everything with content-addressed caching so a rerun with
an unchanged configuration touches nothing.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dp as dp_mod
from . import formats, harness, invopt, mpc, net, road as road_mod
from .dp import DpConfig, DpSolution, InfeasibleError
from .formats import num
from .qp import QpError
from .road import IngestError
from .vehicle import StepFailure, VehicleParams, linearize, load_vehicle_config

ENV_OUT_DIR = "ECOCRUISE_OUT_DIR"
DEFAULT_V_REF = 30.0  # cruise set point, m/s

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class ValidationError(Exception):
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
        parts.append(f"vehicle={params!r}")
    for path in input_paths or []:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
        parts.append(f"input:{Path(path).name}={digest}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _cache_hit(path: Path, fingerprint: str) -> bool:
    if not path.exists():
        return False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for _ in range(8):
                line = fh.readline()
                if f"fingerprint: {fingerprint}" in line:
                    return True
    except OSError:
        return False
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
    return [f"ecocruise {stage} v{__version__}", f"fingerprint: {fingerprint}", f"config: {kv}"]


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    if not Path(path).exists():
        raise ValidationError(f"config file not found: {path}")
    return {key.replace("-", "_"): value for _, key, value in formats.read_key_values(path)}


def _merged(args: argparse.Namespace, file_cfg: dict[str, str], key: str, cast, default):
    """Flag wins over config file, which wins over the default."""
    flag_val = getattr(args, key, None)
    if flag_val is not None:
        return flag_val
    if key in file_cfg:
        try:
            return cast(file_cfg[key])
        except ValueError as exc:
            raise ValidationError(f"config key {key}: {exc}") from exc
    return default


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise ValidationError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} not found: {path}")
    return p


def _out_dir(path: str | None) -> Path:
    override = os.environ.get(ENV_OUT_DIR)
    chosen = Path(override) if override else Path(path) if path else Path(".")
    chosen.mkdir(parents=True, exist_ok=True)
    return chosen


def _vehicle(args) -> VehicleParams:
    if getattr(args, "vehicle_config", None):
        return load_vehicle_config(_require_file(args.vehicle_config, "vehicle config"))
    return VehicleParams()


def _parse_ladder(text: str) -> list[float]:
    if ":" in text:
        try:
            lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError as exc:
            raise ValidationError(f"bad ladder spec {text!r}; want lo:hi:count") from exc
        if n < 1 or hi < lo:
            raise ValidationError(f"bad ladder spec {text!r}")
        return [float(g) for g in np.linspace(lo, hi, n)]
    try:
        return sorted(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ValidationError(f"bad ladder spec {text!r}") from exc


# ---------------------------------------------------------------- commands

def cmd_gen_road(args, file_cfg) -> int:
    length_km = _merged(args, file_cfg, "length_km", float, None)
    seed = _merged(args, file_cfg, "seed", int, None)
    if length_km is None or seed is None:
        raise UsageError("gen-road requires --length-km and --seed")
    if args.out is None:
        raise UsageError("gen-road requires --out")
    if length_km < 3.0:
        raise ValidationError("road must be at least 3 km (grade previews span 3 km)")
    cfg = {"length_km": length_km, "seed": seed}
    fp = _fingerprint("gen-road", cfg)
    out = Path(args.out)
    if _cache_hit(out, fp):
        print(f"cache hit: {out}")
        return EXIT_OK
    profile = road_mod.gen_sinusoidal(seed=seed, length_m=length_km * 1000.0)
    with _atomic(out) as tmp:
        road_mod.write_road_csv(profile, tmp, header_lines=_meta("gen-road", fp, cfg))
    print(f"wrote {out} ({profile.n_steps} segments, max |grade| "
          f"{float(np.max(np.abs(profile.grade))):.4f})")
    return EXIT_OK


def cmd_solve_dp(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    if args.out is None:
        raise UsageError("solve-dp requires --out")
    params = _vehicle(args)
    v_ref = _merged(args, file_cfg, "v_ref", float, DEFAULT_V_REF)
    v_i = _merged(args, file_cfg, "v_i", float, v_ref)
    dv = _merged(args, file_cfg, "dv", float, dp_mod.DEFAULT_DV)
    dvavg = _merged(args, file_cfg, "dvavg", float, dp_mod.DEFAULT_DVAVG)
    dte = _merged(args, file_cfg, "dte", float, dp_mod.DEFAULT_DTE)
    v_span = _merged(args, file_cfg, "v_span", float, dp_mod.DEFAULT_V_SPAN)
    vavg_band = _merged(args, file_cfg, "vavg_band", float, dp_mod.DEFAULT_VAVG_BAND)
    cfg = {"v_ref": v_ref, "v_i": v_i, "dv": dv, "dvavg": dvavg, "dte": dte,
           "v_span": v_span, "vavg_band": vavg_band}
    fp = _fingerprint("solve-dp", cfg, [road_path], params)
    out = Path(args.out)
    if _cache_hit(out, fp):
        print(f"cache hit: {out}")
        return EXIT_OK
    profile = road_mod.read_road_csv(road_path)
    config = DpConfig.default(params, v_ref, v_i=v_i, v_span=v_span, dv=dv,
                              dvavg=dvavg, dte=dte, vavg_band=vavg_band)
    solution = dp_mod.solve(params, profile, config)
    with _atomic(out) as tmp:
        dp_mod.write_dp_csv(solution, tmp, header_lines=_meta("solve-dp", fp, cfg))
    print(f"wrote {out} (total fuel {solution.total_fuel:.9g} kg)")
    return EXIT_OK


def cmd_invert(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    dp_path = _require_file(args.dp, "trajectory file")
    if args.out is None:
        raise UsageError("invert requires --out")
    params = _vehicle(args)
    v_ref = _merged(args, file_cfg, "v_ref", float, DEFAULT_V_REF)
    horizon = _merged(args, file_cfg, "horizon", int, mpc.DEFAULT_HORIZON)
    cfg = {"v_ref": v_ref, "horizon": horizon}
    fp = _fingerprint("invert", cfg, [road_path, dp_path], params)
    out = Path(args.out)
    if _cache_hit(out, fp):
        print(f"cache hit: {out}")
        return EXIT_OK
    profile = road_mod.read_road_csv(road_path)
    traj = dp_mod.read_dp_csv(dp_path)
    solution = DpSolution(trajectory=traj, total_fuel=traj.total_fuel_kg, cost_to_go=None)
    lin = linearize(params, v_ref)
    series = invopt.gamma_series(solution, profile, lin, params, horizon, v_ref=v_ref)
    with _atomic(out) as tmp:
        invopt.write_gamma_csv(series, tmp, ds=params.ds, header_lines=_meta("invert", fp, cfg))
    clean = sum(1 for f in series.flags if not f)
    print(f"wrote {out} ({clean}/{len(series)} clean recoveries)")
    return EXIT_OK


def cmd_train(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    gam_path = _require_file(args.gammas, "weight-series file")
    if args.out is None:
        raise UsageError("train requires --out")
    v_ref = _merged(args, file_cfg, "v_ref", float, DEFAULT_V_REF)
    defaults = net.TrainConfig()
    cfg_obj = net.TrainConfig(
        learning_rate=_merged(args, file_cfg, "lr", float, defaults.learning_rate),
        epochs=_merged(args, file_cfg, "epochs", int, defaults.epochs),
        batch_size=_merged(args, file_cfg, "batch_size", int, defaults.batch_size),
        l2=_merged(args, file_cfg, "l2", float, defaults.l2),
        seed=_merged(args, file_cfg, "nn_seed", int, defaults.seed),
    )
    cfg = {"v_ref": v_ref, "lr": cfg_obj.learning_rate, "epochs": cfg_obj.epochs,
           "batch_size": cfg_obj.batch_size, "l2": cfg_obj.l2, "nn_seed": cfg_obj.seed}
    fp = _fingerprint("train", cfg, [road_path, gam_path])
    out = Path(args.out)
    if _cache_hit(out, fp):
        print(f"cache hit: {out}")
        return EXIT_OK
    profile = road_mod.read_road_csv(road_path)
    series = invopt.read_gamma_csv(gam_path)
    dataset = net.make_dataset(profile, series, v_ref)
    model, history = net.train(dataset, cfg_obj)
    test = net.evaluate(model, dataset.features[history.test_indices],
                        dataset.targets[history.test_indices])
    with _atomic(out) as tmp:
        net.save_model(model, tmp, fingerprint=fp)
    print(f"wrote {out} (held-out scaled mse {test.mse_scaled:.3e}, "
          f"mae {test.mae_scaled:.3e}; {len(history.train_loss)} epochs)")
    return EXIT_OK


_KIND_ALIASES = {"at": "AT_MPC", "pt": "PT_MPC", "fixed": "FIXED_LMPC",
                 "pi": "PI", "dp": "DP_REPLAY"}


def _artifacts_for(args, kinds: set[str]) -> harness.Artifacts:
    model = series = solution = None
    if "AT_MPC" in kinds:
        model = net.load_model(_require_file(args.model, "model file"))
    if "PT_MPC" in kinds:
        series = invopt.read_gamma_csv(_require_file(args.gammas, "weight-series file"))
    if "DP_REPLAY" in kinds:
        traj = dp_mod.read_dp_csv(_require_file(args.dp, "trajectory file"))
        solution = DpSolution(trajectory=traj, total_fuel=traj.total_fuel_kg, cost_to_go=None)
    return harness.Artifacts(model=model, series=series, dp_solution=solution)


def cmd_simulate(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    if args.controller not in _KIND_ALIASES:
        raise UsageError(f"--controller must be one of {sorted(_KIND_ALIASES)}")
    kind = _KIND_ALIASES[args.controller]
    params = _vehicle(args)
    v_ref = _merged(args, file_cfg, "v_ref", float, DEFAULT_V_REF)
    v_i = _merged(args, file_cfg, "v_i", float, v_ref)
    horizon = _merged(args, file_cfg, "horizon", int, mpc.DEFAULT_HORIZON)
    gamma = _merged(args, file_cfg, "gamma", float, 0.0)
    profile = road_mod.read_road_csv(road_path)
    artifacts = _artifacts_for(args, {kind})
    spec = harness.ControllerSpec(kind=kind, v_ref=v_ref, v_i=v_i,
                                  horizon=horizon, gamma=gamma)
    result = harness.run(spec, profile, params, artifacts)
    row = harness.SweepRow.of(kind, gamma if kind == "FIXED_LMPC" else None, result)
    print(f"{row.controller}: avg velocity {row.avg_velocity_mps:.9g} m/s, "
          f"fuel economy {row.fuel_economy_km_per_kg:.9g} km/kg, "
          f"total fuel {row.total_fuel_kg:.9g} kg, "
          f"median step {row.median_step_s:.9g} s")
    if args.out:
        cfg = {"controller": kind, "v_ref": v_ref, "v_i": v_i, "gamma": gamma}
        fp = _fingerprint("simulate", cfg, [road_path], params)
        with _atomic(Path(args.out)) as tmp:
            harness.write_sweep_csv([row], tmp, header_lines=_meta("simulate", fp, cfg))
    return EXIT_OK


def cmd_sweep(args, file_cfg) -> int:
    road_path = _require_file(args.road, "road file")
    if args.out is None:
        raise UsageError("sweep requires --out")
    ladder = _parse_ladder(_merged(args, file_cfg, "gammas_flag", str, None)
                           or file_cfg.get("gamma_ladder", "0.0005:0.005:10"))
    params = _vehicle(args)
    v_ref = _merged(args, file_cfg, "v_ref", float, DEFAULT_V_REF)
    v_i = _merged(args, file_cfg, "v_i", float, v_ref)
    horizon = _merged(args, file_cfg, "horizon", int, mpc.DEFAULT_HORIZON)
    cfg = {"v_ref": v_ref, "v_i": v_i, "horizon": horizon,
           "gammas": ",".join(f"{g:.9g}" for g in ladder)}
    inputs = [road_path]
    for attr in ("model", "gammas_csv", "dp"):
        val = getattr(args, attr, None)
        if val:
            inputs.append(_require_file(val, attr))
    fp = _fingerprint("sweep", cfg, inputs, params)
    out = Path(args.out)
    if _cache_hit(out, fp):
        print(f"cache hit: {out}")
        return EXIT_OK
    profile = road_mod.read_road_csv(road_path)
    args.gammas = args.gammas_csv  # _artifacts_for reads .gammas for PT
    artifacts = _artifacts_for(args, {"AT_MPC", "PT_MPC", "DP_REPLAY"})
    rows = harness.pareto_sweep(profile, params, ladder, artifacts, v_ref,
                                v_i=v_i, horizon=horizon)
    with _atomic(out) as tmp:
        harness.write_sweep_csv(rows, tmp, header_lines=_meta("sweep", fp, cfg))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_report(args, file_cfg) -> int:
    sweep_path = _require_file(args.sweep, "sweep file")
    rows = harness.read_sweep_csv(sweep_path)
    if not rows:
        print("empty sweep: nothing to report")
        return EXIT_OK
    by_kind: dict[str, harness.SweepRow] = {}
    fixed_rows = []
    for r in rows:
        if r.error:
            continue
        if r.controller == "FIXED_LMPC":
            fixed_rows.append(r)
        else:
            by_kind[r.controller] = r

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

    if args.out_dir:
        out_dir = _out_dir(args.out_dir)
        fp = _fingerprint("report", {}, [sweep_path])
        meta = _meta("report", fp, {})
        front = out_dir / "pareto_fixed_front.csv"
        with _atomic(front) as tmp:
            formats.write_table(
                tmp,
                ["gamma", "avg_velocity_mps", "fuel_economy_km_per_kg"],
                ([num(r.gamma), num(r.avg_velocity_mps), num(r.fuel_economy_km_per_kg)]
                 for r in sorted(fixed_rows, key=lambda r: r.gamma or 0.0)),
                meta,
            )
        points = out_dir / "pareto_controllers.csv"
        with _atomic(points) as tmp:
            formats.write_table(
                tmp,
                ["controller", "avg_velocity_mps", "fuel_economy_km_per_kg"],
                ([name, num(r.avg_velocity_mps), num(r.fuel_economy_km_per_kg)]
                 for name, r in sorted(by_kind.items())),
                meta,
            )
        print(f"wrote {front} and {points}")
    return EXIT_OK


def cmd_pipeline(args, file_cfg) -> int:
    out_dir = _out_dir(args.out_dir or "runs")
    road_file = Path(args.road) if args.road else out_dir / "road.csv"
    stage = "gen-road"
    try:
        if not args.road:
            args.out = str(road_file)
            cmd_gen_road(args, file_cfg)
        stage = "solve-dp"
        args.road = str(road_file)
        args.out = str(out_dir / "dp.csv")
        cmd_solve_dp(args, file_cfg)
        stage = "invert"
        args.dp = str(out_dir / "dp.csv")
        args.out = str(out_dir / "gammas.csv")
        cmd_invert(args, file_cfg)
        stage = "train"
        args.gammas = str(out_dir / "gammas.csv")
        args.out = str(out_dir / "model.txt")
        cmd_train(args, file_cfg)
        stage = "sweep"
        args.model = str(out_dir / "model.txt")
        args.gammas_csv = str(out_dir / "gammas.csv")
        args.out = str(out_dir / "sweep.csv")
        cmd_sweep(args, file_cfg)
        stage = "report"
        args.sweep = str(out_dir / "sweep.csv")
        args.out_dir = str(out_dir)
        return cmd_report(args, file_cfg)
    except (UsageError, ValidationError):
        raise
    except Exception as exc:
        raise RuntimeError(f"pipeline stage {stage} failed: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecocruise",
                     description="fuel-aware cruise control pipeline")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--vehicle-config", help="vehicle parameter overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-road", help="generate a seeded synthetic hilly road")
    p.add_argument("--length-km", type=float, dest="length_km")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("solve-dp", help="global minimum-fuel trajectory")
    p.add_argument("--road")
    p.add_argument("--v-ref", type=float, dest="v_ref")
    p.add_argument("--v-i", type=float, dest="v_i")
    p.add_argument("--dv", type=float)
    p.add_argument("--dvavg", type=float)
    p.add_argument("--dte", type=float)
    p.add_argument("--v-span", type=float, dest="v_span")
    p.add_argument("--vavg-band", type=float, dest="vavg_band")
    p.add_argument("--out")

    p = sub.add_parser("invert", help="recover per-position fuel weights")
    p.add_argument("--road")
    p.add_argument("--dp")
    p.add_argument("--v-ref", type=float, dest="v_ref")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")

    p = sub.add_parser("train", help="fit the weight predictor")
    p.add_argument("--road")
    p.add_argument("--gammas")
    p.add_argument("--v-ref", type=float, dest="v_ref")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--l2", type=float)
    p.add_argument("--nn-seed", type=int, dest="nn_seed")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="run one controller on one road")
    p.add_argument("--road")
    p.add_argument("--controller", required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--model")
    p.add_argument("--gammas")
    p.add_argument("--dp")
    p.add_argument("--v-ref", type=float, dest="v_ref")
    p.add_argument("--v-i", type=float, dest="v_i")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="full controller comparison table")
    p.add_argument("--road")
    p.add_argument("--gammas", dest="gammas_flag",
                   help="ladder lo:hi:count or comma list")
    p.add_argument("--model")
    p.add_argument("--gammas-csv", dest="gammas_csv")
    p.add_argument("--dp")
    p.add_argument("--v-ref", type=float, dest="v_ref")
    p.add_argument("--v-i", type=float, dest="v_i")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")

    p = sub.add_parser("report", help="summarize a sweep")
    p.add_argument("--sweep")
    p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("pipeline", help="run every stage with caching")
    p.add_argument("--road")
    p.add_argument("--length-km", type=float, dest="length_km")
    p.add_argument("--seed", type=int)
    p.add_argument("--v-ref", type=float, dest="v_ref")
    p.add_argument("--v-i", type=float, dest="v_i")
    p.add_argument("--horizon", type=int)
    p.add_argument("--dv", type=float)
    p.add_argument("--dvavg", type=float)
    p.add_argument("--dte", type=float)
    p.add_argument("--v-span", type=float, dest="v_span")
    p.add_argument("--vavg-band", type=float, dest="vavg_band")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--l2", type=float)
    p.add_argument("--nn-seed", type=int, dest="nn_seed")
    p.add_argument("--gammas", dest="gammas_flag")
    p.add_argument("--out-dir", dest="out_dir")

    return parser


_COMMANDS = {
    "gen-road": cmd_gen_road,
    "solve-dp": cmd_solve_dp,
    "invert": cmd_invert,
    "train": cmd_train,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = _load_config_file(args.config)
        return _COMMANDS[args.command](args, file_cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, IngestError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QpError, InfeasibleError, StepFailure, net.TrainingError,
            harness.SimulationError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
