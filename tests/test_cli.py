"""End-to-end tests of the command-line pipeline (in-process)."""

from __future__ import annotations

import argparse
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import write_model
from ecocruise import cli, net, road as road_mod
from ecocruise.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from ecocruise.harness import read_sweep_csv
from ecocruise.invopt import read_gamma_csv
from ecocruise.net import LAYER_DIMS
from ecocruise.road import read_road_csv
from ecocruise.vehicle import VehicleParams


@pytest.fixture()
def road_file(tmp_path):
    out = tmp_path / "road.csv"
    assert main(["gen-road", "--length-km", "3", "--seed", "7", "--out", str(out)]) == EXIT_OK
    return out


class TestGenRoad:
    def test_deterministic_across_runs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["gen-road", "--length-km", "4", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["gen-road", "--length-km", "4", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_cache_hit_on_rerun(self, tmp_path, capsys):
        out = tmp_path / "road.csv"
        main(["gen-road", "--length-km", "3", "--seed", "1", "--out", str(out)])
        before = out.stat().st_mtime_ns
        main(["gen-road", "--length-km", "3", "--seed", "1", "--out", str(out)])
        assert "cache hit" in capsys.readouterr().out
        assert out.stat().st_mtime_ns == before

    def test_missing_out_is_usage_error(self):
        assert main(["gen-road", "--length-km", "3", "--seed", "1"]) == EXIT_USAGE

    def test_too_short_is_validation_error(self, tmp_path):
        out = tmp_path / "road.csv"
        assert main(["gen-road", "--length-km", "1", "--seed", "1", "--out", str(out)]) == EXIT_VALIDATION

    def test_metadata_header_embedded(self, road_file):
        head = road_file.read_text().splitlines()[:3]
        assert any("fingerprint:" in line for line in head)
        assert any("seed=7" in line for line in head)


class TestStages:
    def test_solve_dp_then_invert_then_train(self, tmp_path, road_file):
        dp_out = tmp_path / "dp.csv"
        code = main(["solve-dp", "--road", str(road_file), "--v-ref", "30",
                     "--out", str(dp_out)])
        assert code == EXIT_OK and dp_out.exists()

        gam_out = tmp_path / "gammas.csv"
        code = main(["invert", "--road", str(road_file), "--dp", str(dp_out),
                     "--v-ref", "30", "--out", str(gam_out)])
        assert code == EXIT_OK
        series = read_gamma_csv(gam_out)
        road = read_road_csv(road_file)
        assert len(series) == road.n_steps
        assert np.all(series.gamma >= 0.0)

        model_out = tmp_path / "model.txt"
        code = main(["train", "--road", str(road_file), "--gammas", str(gam_out),
                     "--v-ref", "30", "--epochs", "40", "--out", str(model_out)])
        assert code == EXIT_OK and model_out.exists()

    def test_missing_road_is_validation_error(self, tmp_path):
        assert main(["solve-dp", "--road", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "dp.csv")]) == EXIT_VALIDATION

    def test_infeasible_dp_is_runtime_error(self, tmp_path, capsys):
        # sustained 5% climb: no torque holds 30 m/s within a +/-0.3 band,
        # so the rollout runs out of feasible inputs
        climb = tmp_path / "climb.csv"
        rows = ["distance_m,elevation_m"] + [f"{d},{0.05 * d}" for d in range(0, 3001, 30)]
        climb.write_text("\n".join(rows) + "\n")
        code = main(["solve-dp", "--road", str(climb), "--v-ref", "30",
                     "--v-span", "0.3", "--out", str(tmp_path / "dp.csv")])
        assert code == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err

    def test_simulate_fixed_weight_prints_row(self, tmp_path, road_file, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--road", str(road_file), "--controller", "fixed",
                     "--gamma", "0.003", "--v-ref", "30", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "FIXED_LMPC" in printed and "fuel economy" in printed
        rows = read_sweep_csv(out)
        assert len(rows) == 1 and rows[0].gamma == 0.003

    def test_simulate_unknown_controller_is_usage_error(self, road_file):
        assert main(["simulate", "--road", str(road_file),
                     "--controller", "lqr"]) == EXIT_USAGE

    def test_vehicle_config_override(self, tmp_path, road_file, capsys):
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text("te_max = 230\n")
        code = main(["--vehicle-config", str(cfg), "simulate", "--road", str(road_file),
                     "--controller", "pi", "--v-ref", "30"])
        assert code == EXIT_OK


class TestPipelineAndReport:
    def test_full_pipeline_with_cache(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        argv = ["pipeline", "--length-km", "3", "--seed", "5", "--v-ref", "30",
                "--epochs", "40", "--gammas", "0.001:0.005:3",
                "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_OK
        for name in ("road.csv", "dp.csv", "gammas.csv", "model.txt", "sweep.csv",
                     "pareto_fixed_front.csv", "pareto_controllers.csv"):
            assert (out_dir / name).exists(), name
        rows = read_sweep_csv(out_dir / "sweep.csv")
        assert len(rows) == 3 + 4
        capsys.readouterr()

        # unchanged rerun only reuses artifacts
        mtimes = {n: (out_dir / n).stat().st_mtime_ns
                  for n in ("road.csv", "dp.csv", "gammas.csv", "model.txt", "sweep.csv")}
        assert main(list(argv)) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.count("cache hit") >= 5
        for name, stamp in mtimes.items():
            assert (out_dir / name).stat().st_mtime_ns == stamp, name

    def test_report_prints_improvement(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(
            "controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,total_fuel_kg,error\n"
            "FIXED_LMPC,0.003,30.5,22.0,1.31,\n"
            "PI,,29.98,21.5,1.33,\n"
            "DP_REPLAY,,30.1,22.4,1.28,\n"
        )
        assert main(["report", "--sweep", str(sweep)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "DP_REPLAY fuel economy vs PI" in printed
        assert "+4.18" in printed

    def test_report_empty_sweep_is_ok(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(
            "controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,total_fuel_kg,error\n"
        )
        assert main(["report", "--sweep", str(sweep)]) == EXIT_OK
        assert "empty sweep" in capsys.readouterr().out

    def test_report_malformed_sweep_is_validation_error(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(
            "controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,total_fuel_kg,error\n"
            "FIXED_LMPC,0.003,not_a_number,22.0,1.31,\n"
        )
        assert main(["report", "--sweep", str(sweep)]) == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    def test_config_file_supplies_defaults_flags_win(self, tmp_path, road_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_ref = 31\nepochs = 9999\n")
        dp_out = tmp_path / "dp.csv"
        # flag --v-ref 30 must beat the config's 31
        code = main(["--config", str(cfg), "solve-dp", "--road", str(road_file),
                     "--v-ref", "30", "--out", str(dp_out)])
        assert code == EXIT_OK
        assert "v_ref=30" in dp_out.read_text().splitlines()[2]


class TestCacheIntegrity:
    def test_vehicle_config_invalidates_cached_dp(self, tmp_path, capsys):
        road = tmp_path / "road.csv"
        assert main(["gen-road", "--length-km", "3", "--seed", "4", "--out", str(road)]) == EXIT_OK
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text("alpha0 = 0.0035\n")
        shared = tmp_path / "dp.csv"
        fresh = tmp_path / "fresh.csv"
        assert main(["solve-dp", "--road", str(road), "--out", str(shared)]) == EXIT_OK
        capsys.readouterr()
        assert main(["--vehicle-config", str(cfg), "solve-dp", "--road", str(road),
                     "--out", str(shared)]) == EXIT_OK
        assert "cache hit" not in capsys.readouterr().out
        assert main(["--vehicle-config", str(cfg), "solve-dp", "--road", str(road),
                     "--out", str(fresh)]) == EXIT_OK
        assert shared.read_text() == fresh.read_text()

    def test_interrupted_write_leaves_no_cache_hit(self, tmp_path, monkeypatch):
        out = tmp_path / "road.csv"
        argv = ["gen-road", "--length-km", "3", "--seed", "1", "--out", str(out)]
        fp = cli._fingerprint("gen-road", {"length_km": 3.0, "seed": 1})

        def interrupted(profile, path, header_lines=None):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"# {line}\n" for line in header_lines)
                fh.write("position_m,")
            raise KeyboardInterrupt

        monkeypatch.setattr(road_mod, "write_road_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert not any(cli._cache_hit(path, fp) for path in tmp_path.iterdir())
        monkeypatch.undo()
        assert main(argv) == EXIT_OK
        assert cli._cache_hit(out, fp)

    def test_a_model_of_an_earlier_trainer_is_never_reused(self, tmp_path, road_file, capsys,
                                                           monkeypatch):
        dp, gammas, model = tmp_path / "dp.csv", tmp_path / "gammas.csv", tmp_path / "model.txt"
        assert main(["solve-dp", "--road", str(road_file), "--out", str(dp)]) == EXIT_OK
        assert main(["invert", "--road", str(road_file), "--dp", str(dp),
                     "--out", str(gammas)]) == EXIT_OK
        train = ["train", "--road", str(road_file), "--gammas", str(gammas), "--epochs", "2",
                 "--out", str(model)]
        # the file an earlier release wrote: same inputs, other source, older model version
        monkeypatch.setattr(cli, "_source_digest", lambda: "an earlier release")
        monkeypatch.setattr(net, "MODEL_VERSION", 1)
        monkeypatch.setattr(net, "MODEL_COLUMNS", ("mlp v1",))
        assert main(train) == EXIT_OK
        monkeypatch.undo()
        assert model.read_text().splitlines()[3] == "mlp v1"
        capsys.readouterr()
        sim = ["simulate", "--road", str(road_file), "--controller", "at", "--model", str(model)]
        assert main(sim) == EXIT_VALIDATION
        assert f"{model}: row 1 (line 4): header 'mlp v1' is not" in capsys.readouterr().err
        assert main(train) == EXIT_OK
        assert "cache hit" not in capsys.readouterr().out
        assert model.read_text().splitlines()[3] == f"mlp v{net.MODEL_VERSION}"
        assert main(sim) == EXIT_OK


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _typed(sub: argparse.ArgumentParser, key) -> dict:
    """``key(action)`` -> the type its value arrives as, for every option but --help."""
    return {key(a): a.type or str for a in sub._actions
            if a.option_strings and a.dest != "help"}


class TestPublicSurface:
    SURFACE = {
        "gen-road": {"--length-km": float, "--seed": int, "--out": str},
        "solve-dp": {"--road": str, "--v-ref": float, "--v-i": float, "--dv": float,
                     "--dvavg": float, "--dte": float, "--v-span": float,
                     "--vavg-band": float, "--out": str},
        "invert": {"--road": str, "--dp": str, "--v-ref": float, "--horizon": int,
                   "--out": str},
        "train": {"--road": str, "--gammas": str, "--v-ref": float, "--lr": float,
                  "--epochs": int, "--batch-size": int, "--l2": float, "--nn-seed": int,
                  "--out": str},
        "simulate": {"--road": str, "--controller": str, "--gamma": float, "--model": str,
                     "--gammas": str, "--dp": str, "--v-ref": float, "--v-i": float,
                     "--horizon": int, "--out": str},
        "sweep": {"--road": str, "--gammas": str, "--model": str, "--gammas-csv": str,
                  "--dp": str, "--v-ref": float, "--v-i": float, "--horizon": int,
                  "--out": str},
        "report": {"--sweep": str, "--out-dir": str},
        "pipeline": {"--road": str, "--length-km": float, "--seed": int, "--v-ref": float,
                     "--v-i": float, "--horizon": int, "--dv": float, "--dvavg": float,
                     "--dte": float, "--v-span": float, "--vavg-band": float, "--lr": float,
                     "--epochs": int, "--batch-size": int, "--l2": float, "--nn-seed": int,
                     "--gammas": str, "--out-dir": str},
    }

    def test_every_subcommand_keeps_its_options_and_types(self):
        got = {name: _typed(sub, lambda a: a.option_strings[0])
               for name, sub in _subcommands().items()}
        assert got == self.SURFACE

    def test_pipeline_takes_every_option_of_its_stages(self):
        subs = _subcommands()
        files = {"road", "out", "dp", "gammas", "model", "gammas_csv"}
        pipeline = _typed(subs["pipeline"], lambda a: a.dest)
        for stage in ("gen-road", "solve-dp", "invert", "train", "sweep"):
            own = {d: t for d, t in _typed(subs[stage], lambda a: a.dest).items()
                   if d not in files}
            assert own.items() <= pipeline.items(), stage

    def test_solve_dp_header_is_stable(self, tmp_path):
        # the header names the resolved configuration, and the fingerprint is
        # the one this source computes for that stage, configuration, road and vehicle
        road = tmp_path / "hills.csv"
        rows = [f"{d},{abs(d % 1200 - 600) / 50}" for d in range(0, 3001, 30)]
        road.write_text("distance_m,elevation_m\n" + "\n".join(rows) + "\n")
        out = tmp_path / "dp.csv"
        assert main(["solve-dp", "--road", str(road), "--out", str(out)]) == EXIT_OK
        config = {"dte": 10.0, "dv": 0.25, "dvavg": 0.1, "v_i": 30.0, "v_ref": 30.0,
                  "v_span": 8.0, "vavg_band": 0.07}
        fingerprint = cli._fingerprint("solve-dp", config, [road], VehicleParams())
        head = out.read_text().splitlines()[1:3]
        assert head == [f"# fingerprint: {fingerprint}",
                        "# config: dte=10.0 dv=0.25 dvavg=0.1 v_i=30.0 v_ref=30.0 "
                        "v_span=8.0 vavg_band=0.07"]

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("ecocruise ")]
        assert {argv[1] for argv in commands} == set(_subcommands())
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])


class TestStageErrors:
    def test_pipeline_stage_keeps_its_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        rows = [f"{d},{d / 100}" for d in range(0, 3001, 30)]
        rows[1] = "30,abc"
        bad.write_text("distance_m,elevation_m\n" + "\n".join(rows) + "\n")
        assert main(["solve-dp", "--road", str(bad),
                     "--out", str(tmp_path / "dp.csv")]) == EXIT_VALIDATION
        alone = capsys.readouterr().err
        assert main(["pipeline", "--road", str(bad),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err and "solve-dp" in err
        assert "row 3 (line 3): unparsable" in alone and "row 3 (line 3): unparsable" in err

    @pytest.mark.parametrize("key", ["epoch", "gammas_flag"])
    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"v_ref = 30\n{key} = 5\n")
        out = tmp_path / "road.csv"
        assert main(["--config", str(cfg), "gen-road", "--length-km", "3", "--seed", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"run.cfg:2: unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_ladder_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma-ladder = 0.001:0.002:2\n")
        assert cli._load_config_file(str(cfg)) == {
            "gamma_ladder": (f"{cfg}:1: config key gamma_ladder", "0.001:0.002:2")}

    @pytest.mark.parametrize("line, key", [("v_ref = abc", "v_ref"), ("epochs = 2.5", "epochs")],
                             ids=["float", "int"])
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        out_dir = tmp_path / "run"
        assert main(["--config", str(cfg), "pipeline", "--length-km", "3",
                     "--out-dir", str(out_dir)]) == EXIT_VALIDATION
        assert f"validation error: {cfg}:2: config key {key}: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_simulate_fingerprint_covers_horizon(self, tmp_path, road_file):
        heads = []
        for horizon in ("30", "60"):
            out = tmp_path / f"sim{horizon}.csv"
            assert main(["simulate", "--road", str(road_file), "--controller", "fixed",
                         "--gamma", "0.003", "--horizon", horizon, "--out", str(out)]) == EXIT_OK
            heads.append(out.read_text().splitlines()[1])
        assert heads[0].startswith("# fingerprint: ") and heads[0] != heads[1]


    @pytest.mark.parametrize("rows", [100, 0], ids=["3_km_series", "header_only"])
    def test_weight_series_must_cover_the_road(self, tmp_path, capsys, rows):
        road = tmp_path / "road6.csv"
        assert main(["gen-road", "--length-km", "6", "--seed", "7", "--out", str(road)]) == EXIT_OK
        gammas = tmp_path / "gammas.csv"
        gammas.write_text("index,position_m,gamma,residual,flags\n" + "".join(
            f"{i},{30 * i},0.002,0,\n" for i in range(rows)))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--road", str(road), "--controller", "pt",
                     "--gammas", str(gammas), "--out", str(out)]) == EXIT_VALIDATION
        assert "stored weight series does not cover this road" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_model_is_validation_error(self, tmp_path, road_file, capsys):
        model = tmp_path / "model.txt"
        write_model(model)
        model.write_text("".join(model.read_text().splitlines(keepends=True)[:100]))
        assert main(["simulate", "--road", str(road_file), "--controller", "at",
                     "--model", str(model)]) == EXIT_VALIDATION
        assert "model file ends at row 99 (line 100)" in capsys.readouterr().err

    @staticmethod
    def _sweep_rejects(tmp_path, road_file, capsys, model) -> str:
        """Stderr of a sweep with predictor ``model`` that exits 2 and writes nothing."""
        dp, gammas = tmp_path / "dp.csv", tmp_path / "gammas.csv"
        assert main(["solve-dp", "--road", str(road_file), "--out", str(dp)]) == EXIT_OK
        assert main(["invert", "--road", str(road_file), "--dp", str(dp),
                     "--out", str(gammas)]) == EXIT_OK
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["sweep", "--road", str(road_file), "--model", str(model),
                     "--gammas-csv", str(gammas), "--dp", str(dp),
                     "--out", str(tmp_path / "sweep.csv")]) == EXIT_VALIDATION
        assert sorted(tmp_path.iterdir()) == before
        return capsys.readouterr().err

    def test_sweep_with_a_short_layer_is_validation_error(self, tmp_path, road_file, capsys):
        # every weight row of layer 2, rows 359-438, loses its last value
        model = tmp_path / "model.txt"
        write_model(model)
        lines = model.read_text().splitlines()
        lines[359:439] = [line.rsplit(" ", 1)[0] for line in lines[359:439]]
        model.write_text("\n".join(lines) + "\n")
        assert "row 359 (line 360): holds 15 values, expected 16" in self._sweep_rejects(
            tmp_path, road_file, capsys, model)

    def test_sweep_with_a_nan_weight_is_validation_error(self, tmp_path, road_file, capsys):
        # read as is, AT_MPC would drive with a NaN fuel weight
        # the first weight of layer 1, in row 108
        model = tmp_path / "model.txt"
        write_model(model)
        lines = model.read_text().splitlines()
        lines[108] = "nan" + lines[108][1:]
        model.write_text("\n".join(lines) + "\n")
        assert "row 108 (line 109): holds a non-finite value" in self._sweep_rejects(
            tmp_path, road_file, capsys, model)

    def test_predictor_of_another_input_width_is_validation_error(self, tmp_path, road_file,
                                                                  capsys):
        model = tmp_path / "model.txt"
        write_model(model, (51, *LAYER_DIMS[1:]))
        assert main(["simulate", "--road", str(road_file), "--controller", "at",
                     "--model", str(model)]) == EXIT_VALIDATION
        assert "row 2 (line 3): holds 51 values, expected 101" in capsys.readouterr().err


class TestReportCache:
    SWEEP = (
        "controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,total_fuel_kg,error\n"
        "FIXED_LMPC,0.003,30.5,22.0,1.31,\n"
        "PI,,29.98,21.5,1.33,\n"
        "DP_REPLAY,,30.1,22.4,1.28,\n"
    )
    NAMES = ("pareto_fixed_front.csv", "pareto_controllers.csv")

    def _report(self, tmp_path, capsys, sweep_text=SWEEP) -> str:
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(sweep_text)
        assert main(["report", "--sweep", str(sweep), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        return capsys.readouterr().out

    def _stats(self, tmp_path):
        return {n: (tmp_path / "out" / n).stat() for n in self.NAMES}

    def _bytes(self, tmp_path):
        return {n: (tmp_path / "out" / n).read_bytes() for n in self.NAMES}

    # a sweep with a failed drive, and what report printed and tabulated for
    # it when sweeps still carried a median_step_s timing column
    FAILED_SWEEP = (
        "controller,gamma,avg_velocity_mps,fuel_economy_km_per_kg,total_fuel_kg,error\n"
        "FIXED_LMPC,0.001,30.2,21.7,1.38,\n"
        "FIXED_LMPC,0.003,30.5,22.0,1.31,\n"
        'AT_MPC,,nan,nan,nan,"stopped at k=3, v=1.5"\n'
        "PT_MPC,,29.9,22.2,1.29,\n"
        "PI,,29.98,21.5,1.33,\n"
        "DP_REPLAY,,30.1,22.4,1.28,\n"
    )
    PRINTED = (
        "controller        gamma  avg v (m/s)  economy (km/kg)    fuel (kg)\n"
        "AT_MPC       failed: stopped at k=3, v=1.5\n"
        "DP_REPLAY             -         30.1             22.4         1.28\n"
        "FIXED_LMPC        0.001         30.2             21.7         1.38\n"
        "FIXED_LMPC        0.003         30.5               22         1.31\n"
        "PI                    -        29.98             21.5         1.33\n"
        "PT_MPC                -         29.9             22.2         1.29\n"
        "DP_REPLAY fuel economy vs PI: +4.18604651%\n"
        "PT_MPC fuel economy vs PI: +3.25581395%\n"
    )
    TABLES = {
        "pareto_fixed_front.csv": b"gamma,avg_velocity_mps,fuel_economy_km_per_kg\n"
                                  b"0.001,30.2,21.7\n0.003,30.5,22\n",
        "pareto_controllers.csv": b"controller,avg_velocity_mps,fuel_economy_km_per_kg\n"
                                  b"DP_REPLAY,30.1,22.4\nPI,29.98,21.5\nPT_MPC,29.9,22.2\n",
    }

    def test_a_sweep_with_a_failed_row_reports_as_before(self, tmp_path, capsys):
        printed = self._report(tmp_path, capsys, self.FAILED_SWEEP)
        assert printed.startswith(self.PRINTED)
        assert printed.endswith(" (2 fixed-weight points, 3 controllers)\n")
        # the tables below the "# " lines, whose fingerprint hashes the sweep's bytes
        tables = {n: b"".join(line for line in data.splitlines(keepends=True)
                              if not line.startswith(b"# "))
                  for n, data in self._bytes(tmp_path).items()}
        assert tables == self.TABLES

    def test_a_sweep_with_the_old_timing_column_is_refused(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("# ecocruise sweep\ncontroller,gamma,avg_velocity_mps,"
                         "fuel_economy_km_per_kg,total_fuel_kg,median_step_s,error\n"
                         "PI,,29.98,21.5,1.33,1e-05,\n")
        assert main(["report", "--sweep", str(sweep)]) == EXIT_VALIDATION
        assert f"{sweep}: row 1 (line 2): header " in capsys.readouterr().err

    def test_changed_economy_rewrites_both(self, tmp_path, capsys):
        self._report(tmp_path, capsys)
        before = self._bytes(tmp_path)
        printed = self._report(tmp_path, capsys, self.SWEEP.replace(",22.0,", ",22.5,"))
        assert "cache hit" not in printed and "wrote" in printed
        after = self._bytes(tmp_path)
        assert all(after[n] != before[n] for n in self.NAMES)
        assert b"22.5" in after["pareto_fixed_front.csv"]

    def test_rerun_is_a_cache_hit_that_still_prints(self, tmp_path, capsys):
        assert "cache hit" not in self._report(tmp_path, capsys)
        before = self._stats(tmp_path)
        printed = self._report(tmp_path, capsys)
        assert printed.count("cache hit") == 1 and "wrote" not in printed
        assert "DP_REPLAY fuel economy vs PI" in printed
        for name, stat in self._stats(tmp_path).items():
            assert (stat.st_ino, stat.st_mtime_ns) == (before[name].st_ino,
                                                       before[name].st_mtime_ns), name

    @pytest.mark.parametrize("deleted", NAMES)
    def test_missing_file_rewrites_both(self, tmp_path, capsys, deleted):
        self._report(tmp_path, capsys)
        before = {n: (tmp_path / "out" / n).read_text() for n in self.NAMES}
        kept = next(n for n in self.NAMES if n != deleted)
        kept_inode = (tmp_path / "out" / kept).stat().st_ino
        (tmp_path / "out" / deleted).unlink()
        printed = self._report(tmp_path, capsys)
        assert "cache hit" not in printed and "wrote" in printed
        # os.replace put a fresh file in place of the one that was kept
        assert (tmp_path / "out" / kept).stat().st_ino != kept_inode
        assert {n: (tmp_path / "out" / n).read_text() for n in self.NAMES} == before

    def test_pipeline_rerun_hits_every_stage(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        argv = ["pipeline", "--length-km", "3", "--seed", "5", "--epochs", "20",
                "--gammas", "0.001:0.005:2", "--out-dir", str(out_dir)]
        assert main(list(argv)) == EXIT_OK
        stamps = {n: (out_dir / n).stat().st_mtime_ns for n in self.NAMES}
        capsys.readouterr()
        assert main(list(argv)) == EXIT_OK
        assert capsys.readouterr().out.count("cache hit") == 6
        assert {n: (out_dir / n).stat().st_mtime_ns for n in self.NAMES} == stamps

    def test_a_source_edit_misses_every_stage(self, tmp_path, capsys, monkeypatch):
        run, edited = tmp_path / "run", tmp_path / "edited"
        argv = ["pipeline", "--length-km", "3", "--seed", "5", "--epochs", "20",
                "--gammas", "0.001:0.005:2", "--out-dir"]
        assert main([*argv, str(run)]) == EXIT_OK
        shutil.copytree(run, edited)
        capsys.readouterr()
        monkeypatch.setattr(cli, "_source_digest", lambda: "an edited module")
        assert main([*argv, str(edited)]) == EXIT_OK
        assert "cache hit:" not in capsys.readouterr().out
        for name in ("road.csv", "dp.csv", "gammas.csv", "model.txt", "sweep.csv", *self.NAMES):
            old, new = ((d / name).read_text().splitlines() for d in (run, edited))
            assert old[1] != new[1] and old[1].startswith("# fingerprint: "), name
            assert old[:1] + old[2:] == new[:1] + new[2:], name
        monkeypatch.undo()
        assert main([*argv, str(run)]) == EXIT_OK
        assert capsys.readouterr().out.count("cache hit: ") == 6


class TestRoadSpacing:
    """Every road is on the 30 m grid and the vehicle has no step of its own:
    a ``ds`` vehicle key or a road export at another spacing is bad input, so
    the stage exits 2, says why and writes no output."""

    def test_vehicle_step_differs_from_the_road(self, tmp_path, road_file, capsys):
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text("ds = 20\n")
        out = tmp_path / "dp.csv"
        assert main(["--vehicle-config", str(cfg), "solve-dp", "--road", str(road_file),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "vehicle.cfg:1: unknown key 'ds'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve-dp"], ["invert", "--dp", "DP"],
                                         ["simulate", "--controller", "pi"]])
    def test_road_sampled_every_20_m(self, tmp_path, road_file, capsys, command):
        dp_csv = tmp_path / "dp.csv"
        assert main(["solve-dp", "--road", str(road_file), "--out", str(dp_csv)]) == EXIT_OK
        road_20m = tmp_path / "road20.csv"
        road_20m.write_text("index,position_m,elevation_m,grade\n" + "".join(
            f"{i},{20 * i},{np.sin(i / 20.0)},\n" for i in range(151)))
        out = tmp_path / "out.csv"
        argv = [str(dp_csv) if a == "DP" else a for a in command]
        assert main([*argv, "--road", str(road_20m), "--out", str(out)]) == EXIT_VALIDATION
        assert "not on the uniform 30 m grid (step 20 m)" in capsys.readouterr().err
        assert not out.exists()


class TestIoErrors:
    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["gen-road", "--length-km", "3", "--seed", "1",
                     "--out", str(blocker / "x.csv")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error: ")

    def test_pipeline_names_the_stage(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        (out_dir / "dp.csv").mkdir(parents=True)  # solve-dp cannot replace a directory
        assert main(["pipeline", "--length-km", "3", "--seed", "1",
                     "--out-dir", str(out_dir)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error: pipeline stage solve-dp failed: ")

    def test_a_binary_file_is_a_cache_miss(self, tmp_path, capsys):
        out = tmp_path / "road.csv"
        out.write_bytes(bytes(range(256)))
        assert main(["gen-road", "--length-km", "3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert read_road_csv(out).n_steps == 100

    def test_a_binary_road_is_named(self, tmp_path, capsys):
        road = tmp_path / "some.bin"
        road.write_bytes(b"position_m,elevation_m\n\xb4\xff\n")
        assert main(["simulate", "--road", str(road), "--controller", "pi"]) == EXIT_VALIDATION
        assert f"{road}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--vehicle-config"])
    def test_a_binary_config_is_named(self, tmp_path, road_file, capsys, flag):
        cfg = tmp_path / "some.cfg"
        cfg.write_bytes(b"v_ref = 30\n\xb4\xff\n")
        out = tmp_path / "dp.csv"
        assert main([flag, str(cfg), "solve-dp", "--road", str(road_file),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestOutOfRangeOptions:
    """A horizon or training option that cannot work is a validation error
    that names the option, and no file is written."""

    @pytest.fixture()
    def inputs(self, tmp_path, road_file):
        dp_out = tmp_path / "dp.csv"
        assert main(["solve-dp", "--road", str(road_file), "--out", str(dp_out)]) == EXIT_OK
        gammas = tmp_path / "gammas.csv"
        gammas.write_text("index,position_m,gamma,residual,flags\n" + "".join(
            f"{i},{30 * i},{0.001 + 1e-5 * i},0,\n" for i in range(100)))
        return ["--road", str(road_file), "--dp", str(dp_out), "--gammas", str(gammas)]

    @pytest.mark.parametrize("argv, named", [
        (["invert", "--horizon", "0"], "horizon"),
        (["invert", "--horizon", "-3"], "horizon"),
        (["train", "--batch-size", "0"], "batch_size"),
        (["train", "--batch-size", "-4"], "batch_size"),
        (["train", "--epochs", "-2"], "epochs"),
        (["train", "--lr", "-1"], "learning_rate"),
    ], ids=["horizon_zero", "horizon_negative", "batch_zero", "batch_negative",
            "epochs_negative", "lr_negative"])
    def test_is_a_validation_error(self, tmp_path, inputs, capsys, argv, named):
        command, *option = argv
        given = inputs[:4] if command == "invert" else inputs[:2] + inputs[4:]
        out = tmp_path / "out.txt"
        assert main([command, *given, *option, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and named in err
        assert not out.exists()


class TestPipelineChecksFirst:
    """pipeline rejects an option that any of its stages would reject before
    the first stage writes: the run directory stays empty."""

    @pytest.mark.parametrize("option", [
        ["--epochs", "-2"], ["--batch-size", "0"], ["--horizon", "0"], ["--dvavg", "-1"],
        ["--v-i", "50"], ["--gammas", "0.005:0.001:3"], ["--gammas", ","],
        ["--gammas", "0.002,-0.001"],
    ], ids=["epochs_negative", "batch_zero", "horizon_zero", "dvavg_negative",
            "v_i_off_the_grid", "ladder_descending", "ladder_empty", "ladder_negative"])
    def test_bad_option_writes_nothing(self, tmp_path, capsys, option):
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        assert main(["pipeline", "--length-km", "3", "--seed", "1", *option,
                     "--out-dir", str(out_dir)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: ")
        assert list(out_dir.iterdir()) == []


class TestBadNumbers:
    """A non-finite number, or a grid step that is not positive, is bad input:
    named in the message, classified by where it came from, and no file is
    written."""

    @pytest.mark.parametrize("argv, code, named", [
        (["simulate", "--controller", "pi", "--v-i", "nan"], EXIT_USAGE, "--v-i"),
        (["simulate", "--controller", "pi", "--v-i", "inf"], EXIT_USAGE, "--v-i"),
        (["simulate", "--controller", "fixed", "--gamma", "nan"], EXIT_USAGE, "--gamma"),
        (["solve-dp", "--dv", "0"], EXIT_VALIDATION, "dv"),
    ], ids=["v_i_nan", "v_i_inf", "gamma_nan", "dv_zero"])
    def test_flag_on_a_road(self, tmp_path, road_file, capsys, argv, code, named):
        out = tmp_path / "out.csv"
        assert main([*argv, "--road", str(road_file), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line, command", [
        ("lambda0 = nan", ["simulate", "--controller", "pi"]),
        ("lambda0 = nan", ["solve-dp"]),
        ("alpha3 = inf", ["solve-dp"]),
    ], ids=["simulate_lambda0_nan", "solve_dp_lambda0_nan", "solve_dp_alpha3_inf"])
    def test_non_finite_vehicle_parameter(self, tmp_path, road_file, capsys, line, command):
        # these used to drive to a NaN fuel total (exit 0) or to a solver
        # failure (exit 3) instead of naming the parameter
        cfg = tmp_path / "vehicle.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main(["--vehicle-config", str(cfg), *command, "--road", str(road_file),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"{line.split()[0]} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_road_length(self, tmp_path, capsys):
        out = tmp_path / "road.csv"
        assert main(["gen-road", "--length-km", "inf", "--seed", "1",
                     "--out", str(out)]) == EXIT_USAGE
        assert "--length-km" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value(self, tmp_path, road_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_i = nan\n")
        out = tmp_path / "sim.csv"
        assert main(["--config", str(cfg), "simulate", "--road", str(road_file),
                     "--controller", "pi", "--out", str(out)]) == EXIT_VALIDATION
        assert "config key v_i" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_checks_before_the_first_stage(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["pipeline", "--length-km", "3", "--seed", "1", "--v-i", "nan",
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "--v-i" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_finite_weight_in_a_series(self, tmp_path, road_file, capsys):
        gammas = tmp_path / "gammas.csv"
        gammas.write_text("index,position_m,gamma,residual,flags\n" + "".join(
            f"{i},{30 * i},{'nan' if i == 5 else 0.002},0,\n" for i in range(100)))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--road", str(road_file), "--controller", "pt",
                     "--gammas", str(gammas), "--out", str(out)]) == EXIT_VALIDATION
        assert "row 7 (line 7): non-finite gamma" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_torque_in_a_trajectory(self, tmp_path, road_file, capsys):
        # this used to replay to a NaN fuel total and write the row (exit 0)
        dp = tmp_path / "dp.csv"
        assert main(["solve-dp", "--road", str(road_file), "--out", str(dp)]) == EXIT_OK
        lines = dp.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        cells = lines[row].split(",")
        cells[4] = "nan"
        lines[row] = ",".join(cells)
        dp.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--road", str(road_file), "--controller", "dp",
                     "--dp", str(dp), "--out", str(out)]) == EXIT_VALIDATION
        assert f"row 7 (line {row + 1}): non-finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_road_elevation(self, tmp_path, road_file, capsys):
        lines = road_file.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        cells = lines[row].split(",")
        cells[2] = "nan"
        lines[row] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["simulate", "--road", str(bad), "--controller", "pi"]) == EXIT_VALIDATION
        assert "row 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train", "--gammas", "GAMMAS", "--epochs", "2"],
        ["simulate", "--controller", "pt", "--gammas", "GAMMAS"],
    ], ids=["train", "simulate_pt"])
    def test_negative_weight_in_a_series(self, tmp_path, road_file, capsys, command):
        # train used to fit a model to it (exit 0), and simulate named no row
        gammas = tmp_path / "gammas.csv"
        gammas.write_text("index,position_m,gamma,residual,flags\n" + "".join(
            f"{i},{30 * i},{-0.001 if i == 5 else 0.002},0,\n" for i in range(100)))
        out = tmp_path / "out.csv"
        argv = [str(gammas) if a == "GAMMAS" else a for a in command]
        assert main([*argv, "--road", str(road_file), "--out", str(out)]) == EXIT_VALIDATION
        assert f"{gammas}: row 7 (line 7): negative gamma" in capsys.readouterr().err
        assert not out.exists()

