"""Tests for the shared table and key-value formats and every table export."""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import write_model
from ecocruise import cli, formats
from ecocruise.dp import read_dp_csv, write_dp_csv
from ecocruise.harness import CONTROLLER_KINDS, SweepRow, read_sweep_csv, write_sweep_csv
from ecocruise.invopt import GammaSeries, read_gamma_csv, write_gamma_csv
from ecocruise.net import load_model
from ecocruise.road import RoadProfile, read_road_csv, write_road_csv
from ecocruise.vehicle import Trajectory, load_vehicle_config

HEADER = ["ecocruise test v0", "fingerprint: 0123456789abcdef", "config: a=1 b=x,y"]

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
anything = st.floats(allow_subnormal=False)  # nan and inf included
text = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=20)


def _as_previously_written(lf: bytes) -> bytes:
    """The same file with the csv module's default CRLF after the header row
    and every record; ``#`` lines kept LF, as earlier releases wrote them."""
    return b"".join(
        line if line.startswith(b"#") else line[:-1] + b"\r\n"
        for line in lf.splitlines(keepends=True)
    )


def assert_round_trip(write, read, value) -> None:
    """write -> read -> write is byte-identical and LF-only, and a CRLF copy
    reads back to the same value."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second, legacy = (Path(tmp) / n for n in ("first.csv", "second.csv", "legacy.csv"))
        write(value, first)
        data = first.read_bytes()
        assert b"\r" not in data
        write(read(first), second)
        assert second.read_bytes() == data
        legacy.write_bytes(_as_previously_written(data))
        assert b"\r\n" in legacy.read_bytes()
        write(read(legacy), second)
        assert second.read_bytes() == data


def _nine_digits(values) -> np.ndarray:
    """Values as the table stores them, so quantities derived on reading
    (road grades) match those derived before writing."""
    return np.array([float(formats.num(v)) for v in values])


@settings(max_examples=60, deadline=None)
@given(elevation=st.lists(finite, min_size=2, max_size=40))
def test_road_round_trip(elevation):
    road = RoadProfile.from_elevation(_nine_digits(elevation))
    assert_round_trip(lambda r, p: write_road_csv(r, p, HEADER), read_road_csv, road)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    arrays(np.float64, (2, n + 1), elements=finite), arrays(np.float64, (2, n), elements=finite))))
def test_trajectory_round_trip(columns):
    # the reader rejects a non-finite number (TestTableReader)
    (v, vavg), (te, fuel) = columns
    traj = Trajectory(v=v, vavg=vavg, te=te, fuel_per_m=fuel)
    assert_round_trip(lambda t, p: write_dp_csv(t, p, HEADER), read_dp_csv, traj)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(0, 1e6, allow_subnormal=False)),
    arrays(np.float64, n, elements=anything),
    st.lists(st.sampled_from(["", "degenerate", "clamped", "failed"]), min_size=n, max_size=n))))
def test_gamma_series_round_trip(columns):
    # the reader rejects a non-finite or negative weight; a failed window's
    # residual is inf
    gamma, residuals, flags = columns
    series = GammaSeries(gamma=gamma, residuals=residuals, flags=tuple(flags))
    assert_round_trip(lambda s, p: write_gamma_csv(s, p, header_lines=HEADER), read_gamma_csv,
                      series)


sweep_rows = st.builds(
    SweepRow, st.sampled_from(CONTROLLER_KINDS), st.none() | finite,
    anything, anything, anything, error=text,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(sweep_rows, max_size=6))
def test_sweep_round_trip(rows):
    assert_round_trip(lambda r, p: write_sweep_csv(r, p, HEADER), read_sweep_csv, rows)


word = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


def _record(width: int):
    # a record's first cell never starts with "#", or it would read as metadata
    return st.tuples(word, st.lists(text, min_size=width - 1, max_size=width - 1)).map(
        lambda t: [t[0], *t[1]])


def _cells(path):
    columns, rows = formats.read_table(path)
    return columns, [cells for _, cells in rows]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    _record(width), st.lists(_record(width), max_size=5))))
def test_generic_table_round_trip(table):
    # the report's two exports are plain write_table calls with no typed reader
    assert_round_trip(lambda t, p: formats.write_table(p, t[0], t[1], HEADER), _cells, table)


class TestTableReader:
    def test_errors_name_the_file_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# meta\n\na,b\n1,2\n# note\n3,x\n")
        columns, rows = formats.read_table(path)
        assert columns == ["a", "b"]
        assert [n for n, _ in rows] == [4, 6]
        with pytest.raises(ValueError, match=r"row 3 \(line 6\)"):
            formats.float_columns(path, rows, (0, 1))

    @pytest.mark.parametrize("column, value", [(2, "nan"), (3, "inf"), (4, "-inf"), (5, "nan")],
                             ids=["v", "vavg", "te", "fuel"])
    def test_trajectory_reader_rejects_a_non_finite_number(self, tmp_path, column, value):
        path = tmp_path / "dp.csv"
        write_dp_csv(Trajectory(v=np.full(4, 30.0), vavg=np.full(4, 30.0), te=np.full(3, 90.0),
                                fuel_per_m=np.full(3, 5e-5)), path, HEADER)
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[column] = value
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"row 3 \(line 6\): non-finite number"):
            read_dp_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only metadata\n")
        with pytest.raises(ValueError, match="empty"):
            read_road_csv(path)

    def test_road_reader_resamples_a_survey(self, tmp_path):
        # a distance_m survey without position_m is resampled linearly onto
        # the 30 m grid instead of rejected for its uneven spacing
        path = tmp_path / "survey.csv"
        path.write_text("# surveyed\ndistance_m,elevation_m\n0,0\n45,3\n90,0\n200,11\n")
        road = read_road_csv(path)
        assert np.allclose(road.elevation, [0, 2, 2, 0, 3, 6, 9], atol=1e-12)
        assert np.allclose(road.grade, np.diff(road.elevation) / 30.0, atol=1e-12)


def _export(kind: str, path) -> None:
    """Write a small export of ``kind`` under one ``#`` line, as
    :func:`write_model` writes a model."""
    meta = HEADER[:1]
    if kind == "road":
        write_road_csv(RoadProfile.from_elevation([0.0, 1.0, 3.0]), path, meta)
    elif kind == "trajectory":
        write_dp_csv(Trajectory(v=np.full(3, 30.0), vavg=np.full(3, 30.0), te=np.full(2, 90.0),
                                fuel_per_m=np.full(2, 5e-5)), path, meta)
    elif kind == "gammas":
        write_gamma_csv(GammaSeries(gamma=np.full(2, 0.002), residuals=np.zeros(2),
                                    flags=("", "")), path, meta)
    elif kind == "sweep":
        write_sweep_csv([SweepRow("PI", None, 30.0, 21.5, 1.33)], path, meta)
    else:
        write_model(path)


STRICT_READERS = {"trajectory": read_dp_csv, "gammas": read_gamma_csv,
                  "sweep": read_sweep_csv, "model": load_model}


@pytest.mark.parametrize("export, reader", [
    (export, reader) for export in ("road", *STRICT_READERS) for reader in STRICT_READERS
    if reader != export])
def test_a_strict_reader_refuses_another_export(tmp_path, export, reader):
    """Each export given to the reader of another is refused at its header
    row, which the error names by file and line."""
    path = tmp_path / "export.csv"
    _export(export, path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 1 (line 2): header ")):
        STRICT_READERS[reader](path)


@pytest.mark.parametrize("export, width", [
    ("trajectory", 6), ("gammas", 5), ("sweep", 6), ("model", 1)])
def test_a_strict_reader_refuses_a_row_of_another_width(tmp_path, export, width):
    """A cell past the header's, here on the first data row, is refused
    instead of dropped."""
    path = tmp_path / "export.csv"
    _export(export, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\n") + ",999\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: row 2 (line 3): {width + 1} cells, but the header has {width}")):
        STRICT_READERS[export](path)


def test_simulate_refuses_a_road_as_its_trajectory(tmp_path, capsys):
    road = tmp_path / "road.csv"
    _export("road", road)
    assert cli.main(["simulate", "--road", str(road), "--controller", "dp",
                     "--dp", str(road)]) == cli.EXIT_VALIDATION
    assert f"{road}: row 1 (line 2): header 'index,position_m,elevation_m,grade' is not " \
           "'index,position_m,v_mps,vavg_mps,te_nm,fuel_kg_per_m'" in capsys.readouterr().err


class TestKeyValues:
    def test_vehicle_and_cli_configs_share_the_parser(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nV-Ref = 31  # trailing\n\nepochs=9\n")
        assert formats.read_key_values(path, cli.OPTIONS) == {"v_ref": (2, "31"),
                                                              "epochs": (4, "9")}
        assert cli._load_config_file(str(path)) == {"v_ref": "31", "epochs": "9"}
        with pytest.raises(ValueError, match=r"run.cfg:2: unknown key 'v_ref'"):
            load_vehicle_config(path)

    @pytest.mark.parametrize("load, key", [(load_vehicle_config, "te_max"),
                                           (cli._load_config_file, "v_ref")])
    def test_repeated_key_names_both_lines(self, tmp_path, load, key):
        path = tmp_path / "twice.cfg"
        path.write_text(f"{key} = 30\n# again\n{key.upper().replace('_', '-')} = 31\n")
        with pytest.raises(ValueError, match=f"twice.cfg:3: key '{key}' repeats line 1"):
            load(str(path))

    @pytest.mark.parametrize("load", [load_vehicle_config, cli._load_config_file])
    def test_missing_equals_names_path_and_line(self, tmp_path, load):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha0 = 0.003\nalpha1\n")
        with pytest.raises(ValueError, match=r"bad.cfg:2: expected 'key = value'"):
            load(str(path))

    def test_cli_reports_bad_config_as_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("v_ref 31\n")
        assert cli.main(["--config", str(path), "report", "--sweep", "x"]) == cli.EXIT_VALIDATION
        assert "bad.cfg:1" in capsys.readouterr().err
