"""Unit tests for road generation, reading and previews."""

from __future__ import annotations

import numpy as np
import pytest

from ecocruise.road import (
    DS,
    RoadProfile,
    gen_sinusoidal,
    preview,
    read_road_csv,
    write_road_csv,
)


class TestGenerator:
    def test_fixed_seed_is_deterministic(self):
        a = gen_sinusoidal(seed=9, length_m=5000.0)
        b = gen_sinusoidal(seed=9, length_m=5000.0)
        assert np.array_equal(a.elevation, b.elevation)
        assert np.array_equal(a.grade, b.grade)

    def test_single_sinusoid_peak_grade_matches_derivative(self):
        # for h(s) = A sin(2 pi s / L), the analytic peak slope is 2 pi A / L;
        # the generator derives its grades the same way from its sampled sum
        wavelength = 2000.0
        s = np.arange(401) * DS
        r = RoadProfile.from_elevation(8.0 * np.sin(2 * np.pi * s / wavelength))
        assert np.max(np.abs(r.grade)) == pytest.approx(2 * np.pi * 8.0 / wavelength, rel=2e-3)

    def test_grade_cap_over_many_seeds(self):
        for seed in range(200):
            r = gen_sinusoidal(seed=seed, length_m=3000.0)
            assert np.max(np.abs(r.grade)) <= 0.05 + 1e-12

    def test_flat_lead_in(self):
        r = gen_sinusoidal(seed=4, length_m=10000.0)
        lead = r.grade[: int(500 / 30)]
        assert np.all(np.abs(lead) < 1e-12)

    def test_has_up_down_and_flat_sections(self):
        r = gen_sinusoidal(seed=12, length_m=30000.0)
        assert r.grade.max() > 0.01
        assert r.grade.min() < -0.01

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            gen_sinusoidal(seed=1, length_m=1000.0)

    def test_reconstruction_identity(self):
        r = gen_sinusoidal(seed=3, length_m=6000.0)
        rebuilt = np.cumsum(r.grade) * DS + r.elevation[0]
        assert np.allclose(rebuilt, r.elevation[1:], atol=1e-10)


class TestIngestion:
    def test_linear_ramp_by_hand(self, tmp_path):
        path = tmp_path / "ramp.csv"
        path.write_text("distance_m,elevation_m\n0,0\n300,15\n")
        r = read_road_csv(path)
        assert len(r.elevation) == 11
        assert len(r.grade) == 10
        assert np.allclose(r.grade, 0.05, atol=1e-12)
        assert np.allclose(r.elevation, np.arange(11) * 1.5, atol=1e-12)

    def test_constant_elevation_gives_zero_grades(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{d},100.0" for d in range(0, 3001, 50))
        path.write_text("distance_m,elevation_m\n" + rows + "\n")
        r = read_road_csv(path)
        assert np.all(r.grade == 0.0)

    def test_unsorted_rows_name_the_offender(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("distance_m,elevation_m\n0,0\n60,1\n30,2\n")
        with pytest.raises(ValueError, match="row 4"):
            read_road_csv(path)

    def test_unparsable_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("distance_m,elevation_m\n0,0\nsixty,1\n")
        with pytest.raises(ValueError, match="row 3"):
            read_road_csv(path)

    def test_non_finite_distance_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("distance_m,elevation_m\n0,0\ninf,1\n60,2\n")
        with pytest.raises(ValueError, match="row 3.*non-finite"):
            read_road_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("distance_m,elevation_m\n0,0\n")
        with pytest.raises(ValueError, match="at least 2"):
            read_road_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("a,b\n0,0\n30,1\n")
        with pytest.raises(ValueError, match="header"):
            read_road_csv(path)

    def test_resampling_idempotent_on_uniform_input(self, tmp_path):
        rng = np.random.default_rng(8)
        elev = np.cumsum(rng.uniform(-1.2, 1.2, 60))
        path = tmp_path / "uniform.csv"
        rows = "\n".join(f"{i * 30.0},{e}" for i, e in enumerate(elev))
        path.write_text("distance_m,elevation_m\n" + rows + "\n")
        r = read_road_csv(path)
        assert np.array_equal(r.elevation, elev)

    def test_interpolation_is_linear(self, tmp_path):
        path = tmp_path / "coarse.csv"
        path.write_text("distance_m,elevation_m\n0,0\n90,9\n180,0\n")
        r = read_road_csv(path)
        assert np.allclose(r.elevation, [0, 3, 6, 9, 6, 3, 0], atol=1e-12)


class TestPreview:
    @pytest.fixture
    def road(self):
        return gen_sinusoidal(seed=5, length_m=6000.0)

    def test_window_at_origin(self, road):
        w = preview(road, 0, 100)
        assert len(w) == 100
        assert np.array_equal(w, road.grade[:100])

    def test_padding_past_end(self, road):
        p = road.n_steps
        w = preview(road, p - 1, 100)
        assert w[0] == road.grade[-1]
        assert np.all(w[1:] == 0.0)

    def test_window_is_read_only(self, road):
        with pytest.raises(ValueError):
            preview(road, 0, 100)[0] = 1.0

    def test_consecutive_windows_overlap(self, road):
        a = preview(road, 10, 60)
        b = preview(road, 11, 60)
        assert np.array_equal(a[1:], b[:-1])

    def test_out_of_range_position(self, road):
        with pytest.raises(IndexError):
            preview(road, road.n_steps, 10)
        with pytest.raises(IndexError):
            preview(road, -1, 10)


class TestRoadCsv:
    def test_roundtrip(self, tmp_path):
        r = gen_sinusoidal(seed=6, length_m=4000.0)
        path = tmp_path / "road.csv"
        write_road_csv(r, path, header_lines=["test export"])
        back = read_road_csv(path)
        assert np.allclose(back.elevation, r.elevation, atol=1e-7)
        assert np.allclose(back.grade, r.grade, atol=1e-8)

    def test_nonuniform_positions_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,position_m,elevation_m,grade\n0,0,0,0\n1,30,1,0\n2,90,2,\n")
        with pytest.raises(ValueError, match="uniform"):
            read_road_csv(path)

    def test_export_spaced_20_m_apart_rejected(self, tmp_path):
        path = tmp_path / "road20.csv"
        path.write_text("index,position_m,elevation_m,grade\n" + "".join(
            f"{i},{20 * i},{0.1 * i},\n" for i in range(11)))
        with pytest.raises(ValueError, match=r"row 3 \(line 3\): .*grid \(step 20 m\)"):
            read_road_csv(path)

    def test_step_within_tolerance_of_the_grid_is_read(self, tmp_path):
        path = tmp_path / "road.csv"
        path.write_text("index,position_m,elevation_m,grade\n" + "".join(
            f"{i},{(DS + 5e-7) * i!r},{0.3 * i},\n" for i in range(3)))
        road = read_road_csv(path)
        assert road.n_steps == 2
        assert np.allclose(road.grade, 0.01, rtol=1e-12)

    def test_non_finite_elevation_named(self, tmp_path):
        path = tmp_path / "road.csv"
        path.write_text("index,position_m,elevation_m,grade\n# note\n0,0,0,0\n1,30,nan,0\n2,60,1,\n")
        with pytest.raises(ValueError, match=r"row 3 \(line 4\): non-finite"):
            read_road_csv(path)
