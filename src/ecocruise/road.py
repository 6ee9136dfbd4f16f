"""Road elevation profiles: synthetic hill generation, CSV reading, previews.

Every road lives on one grid: elevation samples ``DS`` = 30 m apart, with the
segment grades derived from them.  Position ``k`` is the step index and its
distance is ``k * DS``; the plant advances one step per grade sample, and the
predictor's preview and the controller's horizon are counted in these steps.
Synthetic roads are sums of 3-8 seeded sinusoids rescaled so the steepest
slope stays within +/-5%; real elevation data comes in through a two-column
``distance_m,elevation_m`` survey and is resampled onto the grid.  A
profile CSV spaced otherwise is rejected when it is read.

:func:`read_road_csv` is the one reader for both.  A road or survey may
come from outside the package, so unlike the readers of the other exports
it looks its columns up by name instead of requiring its writer's header
row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .formats import num

DS = 30.0  # position step (m): the one road grid
MAX_ABS_GRADE = 0.05
# Synthetic generator envelope: component count and wavelength span (m).
MIN_COMPONENTS = 3
MAX_COMPONENTS = 8
MIN_WAVELENGTH = 500.0
MAX_WAVELENGTH = 8000.0
FLAT_LEAD_IN = 500.0


@dataclass(frozen=True)
class RoadProfile:
    """Elevation samples ``DS`` apart plus per-segment grades.

    ``grade[i]`` is the slope of the segment from sample i to i+1, so there is
    always one fewer grade than elevation samples.
    """

    elevation: np.ndarray
    grade: np.ndarray

    @property
    def n_steps(self) -> int:
        """Number of segments (P)."""
        return len(self.grade)

    @property
    def length_m(self) -> float:
        return self.n_steps * DS

    @staticmethod
    def from_elevation(elevation) -> "RoadProfile":
        elev = np.asarray(elevation, dtype=float)
        if elev.ndim != 1 or len(elev) < 1:
            raise ValueError("elevation must be a 1-D sequence with at least one sample")
        grade = np.diff(elev) / DS
        elev.setflags(write=False)
        grade.setflags(write=False)
        return RoadProfile(elevation=elev, grade=grade)


def gen_sinusoidal(seed: int, length_m: float) -> RoadProfile:
    """Generate a hilly road as a sum of 3-8 seeded sinusoids sampled every
    30 m, capped at ``MAX_ABS_GRADE``.

    The first ~500 m are blended flat so a simulation can start from a
    steady cruise.  Amplitudes are rescaled after synthesis, so no draw can
    exceed the grade cap.
    """
    if length_m < 3000.0:
        raise ValueError("road must be at least 3 km to support grade previews")
    rng = np.random.default_rng(seed)
    n_samples = int(round(length_m / DS)) + 1
    s = np.arange(n_samples) * DS

    elev = np.zeros(n_samples)
    for _ in range(int(rng.integers(MIN_COMPONENTS, MAX_COMPONENTS + 1))):
        wavelength = float(rng.uniform(MIN_WAVELENGTH, min(MAX_WAVELENGTH, length_m)))
        # amplitude drawn relative to wavelength keeps single-component
        # grades near the cap before the global rescale
        amplitude = float(rng.uniform(0.2, 1.0) * MAX_ABS_GRADE * wavelength / (2.0 * np.pi))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        elev += amplitude * np.sin(2.0 * np.pi * s / wavelength + phase)

    # cosine blend from flat over [lead, 3*lead] so the start is level
    w = np.ones(n_samples)
    w[s <= FLAT_LEAD_IN] = 0.0
    ramp = (s > FLAT_LEAD_IN) & (s < 3.0 * FLAT_LEAD_IN)
    w[ramp] = 0.5 - 0.5 * np.cos(np.pi * (s[ramp] - FLAT_LEAD_IN) / (2.0 * FLAT_LEAD_IN))
    elev = elev * w
    elev -= elev[0]

    peak = float(np.max(np.abs(np.diff(elev) / DS)))
    elev *= float(rng.uniform(0.6, 1.0)) * MAX_ABS_GRADE / peak
    return RoadProfile.from_elevation(elev)


def preview(road: RoadProfile, position_index: int, window_len: int) -> np.ndarray:
    """Read-only grades over [position_index, position_index + window_len),
    zero-padded with flat road past the end."""
    p = road.n_steps
    if not 0 <= position_index < p:
        raise IndexError(f"position {position_index} outside road with {p} segments")
    window = np.zeros(window_len)
    avail = min(window_len, p - position_index)
    window[:avail] = road.grade[position_index : position_index + avail]
    window.setflags(write=False)
    return window


def write_road_csv(road: RoadProfile, path, header_lines: list[str] | None = None) -> None:
    """Export ``index,position_m,elevation_m,grade``; the final node has no
    outgoing segment so its grade cell is left empty."""
    formats.write_table(
        path,
        ["index", "position_m", "elevation_m", "grade"],
        (
            [i, num(i * DS), num(elev), num(road.grade[i]) if i < road.n_steps else ""]
            for i, elev in enumerate(road.elevation)
        ),
        header_lines,
    )


def read_road_csv(path) -> RoadProfile:
    """Read a road: a :func:`write_road_csv` export (or any CSV with
    ``position_m,elevation_m`` columns ``DS`` apart), or a
    ``distance_m,elevation_m`` survey, which is resampled onto the grid.

    A road or survey may come from outside the package, so its columns are
    looked up by name.  Grades are rederived from elevation.  A survey's
    distances must be strictly increasing, and it is resampled linearly so
    that no curvature is invented between survey points.
    """
    columns, rows = formats.read_table(path)
    names = [c.strip().lower() for c in columns]
    x_name = "distance_m" if "distance_m" in names and "position_m" not in names else "position_m"
    if x_name not in names or "elevation_m" not in names:
        raise ValueError(f"{path}: header must contain {x_name} and elevation_m, got {columns!r}")
    x, elevation = formats.float_columns(
        path, rows, [names.index(x_name), names.index("elevation_m")])
    formats.check_finite(path, rows, "number", x, elevation)
    if len(x) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(x)}")
    steps = np.diff(x)
    if x_name == "position_m":
        bad = np.flatnonzero(~(np.abs(steps - DS) <= 1e-6))
        if len(bad):
            i = bad[0] + 1
            raise ValueError(f"{path}: {formats.where(i, rows[i][0])}: positions are not on "
                             f"the uniform {DS:g} m grid (step {steps[i - 1]:g} m)")
        return RoadProfile.from_elevation(elevation)
    bad = np.flatnonzero(steps <= 0)
    if len(bad):
        i = bad[0] + 1
        raise ValueError(f"{path}: {formats.where(i, rows[i][0])}: distance {x[i]} not "
                         f"increasing (previous {x[i - 1]})")
    n_segments = int(np.floor((x[-1] - x[0]) / DS + 1e-9))
    if n_segments < 1:
        raise ValueError(f"{path}: span {x[-1] - x[0]:.1f} m shorter than one {DS} m step")
    grid = x[0] + np.arange(n_segments + 1) * DS
    return RoadProfile.from_elevation(np.interp(grid, x, elevation))
