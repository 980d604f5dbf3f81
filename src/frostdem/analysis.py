"""Impact-test waveform analysis, strength ratios, fractal and pore statistics.

All operations are pure functions over immutable inputs.  Energies integrate
stress times strain times bar area times wave speed over time, with the
stress taken from the strain through the bar modulus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidConfigError, UndefinedStatisticError

@dataclass(frozen=True)
class WaveRecord:
    """Incident/reflected/transmitted gauge histories plus bar geometry.

    Strains are dimensionless.  ``time`` must be uniformly sampled.
    """

    time: np.ndarray                     # s
    strain_incident: np.ndarray
    strain_reflected: np.ndarray
    strain_transmitted: np.ndarray
    bar_area: float                      # m^2
    bar_wave_speed: float                # m/s
    bar_modulus: float                   # GPa
    specimen_area: float | None = None   # m^2
    specimen_length: float | None = None  # m

    def __post_init__(self):
        if any(len(s) != len(self.time) for s in (
                self.strain_incident, self.strain_reflected,
                self.strain_transmitted)):
            raise InvalidConfigError("all series must share the time base")
        if len(self.time) == 0:
            raise InvalidConfigError("series are empty")
        if self.bar_area <= 0 or self.bar_wave_speed <= 0 or self.bar_modulus <= 0:
            raise InvalidConfigError("bar area, wave speed and modulus must be > 0")
        if any(v is not None and v <= 0
               for v in (self.specimen_area, self.specimen_length)):
            raise InvalidConfigError("specimen area and length must be > 0")
        if len(self.time) > 1:
            dt = np.diff(self.time)
            if not np.allclose(dt, dt[0], rtol=1e-6, atol=1e-15):
                raise InvalidConfigError("time base must be uniform")


@dataclass(frozen=True)
class EnergyReport:
    """Incident/reflected/transmitted/absorbed energies and efficiency.

    The absorbed energy closes the balance exactly by construction.
    """

    incident: float              # J
    reflected: float             # J
    transmitted: float           # J
    absorbed: float              # J
    efficiency_pct: float | None  # None when the incident energy is zero

    @classmethod
    def from_energies(cls, incident: float, reflected: float,
                      transmitted: float) -> "EnergyReport":
        absorbed = incident - reflected - transmitted
        eta = (None if incident <= 0
               else dissipation_efficiency(absorbed, incident))
        return cls(incident, reflected, transmitted, absorbed, eta)


def compute_energies(record: WaveRecord) -> EnergyReport:
    """Trapezoid wave energies from one record.

    Each wave integrates stress * strain * A0 * C0 over time, the stress
    being E_bar * strain.  With the stress taken from the strain this is the
    squared-strain form A0 * C0 * E_bar * strain^2, so there is one formula.
    """
    e_bar = record.bar_modulus * 1e3  # GPa -> MPa
    a0c0 = record.bar_area * record.bar_wave_speed
    t = record.time

    def integrate(strain):
        power = e_bar * strain * 1e6 * strain * a0c0
        return float(np.trapezoid(power, t)) if len(t) > 1 else 0.0

    return EnergyReport.from_energies(integrate(record.strain_incident),
                                      integrate(record.strain_reflected),
                                      integrate(record.strain_transmitted))


def dissipation_efficiency(absorbed: float, incident: float) -> float:
    """Absorbed over incident energy, percent."""
    if incident <= 0:
        raise InvalidConfigError("incident energy must be > 0")
    return absorbed / incident * 100.0


def compute_rdif(dynamic_strength: float, static_strength: float) -> float:
    """Dynamic-to-static strength ratio."""
    if static_strength <= 0:
        raise InvalidConfigError("static strength must be > 0")
    return dynamic_strength / static_strength


@dataclass(frozen=True)
class RdifModel:
    """Rate-dependence fit: ratio = 1 + k * rate**m.

    ``residual`` is the largest absolute misfit over the fitted points, so
    evaluating the model there reproduces the inputs within it.
    """

    k: float
    m: float
    residual: float
    degenerate: bool = False
    excluded: tuple = ()

    def evaluate(self, strain_rate) -> np.ndarray:
        return 1.0 + self.k * np.asarray(strain_rate, dtype=float) ** self.m


def fit_rdif_model(points: Sequence[tuple[float, float]]) -> RdifModel:
    """Least-squares fit of log(ratio - 1) against log(rate).

    Points with ratio <= 1 cannot satisfy the model with non-negative
    coefficients; they are excluded and reported.  With no usable points the
    result is the degenerate k = 0 model; with one usable rate, however many
    points share it, it is the degenerate m = 1 model through their mean
    ratio.
    """
    pts = [(float(r), float(v)) for r, v in points]
    if any(r <= 0 for r, _ in pts):
        raise InvalidConfigError("strain rates must be > 0")
    usable = [(r, v) for r, v in pts if v > 1.0]
    excluded = tuple((r, v) for r, v in pts if v <= 1.0)
    if len(usable) == 0:
        return RdifModel(0.0, 0.0, 0.0, degenerate=True, excluded=excluded)
    if len({r for r, _ in usable}) == 1:
        # a line through log(ratio - 1) needs two distinct rates
        rate = usable[0][0]
        values = np.array([v for _, v in usable])
        mean = float(values.mean())
        return RdifModel((mean - 1.0) / rate, 1.0,
                         float(np.max(np.abs(values - mean))), degenerate=True,
                         excluded=excluded)
    x = np.log([r for r, _ in usable])
    y = np.log([v - 1.0 for _, v in usable])
    m, log_k = np.polyfit(x, y, 1)
    k = math.exp(log_k)
    fitted = 1.0 + k * np.exp(x) ** m
    residual = float(np.max(np.abs(fitted - np.array([v for _, v in usable]))))
    return RdifModel(k, float(m), residual, excluded=excluded)


# ---------------------------------------------------------------------------
# Three-wave reconstruction

@dataclass(frozen=True)
class DynamicResponse:
    """Specimen response reconstructed from the three gauge waves."""

    time: np.ndarray
    stress: np.ndarray           # MPa
    strain: np.ndarray
    strain_rate: np.ndarray      # 1/s


def reconstruct_three_wave(record: WaveRecord) -> DynamicResponse:
    """Specimen stress, strain rate and strain from the three waves.

    Stress averages the two faces; strain rate scales the wave imbalance by
    the bar wave speed over the specimen length; strain integrates the rate.
    """
    if record.specimen_area is None or record.specimen_length is None:
        raise InvalidConfigError("specimen area and length are required")
    e_i = record.strain_incident
    e_r = record.strain_reflected
    e_t = record.strain_transmitted
    stress = record.bar_area * record.bar_modulus * 1e3 \
        / (2.0 * record.specimen_area) * (e_i + e_r + e_t)
    rate = record.bar_wave_speed / record.specimen_length * (e_i - e_r - e_t)
    strain = _cumulative_trapezoid(rate, record.time)
    return DynamicResponse(record.time, stress, strain, rate)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(y, dtype=float))
    if len(y) > 1:
        seg = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
        out[1:] = np.cumsum(seg)
    return out


# ---------------------------------------------------------------------------
# Box-counting fractal dimension

class BoxCountResult(NamedTuple):
    dimension: float
    r_squared: float
    scales: np.ndarray
    counts: np.ndarray
    degenerate: bool = False


def box_counting_dimension(points: np.ndarray) -> BoxCountResult:
    """Fractal dimension from occupied-box counts over dyadic scales.

    Scales are powers of two from the bounding-box size down to four times
    the mean nearest-neighbor distance, and not below 2**-14 of the extent.
    The dimension is the negated slope of log(count) against log(scale); the
    fit R^2 is reported.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise UndefinedStatisticError("cannot compute a dimension of no points")
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise InvalidConfigError("points must be an (N, 2) or (N, 3) array")
    if not np.isfinite(pts).all():
        raise InvalidConfigError("points must be finite")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = float(np.max(hi - lo))
    if extent == 0.0:
        # all points coincide: one box at every scale, slope zero
        return BoxCountResult(0.0, 1.0, np.array([1.0]), np.array([1]),
                              degenerate=True)

    # a nonzero extent means at least two points
    floor = max(4.0 * _mean_nearest_distance(pts), extent / 2 ** 14)
    # start below the full extent: the coarsest boxes hold so few counts
    # that they only bias the fit
    scales = []
    s = extent / 2.0
    while s >= floor:
        scales.append(s)
        s /= 2.0
    while len(scales) < 4:
        scales.append((scales[-1] if scales else extent) / 2.0)
    scales = np.array(scales)

    counts = np.empty(len(scales), dtype=np.int64)
    for i, s in enumerate(scales):
        n_boxes = np.maximum(np.ceil((hi - lo) / s - 1e-12), 1.0)
        idx = np.floor((pts - lo) / s)
        idx = np.minimum(idx, n_boxes - 1.0).astype(np.int64)
        # scales stop at extent / 2**14, so a grid holds at most 2**42 boxes
        # and every row of box indices ravels into one int64 key
        keys = np.ravel_multi_index(tuple(idx.T), n_boxes.astype(np.int64))
        counts[i] = len(np.unique(keys))

    log_s = np.log(scales)
    log_n = np.log(counts)
    slope, intercept = np.polyfit(log_s, log_n, 1)
    fitted = slope * log_s + intercept
    ss_res = float(np.sum((log_n - fitted) ** 2))
    ss_tot = float(np.sum((log_n - log_n.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return BoxCountResult(float(-slope), r2, scales, counts)


def _mean_nearest_distance(pts: np.ndarray) -> float:
    """Mean distance from each point to its nearest other point.

    Kept apart from the box counts so that the tree and its query arrays
    are freed before the counts allocate theirs, which lowers the peak
    memory of an analysis.
    """
    tree = cKDTree(pts)
    # querying in the tree's own point order keeps its walk in cache; the
    # distances go back to input order before the mean
    order = tree.indices
    nn, _ = tree.query(pts[order], k=2)
    nearest = np.empty(len(pts))
    nearest[order] = nn[:, 1]
    return float(np.mean(nearest))


# ---------------------------------------------------------------------------
# Pore-size (T2) spectrum statistics

#: Relaxation-time bin edges, ms: micropores below 10, mesopores to 100.
T2_BIN_EDGES = (10.0, 100.0)


class T2Stats(NamedTuple):
    peak1_pct: float
    peak2_pct: float
    peak3_pct: float
    area: float
    change_rate_pct: float | None


def area_change_rate(area: float, baseline_area: float) -> float:
    """Spectral-area change relative to a baseline, percent."""
    if baseline_area <= 0:
        raise InvalidConfigError("baseline area must be > 0")
    return (area - baseline_area) / baseline_area * 100.0


def t2_spectrum_stats(spectrum: np.ndarray | Sequence[tuple[float, float]],
                      baseline_area: float | None = None) -> T2Stats:
    """Bin areas of a relaxation-time spectrum as percentages of the total.

    The piecewise-linear spectrum (rows of time, amplitude) is integrated per
    bin with segments split exactly at the bin edges, so the three
    percentages always total 100.  Each bin sums its segments' areas in
    segment order.
    """
    pts = np.asarray(spectrum, dtype=float)
    if len(pts) == 0:
        raise InvalidConfigError("spectrum is empty")
    t, amp = pts[:, 0], pts[:, 1]
    if np.any(t <= 0):
        raise InvalidConfigError("relaxation times must be > 0")
    if np.any(np.diff(t) <= 0):
        raise InvalidConfigError("relaxation times must be strictly increasing")

    edges = np.array([-np.inf, *T2_BIN_EDGES, np.inf])
    # one row per segment, one column per bin
    t0, t1 = t[:-1, None], t[1:, None]
    a0, a1 = amp[:-1, None], amp[1:, None]
    lo = np.maximum(t0, edges[:-1])
    hi = np.minimum(t1, edges[1:])
    f0 = a0 + (a1 - a0) * (lo - t0) / (t1 - t0)
    f1 = a0 + (a1 - a0) * (hi - t0) / (t1 - t0)
    area = 0.5 * (f0 + f1) * (hi - lo)
    inside = hi > lo
    # row-major order: bincount adds each bin's areas segment by segment
    bins = np.bincount(np.nonzero(inside)[1], weights=area[inside], minlength=3)
    total = float(bins.sum())
    if total <= 0:
        raise UndefinedStatisticError("spectrum has no positive area")
    pct = bins / total * 100.0
    change = None if baseline_area is None else area_change_rate(total, baseline_area)
    return T2Stats(float(pct[0]), float(pct[1]), float(pct[2]), total, change)
