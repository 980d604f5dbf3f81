import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostdem.analysis import (MIN_BOX_OCCUPANCY, EnergyReport, RdifModel,
                               WaveRecord, area_change_rate,
                               box_counting_dimension,
                               compute_energies, compute_rdif,
                               dissipation_efficiency, fit_rdif_model,
                               reconstruct_three_wave, t2_spectrum_stats)
from frostdem.errors import InvalidConfigError, UndefinedStatisticError


def make_record(n=101, duration=100e-6, e_i=0.001, e_r=0.0, e_t=0.0,
                bar_modulus=10.0, specimen=True):
    t = np.linspace(0.0, duration, n)
    kwargs = {}
    if specimen:
        kwargs = dict(specimen_area=4.9087e-4, specimen_length=0.05)
    return WaveRecord(
        time=t,
        strain_incident=np.full(n, e_i) if np.isscalar(e_i) else e_i,
        strain_reflected=np.full(n, e_r) if np.isscalar(e_r) else e_r,
        strain_transmitted=np.full(n, e_t) if np.isscalar(e_t) else e_t,
        bar_area=1.9635e-3, bar_wave_speed=5000.0, bar_modulus=bar_modulus,
        **kwargs)


# ---------------------------------------------------------------------------
# energies

def test_all_zero_signals_give_zero_energies_and_undefined_eta():
    report = compute_energies(make_record(e_i=0.0))
    assert report.incident == 0.0
    assert report.absorbed == 0.0
    assert report.efficiency_pct is None


def test_rectangular_pulse_closed_form():
    # 10 MPa * 0.001 over 100 us through a 1.9635e-3 m^2 bar at 5000 m/s
    report = compute_energies(make_record())
    assert report.incident == pytest.approx(9.8175, rel=5e-3)
    assert report.reflected == 0.0
    assert report.transmitted == 0.0
    assert report.absorbed == pytest.approx(report.incident)


def test_energy_balance_from_reported_components():
    report = EnergyReport.from_energies(300.0, 98.5, 50.4)
    assert report.absorbed == pytest.approx(151.1)
    assert report.efficiency_pct == pytest.approx(50.37, abs=0.005)


def test_mismatched_series_rejected():
    t = np.linspace(0, 1e-4, 10)
    with pytest.raises(InvalidConfigError):
        WaveRecord(time=t, strain_incident=np.zeros(9),
                   strain_reflected=np.zeros(10), strain_transmitted=np.zeros(10),
                   bar_area=1.0, bar_wave_speed=5000.0, bar_modulus=200.0)


def test_empty_series_rejected():
    with pytest.raises(InvalidConfigError, match="series are empty"):
        make_record(n=0)


def test_nonuniform_time_base_rejected():
    # uneven steps, and a reversed or constant column: the last two wrote
    # negative and zero energies
    for t, message in (([0.0, 1.0, 3.0], "uniform"),
                       ([3.0, 2.0, 1.0], "increase, got a step of -1"),
                       ([1.0, 1.0, 1.0], "increase, got a step of 0")):
        with pytest.raises(InvalidConfigError, match=message):
            WaveRecord(time=np.array(t), strain_incident=np.zeros(3),
                       strain_reflected=np.zeros(3),
                       strain_transmitted=np.zeros(3), bar_area=1.0,
                       bar_wave_speed=5000.0, bar_modulus=200.0)


def test_one_sample_waveform_gives_zero_energies_and_one_row_curve():
    record = make_record(n=1)
    report = compute_energies(record)
    assert (report.incident, report.reflected, report.transmitted,
            report.absorbed) == (0.0, 0.0, 0.0, 0.0)
    assert report.efficiency_pct is None
    response = reconstruct_three_wave(record)
    assert response.strain.tolist() == [0.0]
    assert len(response.time) == len(response.stress) == 1


@settings(deadline=None, max_examples=40)
@given(st.floats(1e-4, 1e2), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_energy_balance_identity_exact(scale, r_frac, t_frac):
    rng = np.random.default_rng(7)
    n = 64
    e_i = rng.random(n) * 1e-3 * scale
    rec = make_record(n=n, e_i=e_i, e_r=e_i * r_frac * 0.5,
                      e_t=e_i * t_frac * 0.5, specimen=False)
    report = compute_energies(rec)
    assert report.absorbed == report.incident - report.reflected - report.transmitted


@settings(deadline=None, max_examples=20)
@given(st.floats(0.1, 10.0))
def test_energy_linearity_under_stress_scaling(c):
    rng = np.random.default_rng(3)
    n = 32
    e_i = rng.random(n) * 1e-3
    base = compute_energies(make_record(n=n, e_i=e_i, specimen=False))
    scaled = compute_energies(make_record(n=n, e_i=e_i, specimen=False,
                                          bar_modulus=10.0 * c))
    assert scaled.incident == pytest.approx(c * base.incident, rel=1e-9)


# ---------------------------------------------------------------------------
# efficiency and strength ratio

def test_efficiency_reference_values():
    assert dissipation_efficiency(97.40, 300.0) == pytest.approx(32.47, abs=0.005)
    assert dissipation_efficiency(151.10, 300.0) == pytest.approx(50.37, abs=0.005)
    assert dissipation_efficiency(0.0, 300.0) == 0.0


def test_efficiency_requires_positive_incident():
    with pytest.raises(InvalidConfigError):
        dissipation_efficiency(10.0, 0.0)


def test_rdif_values():
    assert compute_rdif(58.7, 58.7) == 1.0
    assert compute_rdif(68.5, 58.7) == pytest.approx(1.167, abs=5e-4)
    with pytest.raises(InvalidConfigError):
        compute_rdif(10.0, 0.0)


# ---------------------------------------------------------------------------
# rate-dependence fit

def test_fit_constant_ratio_is_degenerate():
    model = fit_rdif_model([(200.0, 1.0), (400.0, 1.0), (600.0, 1.0)])
    assert model.degenerate
    assert model.k == 0.0


def test_fit_one_repeated_rate_is_degenerate_through_the_mean():
    # a single rate fixes no slope in log space; np.polyfit would warn and
    # return an arbitrary line
    model = fit_rdif_model([(200.0, 1.05), (200.0, 1.2), (200.0, 0.9)])
    assert model.degenerate
    assert model.m == 1.0
    assert model.k == pytest.approx(0.125 / 200.0, rel=1e-12)
    assert model.residual == pytest.approx(0.075, rel=1e-12)
    assert model.excluded == ((200.0, 0.9),)
    # one point is the same model with no misfit
    assert fit_rdif_model([(200.0, 1.05)]) == RdifModel(
        (1.05 - 1.0) / 200.0, 1.0, 0.0, degenerate=True)


def test_fit_recovers_exact_power_law():
    k, m = 0.01, 0.5
    pts = [(rate, 1.0 + k * rate ** m) for rate in (200.0, 400.0, 600.0)]
    model = fit_rdif_model(pts)
    assert model.k == pytest.approx(k, abs=1e-6)
    assert model.m == pytest.approx(m, abs=1e-6)
    assert model.residual <= 1e-9


def test_fit_two_point_reference_pair():
    model = fit_rdif_model([(200.0, 1.05), (600.0, 1.32)])
    assert model.m == pytest.approx(1.689, abs=1e-3)
    assert model.k == pytest.approx(6.5e-6, rel=0.02)
    fitted = model.evaluate([200.0, 600.0])
    assert np.allclose(fitted, [1.05, 1.32], atol=1e-9)


def test_fit_excludes_subunit_points():
    model = fit_rdif_model([(200.0, 0.85), (400.0, 1.12), (600.0, 1.30)])
    assert (200.0, 0.85) in model.excluded
    assert not model.degenerate


def test_fit_rejects_nonpositive_rates():
    with pytest.raises(InvalidConfigError):
        fit_rdif_model([(0.0, 1.1), (100.0, 1.2)])


@settings(deadline=None, max_examples=40)
@given(st.floats(1e-6, 1e-1), st.floats(0.2, 2.0))
def test_fit_residual_zero_on_generated_data(k, m):
    rates = (150.0, 300.0, 450.0, 600.0)
    pts = [(r, 1.0 + k * r ** m) for r in rates]
    model = fit_rdif_model(pts)
    assert model.residual <= 1e-9


# ---------------------------------------------------------------------------
# three-wave reconstruction

def test_perfect_transmission_identity():
    rec = make_record(e_i=0.001, e_r=0.0, e_t=0.001)
    response = reconstruct_three_wave(rec)
    assert np.allclose(response.strain_rate, 0.0)
    expected = rec.bar_area * rec.bar_modulus * 1e3 / rec.specimen_area * 0.001
    assert np.allclose(response.stress, expected)


def test_all_zero_waves_give_zero_curve():
    response = reconstruct_three_wave(make_record(e_i=0.0))
    assert np.all(response.stress == 0.0)
    assert np.all(response.strain == 0.0)


def test_missing_specimen_dims_rejected():
    with pytest.raises(InvalidConfigError):
        reconstruct_three_wave(make_record(specimen=False))


def test_round_trip_recovers_prescribed_modulus():
    # forward-synthesize waves from a linear specimen in equilibrium
    modulus = 8.0e3  # MPa
    rate = 400.0     # 1/s
    n = 401
    duration = 2.5e-5
    t = np.linspace(0.0, duration, n)
    bar_area, bar_modulus, c0 = 1.9635e-3, 200.0, 5000.0
    spec_area, spec_len = 4.9087e-4, 0.05
    strain = rate * t
    stress = modulus * strain
    e_t = stress * spec_area / (bar_modulus * 1e3 * bar_area)
    e_r = -rate * spec_len / (2.0 * c0) * np.ones(n)
    e_i = e_t - e_r
    rec = WaveRecord(time=t, strain_incident=e_i, strain_reflected=e_r,
                     strain_transmitted=e_t, bar_area=bar_area,
                     bar_wave_speed=c0, bar_modulus=bar_modulus,
                     specimen_area=spec_area, specimen_length=spec_len)
    response = reconstruct_three_wave(rec)
    mask = response.strain > 1e-4
    slope = np.polyfit(response.strain[mask], response.stress[mask], 1)[0]
    assert slope == pytest.approx(modulus, rel=0.01)


# ---------------------------------------------------------------------------
# box counting

def test_line_dimension():
    pts = np.column_stack([np.linspace(0, 1, 10_000), np.zeros(10_000)])
    result = box_counting_dimension(pts)
    assert result.dimension == pytest.approx(1.0, abs=0.1)
    assert result.r_squared > 0.98


def test_plane_dimension():
    g = np.linspace(0, 1, 100)
    xx, yy = np.meshgrid(g, g)
    result = box_counting_dimension(np.column_stack([xx.ravel(), yy.ravel()]))
    assert result.dimension == pytest.approx(2.0, abs=0.1)
    assert result.r_squared > 0.98


def test_single_point_degenerates_to_zero():
    result = box_counting_dimension(np.array([[0.3, 0.7]]))
    assert result.dimension == 0.0
    assert result.degenerate


def test_empty_point_set_rejected():
    with pytest.raises(UndefinedStatisticError):
        box_counting_dimension(np.zeros((0, 2)))


@pytest.mark.parametrize("width", [1, 4])
def test_points_of_other_than_two_or_three_columns_rejected(width):
    with pytest.raises(InvalidConfigError, match=r"\(N, 2\) or \(N, 3\)"):
        box_counting_dimension(np.ones((5, width)))


def test_non_finite_points_rejected():
    pts = np.random.default_rng(2).random((20, 3))
    pts[7, 1] = np.nan
    with pytest.raises(InvalidConfigError, match="finite"):
        box_counting_dimension(pts)


def test_default_scales_stop_at_fourteen_halvings():
    # 40 points repeated 20 times: no scale holds more than 40 boxes, under
    # the 80 that would stop the halving at ten points per box, so only
    # extent / 2**14 ends the default scales
    pts = np.repeat(np.random.default_rng(3).random((40, 3)), 20, axis=0)
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    result = box_counting_dimension(pts)
    assert len(result.scales) == 14
    assert result.scales[-1] == extent / 2 ** 14


def test_box_dimension_invariances():
    rng = np.random.default_rng(5)
    pts = rng.random((3000, 2))
    base = box_counting_dimension(pts)
    shifted = box_counting_dimension(pts + np.array([123.0, -47.0]))
    assert shifted.dimension == pytest.approx(base.dimension, abs=1e-12)
    # uniform scaling scales the default scales with the cloud
    scaled = box_counting_dimension(pts * 3.5)
    assert scaled.dimension == pytest.approx(base.dimension, abs=1e-12)


def oracle_counts(pts, scales):
    """Occupied boxes per scale by np.unique over the rows of box indices,
    with the box indices formed as box_counting_dimension forms them."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    counts = []
    for s in scales:
        n_boxes = np.maximum(np.ceil((hi - lo) / s - 1e-12), 1.0)
        idx = np.minimum(np.floor((pts - lo) / s), n_boxes - 1.0)
        counts.append(len(np.unique(idx.astype(np.int64), axis=0)))
    return counts


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       cells=st.lists(st.integers(0, 16), min_size=6, max_size=240),
       jitter=st.integers(0, 40), seed=st.integers(0, 2 ** 16))
def test_box_counts_match_row_unique_oracle(dim, cells, jitter, seed):
    # the corners fix a cloud 8 wide, so grid points sit exactly on box
    # edges at every default scale, and a short cell list repeats points
    # many times over
    rng = np.random.default_rng(seed)
    grid = np.array(cells[:len(cells) // dim * dim], float).reshape(-1, dim)
    pts = np.vstack([np.zeros(dim), np.full(dim, 8.0), grid / 16.0 * 8.0,
                     rng.random((jitter, dim)) * 8.0])
    result = box_counting_dimension(pts)
    assert list(result.counts) == oracle_counts(pts, result.scales)


def clamped_coarse_cloud(dim):
    """A cloud 8 wide whose last axis spans 6 + 2**-41: over the scales 2, 1
    and 0.5 the span sits within 1e-12 above a whole number of boxes, so the
    clamp puts the top point in the box below, which holds grid points,
    while on the grid extent / 2**14 the span is a clear 2**-30 boxes past
    a whole number and no clamp acts."""
    step = 0.25 if dim == 2 else 0.5
    axes = [np.arange(0.0, 8.0, step) + 0.1] * (dim - 1) \
        + [np.arange(0.0, 6.0, step) + 0.1]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    top = np.full(dim, 8.0)
    top[-1] = 6.0 + 2.0 ** -41
    return np.vstack([np.zeros(dim), top, grid])


def clamp_acts(span, s):
    """Whether the top of ``span`` falls past the last of the boxes of size
    ``s`` that box_counting_dimension lays along it."""
    return max(np.ceil(span / s - 1e-12), 1.0) <= np.floor(span / s)


@pytest.mark.parametrize("dim", [2, 3])
def test_box_counts_where_only_a_coarse_scale_clamps(dim):
    pts = clamped_coarse_cloud(dim)
    span = float(np.ptp(pts[:, -1]))
    result = box_counting_dimension(pts)
    assert not clamp_acts(span, 8.0 / 2 ** 14)
    assert any(clamp_acts(span, s) and span / s != np.floor(span / s)
               for s in result.scales)
    assert list(result.counts) == oracle_counts(pts, result.scales)


def test_box_counts_below_the_normal_range_match_oracle():
    # extent / 2**14 is subnormal here, so the finest grid is no exact
    # halving of the scales and every scale is counted on its own; 50 rows
    # repeated 20 times keep every count under a tenth of the rows, so all
    # 14 scales are counted
    pts = np.repeat(np.random.default_rng(4).random((50, 2)) * 1e-310, 20,
                    axis=0)
    result = box_counting_dimension(pts)
    assert list(result.counts) == oracle_counts(pts, result.scales)
    assert len(result.scales) == 14


def assert_ladder_stops_at_ten_points_per_box(pts, result):
    """Past the first four scales every kept count is at most a tenth of the
    rows; a ladder shorter than 14 scales stops at a halving whose count is
    above a tenth of them."""
    n = len(pts)
    assert all(c * MIN_BOX_OCCUPANCY <= n for c in result.counts[4:])
    if len(result.scales) < 14:
        next_count, = oracle_counts(pts, [result.scales[-1] / 2.0])
        assert next_count * MIN_BOX_OCCUPANCY > n


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(2, 400),
       repeats=st.integers(1, 12), power=st.sampled_from([1, 2, 4, 8]),
       seed=st.integers(0, 2 ** 16))
def test_ladder_stops_at_ten_points_per_box(dim, n, repeats, power, seed):
    # a power above one crowds the rows toward a corner, which lengthens the
    # ladder; repeats raise the rows per box without adding a box
    rows = np.random.default_rng(seed).random((n, dim)) ** power
    pts = np.repeat(rows, repeats, axis=0)
    result = box_counting_dimension(pts)
    assert 4 <= len(result.scales) <= 14
    assert list(result.counts) == oracle_counts(pts, result.scales)
    assert_ladder_stops_at_ten_points_per_box(pts, result)


def test_ladder_with_forty_thousand_repeats_of_one_point():
    # 4e4 of 7.5e4 rows are one point: the copies share one box at every
    # scale but count toward the rows per box.  The 35,001 distinct rows
    # take all 4,096 boxes at extent / 64, under a tenth of all rows and over
    # a tenth of the distinct ones, so a stop that left the copies out would
    # drop that scale
    rng = np.random.default_rng(9)
    pts = rng.random((75_000, 2))
    pts[:40_000] = pts[0]
    pts = pts[rng.permutation(len(pts))]
    result = box_counting_dimension(pts)
    assert list(result.counts) == oracle_counts(pts, result.scales)
    assert_ladder_stops_at_ten_points_per_box(pts, result)


def test_points_past_the_double_range_rejected():
    pts = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidConfigError, match="finite extent"):
        box_counting_dimension(pts)


# ---------------------------------------------------------------------------
# relaxation-time spectrum

def triangle_spectrum(center, width, height=100.0, n=81):
    t = np.linspace(max(center - width, 1e-3), center + width, n)
    amp = height * np.maximum(0.0, 1.0 - np.abs(t - center) / width)
    return list(zip(t, amp))


def test_t2_identical_to_baseline_is_zero_change():
    spec = triangle_spectrum(5.0, 3.0)
    stats = t2_spectrum_stats(spec)
    again = t2_spectrum_stats(spec, baseline_area=stats.area)
    assert again.change_rate_pct == pytest.approx(0.0, abs=1e-12)


def test_t2_area_change_reference_values():
    assert area_change_rate(17944.0, 14683.0) == pytest.approx(22.21, abs=0.01)
    assert area_change_rate(23956.0, 14683.0) == pytest.approx(63.15, abs=0.01)


@pytest.mark.parametrize("baseline", [0.0, -14683.0])
def test_t2_area_change_needs_a_positive_baseline(baseline):
    with pytest.raises(InvalidConfigError, match="baseline area must be > 0"):
        area_change_rate(17944.0, baseline)


def test_t2_bins_split_exactly_at_edges():
    # flat amplitude 1 from 5 to 20 ms: area 5 below the 10 ms edge, 10 above
    spec = [(5.0, 1.0), (20.0, 1.0)]
    stats = t2_spectrum_stats(spec)
    assert stats.area == pytest.approx(15.0)
    assert stats.peak1_pct == pytest.approx(100.0 * 5.0 / 15.0)
    assert stats.peak2_pct == pytest.approx(100.0 * 10.0 / 15.0)
    assert stats.peak3_pct == 0.0


def test_t2_empty_spectrum_rejected():
    with pytest.raises(InvalidConfigError):
        t2_spectrum_stats([])


def test_t2_unsorted_rejected():
    with pytest.raises(InvalidConfigError):
        t2_spectrum_stats([(10.0, 1.0), (5.0, 1.0)])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.floats(0.05, 800.0), st.floats(0.0, 50.0)),
                min_size=2, max_size=30))
def test_t2_percentages_total_hundred(points):
    t2 = sorted({round(t, 6) for t, _ in points})
    if len(t2) < 2:
        return
    spec = [(t, amp) for t, (_, amp) in zip(t2, points)]
    amps = [a for _, a in spec]
    if sum(a for a in amps) <= 0 or all(a == 0 for a in amps):
        return
    try:
        stats = t2_spectrum_stats(spec)
    except UndefinedStatisticError:
        return
    assert stats.peak1_pct + stats.peak2_pct + stats.peak3_pct \
        == pytest.approx(100.0, abs=1e-9)


def t2_loop_oracle(spec):
    """Bin areas of ``spec`` one segment and one bin at a time."""
    edges = [-np.inf, 10.0, 100.0, np.inf]
    bins = np.zeros(3)
    for (t0, a0), (t1, a1) in zip(spec[:-1], spec[1:]):
        for b in range(3):
            lo = max(t0, edges[b])
            hi = min(t1, edges[b + 1])
            if hi <= lo:
                continue
            f0 = a0 + (a1 - a0) * (lo - t0) / (t1 - t0)
            f1 = a0 + (a1 - a0) * (hi - t0) / (t1 - t0)
            bins[b] += 0.5 * (f0 + f1) * (hi - lo)
    return bins


@settings(deadline=None, max_examples=200)
@given(times=st.lists(st.one_of(st.floats(0.01, 1000.0),
                                st.sampled_from([10.0, 100.0])),
                      min_size=2, max_size=60, unique=True),
       amps=st.lists(st.floats(0.0, 1e4), min_size=60, max_size=60))
def test_t2_bins_match_the_per_segment_loop(times, amps):
    # times land exactly on the bin edges too; every figure is bit-identical
    spec = [(t, a) for t, a in zip(sorted(times), amps)]
    bins = t2_loop_oracle(spec)
    total = float(bins.sum())
    if total <= 0:
        with pytest.raises(UndefinedStatisticError):
            t2_spectrum_stats(spec)
        return
    pct = bins / total * 100.0
    assert t2_spectrum_stats(np.array(spec), baseline_area=2.0) == (
        float(pct[0]), float(pct[1]), float(pct[2]), total,
        area_change_rate(total, 2.0))
