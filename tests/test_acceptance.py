"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 2 carries a documented data inconsistency in its
source table; the unattainable sub-check is marked as a strict expected
failure rather than weakened (see the test docstring).
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from frostdem.analysis import (EnergyReport, WaveRecord, area_change_rate,
                               box_counting_dimension, compute_energies,
                               dissipation_efficiency, fit_rdif_model)
from frostdem.cli import main
from frostdem.frostheave import force_increase_pct, run_freeze
from frostdem.mechanics import (ContactKind, ParticleSystem,
                                SATURATED_MATERIALS, StressStrainCurve,
                                calibrate, extract_mechanical_params,
                                run_uniaxial_test)
from frostdem.packing import (CylinderDomain, ParticleAssembly,
                              compute_resolution, contact_arrays,
                              generate_packing)
from frostdem.thermal import ConductionNetwork, TemperatureField, surface_particle_ids

from conftest import desk_config

ROCK_MAT = SATURATED_MATERIALS[ContactKind.ROCK_ROCK]


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_resolution_formula_exact():
    res = compute_resolution(25, 1.2, 1.0)
    assert res.value == 125.0
    assert res.exact == Fraction(125)
    assert res.passes
    report(1, "resolution(25, 1.2, 1.0) = 125 exactly, above the threshold 5")


# ---------------------------------------------------------------------------

T2_RAW_AREAS = {
    20.0: [14250.0, 15240.0, 14561.0],
    -10.0: [17574.0, 18400.0, 17850.0],
    -20.0: [24250.0, 23830.0, 23760.0],
}
T2_REPORTED_AVERAGES = {20.0: 14683.0, -10.0: 17944.0, -20.0: 23956.0}
T2_REPORTED_RATES = {-10.0: 22.21, -20.0: 63.15}


def test_criterion_02_t2_statistics_golden():
    baseline_avg = float(np.mean(T2_RAW_AREAS[20.0]))
    assert abs(baseline_avg - T2_REPORTED_AVERAGES[20.0]) <= 1.0
    # change rates formed from the reported averages reproduce the reported
    # rates within 0.02 percentage points
    for temp, expected_rate in T2_REPORTED_RATES.items():
        rate = area_change_rate(T2_REPORTED_AVERAGES[temp],
                                T2_REPORTED_AVERAGES[20.0])
        assert abs(rate - expected_rate) <= 0.02
    report(2, "baseline average 14683.67 and change rates 22.21%/63.15% "
              "reproduced (sub-zero raw-area averages carry a documented "
              "source-data inconsistency, see companion xfail)")


@pytest.mark.xfail(strict=True, reason=(
    "source-table inconsistency: the nine printed per-specimen areas average "
    "to 17941.33 (-10C) and 23946.67 (-20C), not the printed 17944/23956; "
    "the implied change rates are 22.19%/63.08%, outside the 0.02 pp band. "
    "The criterion is asserted as stated and fails honestly."))
def test_criterion_02_t2_raw_area_averages_defect():
    for temp in (-10.0, -20.0):
        avg = float(np.mean(T2_RAW_AREAS[temp]))
        assert abs(avg - T2_REPORTED_AVERAGES[temp]) <= 1.0
        rate = area_change_rate(avg, float(np.mean(T2_RAW_AREAS[20.0])))
        assert abs(rate - T2_REPORTED_RATES[temp]) <= 0.02


# ---------------------------------------------------------------------------

def test_criterion_03_contact_statistics_golden():
    cases = [((42.727, 42.924), 0.46105),
             ((42.727, 42.936), 0.48913),
             ((33.893, 33.933), 0.11801)]
    for (base, cur), expected in cases:
        assert abs(force_increase_pct(base, cur) - expected) <= 5e-4
    report(3, "force-increase percentages 0.46105 / 0.48913 / 0.11801 "
              "within 0.0005 pp")


# ---------------------------------------------------------------------------

def test_criterion_04_energy_efficiency_golden():
    eta1 = dissipation_efficiency(97.40, 300.0)
    eta2 = dissipation_efficiency(151.10, 300.0)
    assert eta1 == pytest.approx(32.47, abs=0.005)
    assert eta2 == pytest.approx(50.37, abs=0.005)
    assert abs(eta1 - 32.5) <= 0.1
    assert abs(eta2 - 50.4) <= 0.1
    report(4, "dissipation efficiencies 32.47% and 50.37%, within 0.1 pp of "
              "the reported 32.5%/50.4%")


# ---------------------------------------------------------------------------

def test_criterion_05_energy_integrator():
    n = 101
    t = np.linspace(0.0, 100e-6, n)
    rec = WaveRecord(time=t, strain_incident=np.full(n, 0.001),
                     strain_reflected=np.zeros(n), strain_transmitted=np.zeros(n),
                     bar_area=1.9635e-3, bar_wave_speed=5000.0, bar_modulus=10.0)
    result = compute_energies(rec)
    assert result.incident == pytest.approx(9.8175, rel=0.005)
    # balance identity holds exactly for arbitrary component values
    rng = np.random.default_rng(0)
    for _ in range(200):
        e_i, e_r, e_t = rng.uniform(0, 500, 3)
        rep = EnergyReport.from_energies(e_i, e_r, e_t)
        assert rep.absorbed == e_i - e_r - e_t
    report(5, "rectangular pulse integrates to 9.8175 J (0.5%), balance "
              "identity exact on all inputs")


# ---------------------------------------------------------------------------

def test_criterion_06_rdif_fit_recovery():
    k, m = 0.01, 0.5
    pts = [(rate, 1.0 + k * rate ** m) for rate in (200.0, 400.0, 600.0)]
    model = fit_rdif_model(pts)
    assert abs(model.k - k) <= 1e-6
    assert abs(model.m - m) <= 1e-6
    pair = fit_rdif_model([(200.0, 1.05), (600.0, 1.32)])
    fitted = pair.evaluate([200.0, 600.0])
    assert abs(fitted[0] - 1.05) <= 1e-9
    assert abs(fitted[1] - 1.32) <= 1e-9
    report(6, "power-law fit recovers (k=0.01, m=0.5) to 1e-6; two-point "
              "reference pair reproduced with zero residual")


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def insulated_assembly():
    return generate_packing(desk_config(radius=8.0, height=26.0, seed=3))


def test_criterion_07_thermal_conservation(insulated_assembly):
    asm = insulated_assembly
    assert asm.n_particles >= 500
    ia, ib, _ = contact_arrays(asm, 0.05 * float(asm.radii.min()))
    net = ConductionNetwork(asm, (ia, ib))
    rng = np.random.default_rng(1)
    field = TemperatureField(rng.uniform(-20.0, 20.0, asm.n_particles),
                             np.zeros(0, dtype=np.int64))
    energy0 = net.thermal_energy(field)
    for _ in range(100_000):
        net.step(field)
    drift = abs(net.thermal_energy(field) - energy0) / abs(energy0)
    assert drift <= 1e-6

    # constant boundary: all reachable temperatures converge to the boundary
    boundary = surface_particle_ids(asm)
    reachable = net.boundary_reachable(boundary)
    field2 = TemperatureField(np.full(asm.n_particles, 20.0), boundary)
    field2.temperatures[boundary] = -20.0
    for _ in range(200_000):
        net.step(field2)
        field2.temperatures[boundary] = -20.0
        if np.max(np.abs(field2.temperatures[reachable] + 20.0)) < 1e-6:
            break
    assert np.max(np.abs(field2.temperatures[reachable] + 20.0)) < 1e-6
    report(7, f"insulated {asm.n_particles}-particle assembly conserves "
              f"thermal energy to {drift:.2e} over 1e5 steps; constant "
              f"boundary converges below 1e-6 degC")


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def large_saturated():
    return generate_packing(desk_config(radius=8.0, height=52.0, seed=11))


@pytest.fixture(scope="module")
def large_dry():
    return generate_packing(desk_config(porosity=0.0, radius=8.0, height=60.0,
                                        seed=11, solid_fraction=0.48))


def test_criterion_08_frost_heave_stage_signature(large_saturated, large_dry):
    assert large_saturated.n_particles >= 1000
    sat = run_freeze(large_saturated)
    forces = [sat.baseline.max_contact_force] \
        + [r.stats.max_contact_force for r in sat.stages]
    assert forces[1] < forces[0], "20->0: liquid cooling must relax contact force"
    assert forces[2] > forces[1], "0->-10: freezing must raise contact force"
    assert forces[3] > forces[2], "-10->-20: frozen cooling must raise force"

    assert large_dry.n_particles >= 1000
    dry = run_freeze(large_dry)
    for row in dry.stages[:2]:
        assert abs(row.stats.force_increase_pct) < 0.2
        pair_change = abs(row.stats.contact_pair_count
                          - dry.baseline.contact_pair_count) \
            / dry.baseline.contact_pair_count * 100.0
        assert pair_change < 0.2
    report(8, f"saturated {large_saturated.n_particles}-particle stage "
              f"signature {[round(f, 1) for f in forces]} N (down, up, up); "
              f"dry model within {max(abs(r.stats.force_increase_pct) for r in dry.stages[:2]):.4f}% through -10 degC")


# ---------------------------------------------------------------------------

def test_criterion_09_mechanics_oracles(medium_saturated):
    # one-bond tensile failure load against the closed form, to 1e-9: two
    # touching unit spheres held in place (inv_mass = 0) in the engine, the
    # oracle built from the material constants alone
    def bond_k_normal(r):
        span = 2.0 * r
        return ROCK_MAT.bond_modulus * 1e3 / span * math.pi * span ** 2

    area = math.pi * 2.0 ** 2
    u_star = ROCK_MAT.tensile_strength * area / bond_k_normal(1.0)

    def breaks(u):
        asm = ParticleAssembly(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 4.0]]),
                               np.ones(2), np.zeros(2, dtype=np.int8),
                               np.full(2, 2600.0), CylinderDomain(3.0, 6.0))
        pair = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT},
                              damping=0.0, mass_scale=1.0)
        pair.inv_mass[:] = 0.0
        pair.pos[1, 2] += u
        pair.step(pair.stable_dt())
        return [c.mode for c in pair.crack_events] == ["tensile"]

    lo, hi = 0.0, 4.0 * u_star
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if breaks(mid) else (mid, hi)
    assert hi == pytest.approx(u_star, rel=1e-9)

    # two-particle oscillator frequency within 1% of the closed form
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 4.2]])
    asm = ParticleAssembly(centers, np.array([1.1, 1.1]),
                           np.zeros(2, dtype=np.int8), np.full(2, 2600.0),
                           CylinderDomain(3.0, 6.2))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    k_pair = bond_k_normal(1.1)
    expected = math.sqrt(2.0 * k_pair / system.mass[0]) / (2.0 * math.pi)
    system.vel[0, 2], system.vel[1, 2] = 1.0, -1.0
    dt = system.stable_dt() * 0.2
    crossings = []
    prev = system.vel[1, 2] - system.vel[0, 2]
    while len(crossings) < 101:
        system.step(dt)
        cur = system.vel[1, 2] - system.vel[0, 2]
        if prev < 0 <= cur:
            crossings.append(system.time)
        prev = cur
    freq = 1.0 / float(np.mean(np.diff(crossings)))
    assert freq == pytest.approx(expected, rel=0.01)

    # modulus extraction exact on an analytically linear curve
    strain = np.linspace(0.0, 0.004, 400)
    curve = StressStrainCurve(strain, 4.0e3 * strain)
    assert extract_mechanical_params(curve).elastic_modulus \
        == pytest.approx(4.0, abs=1e-9)
    report(9, f"one-bond failure load matches closed form to 1e-9; oscillator "
              f"frequency error {abs(freq - expected) / expected:.2e}; modulus "
              f"extraction exact")


# ---------------------------------------------------------------------------

def test_criterion_10_calibration_self_targets(medium_saturated):
    assert medium_saturated.n_particles <= 2000
    true_mats = dict(SATURATED_MATERIALS)
    true_mats[ContactKind.ROCK_ROCK] = ROCK_MAT.scaled(modulus_factor=0.8,
                                                       strength_factor=0.25)
    curve = run_uniaxial_test(medium_saturated, 2.0, 0.015, true_mats)
    targets = extract_mechanical_params(curve)

    initial = ROCK_MAT.scaled(modulus_factor=1.6, strength_factor=0.6)
    result = calibrate(targets, initial, budget=20, assembly=medium_saturated,
                       platen_velocity=2.0, target_strain=0.015)
    assert result.converged
    assert result.sim_runs <= 20
    assert abs(result.final.peak_rel_err) < 0.05
    assert abs(result.final.modulus_rel_err) < 0.05
    report(10, f"calibration recovered self-generated targets in "
               f"{result.sim_runs} simulation runs: peak error "
               f"{result.final.peak_rel_err:+.3%}, modulus error "
               f"{result.final.modulus_rel_err:+.3%}")


# ---------------------------------------------------------------------------

def test_criterion_11_box_counting():
    line = np.column_stack([np.linspace(0.0, 1.0, 10_000), np.zeros(10_000)])
    r_line = box_counting_dimension(line)
    assert r_line.dimension == pytest.approx(1.0, abs=0.1)
    assert r_line.r_squared > 0.98
    g = np.linspace(0.0, 1.0, 100)
    xx, yy = np.meshgrid(g, g)
    r_plane = box_counting_dimension(np.column_stack([xx.ravel(), yy.ravel()]))
    assert r_plane.dimension == pytest.approx(2.0, abs=0.1)
    assert r_plane.r_squared > 0.98
    report(11, f"line D={r_line.dimension:.3f}, plane D={r_plane.dimension:.3f}, "
               f"fit R^2 {min(r_line.r_squared, r_plane.r_squared):.4f}")


# ---------------------------------------------------------------------------

FREEZE_CFG = """
[run]
seed = 5

[packing]
target_porosity = 0.0859
rock_radius_min = 1.0
rock_radius_max = 1.2
water_radius_min = 0.8
water_radius_max = 0.95
cylinder_radius = 5
cylinder_height = 10
solid_fraction = 0.5

[thermal]
stage_temps = 0,-10,-20

[mechanics]
platen_velocity = 2.0
target_strain = 0.006

[analysis]
t2_areas = 17944,23956
t2_baseline_area = 14683
rdif_points = 200:1.05,600:1.32
"""


def test_criterion_12_pipeline_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FREEZE_CFG)
    identical = []
    for command in ("freeze", "compress", "analyze"):
        out1 = tmp_path / f"{command}_1"
        out2 = tmp_path / f"{command}_2"
        assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                f"{command}/{name} differs between identical runs"
        identical.append(f"{command}({len(names)} files)")
    report(12, "byte-identical artifacts across reruns: " + ", ".join(identical))
