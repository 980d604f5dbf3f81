import math

import numpy as np
import pytest

from frostdem.errors import InvalidConfigError
from frostdem.frostheave import CONDUCTION_TOL, _conduct_until
from frostdem.packing import (CylinderDomain, ParticleAssembly, Phase,
                              contact_arrays)
from frostdem.thermal import (ConductionNetwork, TemperatureField,
                              ThermalProperties, expansion_coefficients,
                              surface_particle_ids, uniformity_report)


def two_particle_assembly(r=1.0, gap=0.0, phase=Phase.ROCK):
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2 * r + gap]])
    return ParticleAssembly(centers, np.array([r, r]),
                            np.array([phase, phase], dtype=np.int8),
                            np.array([2600.0, 2600.0]),
                            CylinderDomain(4 * r, 6 * r))


# ---------------------------------------------------------------------------
# material data

def test_thermal_property_validation():
    with pytest.raises(InvalidConfigError):
        ThermalProperties(-1.0, 877.0)
    with pytest.raises(InvalidConfigError):
        ThermalProperties(7.7, 0.0)


# ---------------------------------------------------------------------------
# phase classification: expansion and conduction both switch at 0 degC

WATER_PAIR = np.array([Phase.WATER, Phase.WATER], dtype=np.int8)


def water_conductance(temperature):
    """Conductance of one water-water contact; the harmonic mean of equal
    conductivities is that conductivity, times area over distance."""
    asm = two_particle_assembly(phase=Phase.WATER)
    net = ConductionNetwork(asm, (np.array([0]), np.array([1])))
    g = net.conductances(np.full(2, temperature))[0]
    return g * net.dist[0] / net.area[0]


def test_phase_above_zero_is_water():
    assert expansion_coefficients(WATER_PAIR, np.full(2, 20.0)) \
        == pytest.approx([1.769e-4, 1.769e-4])
    assert water_conductance(20.0) == pytest.approx(0.6)


def test_phase_below_zero_is_ice():
    assert expansion_coefficients(WATER_PAIR, np.full(2, -10.0)) \
        == pytest.approx([2.079e-4, 2.079e-4])
    assert water_conductance(-10.0) == pytest.approx(2.2)


def test_phase_zero_boundary_assigned_to_ice():
    assert expansion_coefficients(WATER_PAIR, np.zeros(2)) \
        == pytest.approx([2.079e-4, 2.079e-4])
    assert water_conductance(0.0) == pytest.approx(2.2)
    rock = np.array([Phase.ROCK, Phase.WATER], dtype=np.int8)
    assert expansion_coefficients(rock, np.array([0.0, 0.1])) \
        == pytest.approx([0.052e-4, 1.769e-4])


# ---------------------------------------------------------------------------
# conduction

def test_heat_flux_unit_substitution():
    # one contact between unit spheres: the first step moves
    # k * A * (T_a - T_b) / d * dt joules from the hotter to the colder one
    asm = two_particle_assembly()
    net = ConductionNetwork(asm, (np.array([0]), np.array([1])))
    field = TemperatureField(np.array([1.0, 0.0]), np.zeros(0, dtype=np.int64))
    area = math.pi * 1e-3 ** 2        # m^2, disc of the smaller radius
    distance = 2e-3                   # m, centre distance
    dt = net.dt
    flux = 7.7 * area * 1.0 / distance
    heat_mass = asm.masses() * 1e3 * 877.0
    net.step(field)
    assert field.temperatures[0] == pytest.approx(1.0 - flux * dt / heat_mass[0])
    assert field.temperatures[1] == pytest.approx(flux * dt / heat_mass[1])


def test_uniform_field_unchanged(small_saturated):
    ia, ib, _ = contact_arrays(small_saturated, 0.05)
    field = TemperatureField(np.full(small_saturated.n_particles, 20.0),
                             np.zeros(0, dtype=np.int64))
    net = ConductionNetwork(small_saturated, (ia, ib))
    before = field.temperatures.copy()
    net.step(field)
    assert np.array_equal(field.temperatures, before)


def test_two_body_exponential_convergence():
    asm = two_particle_assembly()
    net = ConductionNetwork(asm, (np.array([0]), np.array([1])))
    field = TemperatureField(np.array([10.0, 30.0]), np.zeros(0, dtype=np.int64))
    energy0 = net.thermal_energy(field)
    conductance = net.conductances(field.temperatures)[0]
    heat_mass = net.heat_mass
    tau = 1.0 / (conductance * (1.0 / heat_mass[0] + 1.0 / heat_mass[1]))
    # each explicit step shrinks the difference by the factor 1 - dt / tau
    n_steps = 10
    for _ in range(n_steps):
        net.step(field)
    expected_delta = 20.0 * (1.0 - net.dt / tau) ** n_steps
    delta = field.temperatures[1] - field.temperatures[0]
    assert delta == pytest.approx(expected_delta, rel=0.01)
    # temperatures converge toward the heat-capacity-weighted mean
    mean = energy0 / heat_mass.sum()
    assert field.temperatures[0] < mean < field.temperatures[1]
    # heat-capacity weighted mean conserved essentially exactly
    assert abs(net.thermal_energy(field) - energy0) <= 1e-9 * abs(energy0)


def test_flux_antisymmetry_conserves_energy_per_step(small_saturated):
    ia, ib, _ = contact_arrays(small_saturated, 0.05)
    net = ConductionNetwork(small_saturated, (ia, ib))
    rng = np.random.default_rng(0)
    field = TemperatureField(rng.uniform(-20, 20, small_saturated.n_particles),
                             np.zeros(0, dtype=np.int64))
    energy0 = net.thermal_energy(field)
    for _ in range(200):
        net.step(field)
    assert abs(net.thermal_energy(field) - energy0) <= 1e-9 * abs(energy0)


def test_maximum_principle(small_saturated):
    ia, ib, _ = contact_arrays(small_saturated, 0.05)
    net = ConductionNetwork(small_saturated, (ia, ib))
    rng = np.random.default_rng(1)
    temps = rng.uniform(-20, 20, small_saturated.n_particles)
    lo, hi = temps.min(), temps.max()
    field = TemperatureField(temps, np.zeros(0, dtype=np.int64))
    for _ in range(500):
        net.step(field)
        assert field.temperatures.min() >= lo - 1e-12
        assert field.temperatures.max() <= hi + 1e-12


def test_steady_state_reaches_boundary_value(small_saturated):
    asm = small_saturated
    ia, ib, _ = contact_arrays(asm, 0.05)
    net = ConductionNetwork(asm, (ia, ib))
    boundary = surface_particle_ids(asm)
    reachable = net.boundary_reachable(boundary)
    field = TemperatureField(np.full(asm.n_particles, 20.0), boundary)
    field.temperatures[boundary] = -20.0
    for _ in range(60_000):
        net.step(field)
        field.temperatures[boundary] = -20.0
        if np.max(np.abs(field.temperatures[reachable] + 20.0)) < 1e-6:
            break
    assert np.max(np.abs(field.temperatures[reachable] + 20.0)) < 1e-6


def test_kept_conductances_follow_every_phase_change(small_saturated):
    # one network keeps its conductances between steps; a fresh network per
    # step computes them anew: the two agree bit for bit while water
    # particles cross 0 degC
    asm = small_saturated
    ia, ib, _ = contact_arrays(asm, 0.05)
    kept = ConductionNetwork(asm, (ia, ib))
    rng = np.random.default_rng(2)
    field = TemperatureField(rng.uniform(-5, 5, asm.n_particles),
                             np.zeros(0, dtype=np.int64))
    fresh = field.copy()
    water = asm.phases == Phase.WATER
    liquid_counts = set()
    for _ in range(300):
        kept.step(field)
        ConductionNetwork(asm, (ia, ib)).step(fresh)
        assert np.array_equal(field.temperatures, fresh.temperatures)
        liquid_counts.add(int(np.count_nonzero(water & (field.temperatures > 0.0))))
    assert len(liquid_counts) > 3


def test_boundary_repinned_after_step():
    asm = two_particle_assembly()
    net = ConductionNetwork(asm, (np.array([0]), np.array([1])))
    field = TemperatureField(np.array([0.0, 10.0]), np.array([0]))
    _conduct_until(net, field, np.array([True, False]), 0.0, 50)
    assert field.temperatures[0] == 0.0
    assert abs(field.temperatures[1]) <= CONDUCTION_TOL


# ---------------------------------------------------------------------------
# uniformity

def test_uniformity_uniform_field_passes(small_saturated):
    boundary = surface_particle_ids(small_saturated)
    field = TemperatureField(np.full(small_saturated.n_particles, -20.0), boundary)
    rep = uniformity_report(field)
    assert rep.max_deviation == 0.0
    assert rep.passes


def test_uniformity_transient_gradient_fails(small_saturated):
    asm = small_saturated
    boundary = surface_particle_ids(asm)
    field = TemperatureField(np.full(asm.n_particles, 20.0), boundary)
    field.temperatures[boundary] = -20.0
    rep = uniformity_report(field, -20.0)
    assert rep.max_deviation > 0.5
    assert not rep.passes


def test_uniformity_after_conduction_hold(small_saturated):
    asm = small_saturated
    ia, ib, _ = contact_arrays(asm, 0.05)
    net = ConductionNetwork(asm, (ia, ib))
    boundary = surface_particle_ids(asm)
    reachable = net.boundary_reachable(boundary)
    field = TemperatureField(np.full(asm.n_particles, 20.0), boundary)
    field.temperatures[boundary] = -20.0
    for _ in range(40_000):
        net.step(field)
        field.temperatures[boundary] = -20.0
        if np.max(np.abs(field.temperatures[reachable] + 20.0)) < 0.4:
            break
    field.temperatures[~reachable] = -20.0
    rep = uniformity_report(field, -20.0)
    assert rep.passes
