import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostdem import frostheave
from frostdem.errors import (ConvergenceError, InvalidConfigError,
                             UndefinedStatisticError)
from frostdem.frostheave import (FreezeConfig, _conduct_until, contact_statistics,
                                 force_increase_pct, radius_increments,
                                 run_freeze, volume_reduction_pct)
from frostdem.mechanics import (BondMaterial, ParticleSystem,
                                SATURATED_MATERIALS, build_system)
from frostdem.packing import ContactKind, CylinderDomain, ParticleAssembly, Phase
from frostdem.thermal import (ALPHA, ICE, ConductionNetwork, TemperatureField,
                              surface_particle_ids)


def increment(phase, radius, t_old, t_new):
    """Radius increment of one particle for one temperature change."""
    return radius_increments(np.array([t_old]), np.array([t_new]),
                             np.array([radius]),
                             np.array([phase], dtype=np.int8))[0]


# ---------------------------------------------------------------------------
# radius increments

def test_radius_update_zero_change():
    assert increment(Phase.WATER, 0.875, 5.0, 5.0) == 0.0
    assert increment(Phase.WATER, 0.875, -5.0, -5.0) == 0.0


def test_radius_update_liquid_shrinks_on_cooling():
    assert increment(Phase.WATER, 0.875, 20.0, 15.0) \
        == pytest.approx(-7.74e-4, rel=1e-3)


def test_radius_update_ice_expands_on_cooling():
    assert increment(Phase.WATER, 0.875, 0.0, -10.0) \
        == pytest.approx(1.819e-3, rel=1e-3)


def test_radius_update_rock_shrinks_slightly():
    assert increment(Phase.ROCK, 1.1, 0.0, -10.0) == pytest.approx(-5.72e-5, rel=1e-3)


def test_radius_update_rejects_nonfinite():
    with pytest.raises(InvalidConfigError):
        increment(Phase.ROCK, 1.0, 20.0, float("nan"))
    with pytest.raises(InvalidConfigError):
        increment(Phase.WATER, 1.0, float("inf"), 0.0)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-25.0, -0.0), min_size=2, max_size=8))
def test_ice_radii_nondecreasing_under_subzero_paths(path):
    # any temperature path at or below zero leaves water radii non-decreasing
    radius = np.array([0.9])
    phase = np.array([Phase.WATER], dtype=np.int8)
    r = radius.copy()
    temps = [0.0] + sorted(path, reverse=True)
    for t_old, t_new in zip(temps, temps[1:]):
        r = r + radius_increments(np.array([t_old]), np.array([t_new]), r, phase)
        assert r[0] >= radius[0] - 1e-15
    # monotone cooling specifically: radii only grow
    assert r[0] >= radius[0]


def test_radius_increments_split_at_zero():
    radius = np.array([0.875])
    phase = np.array([Phase.WATER], dtype=np.int8)
    direct = radius_increments(np.array([20.0]), np.array([-10.0]), radius, phase)
    via_zero = (radius_increments(np.array([20.0]), np.array([0.0]), radius, phase)
                + radius_increments(np.array([0.0]), np.array([-10.0]), radius,
                                    phase))
    assert direct[0] == pytest.approx(via_zero[0], abs=1e-15)
    # liquid leg shrinks, frozen leg grows
    assert direct[0] == pytest.approx(0.875 * (-1.769e-4 * 20 + 2.079e-4 * 10))


# ---------------------------------------------------------------------------
# bond thermal force: ParticleSystem.apply_bond_thermal_offsets adds
# -alpha_b * L0 * dT to each intact bond, so its normal force changes by
# -k_n * alpha_b * L0 * dT with k_n = E_b * 1e3 / (r_a + r_b) * pi (r_a + r_b)^2

ROCK_MAT = SATURATED_MATERIALS[ContactKind.ROCK_ROCK]
PAIR_RADIUS = 1.0
PAIR_LENGTH = 2.0 * PAIR_RADIUS


def bonded_pair(material=ROCK_MAT):
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + PAIR_LENGTH]])
    asm = ParticleAssembly(centers, np.full(2, PAIR_RADIUS),
                           np.zeros(2, dtype=np.int8), np.full(2, 2600.0),
                           CylinderDomain(3.0, 6.0))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: material}, mass_scale=1.0)
    assert system.n_bonds == 1
    return system


def pair_k_normal(material=ROCK_MAT):
    return material.bond_modulus * 1e3 / PAIR_LENGTH * math.pi * PAIR_LENGTH ** 2


def thermal_force(d_temp, alpha, system=None):
    system = system or bonded_pair()
    before = system.bond_normal_forces()[0]
    system.apply_bond_thermal_offsets(np.full(2, d_temp), np.full(2, alpha))
    return system.bond_normal_forces()[0] - before


def test_bond_force_zero_change():
    assert thermal_force(0.0, ALPHA[ICE]) == 0.0


def test_bond_force_unit_substitution():
    # alpha = 1/degC and dT = 1 degC: the offset is one full bond length
    assert thermal_force(1.0, 1.0) == pytest.approx(-pair_k_normal() * PAIR_LENGTH)


def test_bond_force_compressive_on_cooling():
    d = thermal_force(-10.0, ALPHA[ICE])
    assert d > 0.0
    assert d == pytest.approx(pair_k_normal() * ALPHA[ICE] * PAIR_LENGTH * 10.0,
                              rel=1e-12)
    # the pair takes the smaller coefficient and the mean temperature change
    system = bonded_pair()
    system.apply_bond_thermal_offsets(np.array([-10.0, -30.0]),
                                      np.array([ALPHA[ICE], 1.0]))
    assert system.bond_normal_forces()[0] == pytest.approx(
        pair_k_normal() * ALPHA[ICE] * PAIR_LENGTH * 20.0, rel=1e-12)


def test_bond_thermal_offsets_on_a_system_with_no_bonds():
    # two particles too far apart to bond take no offset and raise nothing
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 3 * PAIR_LENGTH]])
    asm = ParticleAssembly(centers, np.full(2, PAIR_RADIUS),
                           np.zeros(2, dtype=np.int8), np.full(2, 2600.0),
                           CylinderDomain(3.0, 12.0))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT}, mass_scale=1.0)
    assert system.n_bonds == 0
    system.apply_bond_thermal_offsets(np.full(2, -10.0), np.full(2, ALPHA[ICE]))
    assert system.b_offset.shape == (0,) and system.b_offset.dtype == np.float64


def test_bond_force_rejects_bad_geometry():
    # a non-positive bond stiffness cannot reach the engine, and a broken
    # bond takes no thermal offset
    with pytest.raises(InvalidConfigError):
        BondMaterial(9.0, 0.0, 2.5, 40.0, 40.0, 45.0)
    system = bonded_pair()
    system.b_intact[:] = False
    assert thermal_force(-10.0, ALPHA[ICE], system) == 0.0


# ---------------------------------------------------------------------------
# contact statistics

def test_percentage_formulas_match_reference_tables():
    assert force_increase_pct(42.727, 42.924) == pytest.approx(0.46105, abs=5e-4)
    assert force_increase_pct(42.727, 42.936) == pytest.approx(0.48913, abs=5e-4)
    assert force_increase_pct(33.893, 33.933) == pytest.approx(0.11801, abs=5e-4)


def test_percentage_identity_on_equal_values():
    assert force_increase_pct(10.0, 10.0) == 0.0
    assert volume_reduction_pct(10.0, 10.0) == 0.0


def test_percentage_zero_baseline_undefined():
    with pytest.raises(UndefinedStatisticError):
        force_increase_pct(0.0, 1.0)
    with pytest.raises(UndefinedStatisticError):
        volume_reduction_pct(0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(st.floats(0.1, 1e4), st.floats(0.0, 1e4))
def test_percentage_formula_is_exact(baseline, current):
    assert force_increase_pct(baseline, current) == pytest.approx(
        (current - baseline) / baseline * 100.0, rel=1e-12)
    assert volume_reduction_pct(baseline, current) == pytest.approx(
        (baseline - current) / baseline * 100.0, rel=1e-12)


def test_contact_statistics_baseline_row(small_saturated):
    system = build_system(small_saturated)
    stats = contact_statistics(system)
    assert stats.force_increase_pct == 0.0
    assert stats.contact_volume_reduction_pct == 0.0
    assert stats.contact_pair_count > 0


# ---------------------------------------------------------------------------
# freeze pipeline

@pytest.fixture(scope="module")
def saturated_freeze(small_saturated):
    return run_freeze(small_saturated)


@pytest.fixture(scope="module")
def dry_freeze(small_dry):
    return run_freeze(small_dry)


def test_freeze_emits_three_stage_rows(saturated_freeze):
    assert [r.temperature for r in saturated_freeze.stages] == [0.0, -10.0, -20.0]
    assert len(saturated_freeze.rows()) == 4


def test_saturated_stage_signature(saturated_freeze):
    forces = [saturated_freeze.baseline.max_contact_force] \
        + [r.stats.max_contact_force for r in saturated_freeze.stages]
    assert forces[1] < forces[0], "cooling in the liquid state must relax forces"
    assert forces[2] > forces[1], "freezing expansion must load the skeleton"
    assert forces[3] > forces[2], "frozen cooling must keep loading the skeleton"


def test_saturated_percentages_consistent(saturated_freeze):
    base = saturated_freeze.baseline
    for row in saturated_freeze.stages:
        s = row.stats
        assert s.force_increase_pct == pytest.approx(
            force_increase_pct(base.max_contact_force, s.max_contact_force))
        assert s.contact_volume_reduction_pct == pytest.approx(
            volume_reduction_pct(base.contact_volume, s.contact_volume))


def test_water_bonds_never_break_in_pure_thermal(saturated_freeze):
    system = saturated_freeze.system
    broken = ~system.b_intact
    if np.any(broken):
        kinds = system.b_kind[broken]
        assert np.all(kinds == ContactKind.ROCK_ROCK), \
            "only rock bonds may break under frost heave"


def test_crack_log_time_ordered(saturated_freeze):
    times = [c.time for c in saturated_freeze.cracks]
    assert times == sorted(times)


def test_dry_model_stays_quiet_through_minus_ten(dry_freeze):
    for row in dry_freeze.stages[:2]:  # rows 20->0 and 0->-10
        assert abs(row.stats.force_increase_pct) < 0.2
        base_pairs = dry_freeze.baseline.contact_pair_count
        change = abs(row.stats.contact_pair_count - base_pairs) / base_pairs
        assert change < 0.002


def test_dry_final_stage_is_pure_rock_shrinkage(dry_freeze):
    #残 change over -10 -> -20 stays at the rock shrinkage scale
    assert abs(dry_freeze.stages[2].stats.force_increase_pct) < 0.2
    assert len(dry_freeze.cracks) == 0


def test_freeze_requires_decreasing_stages():
    with pytest.raises(InvalidConfigError):
        FreezeConfig(stage_temps=(0.0, 5.0))


def test_freeze_requires_a_stage():
    # an empty schedule ran the set-up and returned the baseline row alone
    with pytest.raises(InvalidConfigError, match="at least one stage"):
        FreezeConfig(stage_temps=())


@pytest.mark.parametrize("kwargs, field", [
    ({"start_temp": math.nan}, "start_temp"),
    ({"substep_dt_max": math.nan}, "substep_dt_max"),
    ({"substep_dt_max": math.inf}, "substep_dt_max"),
    ({"water_prestress": math.nan}, "water_prestress"),
    ({"freeze_volume_jump": math.inf}, "freeze_volume_jump"),
    ({"stage_temps": (0.0, math.nan)}, r"stage_temps\[1\]"),
    ({"stage_temps": (-math.inf,)}, r"stage_temps\[0\]"),
], ids=["start_nan", "substep_nan", "substep_inf", "prestress_nan",
        "jump_inf", "stage_nan", "stage_inf"])
def test_freeze_config_rejects_a_non_finite_value(kwargs, field):
    # each passed the < and <= checks and constructed
    with pytest.raises(InvalidConfigError, match=rf"{field} must be finite"):
        FreezeConfig(**kwargs)


def test_freeze_config_target_temp_keeps_checkpoints():
    assert FreezeConfig(target_temp=-20.0).stage_temps == (0.0, -10.0, -20.0)
    assert FreezeConfig(target_temp=-15.0).stage_temps == (0.0, -10.0, -15.0)
    assert FreezeConfig(target_temp=-10.0).stage_temps == (0.0, -10.0)
    assert FreezeConfig(target_temp=5.0).stage_temps == (5.0,)
    lower = FreezeConfig(target_temp=-15.0, start_temp=-5.0)
    assert (lower.start_temp, lower.stage_temps) == (-5.0, (-10.0, -15.0))
    with pytest.raises(InvalidConfigError):
        FreezeConfig(target_temp=25.0)
    # no target and no stages: the checkpoints themselves
    assert FreezeConfig().stage_temps == (0.0, -10.0, -20.0)
    with pytest.raises(InvalidConfigError, match="both set"):
        FreezeConfig(stage_temps=(0.0,), target_temp=-20.0)


def test_freeze_volume_jump_grows_water_radii(small_saturated):
    plain = run_freeze(small_saturated, config=FreezeConfig(stage_temps=(-2.0,)))
    jumped = run_freeze(small_saturated,
                        config=FreezeConfig(stage_temps=(-2.0,),
                                            freeze_volume_jump=0.09))
    water = plain.system.phases == Phase.WATER
    assert np.all(jumped.system.radii[water] > plain.system.radii[water])
    rock = ~water
    assert np.allclose(jumped.system.radii[rock], plain.system.radii[rock])
    # 9% volume jump is about 2.9% radius growth over the plain run
    ratio = jumped.system.radii[water] / plain.system.radii[water]
    assert np.allclose(ratio, (1.09) ** (1 / 3), rtol=1e-3)


class _CountingNetwork(ConductionNetwork):
    """A conduction network that counts its steps."""

    steps = 0

    def step(self, field, held=None):
        self.steps += 1
        super().step(field, held)


def _first_substep(asm):
    """Counting network, 20 degC field, and the set held at the boundary."""
    system = build_system(asm)
    network = _CountingNetwork(asm, (system.b_ia, system.b_ib))
    boundary = surface_particle_ids(asm)
    field = TemperatureField(np.full(asm.n_particles, 20.0), boundary)
    held = ~network.boundary_reachable(boundary)
    held[boundary] = True
    return network, field, held


def test_conduction_fails_loudly_at_its_step_cap(small_saturated, monkeypatch):
    def conduct_with_cap(cap):
        network, field, held = _first_substep(small_saturated)
        monkeypatch.setattr(frostheave, "CONDUCTION_STEP_CAP", cap)
        _conduct_until(network, field, held, 18.0)
        return network

    with pytest.raises(ConvergenceError, match=r"after 1 steps.*0\.45 degC"):
        conduct_with_cap(1)
    # a field that reaches the tolerance on the last allowed step passes
    needed = conduct_with_cap(50_000).steps
    assert needed > 1
    conduct_with_cap(needed)
    with pytest.raises(ConvergenceError):
        conduct_with_cap(needed - 1)


def test_freeze_rejects_empty_assembly():
    empty = ParticleAssembly(np.zeros((0, 3)), np.zeros(0),
                             np.zeros(0, dtype=np.int8), np.zeros(0),
                             CylinderDomain(1.0, 1.0))
    with pytest.raises(InvalidConfigError):
        run_freeze(empty)
