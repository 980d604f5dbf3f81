import math
from dataclasses import replace

import numpy as np
import pytest

from frostdem import mechanics
from frostdem.errors import (ConvergenceError, CurveWindowError,
                             InvalidConfigError, StabilityError,
                             UndefinedStatisticError)
from frostdem.mechanics import (DT_SAFETY, DRY_MATERIALS,
                                EQUILIBRIUM_CHECK_INTERVAL,
                                EQUILIBRIUM_RATIO, BondMaterial,
                                LoadingConfig, ParticleSystem,
                                SATURATED_MATERIALS, StressStrainCurve,
                                build_system, calibrate,
                                extract_mechanical_params, run_uniaxial_test)
from frostdem.frostheave import FreezeConfig, run_freeze
from frostdem.packing import (ContactKind, CylinderDomain, ParticleAssembly,
                              Phase, contact_arrays, generate_packing)

from conftest import corrupt_loading, desk_config


ROCK_MAT = SATURATED_MATERIALS[ContactKind.ROCK_ROCK]


def pair_assembly(gap=0.0, r=1.1):
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2 * r + gap]])
    return ParticleAssembly(centers, np.array([r, r]),
                            np.zeros(2, dtype=np.int8), np.full(2, 2600.0),
                            CylinderDomain(3 * r, 6 * r))


# Closed-form parallel-bond springs of two equal touching spheres, built from
# the material constants alone: k_n = E_b * 1e3 / (r_a + r_b) * A with the
# radius-sum disc A = pi * (r_a + r_b)^2, and k_s = k_n / bond_stiffness_ratio.

def bond_area(r):
    return math.pi * (2 * r) ** 2


def bond_k_normal(material, r):
    return material.bond_modulus * 1e3 / (2 * r) * bond_area(r)


def held_pair(material=ROCK_MAT, r=1.0):
    """Two touching spheres joined by one bond, held in place (inv_mass = 0)
    so the bond sees exactly the displacement a test prescribes."""
    system = ParticleSystem(pair_assembly(r=r), {ContactKind.ROCK_ROCK: material},
                            damping=0.0, mass_scale=1.0)
    system.inv_mass[:] = 0.0
    assert system.n_bonds == 1
    return system


def bond_outcome(material, normal_stress, shear_stress=0.0, r=1.0):
    """Load one bond to the given stresses (compression positive), take one
    engine step and report "intact", "tensile" or "shear"."""
    system = held_pair(material, r)
    # normal stress = E_b * 1e3 * overlap / (r_a + r_b) for the bond spring
    system.pos[1, 2] -= normal_stress * 2 * r / (material.bond_modulus * 1e3)
    system.b_shear[0] = (shear_stress * bond_area(r), 0.0, 0.0)
    system.step(system.stable_dt())
    if system.b_intact.any():
        return "intact"
    assert len(system.crack_events) == 1
    return system.crack_events[0].mode


def breaking_displacement(material, r=1.0):
    """Bisect the opening that breaks one held bond in tension within a
    single step."""
    def breaks(u):
        system = held_pair(material, r)
        system.pos[1, 2] += u
        system.step(system.stable_dt())
        return [c.mode for c in system.crack_events] == ["tensile"]

    u_star = material.tensile_strength * bond_area(r) / bond_k_normal(material, r)
    lo, hi = 0.0, 4.0 * u_star
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if breaks(mid) else (mid, hi)
    return hi, u_star


# ---------------------------------------------------------------------------
# bond force law

def test_zero_increments_leave_forces_unchanged():
    system = held_pair()
    system.pos[1, 2] -= 1e-4                     # preload in compression
    system.b_shear[0] = (2.0, 0.0, 0.0)
    f0 = system.bond_normal_forces().copy()
    for _ in range(5):
        system.step(system.stable_dt())
    assert np.array_equal(system.bond_normal_forces(), f0)
    assert np.array_equal(system.b_shear[0], (2.0, 0.0, 0.0))


def test_normal_force_ramps_with_bond_stiffness():
    # one bond opened in equal increments; the force pass must pull the pair
    # back with k_n * opening, read from the first-step velocity change
    k_n = bond_k_normal(ROCK_MAT, 1.0)
    du = 1e-4  # opening, well inside the tensile strength
    for i in range(1, 6):
        system = ParticleSystem(pair_assembly(r=1.0),
                                {ContactKind.ROCK_ROCK: ROCK_MAT},
                                damping=0.0, mass_scale=1.0)
        system.pos[1, 2] += du * i
        assert system.bond_normal_forces()[0] == pytest.approx(-k_n * du * i)
        dt = system.stable_dt()
        system.step(dt)
        assert system.vel[1, 2] * system.mass[1] / dt \
            == pytest.approx(-k_n * du * i)
        assert system.vel[0, 2] * system.mass[0] / dt \
            == pytest.approx(k_n * du * i)


def test_pure_shear_leaves_normal_unchanged():
    # tangential relative motion loads the shear spring with k_s * slip and
    # leaves the normal direction force free
    system = ParticleSystem(pair_assembly(r=1.0), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    k_s = bond_k_normal(ROCK_MAT, 1.0) / ROCK_MAT.bond_stiffness_ratio
    v = 2e-4
    system.vel[1, 0] = v
    dt = system.stable_dt()
    system.step(dt)
    assert np.all(system.vel[:, 2] == 0.0)
    assert system.b_shear[0] == pytest.approx((-k_s * v * dt, 0.0, 0.0))
    assert system.b_shear[0, 0] != 0.0


def test_integrated_pair_separation_breaks_at_strength():
    # pull a bonded pair apart kinematically inside the engine: the crack
    # fires once the bond tension passes strength * area
    r = 1.0
    system = held_pair(r=r)
    u_star = ROCK_MAT.tensile_strength * bond_area(r) / bond_k_normal(ROCK_MAT, r)
    du = u_star / 2000.0
    dt = system.stable_dt()
    moved = 0.0
    while system.b_intact.any() and moved < 3 * u_star:
        system.pos[1, 2] += du
        system.step(dt)
        moved += du
    assert not system.b_intact.any()
    assert len(system.crack_events) == 1
    assert system.crack_events[0].mode == "tensile"
    assert moved == pytest.approx(u_star, rel=2e-3)  # step quantization


def test_one_bond_tensile_failure_load_matches_closed_form():
    # bisect the breaking displacement; it must match strength*area/stiffness
    hi, u_star = breaking_displacement(ROCK_MAT)
    assert hi == pytest.approx(u_star, rel=1e-9)


def test_bond_failure_envelope_reference_points():
    assert bond_outcome(ROCK_MAT, 0.0) == "intact"
    assert bond_outcome(ROCK_MAT, -41.0) == "tensile"
    water_mat = SATURATED_MATERIALS[ContactKind.WATER_WATER]
    assert bond_outcome(water_mat, -50.0) == "intact"


def test_shear_envelope_uses_friction_term():
    # compression raises the shear limit: cohesion 40 + sigma_n * tan(45)
    assert bond_outcome(ROCK_MAT, 30.0, 69.0) == "intact"
    assert bond_outcome(ROCK_MAT, 30.0, 71.0) == "shear"


def test_broken_bond_refreshes_stable_step():
    # a contact spring far stiffer than the bond: once the bond breaks, the
    # step that was stable before the break must be rejected
    stiff_contact = BondMaterial(900.0, 9.0, 2.5, 40.0, 40.0, 45.0)
    system = held_pair(stiff_contact)
    dt = system.stable_dt()
    system.pos[1, 2] += 0.1
    system.step(dt)
    assert not system.b_intact.any()
    assert system.stable_dt() < dt
    with pytest.raises(StabilityError):
        system.step(dt)


@pytest.mark.parametrize("advance", ["run", "equilibrate"])
def test_stepping_loops_shrink_dt_after_a_stiffening_break(advance):
    # the same stiff contact spring: the stepping loops take the shorter
    # stable step that the break leaves instead of failing on the old one
    stiff_contact = BondMaterial(900.0, 9.0, 2.5, 40.0, 40.0, 45.0)
    system = held_pair(stiff_contact)
    dt = system.stable_dt()
    system.pos[1, 2] += 0.1
    if advance == "run":
        system.run(2)
        assert system.time == pytest.approx(dt + system.stable_dt(), rel=1e-12)
    else:
        system.equilibrate(max_steps=200)
    assert not system.b_intact.any()
    assert system.stable_dt() < dt


def test_softening_break_keeps_the_step_until_the_table_changes():
    # the shipped contact spring is softer than the bond springs: a break
    # lengthens the stable step, and the system keeps stepping at the step
    # of the last pair-table change until the table changes again; the
    # opening breaks the bond and stays inside half the skin, so no step
    # rebuilds the table
    system = held_pair(ROCK_MAT)
    dt0 = system.dt
    system.pos[1, 2] += 0.4 * system.skin
    system.run(2)
    assert not system.b_intact.any()
    assert system.stable_dt() > dt0
    assert system.time == 2 * dt0
    assert system.dt == dt0
    system.refresh_transient_contacts()
    assert system.dt == system.stable_dt()


def test_a_rebuild_inside_equilibrate_only_lowers_the_relaxation_step(
        monkeypatch):
    # two unbonded spheres pressed 0.3 mm into each other spring apart by
    # more than half the skin, so the first step of the relaxation rebuilds
    # the table and, as a bond break does, lowers the step to the stable
    # step under the relaxation's masses.  Carried out of the skin, a sphere
    # leaves a table with no row and no stable step, and the step stays
    system = ParticleSystem(pair_assembly(gap=0.5), {ContactKind.ROCK_ROCK: ROCK_MAT})
    assert len(system.ia) == 0
    system.pos[1, 2] -= 0.8
    system.refresh_transient_contacts()
    original, refresh = ParticleSystem.step, ParticleSystem.refresh_transient_contacts
    steps, rebuilds = [], []

    def step(self, dt):
        steps.append(dt)
        original(self, dt)
        if len(steps) == 2:
            self.pos[1, 2] += 1.0

    def counted(self):
        refresh(self)
        rebuilds.append((len(self.ia), self.stable_dt(), self.dt))

    monkeypatch.setattr(ParticleSystem, "step", step)
    monkeypatch.setattr(ParticleSystem, "refresh_transient_contacts", counted)
    dt = system.dt
    system.equilibrate()
    relax_dt = steps[0]
    assert [(rows, stable) for rows, stable, _ in rebuilds] == [
        (1, pytest.approx(relax_dt * DT_SAFETY / mechanics.RELAX_DT_SAFETY)),
        (0, math.inf)]
    lowered = rebuilds[0][2]
    assert rebuilds[0][1] == lowered == rebuilds[1][2]
    assert steps == [relax_dt] + [lowered] * (len(steps) - 1)
    assert system.dt == dt


# ---------------------------------------------------------------------------
# pair table: intact bond, broken bond and unbonded contact side by side

def linear_k(material, r):
    """Closed-form linear contact spring of two equal spheres:
    E_c * 1e3 / (r_a + r_b) times the disc of the smaller radius."""
    return material.contact_modulus * 1e3 / (2 * r) * math.pi * r ** 2


def sphere_mass(r, density):
    return 4.0 / 3.0 * math.pi * r ** 3 * density * 1e-12


def pair_table_system(overlaps, densities=(2600.0, 26.0, 2.6), r=1.0):
    """Three far-apart pairs of equal rock spheres, pair k = particles 2k and
    2k+1: an intact bond, a broken bond, and an unbonded contact formed after
    installation.  ``overlaps`` sets each pair's geometric overlap."""
    centers = []
    for k, gap in enumerate((0.0, 0.0, 0.5)):  # the third starts out of bond reach
        centers += [[10.0 * k, 0.0, 2.0], [10.0 * k, 0.0, 2.0 + 2 * r + gap]]
    asm = ParticleAssembly(np.array(centers), np.full(6, r),
                           np.zeros(6, dtype=np.int8), np.repeat(densities, 2),
                           CylinderDomain(30.0, 10.0))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    assert system.n_bonds == 2
    system._break_bonds(np.array([1]))
    system.pos[1::2, 2] = system.pos[0::2, 2] + 2 * r - np.asarray(overlaps)
    system.refresh_transient_contacts()
    return system


def test_pair_table_observables_match_closed_forms():
    r, overlaps = 1.0, (1e-4, 2e-4, 5e-4)
    system = pair_table_system(overlaps, r=r)
    k_n, k_lin = bond_k_normal(ROCK_MAT, r), linear_k(ROCK_MAT, r)
    forces = [k_n * overlaps[0], k_lin * overlaps[1], k_lin * overlaps[2]]
    assert system.bond_normal_forces() == pytest.approx(forces[:2], rel=1e-9)
    force, count, volume = system.contact_summary()
    # the unbonded contact carries the largest force
    assert force == pytest.approx(forces[2], rel=1e-9)
    assert count == 3
    # lens of two equal spheres at centre distance d: pi (4r + d)(2r - d)^2 / 12
    lens = sum(math.pi * (4 * r + (2 * r - u)) * u ** 2 / 12.0 for u in overlaps)
    assert volume == pytest.approx(lens, rel=1e-9)
    # a broken bond that no longer overlaps is no active pair; an intact
    # bond in tension still is
    system.pos[3, 2] += 0.5
    system.pos[1, 2] += 2e-4
    assert system.contact_summary()[1] == 2


def test_pair_table_stable_dt_matches_closed_form():
    r, densities = 1.0, (2600.0, 26.0, 2.6)
    system = pair_table_system((1e-4, 2e-4, 5e-4), densities, r)
    k_bond = bond_k_normal(ROCK_MAT, r) * (1.0 + 1.0 / ROCK_MAT.bond_stiffness_ratio)
    k_lin = linear_k(ROCK_MAT, r)
    m_a, m_b, m_c = (sphere_mass(r, rho) for rho in densities)
    expected = DT_SAFETY * min(math.sqrt(m_a / k_bond), math.sqrt(m_b / k_lin),
                               math.sqrt(m_c / k_lin))
    # the light pair on the unbonded contact sets the step
    assert expected == DT_SAFETY * math.sqrt(m_c / k_lin)
    assert system.stable_dt() == pytest.approx(expected, rel=1e-12)
    # once that contact is gone, the broken bond's contact spring sets it
    system.pos[5, 2] += 1.0
    system.refresh_transient_contacts()
    assert system.stable_dt() == pytest.approx(DT_SAFETY * math.sqrt(m_b / k_lin),
                                               rel=1e-12)


def test_broken_bond_and_unbonded_contact_carry_the_same_normal_force():
    overlap = 3e-4
    system = pair_table_system((1e-4, overlap, overlap), densities=(2600.0,) * 3)
    expected = linear_k(ROCK_MAT, 1.0) * overlap
    assert system.bond_normal_forces()[1] == pytest.approx(expected, rel=1e-9)
    dt = system.stable_dt()
    system.step(dt)
    # undamped first step from rest: the upper sphere of each pair is pushed
    # up by exactly the normal force
    f_broken = system.vel[3, 2] * system.mass[3] / dt
    f_contact = system.vel[5, 2] * system.mass[5] / dt
    assert f_broken == pytest.approx(expected, rel=1e-9)
    assert f_contact == pytest.approx(f_broken, rel=1e-12)


# ---------------------------------------------------------------------------
# material table: every row takes its micro-parameters by contact kind

def test_material_arrays_match_the_per_row_material_oracle(small_saturated):
    system = build_system(small_saturated, SATURATED_MATERIALS)
    system.refresh_transient_contacts()
    system.set_platens()
    nb = system.n_bonds
    radii, phases = system.radii.tolist(), system.phases.tolist()
    pairs = list(zip(system.ia.tolist(), system.ib.tolist()))
    kinds = [ContactKind(phases[i] + phases[j]) for i, j in pairs]
    assert len(kinds) > nb
    assert set(kinds[:nb]) >= {ContactKind.ROCK_ROCK, ContactKind.ROCK_WATER}
    expected = {name: [] for name in ("k_lin", "b_area", "b_k_normal",
                                      "b_k_shear", "b_tensile", "b_cohesion",
                                      "b_tanphi")}
    for row, (i, j) in enumerate(pairs):
        mat = SATURATED_MATERIALS[kinds[row]]
        r_a, r_b = radii[i], radii[j]
        r_min = min(r_a, r_b)
        expected["k_lin"].append(mat.contact_modulus * 1e3 / (r_a + r_b)
                                 * (math.pi * (r_min * r_min)))
        if row >= nb:
            continue
        area = math.pi * ((r_a + r_b) * (r_a + r_b))
        k_normal = mat.bond_modulus * 1e3 / (r_a + r_b) * area
        expected["b_area"].append(area)
        expected["b_k_normal"].append(k_normal)
        expected["b_k_shear"].append(k_normal / mat.bond_stiffness_ratio)
        expected["b_tensile"].append(mat.tensile_strength)
        expected["b_cohesion"].append(mat.cohesion)
        expected["b_tanphi"].append(float(np.tan(np.radians(mat.friction_angle))))
    for name, values in expected.items():
        assert getattr(system, name).tolist() == values, name
    # a platen presses on a particle as a particle of its own phase does
    platen = [SATURATED_MATERIALS[ContactKind(2 * phase)].contact_modulus
              * 1e3 * math.pi * r for phase, r in zip(phases, radii)]
    assert system.walls["k"].tolist() == platen


def test_a_bond_row_without_a_material_names_its_kind(small_saturated):
    # the dry table has no ROCK_WATER or WATER_WATER entry; the smallest
    # missing kind among the rows is named
    with pytest.raises(InvalidConfigError,
                       match="no material defined for contact kind ROCK_WATER"):
        build_system(small_saturated, DRY_MATERIALS)


def test_a_platen_spring_without_a_material_names_its_kind():
    # two bonded rock particles and an isolated water particle: the one
    # bond row is ROCK_ROCK, but a platen presses on the water particle as
    # a water particle does
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 4.0], [10.0, 0.0, 2.0]])
    asm = ParticleAssembly(centers, np.ones(3), np.array([0, 0, 1], dtype=np.int8),
                           np.array([2600.0, 2600.0, 960.0]),
                           CylinderDomain(30.0, 10.0))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT})
    assert system.n_bonds == 1
    with pytest.raises(InvalidConfigError,
                       match="no material defined for contact kind WATER_WATER"):
        system.set_platens()


# ---------------------------------------------------------------------------
# force pass against a brute-force per-pair oracle

def mixed_table_system():
    """Three far-apart tilted pairs of rock spheres, pair k = particles 2k and
    2k+1: an intact bond carrying shear and a thermal offset, a bond broken
    by the engine and pushed back into overlap, and an unbonded contact,
    with both platens touching and every particle moving."""
    r = 1.0
    axes = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, 0.8], [0.48, 0.36, 0.8]])
    centers = []
    for k, gap in enumerate((0.0, 0.0, 0.5)):  # the third starts out of bond reach
        base = np.array([10.0 * k, 0.0, 2.0])
        centers += [base, base + (2 * r + gap) * axes[k]]
    asm = ParticleAssembly(np.array(centers), np.full(6, r),
                           np.zeros(6, dtype=np.int8), np.full(6, 2600.0),
                           CylinderDomain(30.0, 10.0))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    assert system.n_bonds == 2
    # open the second bond far past its tensile strength: one step breaks it
    system.pos[3] += 0.1 * axes[1]
    system.step(system.stable_dt())
    assert [c.mode for c in system.crack_events] == ["tensile"]
    for k, overlap in enumerate((1e-3, 2e-3, 3e-3)):
        system.pos[2 * k + 1] = system.pos[2 * k] + (2 * r - overlap) * axes[k]
    system.refresh_transient_contacts()
    tangent = np.cross(axes[0], [0.0, 1.0, 0.0])
    system.b_shear[0] = 5.0 * tangent / np.linalg.norm(tangent)
    system.b_offset[0] = 2e-5
    system.set_platens()
    system.walls["z_bot"] += 2e-4
    system.walls["z_top"] -= 2e-4
    system.vel[:] = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 3))
    assert system.b_intact.tolist() == [True, False]
    assert len(system.ia) == 3
    return system


def oracle_forces(system):
    """Net particle forces and the unbalanced ratio, one pair at a time; the
    ratio's mean contact force counts the intact bonds, the overlapping
    pairs and the pressing platen contacts."""
    force = np.zeros((system.n, 3))
    mag_sum, count = 0.0, 0
    for row, (a, b) in enumerate(zip(system.ia, system.ib)):
        d = system.pos[b] - system.pos[a]
        dist = math.sqrt(float(d @ d))
        overlap = system.radii[a] + system.radii[b] - dist
        intact = row < system.n_bonds and system.b_intact[row]
        if intact:
            fn = system.b_k_normal[row] * (overlap + system.b_offset[row]
                                           - system.b_form_ref[row])
            shear = system.b_shear[row]
        else:
            fn = system.k_lin[row] * max(overlap, 0.0)
            shear = np.zeros(3)
        f = fn * d / dist + shear
        force[b] += f
        force[a] -= f
        mag_sum += abs(fn) + math.sqrt(float(shear @ shear))
        count += intact or overlap > 0.0
    w = system.walls
    touching = {"bot": 0, "top": 0}
    for p in range(system.n):
        z, r, k = system.pos[p, 2], system.radii[p], w["k"][p]
        f_bot = k * max(w["z_bot"] + r - z, 0.0)
        f_top = k * max(z + r - w["z_top"], 0.0)
        force[p, 2] += f_bot - f_top
        mag_sum += f_bot + f_top
        count += (f_bot != 0.0) + (f_top != 0.0)
        touching["bot"] += f_bot != 0.0
        touching["top"] += f_top != 0.0
    ratio = (np.abs(force).sum() / system.n) / (mag_sum / count)
    return force, ratio, touching


def oracle_shear_step(system, dt):
    """Bond shear after one step: slip increment on intact bonds, then
    rotation into the current tangent plane, one bond at a time."""
    shear = system.b_shear.copy()
    for row in range(system.n_bonds):
        if not system.b_intact[row]:
            continue
        a, b = system.ia[row], system.ib[row]
        d = system.pos[b] - system.pos[a]
        n = d / math.sqrt(float(d @ d))
        v_rel = system.vel[b] - system.vel[a]
        v_t = v_rel - (v_rel @ n) * n
        s = shear[row] - system.b_k_shear[row] * v_t * dt
        shear[row] = s - (s @ n) * n
    return shear


def assert_forces_match(system, actual, expected):
    # the engine and the loop may round a centre distance apart by an ulp,
    # which the stiffest spring turns into a force: that is the absolute
    # floor next to the relative 1e-12
    k_max = max(system.k_lin.max(), system.b_k_normal.max(),
                system.walls["k"].max())
    ulp = np.spacing(2.0 * system.radii.max())
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=4 * k_max * ulp)


def test_force_pass_matches_per_pair_oracle():
    system = mixed_table_system()
    expected, ratio, touching = oracle_forces(system)
    assert touching["bot"] == 3 and touching["top"] >= 1
    force = system._force_pass(0.0, mutate=False)[0]
    assert_forces_match(system, force, expected)
    assert system.unbalanced_ratio() == pytest.approx(ratio, rel=1e-12)


def test_step_advances_shear_and_forces_like_the_oracle():
    system = mixed_table_system()
    for _ in range(100):
        dt = system.stable_dt()
        shear = oracle_shear_step(system, dt)
        saved = system.b_shear.copy()
        system.b_shear[:] = shear
        expected, _, _ = oracle_forces(system)
        system.b_shear[:] = saved
        vel0 = system.vel.copy()
        system.step(dt)
        scale = np.abs(shear).max()
        np.testing.assert_allclose(system.b_shear, shear, rtol=1e-12,
                                   atol=1e-12 * scale)
        # undamped: the velocity change is the net force the step applied
        assert_forces_match(system,
                            (system.vel - vel0) * system.mass[:, None] / dt,
                            expected)
        # the broken bond carries no shear at all
        assert np.all(system.b_shear[1] == 0.0)
    assert system.b_intact.tolist() == [True, False]
    assert np.any(system.b_shear[0] != 0.0)
    _, ratio, _ = oracle_forces(system)
    assert system.unbalanced_ratio() == pytest.approx(ratio, rel=1e-12)


def test_rows_that_carry_no_force_leave_the_unbalanced_ratio_unchanged():
    # the pair table keeps pairs within its skin of touching; a row whose
    # pair is apart carries no force, so it must not lower the mean contact
    # force as a pressing pair would
    system = mixed_table_system()
    ratio = system.unbalanced_ratio()
    # a skin that spans the specimen adds a row for every pair of the
    # three pairs' ends, 10 mm and more apart
    system.skin = 30.0
    system.refresh_transient_contacts()
    assert len(system.ia) == 15
    assert system.unbalanced_ratio() == pytest.approx(ratio, rel=1e-12)
    assert oracle_forces(system)[1] == pytest.approx(ratio, rel=1e-12)


# ---------------------------------------------------------------------------
# the force pass against the vectorised pass it replaced, bit for bit

def _force_pass_oracle(s, dt, mutate=True):
    """The force pass with nothing cached: the geometry from two position
    gathers and the radii, every mask applied up front, both platens' pushes
    and sums apart, and fresh arrays throughout.  Returns the net force, the
    normal forces, the distances, the overlaps and the platen pushes."""
    nb, ia, ib = s.n_bonds, s.ia, s.ib
    d = s.pos.take(ib, axis=0) - s.pos.take(ia, axis=0)
    dist = np.sqrt(np.einsum("ij,ij->i", d, d))
    normal = d / np.maximum(dist, 1e-12)[:, None]
    overlap = s.radii.take(ia) + s.radii.take(ib) - dist

    def normal_forces():
        fn = s.k_lin * np.maximum(overlap, 0.0)
        f_bond = s.b_k_normal * (overlap[:nb] + s.b_offset - s.b_form_ref)
        np.copyto(fn[:nb], f_bond, where=s.b_intact)
        return fn

    fn = normal_forces()
    if mutate and nb:
        n_b = normal[:nb]
        v_rel = s.vel.take(ib[:nb], axis=0) - s.vel.take(ia[:nb], axis=0)
        s.b_shear -= (s.b_k_shear * s.b_intact * dt)[:, None] * v_rel
        s_n = np.einsum("ij,ij->i", s.b_shear, n_b)
        s.b_shear -= s_n[:, None] * n_b
        sigma_n = fn[:nb] / s.b_area
        tensile = -sigma_n > s.b_tensile
        tau = np.sqrt(np.einsum("ij,ij->i", s.b_shear, s.b_shear)) / s.b_area
        failing = s.b_intact & (tensile
                                | (tau > s.b_cohesion + sigma_n * s.b_tanphi))
        if failing.any():
            failed = np.flatnonzero(failing)
            mid = 0.5 * (s.pos[s.b_ia[failed]] + s.pos[s.b_ib[failed]])
            for row, idx in enumerate(failed):
                s.crack_events.append(mechanics.CrackEvent(
                    s.time, tuple(float(x) for x in mid[row]),
                    "tensile" if tensile[idx] else "shear"))
            s._break_bonds(failed)
            fn = normal_forces()

    m = len(fn)
    pair_force = np.empty((2 * m, 3))
    np.multiply(fn[:, None], normal, out=pair_force[:m])
    pair_force[:nb] += s.b_shear
    np.negative(pair_force[:m], out=pair_force[m:])
    scatter = ((np.concatenate((ib, ia)) * 3)[:, None] + np.arange(3)).ravel()
    force = (np.bincount(scatter, weights=pair_force.ravel(),
                         minlength=3 * s.n).reshape(s.n, 3)
             if m else np.zeros((s.n, 3)))
    pushes = ()
    if s.walls is not None:
        w, z = s.walls, s.pos[:, 2]
        pushes = (w["k"] * np.maximum(w["z_bot"] + s.radii - z, 0.0),
                  w["k"] * np.maximum(z + s.radii - w["z_top"], 0.0))
        force[:, 2] += pushes[0] - pushes[1]
        w["f_bot"], w["f_top"] = (float(f.sum()) for f in pushes)
    return force, fn, dist, overlap, pushes


def _step_oracle(s, dt):
    """``ParticleSystem.step`` on the oracle pass, integrating on fresh
    arrays, then the engine's own move test and rebuild."""
    assert dt <= s.dt * (1.0 + 1e-12)
    force = _force_pass_oracle(s, dt)[0]
    if s._fire is not None:
        s._fire.steer(s.vel, force)
    elif s.damping > 0.0:
        force = force - s.damping * np.abs(force) * np.sign(s.vel)
    s.vel += force * s.inv_mass[:, None] * dt
    s.pos += s.vel * dt
    s.time += dt
    s.step_count += 1
    if s._anchor.moved_half_skin(s._pos):
        s.refresh_transient_contacts()


def _mean_forces_oracle(s):
    force, fn, _, overlap, pushes = _force_pass_oracle(s, 0.0, mutate=False)
    mag_sum = float(np.abs(fn).sum() + np.sqrt(
        np.einsum("ij,ij->i", s.b_shear, s.b_shear)).sum())
    # the intact bonds and the overlapping pairs
    count = int(np.count_nonzero(overlap > 0.0)
                + np.count_nonzero(s.b_intact & ~(overlap[:s.n_bonds] > 0.0)))
    if pushes:
        mag_sum += s.walls["f_bot"] + s.walls["f_top"]
        count += int(np.count_nonzero(pushes[0]) + np.count_nonzero(pushes[1]))
    return float(np.abs(force).sum()) / max(s.n, 1), mag_sum / max(count, 1)


def _contact_summary_oracle(s):
    _, fn, dist, overlap, _ = _force_pass_oracle(s, 0.0, mutate=False)
    touching = overlap > 0.0
    active = touching.copy()
    active[:s.n_bonds] |= s.b_intact
    dd, ra, rb = dist[touching], s.radii[s.ia[touching]], s.radii[s.ib[touching]]
    lens = (np.pi * (ra + rb - dd) ** 2
            * (dd ** 2 + 2.0 * dd * (ra + rb) - 3.0 * (ra - rb) ** 2)
            / (12.0 * np.maximum(dd, 1e-12)))
    return (float(np.max(fn, initial=0.0)), int(np.count_nonzero(active)),
            float(lens.sum()))


def _with_oracle_pass(monkeypatch, run):
    """``run()`` with every force pass of ``ParticleSystem`` the oracle's."""
    with monkeypatch.context() as patch:
        patch.setattr(ParticleSystem, "step", _step_oracle)
        patch.setattr(ParticleSystem, "_mean_forces", _mean_forces_oracle)
        patch.setattr(ParticleSystem, "contact_summary", _contact_summary_oracle)
        return run()


def _state(system):
    walls = system.walls or {}
    return (system.pos.tobytes(), system.vel.tobytes(), system.b_shear.tobytes(),
            system.b_offset.tobytes(), system.b_intact.tobytes(),
            list(system.crack_events), system.time, system.step_count,
            walls.get("f_bot"), walls.get("f_top"))


def test_loading_run_matches_the_oracle_pass_bit_for_bit(small_saturated,
                                                         monkeypatch):
    # weak bonds: the run breaks bonds in tension and in shear, refreshes
    # its unbonded contacts and stops past the peak
    built = spy_on_build_system(monkeypatch)

    def run():
        return run_uniaxial_test(small_saturated, 4.0, 0.015,
                                 scaled_materials(0.10))

    curves = [run(), _with_oracle_pass(monkeypatch, run)]
    engine, oracle = built
    assert engine.crack_events
    assert len(engine.ia) > engine.n_bonds
    assert engine.walls["f_bot"] > 0.0 and engine.walls["f_top"] > 0.0
    assert _state(engine) == _state(oracle)
    assert [c.strain.tobytes() + c.stress.tobytes() for c in curves] \
        == [curves[1].strain.tobytes() + curves[1].stress.tobytes()] * 2


def test_freeze_matches_the_oracle_pass_bit_for_bit(small_saturated, monkeypatch):
    # the volume jump breaks bonds inside the substep runs; every substep
    # grows the radii and offsets the bonds, and each stage end relaxes
    config = FreezeConfig(stage_temps=(0.0, -10.0), freeze_volume_jump=0.09)
    engine = run_freeze(small_saturated, config)
    oracle = _with_oracle_pass(monkeypatch,
                               lambda: run_freeze(small_saturated, config))
    assert engine.cracks and np.any(engine.system.b_offset != 0.0)
    assert _state(engine.system) == _state(oracle.system)
    assert (engine.baseline, engine.stages) == (oracle.baseline, oracle.stages)


def test_equilibrate_matches_the_oracle_pass_bit_for_bit(monkeypatch):
    # the set-up breaks a bond in tension with one step; FIRE then relaxes an
    # intact bond with shear and an offset, the broken bond, an unbonded
    # contact and both platens pressing
    engine = mixed_table_system()
    oracle = _with_oracle_pass(monkeypatch, mixed_table_system)
    assert _state(engine) == _state(oracle)
    ratio = engine.equilibrate()
    assert _with_oracle_pass(monkeypatch, oracle.equilibrate) == ratio
    assert engine.step_count > 0 and np.any(engine.b_shear[0] != 0.0)
    assert _state(engine) == _state(oracle)


# ---------------------------------------------------------------------------
# the component-major layout behind the (n, 3) views

def test_einsum_sums_a_contiguous_three_wide_row_as_p0_plus_p2_then_p1():
    # the force pass writes each row sum out in this order; einsum on a
    # transposed (n, 3) view sums in order instead, so b_shear, which the
    # oracle pass reads with einsum, keeps its row-major storage
    rng = np.random.default_rng(11)
    u = rng.normal(size=(1000, 3)) * np.exp(rng.normal(scale=4.0, size=(1000, 3)))
    v = rng.normal(size=(1000, 3)) * np.exp(rng.normal(scale=4.0, size=(1000, 3)))
    p = u * v
    einsum_order = (p[:, 0] + p[:, 2]) + p[:, 1]
    in_order = (p[:, 0] + p[:, 1]) + p[:, 2]
    assert not np.array_equal(einsum_order, in_order)
    assert np.array_equal(np.einsum("ij,ij->i", u, v), einsum_order)
    assert np.array_equal(mechanics._row_dot(u.T.copy(), v.T.copy()), einsum_order)
    u_t, v_t = u.T.copy().T, v.T.copy().T
    assert np.array_equal(np.einsum("ij,ij->i", u_t, v_t), in_order)


def test_writes_through_the_state_views_reach_the_next_force_pass():
    system = mixed_table_system()

    def forces():
        force = system._force_pass(0.0, mutate=False)[0].copy()
        assert_forces_match(system, force, oracle_forces(system)[0])
        return force

    seen = [forces()]
    system.pos[3, 2] += 1e-4                   # the broken bond closes
    seen.append(forces())
    system.b_shear[0] = (1.0, -2.0, 0.5)
    seen.append(forces())
    system.pos += (0.0, 0.0, 1e-4)             # eases the bottom platen
    assert system.walls["z_bot"] + 1.0 > system.pos[:, 2].min()
    seen.append(forces())
    assert all(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    # the next step advances the shear from the velocities written here
    system.vel[:] = np.random.default_rng(5).uniform(-1.0, 1.0, (6, 3))
    dt = system.stable_dt()
    shear = oracle_shear_step(system, dt)
    system.step(dt)
    np.testing.assert_allclose(system.b_shear, shear, rtol=1e-12,
                               atol=1e-12 * np.abs(shear).max())
    assert system.pos.shape == system.vel.shape == (6, 3)
    assert system.b_shear.shape == (system.n_bonds, 3)


def test_snapshot_centers_are_the_positions(small_saturated):
    system = build_system(small_saturated)
    system.run(20)
    snap = system.snapshot()
    assert not np.array_equal(snap.centers, small_saturated.centers)
    assert np.array_equal(snap.centers, system.pos)
    assert snap.centers.shape == small_saturated.centers.shape


# ---------------------------------------------------------------------------
# integration

def test_zero_state_is_a_fixed_point():
    # separated pair: no bond, no contact, no forces
    system = ParticleSystem(pair_assembly(gap=0.5), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    pos0 = system.pos.copy()
    for _ in range(100):
        system.step(1e-5)
    assert np.array_equal(system.pos, pos0)
    assert np.all(system.vel == 0.0)


def test_platens_step_a_pair_table_with_no_rows():
    # no bond and no contact: the force and stiffness sums over the empty
    # pair table must still take the platen terms as floats
    system = ParticleSystem(pair_assembly(gap=2.0), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            mass_scale=1.0)
    assert len(system.ia) == 0
    system.set_platens()
    dt = system.stable_dt()
    assert 0.0 < dt < math.inf
    pos0 = system.pos.copy()
    system.step(dt)
    assert np.array_equal(system.pos, pos0)
    assert system.walls["f_bot"] == system.walls["f_top"] == 0.0


def test_oscillator_frequency_matches_closed_form():
    system = ParticleSystem(pair_assembly(), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    k_n = bond_k_normal(ROCK_MAT, 1.1)
    m = system.mass[0]
    expected = math.sqrt(k_n * 2.0 / m) / (2.0 * math.pi)
    system.vel[0, 2] = 1.0
    system.vel[1, 2] = -1.0
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


def test_damping_shrinks_oscillation_amplitude():
    system = ParticleSystem(pair_assembly(), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.7, mass_scale=1.0)
    system.vel[0, 2] = 1.0
    system.vel[1, 2] = -1.0
    dt = system.stable_dt() * 0.2
    peaks = []
    prev_speed = 0.0
    rising = True
    for _ in range(20000):
        system.step(dt)
        speed = abs(system.vel[1, 2] - system.vel[0, 2])
        if rising and speed < prev_speed:
            peaks.append(prev_speed)
            rising = False
        elif speed > prev_speed:
            rising = True
        prev_speed = speed
        if len(peaks) >= 6:
            break
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


def test_momentum_conserved_without_damping():
    system = ParticleSystem(pair_assembly(), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    system.vel[0] = (0.3, -0.2, 1.0)
    system.vel[1] = (0.0, 0.4, -0.5)
    p0 = system.momentum()
    for _ in range(5000):
        system.step(system.stable_dt())
    assert np.allclose(system.momentum(), p0, atol=1e-9 * np.abs(p0).max())


def test_free_flight_kinetic_energy_constant():
    # unbonded, unloaded, undamped: no contacts form, energy is exact
    centers = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 9.0], [3.0, 0.0, 6.0]])
    asm = ParticleAssembly(centers, np.full(3, 0.5), np.zeros(3, dtype=np.int8),
                           np.full(3, 2600.0), CylinderDomain(50.0, 100.0))
    system = ParticleSystem(asm, {ContactKind.ROCK_ROCK: ROCK_MAT},
                            damping=0.0, mass_scale=1.0)
    assert system.n_bonds == 0
    system.vel[:] = [[1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 1e-4]]
    e0 = system.kinetic_energy()
    for _ in range(10_000):
        system.step(1e-5)
    assert abs(system.kinetic_energy() - e0) <= 1e-6 * e0


def test_unstable_step_rejected():
    system = ParticleSystem(pair_assembly(), {ContactKind.ROCK_ROCK: ROCK_MAT},
                            mass_scale=1.0)
    with pytest.raises(StabilityError):
        system.step(system.stable_dt() * 10)


# ---------------------------------------------------------------------------
# curve extraction

def linear_curve(modulus_gpa=4.0, n=200, max_strain=0.004):
    strain = np.linspace(0.0, max_strain, n)
    stress = modulus_gpa * 1e3 * strain
    return StressStrainCurve(strain, stress)


def test_modulus_exact_on_linear_curve():
    report = extract_mechanical_params(linear_curve(4.0))
    assert report.elastic_modulus == pytest.approx(4.0, abs=1e-9)


def test_bilinear_peak_extraction():
    strain = np.concatenate([np.linspace(0, 0.004, 120),
                             np.linspace(0.004, 0.006, 60)[1:]])
    stress = np.concatenate([np.linspace(0, 58.7, 120),
                             np.linspace(58.7, 30.0, 60)[1:]])
    curve = StressStrainCurve(strain, stress)
    report = extract_mechanical_params(curve)
    assert report.peak_strength == pytest.approx(58.7)
    assert report.peak_strain == pytest.approx(0.004)
    assert report.strain_energy > 0


def test_all_zero_curve_rejected():
    curve = StressStrainCurve(np.linspace(0, 0.004, 50), np.zeros(50))
    with pytest.raises(UndefinedStatisticError):
        extract_mechanical_params(curve)


def test_short_curve_rejected():
    with pytest.raises(CurveWindowError):
        extract_mechanical_params(linear_curve(max_strain=0.001))


# ---------------------------------------------------------------------------
# uniaxial test driver

def scaled_materials(strength_factor=0.25, modulus_factor=1.0):
    mats = dict(SATURATED_MATERIALS)
    mats[ContactKind.ROCK_ROCK] = ROCK_MAT.scaled(modulus_factor, strength_factor)
    return mats


def spy_on_build_system(monkeypatch):
    """Record every system ``run_uniaxial_test`` builds."""
    built, original = [], mechanics.build_system

    def build(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(mechanics, "build_system", build)
    return built


def test_platens_seat_force_free_after_the_unconfined_settle(medium_saturated):
    # the settle and seating of run_uniaxial_test: held platens that touch
    # the relaxed extremes measure no stress and no strain
    system = build_system(medium_saturated)
    system.equilibrate()
    system.set_platens()
    for _ in range(5):
        system.run(20)
        assert abs(system.platen_stress()) < 1e-6
        assert system.platen_strain() == 0.0


def test_uniaxial_curve_single_peak_then_softening(medium_saturated):
    curve = run_uniaxial_test(medium_saturated, 2.0, 0.03,
                              scaled_materials(0.10))
    peak_idx = int(np.argmax(curve.stress))
    peak = curve.stress[peak_idx]
    assert 0 < peak_idx < len(curve) - 1
    # linear rise toward the peak, then a softening tail; the driver stops
    # once post-peak stress falls below 60% of the peak
    assert curve.stress[-1] < 0.9 * peak
    assert curve.strain[-1] < 0.03
    report = extract_mechanical_params(curve)
    assert report.peak_strain < 0.03


def test_uniaxial_loading_is_quasi_static(medium_saturated, monkeypatch):
    # kinetic energy stays far below accumulated strain energy at the
    # default platen velocity (the quasi-static contract of the driver)
    built = spy_on_build_system(monkeypatch)
    curve = run_uniaxial_test(medium_saturated, 2.0, 0.008,
                              scaled_materials(0.25))
    (system,) = built
    kinetic = system.kinetic_energy() / system.mass_scale  # physical mJ
    volume = medium_saturated.domain.volume
    strain_energy = float(np.trapezoid(curve.stress, curve.strain)) * volume
    assert strain_energy > 0
    assert kinetic / strain_energy < 1e-3


def test_uniaxial_determinism(medium_saturated):
    # run_uniaxial_test only reads its assembly, so both runs share one and
    # its arrays come back bit-identical
    asm = medium_saturated
    before = [a.copy() for a in (asm.centers, asm.radii, asm.phases,
                                 asm.densities)]
    c1 = run_uniaxial_test(asm, 2.0, 0.006, scaled_materials())
    c2 = run_uniaxial_test(asm, 2.0, 0.006, scaled_materials())
    assert np.array_equal(c1.stress, c2.stress)
    assert np.array_equal(c1.strain, c2.strain)
    for old, new in zip(before, (asm.centers, asm.radii, asm.phases,
                                 asm.densities)):
        assert old.dtype == new.dtype and old.tobytes() == new.tobytes()


def nan_pair():
    """A preloaded pair, out of equilibrium so equilibrate steps, whose NaN
    velocity turns the positions and then the ratio into NaN.  The densities
    differ, so the relaxation raises the lighter sphere's mass."""
    pair = replace(pair_assembly(), densities=np.array([2600.0, 960.0]))
    system = ParticleSystem(pair, {ContactKind.ROCK_ROCK: ROCK_MAT})
    system.pos[1, 2] -= 1e-4
    system.vel[1, 0] = np.nan
    return system


def test_equilibrate_raises_on_a_nan_ratio():
    with pytest.raises(StabilityError, match="ratio is nan"):
        nan_pair().equilibrate()


def test_equilibrate_raises_at_its_step_cap(medium_saturated):
    # a fresh 313-particle system takes 100 steps to settle
    system = build_system(medium_saturated)
    with pytest.raises(ConvergenceError,
                       match=r"ratio of \S+ after 50 steps; the tolerance is 0\.0001"):
        system.equilibrate(max_steps=50)


def test_equilibrate_stops_at_a_cap_between_two_ratio_checks(medium_saturated):
    # the ratio is checked every EQUILIBRIUM_CHECK_INTERVAL steps, but the
    # last block is cut short so the run takes no step past its cap
    assert 95 % EQUILIBRIUM_CHECK_INTERVAL
    system = build_system(medium_saturated)
    with pytest.raises(ConvergenceError, match=r"after 95 steps;"):
        system.equilibrate(max_steps=95)
    assert system.step_count == 95


def test_equilibrate_settles_the_same_whatever_the_densities(small_saturated):
    # the relaxation steps under stiffness-proportional masses, so a step
    # moves each particle by RELAX_DT_SAFETY**2 * F / k whatever its density
    asm = small_saturated
    heavy_water = replace(asm, densities=asm.densities
                          * np.where(asm.phases == Phase.WATER, 2.0, 0.7))
    shipped, scaled = build_system(asm), build_system(heavy_water)
    # the phases scale apart, so no one factor relates the two systems
    assert not np.allclose(scaled.mass / shipped.mass, scaled.mass[0] / shipped.mass[0])
    shipped.equilibrate()
    scaled.equilibrate()
    assert scaled.step_count == shipped.step_count > 0
    assert np.abs(scaled.pos - shipped.pos).max() <= 1e-12


def _mass_state(system):
    return system.mass.tobytes(), system.inv_mass.tobytes(), system.dt


@pytest.mark.parametrize("make, max_steps, error", [
    (lambda asm: build_system(asm), 60_000, None),
    (lambda asm: build_system(asm), 5, ConvergenceError),
    (lambda asm: nan_pair(), 60_000, StabilityError),
], ids=["return", "cap", "nan"])
def test_equilibrate_restores_masses_and_step(small_saturated, make,
                                              max_steps, error):
    system = make(small_saturated)
    before = (system.mass.tobytes(), system.inv_mass.tobytes(), system.dt)
    if error is None:
        system.equilibrate(max_steps=max_steps)
        assert system.step_count > 0
    else:
        with pytest.raises(error):
            system.equilibrate(max_steps=max_steps)
    assert (system.mass.tobytes(), system.inv_mass.tobytes(), system.dt) == before


@pytest.mark.parametrize("contact_modulus", [900.0, ROCK_MAT.contact_modulus])
def test_equilibrate_leaves_the_lesser_step_after_a_break(contact_modulus):
    # a break inside the relaxation shortens the stable step at the true
    # masses (a stiff contact spring) or lengthens it (the shipped one); the
    # step left is the lesser of the one before the call and the new bound
    system = held_pair(replace(ROCK_MAT, contact_modulus=contact_modulus))
    prior = system.dt
    system.pos[1, 2] += 0.1
    system.equilibrate(max_steps=200)
    assert not system.b_intact.any()
    assert system.stable_dt() != prior
    assert system.dt == min(prior, system.stable_dt())


# ---------------------------------------------------------------------------
# equilibrate against the Cundall-damped relaxation it replaced

def _equilibrate_oracle(system, tol=EQUILIBRIUM_RATIO, max_steps=60_000):
    """The former ``ParticleSystem.equilibrate``: locally damped steps,
    velocities zeroed every 1000 steps, the ratio checked every 100."""
    dt = system.stable_dt()
    ratio = system.unbalanced_ratio()
    steps = 0
    while ratio > tol and steps < max_steps:
        for _ in range(100):
            system.step(min(dt, system.stable_dt()))
        steps += 100
        if steps % 1000 == 0:
            system.vel[:] = 0.0
        ratio = system.unbalanced_ratio()
    assert ratio <= tol
    system.vel[:] = 0.0
    return ratio


@pytest.mark.parametrize("packing", ["small_saturated", "medium_saturated",
                                     "medium_seed6"])
def test_equilibrate_settles_where_the_damped_oracle_does(request, packing):
    assembly = (generate_packing(desk_config(radius=8.0, height=16.0, seed=6))
                if packing == "medium_seed6" else request.getfixturevalue(packing))
    oracle = build_system(assembly)
    _equilibrate_oracle(oracle)
    fire = build_system(assembly)
    assert fire.equilibrate() <= EQUILIBRIUM_RATIO
    assert np.array_equal(fire.b_intact, oracle.b_intact)
    # radii are at least 0.8 mm
    assert np.abs(fire.pos - oracle.pos).max() <= 5e-5
    assert 0 < fire.step_count <= oracle.step_count / 2


def test_uniaxial_test_raises_at_the_loading_step_cap(monkeypatch):
    monkeypatch.setattr(mechanics, "LOADING_STEP_CAP", 10)
    with pytest.raises(ConvergenceError,
                       match=r"strain of \S+ after 10 steps; the target is 0\.01"):
        run_uniaxial_test(pair_assembly(), 2.0, 0.01)


def nan_velocity(system):
    system.vel[0] = np.nan


def nan_position_past_the_skin(system):
    # particle 1's move alone would call for a rebuild of the pair table
    system.pos[0, 0] = np.nan
    system.pos[1, 0] += system.skin


@pytest.mark.parametrize("target, when, corrupt, what", [
    # early: the next curve sample sees the NaN platen stress
    (0.015, lambda s, n: n == 20, nan_velocity, "platen stress"),
    # a move that is not finite calls for no rebuild, so the NaN x position
    # never reaches the k-d tree: it spreads through the pair forces to the
    # platen stress
    (0.015, lambda s, n: n == 499, nan_position_past_the_skin, "platen stress"),
    # late: the last sample, at the target strain, sees the NaN
    (0.004, lambda s, n: s.platen_strain() >= 0.0036, nan_velocity,
     "platen stress"),
], ids=["early", "nan_move", "late"])
def test_uniaxial_loading_raises_on_a_non_finite_state(
        small_saturated, monkeypatch, target, when, corrupt, what):
    corrupt_loading(monkeypatch, when, corrupt)
    with pytest.raises(StabilityError, match=rf"the {what} is nan at a strain of "):
        run_uniaxial_test(small_saturated, 2.0, target)


def test_negative_platen_velocity_rejected(medium_saturated, monkeypatch):
    # the velocity is checked before the unconfined settle takes a step; a
    # zero velocity would otherwise step to the loading step cap
    def step(self, dt):
        raise AssertionError("a velocity <= 0 must fail before any step")

    monkeypatch.setattr(ParticleSystem, "step", step)
    for velocity in (-1.0, 0.0):
        with pytest.raises(InvalidConfigError,
                           match="platen_velocity must be > 0"):
            run_uniaxial_test(medium_saturated, velocity, 0.01)


@pytest.mark.parametrize("velocity, target, message", [
    # a NaN velocity stepped 330 times, then raised StabilityError
    (math.nan, 0.01, "platen_velocity must be finite"),
    (math.inf, 0.01, "platen_velocity must be finite"),
    # a NaN target strain is never reached: the run went on to the step cap
    (2.0, math.nan, "target_strain must be finite"),
    (2.0, math.inf, "target_strain must be finite"),
    # a target at or below zero ended the run at its first curve sample
    (2.0, 0.0, r"target_strain must be >= 0\.0015"),
    (2.0, -0.01, r"target_strain must be >= 0\.0015"),
], ids=["nan_velocity", "inf_velocity", "nan_target", "inf_target",
        "zero_target", "negative_target"])
def test_bad_loading_input_rejected_before_any_step(
        small_saturated, monkeypatch, velocity, target, message):
    def step(self, dt):
        raise AssertionError("a bad input must fail before any step")

    monkeypatch.setattr(ParticleSystem, "step", step)
    with pytest.raises(InvalidConfigError, match=message):
        run_uniaxial_test(small_saturated, velocity, target)


def test_uniaxial_results_converge_in_the_time_step(small_saturated, monkeypatch):
    # the error of the explicit scheme is first order in the step: against a
    # quarter of the shipped safety factor the peak moved 0.06% and the
    # modulus 2.3% at most in the study that chose DT_SAFETY
    shipped = extract_mechanical_params(
        run_uniaxial_test(small_saturated, 2.0, 0.015))
    monkeypatch.setattr(mechanics, "DT_SAFETY", DT_SAFETY / 4)
    fine = extract_mechanical_params(
        run_uniaxial_test(small_saturated, 2.0, 0.015))
    assert shipped.peak_strength == pytest.approx(fine.peak_strength, rel=5e-3)
    assert shipped.elastic_modulus == pytest.approx(fine.elastic_modulus, rel=3e-2)


@pytest.mark.parametrize("fixture, velocity", [
    ("medium_saturated", 2.0),
    # the benchmark's platen velocity: here 0.6 keeps 595 samples
    ("small_saturated", 4.0),
])
def test_uniaxial_curve_keeps_every_sample(request, fixture, velocity):
    # a loading step that moves the platen further than the 2e-5 strain
    # sample interval would leave the curve short of its 751 samples
    curve = run_uniaxial_test(request.getfixturevalue(fixture), velocity, 0.015)
    assert len(curve) == 751


def test_loading_leaves_no_touching_pair_out_of_the_pair_table(small_saturated,
                                                               monkeypatch):
    # after every loading step, every touching pair has a row; past the
    # peak, particles move far in few steps, and a table rebuilt only every
    # 250 steps lets a pair touch with no row here from 4.81% strain
    original, strains = ParticleSystem.step, []

    def step(self, dt):
        original(self, dt)
        if self.walls is None:
            return
        ia, ib, _ = contact_arrays(self.snapshot(), 0.0)
        n = np.int64(self.n)
        missing = ~np.isin(ia * n + ib, self.ia * n + self.ib)
        assert not missing.any(), f"pairs {ia[missing]}, {ib[missing]} touch " \
            f"with no row at a strain of {self.platen_strain():.4%}"
        strains.append(self.platen_strain())

    monkeypatch.setattr(ParticleSystem, "step", step)
    run_uniaxial_test(small_saturated, 2.0, 0.05)
    assert max(strains) >= 0.05


# ---------------------------------------------------------------------------
# calibration

def test_calibration_fixed_point(medium_saturated):
    mats = scaled_materials(0.25)
    curve = run_uniaxial_test(medium_saturated, 2.0, 0.015, mats)
    report = extract_mechanical_params(curve)
    loading = LoadingConfig(2.0, 0.015, report.peak_strength,
                            report.elastic_modulus, calibration_budget=20)
    result = calibrate(loading, mats[ContactKind.ROCK_ROCK], medium_saturated)
    assert result.converged
    assert result.sim_runs == 1
    assert result.material == mats[ContactKind.ROCK_ROCK]
    # the one run is the reference run again, and the result keeps it
    assert np.array_equal(result.curve.strain, curve.strain)
    assert np.array_equal(result.curve.stress, curve.stress)


def test_calibration_doubled_strength_converges_quickly(medium_saturated):
    mats = scaled_materials(0.15)
    curve = run_uniaxial_test(medium_saturated, 2.0, 0.015, mats)
    base = extract_mechanical_params(curve)
    loading = LoadingConfig(2.0, 0.015, base.peak_strength * 2.0,
                            base.elastic_modulus, calibration_budget=20)
    seeded = mats[ContactKind.ROCK_ROCK].scaled(strength_factor=2.0)
    result = calibrate(loading, seeded, medium_saturated)
    assert result.converged
    assert result.sim_runs <= 4


def test_calibration_input_validation():
    with pytest.raises(InvalidConfigError, match="calibrate_peak must be > 0"):
        LoadingConfig(2.0, 0.01, -1.0, 4.0, calibration_budget=5)
    with pytest.raises(InvalidConfigError,
                       match="calibration_budget must be >= 1"):
        LoadingConfig(2.0, 0.01, 50.0, 4.0, calibration_budget=0)


def test_material_validation():
    with pytest.raises(InvalidConfigError):
        BondMaterial(-1.0, 9.0, 2.5, 40.0, 40.0, 45.0)
    with pytest.raises(InvalidConfigError):
        BondMaterial(9.0, 9.0, 2.5, 40.0, 40.0, 95.0)


@pytest.mark.parametrize("field", [
    "contact_modulus", "bond_modulus", "bond_stiffness_ratio",
    "tensile_strength", "cohesion", "friction_angle"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_material_rejects_a_non_finite_value(field, value):
    # a NaN strength or modulus passed the <= and < checks and constructed
    with pytest.raises(InvalidConfigError, match=rf"{field} must be finite"):
        replace(ROCK_MAT, **{field: value})


def test_one_bond_failure_load_monotone_in_tensile_strength():
    area = bond_area(1.0)
    loads = []
    for strength in (10.0, 20.0, 40.0, 80.0):
        mat = ROCK_MAT.scaled(strength_factor=strength / ROCK_MAT.tensile_strength)
        # smallest tensile force that breaks the bond is strength * area
        assert bond_outcome(mat, -(strength - 1e-6)) == "intact"
        assert bond_outcome(mat, -(strength + 1e-6)) == "tensile"
        loads.append(strength * area)
    assert loads == sorted(loads)


def test_crack_log_unique_and_time_ordered_under_compression(medium_saturated,
                                                            monkeypatch):
    built = spy_on_build_system(monkeypatch)
    run_uniaxial_test(medium_saturated, 2.0, 0.015, scaled_materials(0.15))
    (system,) = built
    assert len(system.crack_events) > 0
    broken = int(np.count_nonzero(~system.b_intact))
    assert len(system.crack_events) == broken
    times = [c.time for c in system.crack_events]
    assert times == sorted(times)
    assert all(c.mode in ("tensile", "shear") for c in system.crack_events)
