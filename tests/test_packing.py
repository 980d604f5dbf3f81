import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostdem import packing
from frostdem.errors import (InvalidConfigError, PackingInfeasibleError,
                             StabilityError, UndefinedStatisticError)
from frostdem.mechanics import SATURATED_MATERIALS, build_system
from frostdem.packing import (ContactKind, CylinderDomain, PackingConfig,
                              ParticleAssembly, Phase, compute_particle_counts,
                              compute_resolution, contact_arrays,
                              generate_packing, porosity_from_counts)

from conftest import desk_config


# ---------------------------------------------------------------------------
# compute_resolution

def test_resolution_reference_value_is_exact():
    res = compute_resolution(25, 1.2, 1.0)
    assert res.value == 125.0
    assert res.exact == Fraction(125)
    assert res.passes


def test_resolution_water_range():
    res = compute_resolution(25, 0.95, 0.8)
    assert res.exact == Fraction(25) / Fraction("0.15")
    assert abs(res.value - 166.6667) < 1e-3
    assert res.passes


def test_resolution_threshold_is_strict():
    res = compute_resolution(1.0, 1.2, 1.0)
    assert res.exact == Fraction(5)
    assert not res.passes


def test_resolution_fraction_input_stays_exact():
    assert packing._to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert compute_resolution(Fraction(1, 3), 1.2, 1.0).exact == Fraction(5, 3)


def test_resolution_degenerate_range():
    with pytest.raises(InvalidConfigError):
        compute_resolution(25, 1.0, 1.0)


# ---------------------------------------------------------------------------
# compute_particle_counts

def test_counts_zero_porosity_has_no_water():
    n_w, n_r = compute_particle_counts(desk_config(porosity=0.0))
    assert n_w == 0
    assert n_r > 0


def test_counts_symmetric_budget_splits_evenly():
    # equal mean single volumes and porosity 0.5 over a 100-particle budget
    r = 1.0
    v_single = 4.0 / 3.0 * math.pi * r ** 3
    solid_fraction = 0.5
    cyl_r = 5.0
    height = 100 * v_single / (solid_fraction * math.pi * cyl_r ** 2)
    cfg = PackingConfig(target_porosity=0.5,
                        rock_radius_min=0.9, rock_radius_max=1.1,
                        water_radius_min=0.9, water_radius_max=1.1,
                        cylinder_radius=cyl_r, cylinder_height=height,
                        solid_fraction=solid_fraction)
    assert compute_particle_counts(cfg) == (50, 50)


def test_counts_reference_configuration_closes_porosity_budget():
    # reference geometry: porosity 8.59%, 25 mm radius, 50 mm height; counts
    # must close the porosity definition over particle volumes within rounding
    cfg = PackingConfig(target_porosity=0.0859,
                        rock_radius_min=1.0, rock_radius_max=1.2,
                        water_radius_min=0.8, water_radius_max=0.95,
                        cylinder_radius=25.0, cylinder_height=50.0,
                        solid_fraction=0.60)
    n_w, n_r = compute_particle_counts(cfg)
    assert n_w > 0 and n_r > 0
    assert abs(porosity_from_counts(cfg, n_w, n_r) - 0.0859) < 0.01
    # volume budget check: total particle volume fits the configured fraction
    v_total = (n_w * 4 / 3 * math.pi * cfg.mean_water_radius ** 3
               + n_r * 4 / 3 * math.pi * cfg.mean_rock_radius ** 3)
    assert v_total <= CylinderDomain(cfg.cylinder_radius, cfg.cylinder_height).volume


def test_counts_invalid_porosity():
    with pytest.raises(InvalidConfigError):
        compute_particle_counts(desk_config(porosity=1.0))


def test_porosity_of_no_particles_is_undefined():
    with pytest.raises(UndefinedStatisticError, match="zero particles"):
        porosity_from_counts(desk_config(), 0, 0)


@settings(deadline=None, max_examples=40)
@given(porosity=st.floats(0.01, 0.5), seed=st.integers(0, 10_000))
def test_counts_close_porosity_definition(porosity, seed):
    cfg = desk_config(porosity=porosity, radius=20.0, height=40.0, seed=seed)
    n_w, n_r = compute_particle_counts(cfg)
    if n_w == 0 or n_r == 0:
        return
    achieved = porosity_from_counts(cfg, n_w, n_r)
    assert abs(achieved - porosity) < 0.01


# ---------------------------------------------------------------------------
# generate_packing

def test_generate_zero_particthan_empty():
    cfg = PackingConfig(target_porosity=0.0,
                        rock_radius_min=1.0, rock_radius_max=1.2,
                        water_radius_min=0.8, water_radius_max=0.95,
                        cylinder_radius=3.0, cylinder_height=6.0,
                        solid_fraction=0.01)
    asm = generate_packing(cfg)
    assert asm.n_particles == 0


def test_generate_is_deterministic(small_saturated):
    again = generate_packing(desk_config())
    assert np.array_equal(small_saturated.centers, again.centers)
    assert np.array_equal(small_saturated.radii, again.radii)
    assert np.array_equal(small_saturated.phases, again.phases)


def test_generate_respects_geometry(small_saturated):
    asm = small_saturated
    assert bool(asm.domain.contains(asm.centers, asm.radii).all())
    rock = asm.phases == Phase.ROCK
    assert np.all(asm.radii[rock] >= 1.0) and np.all(asm.radii[rock] <= 1.2)
    water = ~rock
    assert np.all(asm.radii[water] >= 0.8) and np.all(asm.radii[water] <= 0.95)
    # particle counts match the generation budget
    n_w, n_r = compute_particle_counts(desk_config())
    assert (asm.n_water, asm.n_rock) == (n_w, n_r)


def _max_pair_overlap(asm):
    d = np.linalg.norm(asm.centers[:, None, :] - asm.centers[None, :, :], axis=2)
    overlap = asm.radii[:, None] + asm.radii[None, :] - d
    np.fill_diagonal(overlap, -np.inf)
    return float(overlap.max())


def test_generate_overlap_bound(small_saturated):
    asm = small_saturated
    assert _max_pair_overlap(asm) <= 1e-3 * asm.radii.min() + 1e-12


def test_generate_porosity_near_target(small_saturated):
    assert abs(small_saturated.analytic_porosity() - 0.0859) < 0.01


def test_generate_porosity_near_target_mid_scale():
    # a few hundred rock plus tens of water particles
    cfg = desk_config(porosity=0.12, radius=8.0, height=26.0, seed=3)
    asm = generate_packing(cfg)
    assert asm.n_rock > 400 and asm.n_water > 50
    assert abs(asm.analytic_porosity() - 0.12) < 0.01


def test_generate_infeasible_fraction_names_parameter(monkeypatch):
    monkeypatch.setattr(packing, "POLISH_SWEEPS", 300)
    cfg = desk_config(solid_fraction=0.62)
    with pytest.raises(PackingInfeasibleError, match="solid_fraction"):
        generate_packing(cfg)


def test_generate_raises_on_a_polish_that_leaves_a_nan(monkeypatch):
    # a NaN residual passes no `residual > bound` check: the polish must not
    # hand back a packing with a NaN centre
    relax = packing._relax_overlaps

    def nan_polish(centers, radii, domain, max_overlap, max_sweeps, *args, **kw):
        centers, residual = relax(centers, radii, domain, max_overlap,
                                  max_sweeps, *args, **kw)
        if max_sweeps == packing.POLISH_SWEEPS:
            centers = centers.copy()
            centers[3, 1] = np.nan
            residual = float("nan")
        return centers, residual

    monkeypatch.setattr(packing, "_relax_overlaps", nan_polish)
    with pytest.raises(StabilityError, match="non-finite state.*1 non-finite centres"):
        generate_packing(desk_config(seed=1))


@pytest.mark.parametrize("seed, under_relax", [
    (0, [0.8, 0.85, 0.85]),   # the first two polishes stall at the cap
    (6, [0.8, 0.85]),
])
def test_generate_recovers_from_a_jammed_polish(monkeypatch, seed, under_relax):
    # a polish that stalls above the overlap bound is followed by a recovery:
    # back off, regrow and polish again, until one meets the bound
    relax = packing._relax_overlaps
    polishes = []

    def spied(centers, radii, domain, max_overlap, max_sweeps, *args, **kw):
        centers, residual = relax(centers, radii, domain, max_overlap,
                                  max_sweeps, *args, **kw)
        if max_sweeps == packing.POLISH_SWEEPS:
            polishes.append((kw["under_relax"], residual <= max_overlap))
        return centers, residual

    monkeypatch.setattr(packing, "_relax_overlaps", spied)
    asm = generate_packing(desk_config(seed=seed))
    assert [u for u, _ in polishes] == under_relax
    met = [met for _, met in polishes]
    assert met == [False] * (len(under_relax) - 1) + [True]
    assert _max_pair_overlap(asm) <= 1e-3 * asm.radii.min() + 1e-12


def test_generate_raises_on_a_growth_call_that_leaves_a_nan(monkeypatch):
    # the next growth call hands the NaN centre to the neighbour search,
    # which must raise a named error, not the k-d tree's ValueError
    relax = packing._relax_overlaps
    calls = []

    def nan_first_call(centers, *args, **kw):
        centers, residual = relax(centers, *args, **kw)
        calls.append(centers)
        if len(calls) == 1:
            centers = centers.copy()
            centers[3, 1] = np.nan
        return centers, residual

    monkeypatch.setattr(packing, "_relax_overlaps", nan_first_call)
    with pytest.raises(StabilityError, match="not finite at the neighbour search"):
        generate_packing(desk_config(seed=1))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# contact_arrays

def _two_sphere_assembly(distance):
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + distance]])
    return ParticleAssembly(centers, np.array([1.0, 1.0]),
                            np.array([0, 1], dtype=np.int8),
                            np.array([2600.0, 960.0]),
                            CylinderDomain(10.0, 10.0))


def test_touching_spheres_contact():
    asm = _two_sphere_assembly(2.0)
    ia, ib, gap = contact_arrays(asm, 0.0)
    assert (ia.tolist(), ib.tolist()) == ([0], [1])
    assert abs(gap[0]) < 1e-12
    # the bond installed on that contact is a rock-water bond
    assert build_system(asm, SATURATED_MATERIALS).b_kind.tolist() \
        == [ContactKind.ROCK_WATER]


def test_separated_spheres_no_contact():
    ia, ib, gap = contact_arrays(_two_sphere_assembly(2.5), 0.0)
    assert len(ia) == len(ib) == len(gap) == 0


def test_negative_tolerance_rejected(small_saturated):
    with pytest.raises(InvalidConfigError):
        contact_arrays(small_saturated, -0.1)


@functools.cache
def _desk_packing(seed):
    return generate_packing(desk_config(seed=seed))


# reach in units of the minimum radius: touching contacts, bond
# installation, freeze skin, packing relaxation skin
@pytest.mark.parametrize("reach", [0.0, 0.05, 0.25, 0.3])
@pytest.mark.parametrize("seed", [0, 3, 9])
def test_contacts_match_brute_force(seed, reach):
    asm = _desk_packing(seed)
    tol = reach * float(asm.radii.min())
    ia, ib, gap = contact_arrays(asm, tol)
    found = set(zip(ia.tolist(), ib.tolist()))
    assert len(found) == len(ia)
    assert np.all(ia < ib)
    assert np.all(np.diff(ia * asm.n_particles + ib) > 0)  # lexicographic
    expected = set()
    n = asm.n_particles
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(asm.centers[i] - asm.centers[j])
            if d <= asm.radii[i] + asm.radii[j] + tol:
                expected.add((i, j))
    assert found == expected
    d = np.linalg.norm(asm.centers[ia] - asm.centers[ib], axis=1)
    assert np.allclose(gap, d - asm.radii[ia] - asm.radii[ib], rtol=0, atol=1e-12)


def test_contact_kinds_follow_phases(small_saturated):
    system = build_system(small_saturated)
    pa = small_saturated.phases[system.b_ia]
    pb = small_saturated.phases[system.b_ib]
    assert system.b_kind.tolist() == [ContactKind(int(a) + int(b))
                                      for a, b in zip(pa, pb)]
    assert set(system.b_kind.tolist()) >= {ContactKind.ROCK_ROCK,
                                           ContactKind.ROCK_WATER}


@pytest.mark.parametrize("packing", ["small_saturated", "small_dry"])
def test_bonds_are_the_pairs_within_the_conduction_reach(packing, request):
    # the freeze driver conducts heat over the bond rows; they must be the
    # pairs within 5% of the minimum radius, the conduction graph's reach
    asm = request.getfixturevalue(packing)
    system = build_system(asm)
    ia, ib, _ = contact_arrays(asm, 0.05 * asm.radii.min())
    assert len(ia) > 0
    np.testing.assert_array_equal(system.b_ia, ia)
    np.testing.assert_array_equal(system.b_ib, ib)


# ---------------------------------------------------------------------------
# _relax_overlaps

@pytest.mark.parametrize("seed", range(40))
def test_desk_seeds_pack_inside_the_overlap_bound(seed):
    # the benchmark's 6 mm x 12 mm cylinder
    cfg = desk_config(radius=6.0, height=12.0, seed=seed)
    asm = generate_packing(cfg)
    assert asm.n_particles == 132
    assert bool(asm.domain.contains(asm.centers, asm.radii).all())
    assert _max_pair_overlap(asm) <= 1e-3 * asm.radii.min() + 1e-12
    again = generate_packing(cfg)
    assert np.array_equal(asm.centers, again.centers)
    assert np.array_equal(asm.radii, again.radii)
    assert np.array_equal(asm.phases, again.phases)


def test_desk_packings_take_at_most_half_the_plain_sweeps(monkeypatch):
    # the plain Jacobi sweep took 33,511 sweeps over these five packings;
    # heavy-ball momentum with restart must at least halve that
    sweeps = []
    relax, moved = packing._relax_overlaps, packing.SkinAnchor.moved_half_skin

    # every sweep but each call's first, which has no anchor yet, runs the
    # move test once
    def counted_relax(*args, **kwargs):
        sweeps.append(1)
        return relax(*args, **kwargs)

    def counted_move(self, centers):
        sweeps.append(1)
        return moved(self, centers)

    monkeypatch.setattr(packing, "_relax_overlaps", counted_relax)
    monkeypatch.setattr(packing.SkinAnchor, "moved_half_skin", counted_move)
    for seed in range(5):
        generate_packing(desk_config(radius=6.0, height=12.0, seed=seed))
    assert len(sweeps) <= 33_511 // 2


def test_skin_anchor_calls_for_a_rebuild_once_a_particle_moves_half_a_skin():
    # two spheres 1.2 skins apart, not yet a pair, each move 0.45 skin along
    # every axis toward the other: no coordinate moves half a skin, but each
    # sphere moves 0.78 skin and together they close 1.56 skins and overlap
    skin, axis = 0.3, np.full(3, 1.0) / math.sqrt(3.0)
    radii = np.ones(2)
    centers = np.array([np.zeros(3), (2.0 + 1.2 * skin) * axis])
    assert [a.tolist() for a in packing._near_pairs(centers, radii, skin)[:2]] \
        == [[], []]
    # the anchor takes component-major (3, n) centers
    anchor = packing.SkinAnchor(centers.T, skin)
    assert not anchor.moved_half_skin(centers.T)
    moved = centers + np.array([[1.0], [-1.0]]) * 0.45 * skin
    assert np.abs(moved - centers).max() <= 0.5 * skin
    assert np.linalg.norm(moved[1] - moved[0]) < 2.0
    assert anchor.moved_half_skin(moved.T)
    # a move that is not finite calls for no rebuild
    moved[0, 0] = np.nan
    assert not anchor.moved_half_skin(moved.T)


def _relax_overlaps_oracle(centers, radii, domain, max_overlap, max_sweeps,
                           under_relax=0.7, rng=None):
    """The relaxation sweep with its pair cache inline: boolean gathers of
    the pushed rows, one ``np.bincount`` per axis and pair end, and the
    heavy-ball term kept as the previous sweep's starting centers."""
    n = len(radii)
    if n < 2:
        return centers, 0.0
    skin = 0.3 * float(radii.min())
    anchor = None
    prev = centers.copy()
    residual = last = 0.0
    best = np.inf
    since_best = 0
    for _ in range(max_sweeps):
        if anchor is None or np.max(np.sum((centers - anchor) ** 2, axis=1)) \
                > (0.5 * skin) ** 2:
            a, b, _ = packing._near_pairs(centers, radii, skin)
            anchor = centers.copy()
        if len(a) == 0:
            return centers, 0.0
        d = centers[b] - centers[a]
        dist = np.linalg.norm(d, axis=1)
        overlap = radii[a] + radii[b] - dist
        residual = float(overlap.max())
        if residual <= max_overlap:
            return centers, residual
        if residual < 0.98 * best:
            best = residual
            since_best = 0
        else:
            since_best += 1
        hit = overlap > 0.25 * max_overlap
        dist_h = np.maximum(dist[hit], 1e-12)
        push = (overlap[hit] / dist_h)[:, None] * d[hit] * (0.5 * under_relax)
        disp = np.zeros_like(centers)
        a_h, b_h = a[hit], b[hit]
        for axis in range(3):
            disp[:, axis] -= np.bincount(a_h, weights=push[:, axis], minlength=n)
            disp[:, axis] += np.bincount(b_h, weights=push[:, axis], minlength=n)
        # momentum only while the residual fell in the sweep before
        if residual < last:
            disp = disp + packing.RELAX_MOMENTUM * (centers - prev)
        last = residual
        prev = centers
        centers = centers + disp
        if rng is not None and since_best >= 120:
            jammed = np.zeros(n, dtype=bool)
            jammed[a_h] = True
            jammed[b_h] = True
            kick = rng.normal(scale=0.5 * residual, size=centers.shape)
            centers = centers + np.where(jammed[:, None], kick, 0.0)
            prev = centers.copy()
            since_best = 0
        rho = np.hypot(centers[:, 0], centers[:, 1])
        limit = domain.radius - radii
        out = rho > limit
        if np.any(out):
            scale = limit[out] / rho[out]
            centers[out, 0] *= scale
            centers[out, 1] *= scale
        centers[:, 2] = np.clip(centers[:, 2], radii, domain.height - radii)
    return centers, residual


def _random_spheres(seed, n, domain, spread):
    """``n`` spheres of radius 0.8-1.2 with centers uniform in a box of
    half-width ``spread * domain.radius`` over the domain's height."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.8, 1.2, n)
    half = spread * domain.radius
    centers = np.column_stack([rng.uniform(-half, half, n),
                               rng.uniform(-half, half, n),
                               rng.uniform(0.0, domain.height, n)])
    return centers, radii


def _relax_both(centers, radii, domain, max_overlap, max_sweeps, seed=None,
                under_relax=0.7):
    """Run the sweep and its oracle on copies of one input; return both
    results and the final rng states."""
    results, states = [], []
    for relax in (packing._relax_overlaps, _relax_overlaps_oracle):
        rng = None if seed is None else np.random.default_rng(seed)
        results.append(relax(centers.copy(), radii, domain, max_overlap,
                             max_sweeps, under_relax, rng))
        states.append(None if rng is None else rng.bit_generator.state)
    return results, states


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relax_kicks_a_jammed_packing_as_the_oracle_does(seed):
    # 40 spheres in a cylinder that holds about half of their volume stall,
    # so the seeded kick fires and draws from the rng
    domain = CylinderDomain(2.5, 5.0)
    centers, radii = _random_spheres(seed, 40, domain, 0.6)
    start = np.random.default_rng(seed + 100).bit_generator.state
    ((new, res_new), (old, res_old)), (state_new, state_old) = _relax_both(
        centers, radii, domain, 1e-3, 600, seed=seed + 100)
    assert np.array_equal(new, old)
    assert res_new == res_old > 1e-3
    assert state_new == state_old != start
    assert bool(domain.contains(new, radii).all())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relax_projects_into_the_wall_as_the_oracle_does(seed):
    # centers start up to twice the cylinder radius off the axis
    domain = CylinderDomain(6.0, 12.0)
    centers, radii = _random_spheres(seed, 60, domain, 2.0)
    rho = np.hypot(centers[:, 0], centers[:, 1])
    assert np.any(rho > domain.radius - radii)
    ((new, res_new), (old, res_old)), _ = _relax_both(
        centers, radii, domain, 1e-3, 20, under_relax=0.8)
    assert np.array_equal(new, old)
    assert res_new == res_old
    # at least one sweep ran, and each ends inside the domain
    assert not np.array_equal(new, centers)
    assert bool(domain.contains(new, radii).all())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relax_returns_early_as_the_oracle_does(seed):
    # 20 spheres in a roomy cylinder: the overlaps fall below the bound
    # long before the sweep cap, and no kick draws from the rng
    domain = CylinderDomain(8.0, 16.0)
    centers, radii = _random_spheres(seed, 20, domain, 0.5)
    start = np.random.default_rng(seed).bit_generator.state
    ((new, res_new), (old, res_old)), (state_new, state_old) = _relax_both(
        centers, radii, domain, 1e-3, 5000, seed=seed)
    assert np.array_equal(new, old)
    assert res_new == res_old <= 1e-3
    assert state_new == state_old == start
    # relaxed again, the result is already below the bound: it comes back
    # unchanged after one sweep's residual check
    again, residual_again = packing._relax_overlaps(
        new, radii, domain, 1e-3, 5000, rng=np.random.default_rng(seed))
    assert np.array_equal(again, new)
    assert residual_again == res_new


@pytest.mark.parametrize("seed", range(5))
def test_generate_packing_matches_the_oracle_sweep(seed, monkeypatch):
    lean = _desk_packing(seed)
    monkeypatch.setattr(packing, "_relax_overlaps", _relax_overlaps_oracle)
    oracle = generate_packing(desk_config(seed=seed))
    assert np.array_equal(lean.centers, oracle.centers)
    assert np.array_equal(lean.radii, oracle.radii)


def test_generate_packing_matches_the_oracle_sweep_at_313_particles(
        medium_saturated, monkeypatch):
    # the 8 mm x 16 mm cylinder: more pairs per particle off the wall
    monkeypatch.setattr(packing, "_relax_overlaps", _relax_overlaps_oracle)
    oracle = generate_packing(desk_config(radius=8.0, height=16.0))
    assert medium_saturated.n_particles == 313
    assert np.array_equal(medium_saturated.centers, oracle.centers)
    assert np.array_equal(medium_saturated.radii, oracle.radii)


def test_add_reduce_sums_a_three_wide_row_in_order_on_either_layout():
    # the sweep's distance reduces the (3, m) rows over axis 0 and must
    # round as np.linalg.norm on (m, 3) rows: (p0 + p1) + p2
    rng = np.random.default_rng(7)
    d = rng.normal(size=(1000, 3)) * np.exp(rng.normal(scale=4.0, size=(1000, 3)))
    p = d * d
    in_order = (p[:, 0] + p[:, 1]) + p[:, 2]
    assert not np.array_equal(in_order, (p[:, 0] + p[:, 2]) + p[:, 1])
    assert np.array_equal(np.add.reduce(p, axis=1), in_order)
    assert np.array_equal(np.add.reduce(p.T.copy(), axis=0), in_order)
    assert np.array_equal(np.linalg.norm(d, axis=1), np.sqrt(in_order))


# ---------------------------------------------------------------------------
# analytic_porosity

def test_porosity_all_rock_is_zero(small_dry):
    assert small_dry.analytic_porosity() == 0.0


def test_porosity_two_equal_particles_is_half():
    centers = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 6.0]])
    asm = ParticleAssembly(centers, np.array([1.0, 1.0]),
                           np.array([Phase.ROCK, Phase.WATER], dtype=np.int8),
                           np.array([2600.0, 960.0]), CylinderDomain(4.0, 8.0))
    assert asm.analytic_porosity() == 0.5


def test_porosity_empty_assembly_errors():
    asm = ParticleAssembly(np.zeros((0, 3)), np.zeros(0),
                           np.zeros(0, dtype=np.int8), np.zeros(0),
                           CylinderDomain(1.0, 1.0))
    with pytest.raises(UndefinedStatisticError):
        asm.analytic_porosity()


@pytest.mark.parametrize("field", [
    "target_porosity", "rock_radius_min", "rock_radius_max",
    "water_radius_min", "water_radius_max", "cylinder_radius",
    "cylinder_height", "rock_density", "water_density", "solid_fraction"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_a_non_finite_value(field, value):
    # a NaN radius constructed, then failed in compute_particle_counts with
    # a bare ValueError
    with pytest.raises(InvalidConfigError, match=rf"{field} must be finite"):
        PackingConfig(**{**vars(desk_config()), field: value})


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        desk_config(porosity=0.7)
    with pytest.raises(InvalidConfigError):
        PackingConfig(target_porosity=0.1, rock_radius_min=1.2,
                      rock_radius_max=1.0, water_radius_min=0.8,
                      water_radius_max=0.95, cylinder_radius=5.0,
                      cylinder_height=10.0)
