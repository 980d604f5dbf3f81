"""Two-phase cylindrical particle packing: generation and geometric queries.

The specimen is a cylinder filled with rigid spheres of two phases (rock
skeleton and pore water).  Phase counts follow the porosity definition over
particle volumes: porosity = V_water / (V_water + V_rock).  The domain itself
is filled to a configurable solid fraction, because spheres cannot fill
space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (InvalidConfigError, PackingInfeasibleError, StabilityError,
                     UndefinedStatisticError, require_finite)


class Phase(IntEnum):
    ROCK = 0
    WATER = 1


class ContactKind(IntEnum):
    ROCK_ROCK = 0
    ROCK_WATER = 1
    WATER_WATER = 2


@dataclass(frozen=True, kw_only=True)
class PackingConfig:
    """Geometry, phase split and size ranges for one specimen packing: the
    ``[packing]`` section, whose seed is ``[run] seed``.

    Lengths in mm, densities in kg/m^3.  ``target_porosity`` is the water
    share of total particle volume; ``solid_fraction`` is the share of the
    cylinder volume occupied by particles.
    """

    target_porosity: float
    rock_radius_min: float
    rock_radius_max: float
    water_radius_min: float = 0.8
    water_radius_max: float = 0.95
    cylinder_radius: float
    cylinder_height: float
    rock_density: float = 2600.0
    water_density: float = 960.0
    rng_seed: int = 0
    solid_fraction: float = 0.60

    def __post_init__(self):
        # the seed is an integer of any size, which math.isfinite cannot take
        require_finite(**{k: v for k, v in vars(self).items() if k != "rng_seed"})
        if not (0.0 <= self.target_porosity <= 0.5):
            raise InvalidConfigError(
                f"target_porosity must be in [0, 0.5], got {self.target_porosity}")
        if not (self.rock_radius_min < self.rock_radius_max):
            raise InvalidConfigError("rock radius range is degenerate")
        if self.target_porosity > 0 and not (self.water_radius_min < self.water_radius_max):
            raise InvalidConfigError("water radius range is degenerate")
        for name in ("rock_radius_min", "water_radius_min"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0")
        CylinderDomain(self.cylinder_radius, self.cylinder_height)
        if not (0.0 < self.solid_fraction < 0.64):
            raise InvalidConfigError(
                f"solid_fraction must be in (0, 0.64), got {self.solid_fraction}")
        if self.rock_density <= 0 or self.water_density <= 0:
            raise InvalidConfigError("densities must be > 0")

    @property
    def mean_rock_radius(self) -> float:
        return 0.5 * (self.rock_radius_min + self.rock_radius_max)

    @property
    def mean_water_radius(self) -> float:
        return 0.5 * (self.water_radius_min + self.water_radius_max)


@dataclass(frozen=True)
class CylinderDomain:
    """Axis-aligned cylinder, axis along z, base at z = 0."""

    radius: float
    height: float

    def __post_init__(self):
        # a packed and a loaded specimen's bounds alike; a NaN fails them too
        for key, value in (("cylinder_radius", self.radius),
                           ("cylinder_height", self.height)):
            if not value > 0:
                raise InvalidConfigError(f"{key} must be > 0")

    @property
    def volume(self) -> float:
        return math.pi * self.radius ** 2 * self.height

    def contains(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Boolean mask: sphere fully inside the cylinder."""
        rho = np.hypot(centers[:, 0], centers[:, 1])
        return (rho <= self.radius - radii + 1e-12) \
            & (centers[:, 2] >= radii - 1e-12) \
            & (centers[:, 2] <= self.height - radii + 1e-12)


@dataclass
class ParticleAssembly:
    """Particle packing: positions, radii, phases, densities and domain.

    Storage is struct-of-arrays.
    """

    centers: np.ndarray          # (N, 3) mm
    radii: np.ndarray            # (N,) mm
    phases: np.ndarray           # (N,) Phase values
    densities: np.ndarray        # (N,) kg/m^3
    domain: CylinderDomain

    @property
    def n_particles(self) -> int:
        return len(self.radii)

    @property
    def n_water(self) -> int:
        return int(np.count_nonzero(self.phases == Phase.WATER))

    @property
    def n_rock(self) -> int:
        return int(np.count_nonzero(self.phases == Phase.ROCK))

    def volumes(self) -> np.ndarray:
        """Per-particle volume in mm^3."""
        return (4.0 / 3.0) * np.pi * self.radii ** 3

    def masses(self) -> np.ndarray:
        """Per-particle mass in tonnes (mm-N-MPa-tonne unit system)."""
        return self.volumes() * self.densities * 1e-12

    def analytic_porosity(self) -> float:
        """Water share of total particle volume from exact sphere sums."""
        if self.n_particles == 0:
            raise UndefinedStatisticError("porosity undefined for empty assembly")
        vols = self.volumes()
        water = float(vols[self.phases == Phase.WATER].sum())
        total = float(vols.sum())
        return water / total


class ResolutionResult(NamedTuple):
    value: float
    exact: Fraction
    passes: bool


#: Resolution acceptance threshold (strict inequality).
RESOLUTION_THRESHOLD = 5.0


def _to_fraction(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    # Decimal-string route keeps humanly-entered values like 1.2 exact.
    return Fraction(str(float(x)))


def compute_resolution(model_radius, r_max, r_min) -> ResolutionResult:
    """Ratio of model radius to particle size range, checked against 5.

    Evaluated in exact rational arithmetic so decimal inputs give exact
    results; the pass flag uses a strict ``> 5`` comparison.
    """
    fr_max, fr_min = _to_fraction(r_max), _to_fraction(r_min)
    if fr_max <= fr_min:
        raise InvalidConfigError("particle radius range is degenerate (r_max <= r_min)")
    exact = _to_fraction(model_radius) / (fr_max - fr_min)
    return ResolutionResult(float(exact), exact, exact > RESOLUTION_THRESHOLD)


def compute_particle_counts(config: PackingConfig) -> tuple[int, int]:
    """Phase counts (n_water, n_rock) from the porosity volume budget.

    The solid volume budget is ``solid_fraction * cylinder volume``; the
    water phase receives ``target_porosity`` of it and the rock phase the
    rest.  Counts are the rounded ratios of phase volume to the mean
    single-particle volume of each size range.
    """
    domain = CylinderDomain(config.cylinder_radius, config.cylinder_height)
    v_solid = config.solid_fraction * domain.volume
    v_rock_single = (4.0 / 3.0) * math.pi * config.mean_rock_radius ** 3
    n_rock = int(round((1.0 - config.target_porosity) * v_solid / v_rock_single))
    if config.target_porosity == 0.0:
        n_water = 0
    else:
        v_water_single = (4.0 / 3.0) * math.pi * config.mean_water_radius ** 3
        n_water = int(round(config.target_porosity * v_solid / v_water_single))
    return n_water, n_rock


def porosity_from_counts(config: PackingConfig, n_water: int, n_rock: int) -> float:
    """Porosity implied by given counts and mean single-particle volumes."""
    v_w = n_water * (4.0 / 3.0) * math.pi * config.mean_water_radius ** 3
    v_r = n_rock * (4.0 / 3.0) * math.pi * config.mean_rock_radius ** 3
    if v_w + v_r == 0:
        raise UndefinedStatisticError("porosity undefined for zero particles")
    return v_w / (v_w + v_r)


# ---------------------------------------------------------------------------
# Neighbour search

def _near_pairs(centers: np.ndarray, radii: np.ndarray, reach: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, gap) for pairs with surface gap <= ``reach``, a < b.

    A k-d tree proposes every pair within ``2 * max(radii) + reach`` of each
    other; pairs are sorted lexicographically, which fixes the summation order
    of everything that scatters over them.  A centre that is not finite
    raises :class:`~frostdem.errors.StabilityError`.

    ``scipy.spatial`` is imported here, not at module level: the package
    also loads qhull, ``scipy.linalg`` and ``scipy.special``, about a third
    of a second and 34 MB that ``analyze`` and every import of frostdem
    would pay without ever building a tree.
    """
    from scipy.spatial import cKDTree
    if not np.isfinite(centers).all():
        raise StabilityError("a particle centre is not finite at the "
                             "neighbour search")
    pairs = cKDTree(centers).query_pairs(
        2.0 * float(radii.max(initial=0.0)) + reach, output_type="ndarray")
    a, b = pairs[:, 0], pairs[:, 1]
    d = centers[a] - centers[b]
    # np.linalg.norm's own expression for real rows, without its wrapper
    gap = np.sqrt(np.add.reduce(d * d, axis=1)) - radii[a] - radii[b]
    keep = gap <= reach
    a, b, gap = a[keep], b[keep], gap[keep]
    order = np.lexsort((b, a))
    return a[order], b[order], gap[order]


def contact_arrays(assembly: ParticleAssembly, tolerance: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ia, ib, gap) arrays for pairs with surface gap <= tolerance.

    Pairs are unique with ia < ib, sorted lexicographically; order is part of
    the determinism contract.
    """
    if tolerance < 0:
        raise InvalidConfigError("detection tolerance must be >= 0")
    return _near_pairs(assembly.centers, assembly.radii, tolerance)


# ---------------------------------------------------------------------------
# Packing generation

def _random_points_in_cylinder(rng: np.random.Generator, n: int,
                               radius: float, height: float,
                               margins: np.ndarray) -> np.ndarray:
    """Uniform sphere centers with per-sphere wall margin."""
    rho = (radius - margins) * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    z = margins + rng.random(n) * (height - 2.0 * margins)
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


class SkinAnchor:
    """The rebuild test of a pair list kept to ``skin`` (Verlet, Phys. Rev.
    159 (1967) 98), anchored at the ``(3, n)`` centres of the last rebuild:
    two particles that each move at most ``skin / 2`` close at most one
    skin, so until one moves further no pair outside the list can touch."""

    def __init__(self, centers: np.ndarray, skin: float):
        self.centers = centers.copy()
        self.limit = (0.5 * skin) ** 2
        # the test's buffers: it allocates nothing per call
        self._step = np.empty_like(centers)
        self._moved_sq = np.empty(centers.shape[1])

    def moved_half_skin(self, centers: np.ndarray) -> bool:
        """Whether a particle has moved further than ``skin / 2``; not when
        a move is NaN, so no NaN state reaches a neighbour search from here."""
        step = np.subtract(centers, self.centers, out=self._step)
        step *= step
        # the squared move in np.einsum's order for a 3-wide row
        moved_sq = np.add(step[0], step[2], out=self._moved_sq)
        moved_sq += step[1]
        return bool(moved_sq.max(initial=0.0) > self.limit)


#: Heavy-ball momentum of the overlap relaxation: the share of the last
#: sweep's displacement that each sweep repeats while the residual falls.
RELAX_MOMENTUM = 0.8


def _relax_overlaps(centers: np.ndarray, radii: np.ndarray,
                    domain: CylinderDomain, max_overlap: float,
                    max_sweeps: int, under_relax: float = 0.7,
                    rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, float]:
    """Jacobi pushes apart overlapping spheres, projecting into the domain.

    Each sweep adds heavy-ball momentum, ``RELAX_MOMENTUM`` times the last
    sweep's displacement, while the residual keeps falling; a sweep after
    one in which it did not fall runs without it (adaptive restart).  When
    progress stalls and an ``rng`` is supplied, a small seeded jitter
    shakes the packing out of jammed local arrangements and clears the
    momentum.  Returns relaxed centers and the residual maximum overlap
    after at most ``max_sweeps`` sweeps.
    """
    n = len(radii)
    # component-major: each axis is one contiguous row
    c = centers.T.copy()
    # the pairs within the skin of touching, kept until the anchor calls for
    # a rebuild.  No step count rests on this skin, unlike on the pair
    # table's (mechanics.CONTACT_SKIN, 0.1); at 0.1 the packings are the
    # same, but seeds 35-39 took 961 rebuilds, not 427, and 15-25% longer
    skin = 0.3 * float(radii.min())
    anchor = None
    axes = n * np.arange(3)[:, None]
    wall = domain.radius - radii
    top = domain.height - radii
    threshold = 0.25 * max_overlap
    gain = 0.5 * under_relax
    x, y, z = c
    flat = c.ravel()
    prev = c.copy()
    scale = np.empty(n)
    residual = last = 0.0
    best = np.inf
    since_best = 0
    for _ in range(max_sweeps):
        if anchor is None or anchor.moved_half_skin(c):
            a, b, _ = _near_pairs(c.T, radii, skin)
            radius_sum = radii.take(a) + radii.take(b)
            # the flat index axis * n + i of both ends, (2, 3, m), b ends
            # first: one take gathers both ends, and one np.bincount per end
            # scatters all three axes, each bin summing its pairs in order
            pair_ends = np.stack((b, a))[:, None, :] + axes
            flat_b, flat_a = pair_ends.reshape(2, -1)
            anchor = SkinAnchor(c, skin)
        if len(a) == 0:
            return c.T.copy(), 0.0
        ends = flat.take(pair_ends)
        d = ends[0]
        d -= ends[1]
        # np.linalg.norm's order for a 3-wide row, (p0 + p1) + p2
        dist = np.add.reduce(d * d, axis=0)
        np.sqrt(dist, out=dist)
        overlap = radius_sum - dist
        residual = float(overlap.max())
        if residual <= max_overlap:
            return c.T.copy(), residual
        if residual < 0.98 * best:
            best = residual
            since_best = 0
        else:
            since_best += 1
        # pairs at or below the push threshold get weight 0: adding a zero
        # leaves every scattered sum as the hit pairs alone would give it
        hit = overlap > threshold
        d *= np.where(hit, overlap / np.maximum(dist, 1e-12), 0.0)
        d *= gain
        push = d.ravel()
        step = (np.bincount(flat_b, weights=push, minlength=3 * n)
                - np.bincount(flat_a, weights=push, minlength=3 * n)
                ).reshape(3, n)
        if residual < last:
            step += RELAX_MOMENTUM * (c - prev)
        last = residual
        prev[:] = c
        c += step
        if rng is not None and since_best >= 120:
            # shake only the jammed neighborhoods, keep the rest in place;
            # the kick is drawn particle-major, as the centers were stored
            jammed = np.zeros(n, dtype=bool)
            jammed[a[hit]] = True
            jammed[b[hit]] = True
            kick = rng.normal(scale=0.5 * residual, size=(n, 3)).T
            c += np.where(jammed, kick, 0.0)
            prev[:] = c
            since_best = 0
        # project into the wall: a factor of 1.0 leaves a particle in place
        rho = np.hypot(x, y)
        scale.fill(1.0)
        np.divide(wall, rho, out=scale, where=rho > wall)
        c[:2] *= scale
        np.minimum(np.maximum(z, radii, out=z), top, out=z)
    return c.T.copy(), residual


#: Relaxation sweeps of each final polish of a packing.
POLISH_SWEEPS = 8000


def generate_packing(config: PackingConfig) -> ParticleAssembly:
    """Generate the two-phase packing for ``config``.

    Particles are seeded at half size at random positions, grown to full
    size with relaxation sweeps between growth steps, then polished until
    the residual pairwise overlap is at most 1e-3 of the smallest radius.
    Water particles are mixed uniformly at random among rock particles.
    Deterministic for a fixed ``config.rng_seed``.  A polish that leaves a
    residual or a centre that is not finite raises
    :class:`~frostdem.errors.StabilityError`.
    """
    n_water, n_rock = compute_particle_counts(config)
    n = n_water + n_rock
    domain = CylinderDomain(config.cylinder_radius, config.cylinder_height)
    rng = np.random.default_rng(config.rng_seed)

    phases = np.concatenate([
        np.full(n_rock, Phase.ROCK, dtype=np.int8),
        np.full(n_water, Phase.WATER, dtype=np.int8)])
    rng.shuffle(phases)

    radii = np.empty(n)
    rock_mask = phases == Phase.ROCK
    radii[rock_mask] = rng.uniform(config.rock_radius_min, config.rock_radius_max,
                                   int(rock_mask.sum()))
    water_mask = ~rock_mask
    if n_water:
        radii[water_mask] = rng.uniform(config.water_radius_min,
                                        config.water_radius_max,
                                        int(water_mask.sum()))

    if n == 0:
        return ParticleAssembly(np.zeros((0, 3)), radii, phases,
                                np.zeros(0), domain)

    max_r = float(radii.max())
    if 2.0 * max_r > min(config.cylinder_height, 2.0 * config.cylinder_radius):
        raise PackingInfeasibleError(
            "cylinder is too small for the largest particle radius")

    scale = 0.5
    centers = _random_points_in_cylinder(rng, n, domain.radius, domain.height,
                                         radii * scale)
    centers, _ = _relax_overlaps(centers, radii * scale, domain,
                                 1e-3 * float(radii.min()) * scale, 400)
    while scale < 1.0:
        scale = min(1.0, scale * (1.02 if scale < 0.9 else 1.004))
        r = radii * scale
        centers, _ = _relax_overlaps(centers, r, domain,
                                     4e-3 * float(r.min()), 600, rng=rng)
    max_overlap = 1e-3 * float(radii.min())
    # the first polish, then up to three recoveries from a jammed endgame
    for attempt in range(4):
        if attempt:
            # back off slightly and regrow through the last step
            for backoff in (0.985, 0.99, 0.995, 1.0):
                r = radii * backoff
                centers, _ = _relax_overlaps(centers, r, domain,
                                             2e-3 * float(r.min()), 800, rng=rng)
        centers, residual = _relax_overlaps(
            centers, radii, domain, max_overlap, POLISH_SWEEPS,
            under_relax=0.85 if attempt else 0.8, rng=rng)
        # a NaN passes no overlap bound
        bad = int(np.count_nonzero(~np.isfinite(centers).all(axis=1)))
        if bad or not math.isfinite(residual):
            raise StabilityError(
                f"the packing relaxation left a non-finite state: residual "
                f"{residual}, {bad} non-finite centres")
        if residual <= max_overlap:
            break
    else:
        raise PackingInfeasibleError(
            "could not relax overlaps below 1e-03 of the minimum radius "
            f"(residual {residual / float(radii.min()):.2%}); "
            f"solid_fraction={config.solid_fraction} is the limiting parameter")

    densities = np.where(rock_mask, config.rock_density, config.water_density)
    return ParticleAssembly(centers, radii, phases, densities, domain)

