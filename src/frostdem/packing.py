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
from scipy.spatial import cKDTree

from .errors import InvalidConfigError, PackingInfeasibleError, UndefinedStatisticError


class Phase(IntEnum):
    ROCK = 0
    WATER = 1


class ContactKind(IntEnum):
    ROCK_ROCK = 0
    ROCK_WATER = 1
    WATER_WATER = 2


@dataclass(frozen=True)
class PackingConfig:
    """Geometry, phase split and size ranges for one specimen packing.

    Lengths in mm, densities in kg/m^3.  ``target_porosity`` is the water
    share of total particle volume; ``solid_fraction`` is the share of the
    cylinder volume occupied by particles.
    """

    target_porosity: float
    rock_radius_min: float
    rock_radius_max: float
    water_radius_min: float
    water_radius_max: float
    cylinder_radius: float
    cylinder_height: float
    rock_density: float = 2600.0
    water_density: float = 960.0
    rng_seed: int = 0
    solid_fraction: float = 0.60

    def validate(self) -> None:
        if not (0.0 <= self.target_porosity <= 0.5):
            raise InvalidConfigError(
                f"target_porosity must be in [0, 0.5], got {self.target_porosity}")
        if not (self.rock_radius_min < self.rock_radius_max):
            raise InvalidConfigError("rock radius range is degenerate")
        if self.target_porosity > 0 and not (self.water_radius_min < self.water_radius_max):
            raise InvalidConfigError("water radius range is degenerate")
        for name in ("rock_radius_min", "water_radius_min",
                     "cylinder_radius", "cylinder_height"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0")
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

    @property
    def domain_volume(self) -> float:
        return math.pi * self.cylinder_radius ** 2 * self.cylinder_height


@dataclass(frozen=True)
class CylinderDomain:
    """Axis-aligned cylinder, axis along z, base at z = 0."""

    radius: float
    height: float

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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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
    config.validate()
    v_solid = config.solid_fraction * config.domain_volume
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
    of everything that scatters over them.
    """
    pairs = cKDTree(centers).query_pairs(2.0 * float(radii.max()) + reach,
                                         output_type="ndarray")
    a, b = pairs[:, 0], pairs[:, 1]
    gap = np.linalg.norm(centers[a] - centers[b], axis=1) - radii[a] - radii[b]
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
    if assembly.n_particles < 2:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0))
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


class _PairCache:
    """Candidate pair list with a displacement skin, rebuilt lazily.

    With the pairs it keeps their radius sums and the flat ``(particle,
    axis)`` indices ``3 * i + axis`` of both ends, so a sweep scatters all
    three axes with one ``np.bincount`` per end.
    """

    def __init__(self, radii: np.ndarray, skin: float):
        self.radii = radii
        self.skin = skin
        self._anchor: np.ndarray | None = None

    def pairs(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._anchor is not None:
            moved = np.abs(centers - self._anchor).max()
            if moved <= 0.5 * self.skin:
                return self.a, self.b
        self.a, self.b, _ = _near_pairs(centers, self.radii, self.skin)
        self.radius_sum = self.radii.take(self.a) + self.radii.take(self.b)
        axes = np.arange(3)
        self.flat_a = (3 * self.a[:, None] + axes).ravel()
        self.flat_b = (3 * self.b[:, None] + axes).ravel()
        self._anchor = centers.copy()
        return self.a, self.b


def _relax_overlaps(centers: np.ndarray, radii: np.ndarray,
                    domain: CylinderDomain, max_overlap: float,
                    max_sweeps: int, under_relax: float = 0.7,
                    rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, float]:
    """Jacobi pushes apart overlapping spheres, projecting into the domain.

    When progress stalls and an ``rng`` is supplied, a small seeded jitter
    shakes the packing out of jammed local arrangements.  Returns relaxed
    centers and the residual maximum overlap after at most ``max_sweeps``
    sweeps.
    """
    n = len(radii)
    if n < 2:
        return centers, 0.0
    centers = centers.copy()
    cache = _PairCache(radii, skin=0.3 * float(radii.min()))
    wall = domain.radius - radii
    top = domain.height - radii
    threshold = 0.25 * max_overlap
    gain = 0.5 * under_relax
    z = centers[:, 2]
    residual = 0.0
    best = np.inf
    since_best = 0
    for _ in range(max_sweeps):
        a, b = cache.pairs(centers)
        if len(a) == 0:
            return centers, 0.0
        d = centers.take(b, axis=0) - centers.take(a, axis=0)
        dist = np.linalg.norm(d, axis=1)
        overlap = cache.radius_sum - dist
        residual = float(overlap.max())
        if residual <= max_overlap:
            return centers, residual
        if residual < 0.98 * best:
            best = residual
            since_best = 0
        else:
            since_best += 1
        # rows at or below the push threshold get weight 0: adding a zero
        # leaves every scattered sum as the hit rows alone would give it
        hit = overlap > threshold
        d *= np.where(hit, overlap / np.maximum(dist, 1e-12), 0.0)[:, None]
        d *= gain
        push = d.ravel()
        centers += (np.bincount(cache.flat_b, weights=push, minlength=3 * n)
                    - np.bincount(cache.flat_a, weights=push, minlength=3 * n)
                    ).reshape(n, 3)
        if rng is not None and since_best >= 120:
            # shake only the jammed neighborhoods, keep the rest in place
            jammed = np.zeros(n, dtype=bool)
            jammed[a[hit]] = True
            jammed[b[hit]] = True
            kick = rng.normal(scale=0.5 * residual, size=centers.shape)
            centers += np.where(jammed[:, None], kick, 0.0)
            since_best = 0
        rho = np.hypot(centers[:, 0], centers[:, 1])
        out = rho > wall
        if out.any():
            scale = wall[out] / rho[out]
            centers[out, 0] *= scale
            centers[out, 1] *= scale
        np.minimum(np.maximum(z, radii, out=z), top, out=z)
    return centers, residual


#: Relaxation sweeps of each final polish of a packing.
POLISH_SWEEPS = 8000


def generate_packing(config: PackingConfig) -> ParticleAssembly:
    """Generate the two-phase packing for ``config``.

    Particles are seeded at half size at random positions, grown to full
    size with relaxation sweeps between growth steps, then polished until
    the residual pairwise overlap is at most 1e-3 of the smallest radius.
    Water particles are mixed uniformly at random among rock particles.
    Deterministic for a fixed ``config.rng_seed``.
    """
    config.validate()
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
    centers, residual = _relax_overlaps(centers, radii, domain, max_overlap,
                                        POLISH_SWEEPS, under_relax=0.8, rng=rng)
    recoveries = 0
    while residual > max_overlap and recoveries < 3:
        # jammed endgame: back off slightly and regrow through the last step
        recoveries += 1
        for backoff in (0.985, 0.99, 0.995, 1.0):
            r = radii * backoff
            centers, _ = _relax_overlaps(centers, r, domain,
                                         2e-3 * float(r.min()), 800, rng=rng)
        centers, residual = _relax_overlaps(centers, radii, domain, max_overlap,
                                            POLISH_SWEEPS, under_relax=0.85,
                                            rng=rng)
    if residual > max_overlap:
        raise PackingInfeasibleError(
            "could not relax overlaps below 1e-03 of the minimum radius "
            f"(residual {residual / float(radii.min()):.2%}); "
            f"solid_fraction={config.solid_fraction} is the limiting parameter")

    densities = np.where(rock_mask, config.rock_density, config.water_density)
    return ParticleAssembly(centers, radii, phases, densities, domain)

