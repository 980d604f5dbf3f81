"""Per-particle temperature evolution by inter-particle conduction.

Heat moves between contacting particles proportionally to contact area and
temperature difference over center distance, in explicit steps; the caller
holds the boundary particles at the boundary temperature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError
from .packing import ParticleAssembly, Phase


#: Linear thermal expansion coefficients, 1/degC.
ALPHA_ROCK = 0.052e-4
ALPHA_WATER = 1.769e-4
ALPHA_ICE = 2.079e-4


@dataclass(frozen=True)
class ThermalProperties:
    """Conductivity and heat capacity of one material."""

    conductivity: float          # W/(m K)
    heat_capacity: float         # J/(kg degC)

    def __post_init__(self):
        if self.conductivity <= 0 or self.heat_capacity <= 0:
            raise InvalidConfigError("conductivity and heat capacity must be > 0")


ROCK_PROPERTIES = ThermalProperties(7.7, 877.0)
WATER_FROZEN_PROPERTIES = ThermalProperties(2.2, 4215.0)
WATER_MELTED_PROPERTIES = ThermalProperties(0.6, 4215.0)


def expansion_coefficients(phases: np.ndarray,
                           temperatures: np.ndarray) -> np.ndarray:
    """Per-particle linear expansion coefficient at the current temperatures.

    Water above 0 degC is liquid; at or below 0 degC it is ice, so the
    freeze transition triggers exactly at the zero crossing.
    """
    alpha = np.full(len(phases), ALPHA_ROCK)
    water = phases == Phase.WATER
    alpha[water] = np.where(temperatures[water] > 0.0, ALPHA_WATER, ALPHA_ICE)
    return alpha


@dataclass
class TemperatureField:
    """Per-particle temperatures plus the boundary particle set."""

    temperatures: np.ndarray     # (N,) degC
    boundary_ids: np.ndarray     # particle indices pinned to the boundary value

    def copy(self) -> "TemperatureField":
        return TemperatureField(self.temperatures.copy(),
                                self.boundary_ids.copy())


class UniformityReport(NamedTuple):
    max_deviation: float
    passes: bool


#: Center-surface temperature deviation accepted as uniform, degC.
UNIFORMITY_LIMIT = 0.5

#: Safety factor on the explicit conduction step.
CONDUCTION_SAFETY = 0.25


class ConductionNetwork:
    """Precomputed contact-graph data for fast conduction stepping.

    Contact area is the circle of the smaller radius; the effective
    conductivity between unlike particles is the harmonic mean at the
    current phase states (water conductivity changes on freezing).  Every
    step is ``dt``, the stable step with all water frozen: frozen water
    conducts best and the harmonic mean rises with each side's
    conductivity, so no phase mix has a smaller limit.  A step takes its
    heat flux from conductances it keeps until a water particle crosses
    0 degC.
    """

    def __init__(self, assembly: ParticleAssembly,
                 contacts: tuple[np.ndarray, np.ndarray]):
        self.ia, self.ib = (np.asarray(contacts[0], dtype=np.int64),
                            np.asarray(contacts[1], dtype=np.int64))
        self.n = assembly.n_particles
        self.phases = assembly.phases
        r = assembly.radii
        # SI geometry: areas m^2, distances m
        self.area = np.pi * (np.minimum(r[self.ia], r[self.ib]) * 1e-3) ** 2
        d = np.linalg.norm(assembly.centers[self.ia] - assembly.centers[self.ib],
                           axis=1)
        self.dist = np.maximum(d, 1e-9) * 1e-3
        mass_kg = assembly.masses() * 1e3  # tonnes -> kg
        cap = np.where(assembly.phases == Phase.ROCK,
                       ROCK_PROPERTIES.heat_capacity,
                       WATER_FROZEN_PROPERTIES.heat_capacity)
        self.heat_mass = mass_kg * cap     # J/degC per particle
        self._water = assembly.phases == Phase.WATER
        # liquid-water mask the cached conductances belong to
        self._liquid: np.ndarray | None = None
        self._g = None
        self.dt = self.stable_dt(np.full(self.n, -1.0))   # s

    def conductances(self, temperatures: np.ndarray) -> np.ndarray:
        """Per-contact conductance W/degC at current phase states."""
        k = np.where(self.phases == Phase.ROCK, ROCK_PROPERTIES.conductivity,
                     np.where(temperatures > 0.0,
                              WATER_MELTED_PROPERTIES.conductivity,
                              WATER_FROZEN_PROPERTIES.conductivity))
        ka, kb = k[self.ia], k[self.ib]
        k_eff = 2.0 * ka * kb / (ka + kb)
        return k_eff * self.area / self.dist

    def stable_dt(self, temperatures: np.ndarray) -> float:
        """Largest explicit step honoring the maximum principle, with safety.

        Bound: dt <= safety * min over particles of heat_mass / sum of
        incident conductances.  This is at least as strict as the
        per-contact bound and guarantees temperatures stay inside the convex
        hull of current values.
        """
        g = self.conductances(temperatures)
        g_sum = np.bincount(self.ia, weights=g, minlength=self.n) \
            + np.bincount(self.ib, weights=g, minlength=self.n)
        active = g_sum > 0
        if not np.any(active):
            return np.inf
        return CONDUCTION_SAFETY * float(
            np.min(self.heat_mass[active] / g_sum[active]))

    def boundary_reachable(self, boundary_ids: np.ndarray) -> np.ndarray:
        """Mask of particles with a conductive path to a boundary particle."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        mask = np.zeros(self.n, dtype=bool)
        mask[boundary_ids] = True
        if len(self.ia) == 0:
            return mask
        ones = np.ones(len(self.ia))
        graph = coo_matrix((ones, (self.ia, self.ib)), shape=(self.n, self.n))
        _, labels = connected_components(graph, directed=False)
        touched = np.unique(labels[boundary_ids]) if len(boundary_ids) else []
        return mask | np.isin(labels, touched)

    def step(self, field: TemperatureField) -> None:
        """Advance the field in place by one explicit step of ``dt``."""
        t = field.temperatures
        if len(self.ia):
            liquid = self._water & (t > 0.0)
            if not np.array_equal(liquid, self._liquid):
                self._g = self.conductances(t)
                self._liquid = liquid
            flux = self._g * (t.take(self.ia) - t.take(self.ib))   # W, a -> b
            dq = flux * self.dt
            t -= np.bincount(self.ia, weights=dq, minlength=self.n) / self.heat_mass
            t += np.bincount(self.ib, weights=dq, minlength=self.n) / self.heat_mass

    def thermal_energy(self, field: TemperatureField) -> float:
        """Total stored heat sum(mass * C_v * T), J (relative to 0 degC)."""
        return float(np.dot(self.heat_mass, field.temperatures))


def uniformity_report(field: TemperatureField,
                      boundary_value: float | None = None) -> UniformityReport:
    """Max |interior - boundary| deviation against the 0.5 degC limit."""
    n = len(field.temperatures)
    boundary = np.zeros(n, dtype=bool)
    boundary[field.boundary_ids] = True
    if boundary_value is None:
        if not np.any(boundary):
            raise InvalidConfigError("field has no boundary particles")
        boundary_value = float(field.temperatures[field.boundary_ids].mean())
    interior = field.temperatures[~boundary]
    if len(interior) == 0:
        return UniformityReport(0.0, True)
    dev = float(np.max(np.abs(interior - boundary_value)))
    return UniformityReport(dev, dev < UNIFORMITY_LIMIT)


def surface_particle_ids(assembly: ParticleAssembly) -> np.ndarray:
    """Particles within one max-radius shell of any cylinder surface."""
    if assembly.n_particles == 0:
        return np.zeros(0, dtype=np.int64)
    shell = float(assembly.radii.max())
    c, r = assembly.centers, assembly.radii
    rho = np.hypot(c[:, 0], c[:, 1])
    near_side = rho + r >= assembly.domain.radius - shell
    near_ends = (c[:, 2] - r <= shell) | (c[:, 2] + r >= assembly.domain.height - shell)
    return np.flatnonzero(near_side | near_ends).astype(np.int64)
