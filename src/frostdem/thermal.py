"""Per-particle temperature evolution by inter-particle conduction.

Every thermal law reads one property table, with a row each for rock,
liquid water and ice; :func:`phase_states` picks each particle's row and is
the one freezing test.  Heat moves between contacting particles
proportionally to contact area and temperature difference over center
distance, in backward-Euler steps over the particles the caller does not
hold at the boundary temperature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError
from .packing import ParticleAssembly, Phase


#: Thermal property table, one row per state: rock and liquid water at their
#: ``Phase`` values, and ``ICE``, water at or below 0 degC.
ICE = 2
ALPHA = np.array([0.052e-4, 1.769e-4, 2.079e-4])   # linear expansion, 1/degC
CONDUCTIVITY = np.array([7.7, 0.6, 2.2])           # W/(m K)
HEAT_CAPACITY = np.array([877.0, 4215.0, 4215.0])  # J/(kg degC)


def phase_states(phases: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """Each particle's row of the thermal tables at the current temperatures.

    Water above 0 degC is liquid; at or below 0 degC it is ice, so the
    freeze transition triggers exactly at the zero crossing.
    """
    return np.where((phases == Phase.WATER) & (temperatures <= 0.0), ICE,
                    phases)


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

#: Conduction step as a multiple of ``ConductionNetwork.stable_dt``'s bound.
#: A backward-Euler step has no stability limit; the multiple sets how
#: finely a freeze follows the transient.  Chosen against the explicit step
#: it replaced (a quarter of the bound) on desk packings, seeds 1-5 at 132
#: particles and 1-2 at 1,056, with the shipped freeze settings: at 2.5, 7.5
#: and 25 times the bound (10, 30 and 100 explicit steps) every stage's
#: largest contact force stays within 0.15%, 0.22% and 0.43% of the explicit
#: run's, and every contact pair count is equal.  25 is the largest of the
#: three; the first 20 -> 18 degC substep of the 76-particle fixture still
#: takes 3 steps.  With ``freeze_volume_jump = 0.09`` and every substep
#: relaxed to ``frostheave.STAGE_RELAX_TOL``, the crack counts of seeds 1-5
#: at 132 particles are the same at 2.5, 7.5 and 25 (22/28/1/41/15).
CONDUCTION_STEP_MULTIPLE = 25.0


class ConductionNetwork:
    """Precomputed contact-graph data for fast conduction stepping.

    Contact area is the circle of the smaller radius; the effective
    conductivity between unlike particles is the harmonic mean at the
    current phase states (water conductivity changes on freezing).  Every
    step is one backward-Euler step of ``dt``, a fixed multiple of the
    explicit bound with all water frozen, the smallest bound of any phase
    mix: frozen water conducts best and the harmonic mean rises with each
    side's conductivity.  A step solves with the conductances at the phase
    states it starts from; their matrix is factored once and reused until a
    water particle crosses 0 degC or the held set changes.
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
        self.heat_mass = mass_kg * HEAT_CAPACITY[assembly.phases]  # J/degC
        # phase states and held set the factored step belongs to
        self._states: np.ndarray | None = None
        self._held: np.ndarray | None = None
        self.dt = CONDUCTION_STEP_MULTIPLE * self.stable_dt()   # s

    def conductances(self, temperatures: np.ndarray) -> np.ndarray:
        """Per-contact conductance W/degC at current phase states."""
        k = CONDUCTIVITY[phase_states(self.phases, temperatures)]
        ka, kb = k[self.ia], k[self.ib]
        k_eff = 2.0 * ka * kb / (ka + kb)
        return k_eff * self.area / self.dist

    def stable_dt(self) -> float:
        """Largest explicit step honoring the maximum principle, with all
        water frozen.

        Bound: min over particles of heat_mass / sum of incident
        conductances.  This is at least as strict as the per-contact bound
        and keeps an explicit step's temperatures inside the convex hull of
        the current values.
        """
        g = self.conductances(np.full(self.n, -1.0))
        g_sum = np.bincount(self.ia, weights=g, minlength=self.n) \
            + np.bincount(self.ib, weights=g, minlength=self.n)
        active = g_sum > 0
        return float(np.min(self.heat_mass[active] / g_sum[active],
                            initial=np.inf))

    def boundary_reachable(self, boundary_ids: np.ndarray) -> np.ndarray:
        """Mask of particles with a conductive path to a boundary particle."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        mask = np.zeros(self.n, dtype=bool)
        mask[boundary_ids] = True
        ones = np.ones(len(self.ia))
        graph = coo_matrix((ones, (self.ia, self.ib)), shape=(self.n, self.n))
        _, labels = connected_components(graph, directed=False)
        return mask | np.isin(labels, labels[boundary_ids])

    def step(self, field: TemperatureField,
             held: np.ndarray | None = None) -> None:
        """Advance the field in place by one backward-Euler step of ``dt``.

        With C the heat masses and L the conductance Laplacian, the free
        particles (those not in the ``held`` mask) take the increment that
        solves ``(C + dt L) dT = -dt L T`` on their block; the held particles
        keep their values, which enter through the flux ``L T``.  C + dt L
        is an M-matrix, so the step keeps the maximum principle at any
        ``dt``, and a uniform field gets a zero flux and stays as it is.
        """
        t = field.temperatures
        if held is None:
            held = np.zeros(self.n, dtype=bool)
        states = phase_states(self.phases, t)
        if not (np.array_equal(states, self._states)
                and np.array_equal(held, self._held)):
            self._factor(t, held)
            self._states, self._held = states, held.copy()
        # heat each contact carries a -> b over the step at the start state
        heat = self._dt_g * (t.take(self.ia) - t.take(self.ib))
        inflow = np.bincount(self.ib, weights=heat, minlength=self.n) \
            - np.bincount(self.ia, weights=heat, minlength=self.n)
        t[self._free] += self._lu.solve(inflow[self._free])

    def _factor(self, temperatures: np.ndarray, held: np.ndarray) -> None:
        """Factor ``C + dt L`` on the free block at the current phases."""
        from scipy.sparse import csr_matrix, diags
        from scipy.sparse.linalg import splu
        self._dt_g = g = self.dt * self.conductances(temperatures)
        self._free = np.flatnonzero(~held)
        ia, ib = self.ia, self.ib
        system = diags(self.heat_mass, format="csr") + csr_matrix(
            (np.r_[g, g, -g, -g], (np.r_[ia, ib, ia, ib], np.r_[ia, ib, ib, ia])),
            shape=(self.n, self.n))
        self._lu = splu(system[self._free][:, self._free].tocsc())

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
    dev = float(np.max(np.abs(interior - boundary_value), initial=0.0))
    return UniformityReport(dev, dev < UNIFORMITY_LIMIT)


def surface_particle_ids(assembly: ParticleAssembly) -> np.ndarray:
    """Particles within one max-radius shell of any cylinder surface."""
    shell = float(assembly.radii.max(initial=0.0))
    c, r = assembly.centers, assembly.radii
    rho = np.hypot(c[:, 0], c[:, 1])
    near_side = rho + r >= assembly.domain.radius - shell
    near_ends = (c[:, 2] - r <= shell) | (c[:, 2] + r >= assembly.domain.height - shell)
    return np.flatnonzero(near_side | near_ends).astype(np.int64)
