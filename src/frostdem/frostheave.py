"""Frost-heave coupling: thermal radius updates, bond corrections, contact stats.

Cooling shrinks rock and liquid water; once a water particle drops to or
below 0 degC it expands on further cooling, loading the surrounding skeleton.
Intact bonds receive a thermal displacement offset that adds compression on
cooling.  On a bond between two particles of a material that shrinks as it
cools it cancels the geometric shrink, so uniform cooling of rock stays
stress free to rounding and the dry model stays quiet.  Ice grows on
cooling, so on a bond with an ice end the offset adds to the compression of
that growth instead of cancelling it: two bonded 1 mm ice particles cooled
from -1 to -11 degC end at 104.5 N, half from the offset and half from the
growth, where the same rock pair cooled from 19 to 9 degC ends within
1e-11 N of zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InvalidConfigError, UndefinedStatisticError,
                     require_finite)
from .mechanics import CrackEvent, ParticleSystem, build_system
# contact_arrays is unused here; bench/test_harness.py checks its probe binding
from .packing import ParticleAssembly, Phase, contact_arrays  # noqa: F401
from .thermal import (ALPHA, ICE, ConductionNetwork, TemperatureField,
                      UNIFORMITY_LIMIT, phase_states, surface_particle_ids)


def radius_increments(t_old: np.ndarray, t_new: np.ndarray,
                      radii: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Vectorized radius increments, splitting water paths at 0 degC.

    The liquid segment of each path uses the standard water coefficient,
    the sub-zero segment the expand-on-cooling ice coefficient.
    """
    if not (np.all(np.isfinite(t_old)) and np.all(np.isfinite(t_new))):
        raise InvalidConfigError("temperatures must be finite")
    d_rock = ALPHA[Phase.ROCK] * radii * (t_new - t_old)
    liquid_span = np.maximum(t_new, 0.0) - np.maximum(t_old, 0.0)
    ice_span = np.minimum(t_new, 0.0) - np.minimum(t_old, 0.0)
    d_water = (ALPHA[Phase.WATER] * radii * liquid_span
               + ALPHA[ICE] * radii * np.abs(ice_span))
    return np.where(phases == Phase.ROCK, d_rock, d_water)


# ---------------------------------------------------------------------------
# Contact statistics

@dataclass(frozen=True)
class ContactStats:
    """Contact network summary relative to the pre-cooling baseline.

    ``max_contact_force`` is the largest compressive normal contact force;
    ``contact_volume`` is the total overlap-lens volume, carried raw so the
    reduction percentage can be formed against the baseline.
    """

    max_contact_force: float            # N
    contact_pair_count: int
    force_increase_pct: float           # (current - baseline) / baseline * 100
    contact_volume_reduction_pct: float  # (baseline - current) / baseline * 100
    contact_volume: float = 0.0         # mm^3


def force_increase_pct(baseline_force: float, current_force: float) -> float:
    if baseline_force == 0:
        raise UndefinedStatisticError("force increase undefined for zero baseline")
    return (current_force - baseline_force) / baseline_force * 100.0


def volume_reduction_pct(baseline_volume: float, current_volume: float) -> float:
    if baseline_volume == 0:
        raise UndefinedStatisticError("volume reduction undefined for zero baseline")
    return (baseline_volume - current_volume) / baseline_volume * 100.0


def contact_statistics(system: ParticleSystem,
                       baseline: ContactStats | None = None) -> ContactStats:
    """Snapshot the contact network; percentages relative to ``baseline``."""
    force, count, volume = system.contact_summary()
    if baseline is None:
        return ContactStats(force, count, 0.0, 0.0, volume)
    return ContactStats(force, count,
                        force_increase_pct(baseline.max_contact_force, force),
                        volume_reduction_pct(baseline.contact_volume, volume),
                        volume)


# ---------------------------------------------------------------------------
# Freeze pipeline

#: Mechanical steps after each coupled substep.  The count stands for a span
#: of time, so it scales with 1 / ``mechanics.DT_SAFETY``.
SUBSTEP_RELAX_STEPS = 75

#: Unbalanced-force ratio the set-up and every stage end equilibrate to.
STAGE_RELAX_TOL = 1e-3

#: Mechanical steps the set-up and every stage end may take to reach
#: ``STAGE_RELAX_TOL`` before the run fails.
STAGE_RELAX_STEP_CAP = 30_000

#: Interior-boundary deviation, degC, each substep conducts down to; it sits
#: inside the uniformity limit, so every stage ends with a uniform field.
CONDUCTION_TOL = 0.9 * UNIFORMITY_LIMIT

#: Conduction steps one substep may take before the run fails.
CONDUCTION_STEP_CAP = 50_000


#: The stage checkpoints, degC, kept above any target so that stage
#: statistics stay comparable across targets.
CHECKPOINTS = (0.0, -10.0, -20.0)


@dataclass(frozen=True)
class FreezeConfig:
    """Stage schedule and thermal loading of one freeze run: ``[thermal]``.

    The laboratory hold duration is replaced by conduction until the
    center-surface deviation is within ``CONDUCTION_TOL``.  The stages are
    ``stage_temps``, else the :data:`CHECKPOINTS` above ``target_temp`` and
    then the target, else the checkpoints.  Relaxation and conduction
    controls are the module constants above.
    """

    start_temp: float = 20.0
    stage_temps: tuple[float, ...] | None = None
    target_temp: float | None = None
    substep_dt_max: float = 2.0          # degC per coupled substep
    water_prestress: float = 0.008       # water radius inflation at setup
    freeze_volume_jump: float = 0.0      # one-off volume jump at first freeze

    def __post_init__(self):
        target = self.target_temp
        if self.stage_temps is None:
            stages = CHECKPOINTS if target is None else (
                *(t for t in CHECKPOINTS if self.start_temp > t > target), target)
            object.__setattr__(self, "stage_temps", stages)
        elif target is not None:
            raise InvalidConfigError(
                "stage_temps and target_temp are both set: the schedule takes "
                "one of them")
        require_finite(**{k: v for k, v in vars(self).items()
                          if isinstance(v, float)},
                       **{f"stage_temps[{i}]": t
                          for i, t in enumerate(self.stage_temps)})
        if not self.stage_temps:
            raise InvalidConfigError("stage_temps must list at least one stage")
        if self.substep_dt_max <= 0:
            raise InvalidConfigError("substep_dt_max must be > 0")
        if self.water_prestress < 0:
            raise InvalidConfigError("water_prestress must be >= 0")
        if self.freeze_volume_jump < 0:
            raise InvalidConfigError("freeze_volume_jump must be >= 0")
        temps = [self.start_temp, *self.stage_temps]
        if any(t2 >= t1 for t1, t2 in zip(temps, temps[1:])):
            raise InvalidConfigError("stage temperatures must strictly decrease")


@dataclass(frozen=True)
class FreezeStageRow:
    label: str
    temperature: float
    stats: ContactStats


@dataclass
class FreezeResult:
    baseline: ContactStats
    stages: list[FreezeStageRow]
    cracks: list[CrackEvent]
    field: TemperatureField
    system: ParticleSystem
    start_temp: float

    def rows(self) -> list[FreezeStageRow]:
        base = FreezeStageRow("baseline", self.start_temp, self.baseline)
        return [base] + list(self.stages)


def run_freeze(assembly: ParticleAssembly,
               config: FreezeConfig = FreezeConfig()) -> FreezeResult:
    """Drive the coupled freeze: conduction, particle expansion, relaxation.

    Per stage, the boundary temperature steps down in small increments; after
    each increment the temperature field conducts to within
    ``CONDUCTION_TOL`` of the boundary (``ConvergenceError`` past
    ``CONDUCTION_STEP_CAP`` steps), then particle radii and bond thermal
    offsets update from the per-particle temperature changes and the contact
    network relaxes mechanically.  A stage end conducts no further, since
    the last substep left the field uniform at the target; it equilibrates,
    as the set-up does, to ``STAGE_RELAX_TOL`` (``ConvergenceError`` past
    ``STAGE_RELAX_STEP_CAP`` steps).  Contact statistics are captured at
    the baseline and at each stage end; a baseline with no contact force
    raises :class:`~frostdem.errors.UndefinedStatisticError` before any
    conduction, since every stage's force increase is relative to it.
    """
    if assembly.n_particles == 0:
        raise InvalidConfigError("cannot freeze an empty assembly")
    system = build_system(assembly)

    water = system.phases == Phase.WATER
    prestress = np.where(water, system.radii * config.water_prestress, 0.0)
    system.grow_radii(prestress)
    system.equilibrate(tol=STAGE_RELAX_TOL, max_steps=STAGE_RELAX_STEP_CAP)

    boundary = surface_particle_ids(assembly)
    field = TemperatureField(np.full(assembly.n_particles, config.start_temp,
                                     dtype=float), boundary)
    # heat flows through every bond row, intact or broken: the pairs that
    # were within the installation gap when the system was built
    conduction = ConductionNetwork(assembly, (system.b_ia, system.b_ib))
    # the boundary and the particles with no conductive path to it follow
    # the schedule directly (the chamber bathes the whole specimen)
    held = ~conduction.boundary_reachable(boundary)
    held[boundary] = True

    baseline = contact_statistics(system)
    if baseline.max_contact_force == 0:
        raise UndefinedStatisticError(
            "the baseline carries no contact force: force increases over a "
            "zero baseline are undefined")
    stages: list[FreezeStageRow] = []
    t_prev_particles = field.temperatures.copy()
    t_boundary = config.start_temp
    # optional discrete expansion applied once per particle at first freeze;
    # a zero jump adds +0.0, which leaves every radius as it was
    jump_factor = (1.0 + config.freeze_volume_jump) ** (1.0 / 3.0) - 1.0
    has_jumped = np.zeros(assembly.n_particles, dtype=bool)

    for target in config.stage_temps:
        stage_from = t_boundary
        n_sub = max(1, math.ceil(abs(target - t_boundary) / config.substep_dt_max))
        for i in range(n_sub):
            t_boundary = stage_from + (target - stage_from) * (i + 1) / n_sub
            _conduct_until(conduction, field, held, t_boundary)
            d_temp = field.temperatures - t_prev_particles
            d_radius = radius_increments(t_prev_particles, field.temperatures,
                                         system.radii, system.phases)
            states = phase_states(system.phases, field.temperatures)
            newly_frozen = (states == ICE) & ~has_jumped
            d_radius = d_radius + np.where(newly_frozen,
                                           system.radii * jump_factor, 0.0)
            has_jumped |= newly_frozen
            system.apply_bond_thermal_offsets(d_temp, ALPHA[states])
            t_prev_particles = field.temperatures.copy()
            system.grow_radii(d_radius)
            system.run(SUBSTEP_RELAX_STEPS)
        system.equilibrate(tol=STAGE_RELAX_TOL, max_steps=STAGE_RELAX_STEP_CAP)
        stats = contact_statistics(system, baseline)
        stages.append(FreezeStageRow(f"{stage_from:g}C~{target:g}C", target,
                                     stats))

    return FreezeResult(baseline, stages, list(system.crack_events), field,
                        system, config.start_temp)


def _conduct_until(network: ConductionNetwork, field: TemperatureField,
                   held: np.ndarray, boundary_value: float) -> None:
    """Conduction steps until the free particles track the boundary.

    The ``held`` particles are set to ``boundary_value`` and the steps keep
    them there; only the others enter the convergence measure.  Raises
    :class:`~frostdem.errors.ConvergenceError` when the deviation still
    exceeds ``CONDUCTION_TOL`` after ``CONDUCTION_STEP_CAP`` steps.
    """
    t = field.temperatures
    t[held] = boundary_value
    free = ~held

    def deviation() -> float:
        return float(np.max(np.abs(t[free] - boundary_value), initial=0.0))
    for _ in range(CONDUCTION_STEP_CAP):
        if deviation() <= CONDUCTION_TOL:
            return
        network.step(field, held)
    dev = deviation()
    if dev > CONDUCTION_TOL:
        raise ConvergenceError(
            f"conduction left a deviation of {dev:g} degC after "
            f"{CONDUCTION_STEP_CAP} steps; the tolerance is "
            f"{CONDUCTION_TOL:g} degC")
