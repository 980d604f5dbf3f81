"""Bonded-particle mechanics: contact springs, explicit dynamics, uniaxial testing.

Unit system is mm-N-MPa-tonne-second (1 N = 1 tonne*mm/s^2).  All interacting
pairs live in one pair table: the bonds installed at construction, followed
by the unbonded contacts found since.  Pairs that carry an intact bond act
through the bond springs (normal and shear, tension and compression,
preloaded by any installation overlap); every other pair, a broken bond or
an unbonded contact, acts through the one compression-only linear spring.
Bond normal force responds to the effective overlap, which includes the
accumulated thermal offsets applied by the freeze-coupling driver.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import (ConvergenceError, CurveWindowError, InvalidConfigError,
                     NoLoadPathError, StabilityError, UndefinedStatisticError,
                     require_finite)
from .packing import ContactKind, ParticleAssembly, SkinAnchor, contact_arrays

#: Default Cundall local damping coefficient for quasi-static runs.
DEFAULT_DAMPING = 0.7

#: Safety factor applied to the critical explicit time step.  The bound it
#: scales (per-particle stiffness sums) is already conservative; Cundall &
#: Strack, Geotechnique 29 (1979) 47.  In a convergence study on 132-particle
#: packings loaded at 4 mm/s, 0.4 moved the modulus by -1.0% to -2.3% and the
#: peak by under 0.1% against 0.1.  It is the ceiling: at 0.6 one loading
#: step can pass a whole curve sample interval (2e-5 strain), and the curve
#: loses samples.
DT_SAFETY = 0.4

#: Skin of the pair table, as a share of the smallest radius: the unbonded
#: rows hold every pair within it of touching, and a step rebuilds them once
#: a particle has moved half of it (:class:`~frostdem.packing.SkinAnchor`).
#: :meth:`ParticleSystem.stable_dt` counts every row, so a wider skin takes
#: shorter steps.  Study on the benchmark's input seeds 5-9 (132 particles),
#: totals over the five at 0.05 / 0.1 / 0.15 / 0.2 / 0.25: ``compress``
#: 12,204 / 12,224 / 12,302 / 12,350 / 12,406 steps and 90 / 46 / 32 / 23 /
#: 21 rebuilds (one costs about 4.6 steps), ``freeze`` 8,130 / 8,130 / 8,160
#: / 8,160 / 8,160 steps with 22 rebuilds a call, all at radius growth.
#: 0.1 costs the least in steps plus rebuilds.
CONTACT_SKIN = 0.1

#: Density multiplier for quasi-static runs.  No run checks quasi-static
#: validity, and no code computes the kinetic/strain energy ratio during a
#: run.  ``test_uniaxial_loading_is_quasi_static`` holds that ratio below
#: 1e-3 at 2 mm/s on one packing, but it divides the kinetic energy by this
#: scale, so its bound is on the physical masses.  At the scaled masses the
#: run steps with, the ratio on that packing is 5.8e-3 at 2 mm/s.
DEFAULT_MASS_SCALE = 1.0e6

#: Mean unbalanced-force ratio accepted as equilibrium.
EQUILIBRIUM_RATIO = 1e-4

#: Safety factor of the step :meth:`ParticleSystem.equilibrate` takes under
#: its stiffness-proportional masses ``m_i = k_i * T``: the step is
#: ``RELAX_DT_SAFETY * sqrt(T)``.  The per-particle bound puts the highest
#: frequency at most ``sqrt(2 / T)``, so the explicit step is stable below
#: ``sqrt(2 T)``; 0.8 is 0.57 of that.  A relaxation samples no curve, so
#: :data:`DT_SAFETY`'s ceiling does not hold here.  Study on the benchmark's
#: 132-particle input seeds 35-39, totals of ``equilibrate`` steps over the
#: five seeds at factors 0.4 / 0.6 / 0.7 / 0.8 / 0.9 / 1.0: ``compress``
#: (2 relaxations a seed) 1,350 / 1,020 / 950 / 810 / 850 / 1,180,
#: ``freeze`` (4 a seed) 1,120 / 880 / 770 / 720 / 590 / 730.
RELAX_DT_SAFETY = 0.8

#: Steps :meth:`ParticleSystem.equilibrate` takes between two checks of the
#: unbalanced ratio.  A check costs about one force pass, and a relaxation
#: runs past its tolerance by up to one interval.  Study on the benchmark's
#: 132-particle input seeds 35-39, totals over the five seeds.  At the true
#: masses and the shipped step, intervals of 100 / 20 / 10 took
#: ``compress`` 2,400 / 2,180 / 2,130 steps and 34 / 119 / 223 checks, and
#: ``freeze`` 2,500 / 2,160 / 2,100 steps and 45 / 128 / 230 checks: the
#: interval alone saves at most 4% of a run's steps.  Under the relaxation's
#: own masses and :data:`RELAX_DT_SAFETY`, intervals of 100 / 20 / 10 / 5
#: took ``compress`` 1,000 / 820 / 810 / 780 steps and 20 / 51 / 91 / 166
#: checks, and ``freeze`` 2,000 / 860 / 720 / 675 steps and 40 / 63 / 92 /
#: 155 checks.  These relaxations settle in 60-90 steps, so the interval
#: sets their floor; 10 and 5 cost about the same in steps plus checks.
EQUILIBRIUM_CHECK_INTERVAL = 10

#: Share of its starting mean contact force below which
#: :meth:`ParticleSystem.equilibrate` no longer lets the mean contact force
#: shrink the unbalanced ratio.  For a lone loaded pair the net force and the
#: contact force decay together, so the plain ratio stays put (0.4477 for
#: the 13-particle, 2-bond freeze set-up at solid fraction 0.05, which spent
#: its 30,000-step cap while its force fell from 197 N to 3e-9 N; with the
#: floor it settles in 410 steps).  A relaxed packing keeps its contact
#: forces: on the benchmark's 132-particle input seeds 35-39 every
#: ``compress`` and ``freeze`` artifact is the same with the floor as
#: without it.
CONTACT_FORCE_FLOOR = 1e-6

#: Constants of the Fast Inertial Relaxation Engine that
#: :meth:`ParticleSystem.equilibrate` runs (Bitzek et al., PRL 97 (2006)
#: 170201): the initial velocity-mixing weight, its shrink factor, and the
#: steps of positive power before it starts to shrink.
FIRE_ALPHA0 = 0.1
FIRE_F_ALPHA = 0.99
FIRE_N_MIN = 5

#: Loading steps a uniaxial test may take before it fails.
LOADING_STEP_CAP = 2_000_000


@dataclass(frozen=True)
class BondMaterial:
    """Micro-parameters of one contact/bond type.

    ``contact_modulus`` and ``bond_modulus`` in GPa, strengths in MPa,
    friction angle in degrees.  Unbonded contacts are frictionless, so the
    contact spring has a normal stiffness only.
    """

    contact_modulus: float
    bond_modulus: float
    bond_stiffness_ratio: float
    tensile_strength: float
    cohesion: float
    friction_angle: float

    def __post_init__(self):
        require_finite(**vars(self))
        if self.contact_modulus <= 0 or self.bond_modulus <= 0:
            raise InvalidConfigError("moduli must be > 0")
        if self.bond_stiffness_ratio <= 0:
            raise InvalidConfigError("bond stiffness ratio must be > 0")
        if not (0.0 <= self.friction_angle < 90.0):
            raise InvalidConfigError("friction angle must be in [0, 90) degrees")
        if self.tensile_strength < 0 or self.cohesion < 0:
            raise InvalidConfigError("strengths must be >= 0")

    def scaled(self, modulus_factor: float = 1.0,
               strength_factor: float = 1.0) -> "BondMaterial":
        return replace(self,
                       contact_modulus=self.contact_modulus * modulus_factor,
                       bond_modulus=self.bond_modulus * modulus_factor,
                       tensile_strength=self.tensile_strength * strength_factor,
                       cohesion=self.cohesion * strength_factor)


#: Calibrated micro-parameters for the saturated specimen's three bond types.
SATURATED_MATERIALS: dict[ContactKind, BondMaterial] = {
    ContactKind.ROCK_ROCK: BondMaterial(9.0, 9.0, 2.5, 40.0, 40.0, 45.0),
    ContactKind.ROCK_WATER: BondMaterial(9.0, 4.5, 2.5, 60.0, 60.0, 0.0),
    ContactKind.WATER_WATER: BondMaterial(9.0, 2.0, 2.5, 60.0, 60.0, 0.0),
}

#: Calibrated micro-parameters for the dry specimen (rock bonds only).
DRY_MATERIALS: dict[ContactKind, BondMaterial] = {
    ContactKind.ROCK_ROCK: BondMaterial(9.0, 4.23, 2.5, 80.0, 80.0, 45.0),
}


@dataclass(frozen=True)
class CrackEvent:
    time: float
    position: tuple[float, float, float]
    mode: str                    # "tensile" | "shear"


@dataclass
class StressStrainCurve:
    """Axial stress (MPa) versus axial strain samples from a loading test."""

    strain: np.ndarray
    stress: np.ndarray

    def __len__(self) -> int:
        return len(self.strain)


@dataclass(frozen=True)
class MechanicalReport:
    peak_strength: float         # MPa
    elastic_modulus: float       # GPa, regression over the strain window
    peak_strain: float
    strain_energy: float         # kJ/m^3, curve integral up to the peak


#: Strain window for modulus regression (fractions).
MODULUS_WINDOW = (0.0005, 0.0015)


def extract_mechanical_params(curve: StressStrainCurve) -> MechanicalReport:
    """Peak strength, windowed modulus and strain energy from one curve.

    A modulus that is not positive raises
    :class:`~frostdem.errors.NoLoadPathError`: such a curve reports no
    strength.
    """
    if len(curve) == 0 or float(np.max(np.abs(curve.stress))) == 0.0:
        raise UndefinedStatisticError("curve carries no stress signal")
    lo, hi = MODULUS_WINDOW
    if float(curve.strain.max()) < hi:
        raise CurveWindowError(
            f"curve must span strain >= {hi:.4%}, got {curve.strain.max():.4%}")
    mask = (curve.strain >= lo) & (curve.strain <= hi)
    if int(mask.sum()) < 2:
        raise CurveWindowError("fewer than 2 samples in the modulus window")
    slope = np.polyfit(curve.strain[mask], curve.stress[mask], 1)[0]  # MPa
    if not slope > 0.0:
        raise NoLoadPathError(
            f"the windowed modulus is {slope / 1e3:g} GPa: the specimen has "
            "no load path between the platens")
    peak_idx = int(np.argmax(curve.stress))
    peak_strength = float(curve.stress[peak_idx])
    peak_strain = float(curve.strain[peak_idx])
    energy = float(np.trapezoid(curve.stress[:peak_idx + 1],
                                curve.strain[:peak_idx + 1])) * 1e3  # kJ/m^3
    return MechanicalReport(peak_strength, slope / 1e3, peak_strain, energy)


# ---------------------------------------------------------------------------
# Explicit-dynamics particle system

def _row_view(name: str, doc: str) -> property:
    """A ``(k, 3)`` attribute that is a writable view of the ``(3, k)``
    array ``name``; assigning to it copies into that array."""
    def fget(self) -> np.ndarray:
        return getattr(self, name).T

    def fset(self, value) -> None:
        np.copyto(getattr(self, name).T, value)
    return property(fget, fset, doc=doc)


class ParticleSystem:
    """Mutable simulation state: particles, one pair table, platens.

    The pair table (``ia``, ``ib``, ``k_lin``) holds every interacting pair.
    Its first ``n_bonds`` rows are the bonds, installed at construction on
    pairs whose gap is at most 5% of the minimum radius and never added
    afterwards; the per-bond state (``b_ia``, ``b_ib``, ``b_kind``,
    ``b_intact``, ``b_shear``, ...) is indexed by those rows.  The rows after
    them are the other pairs within ``skin`` (:data:`CONTACT_SKIN` times the
    smallest radius) of touching, rebuilt by :meth:`refresh_transient_contacts`
    at construction, by :meth:`grow_radii` and by :meth:`step`.  ``k_lin``
    is the linear contact spring of every row, the one law for pairs without
    an intact bond.

    ``dt`` is the step :meth:`run` and the loading loop take:
    :meth:`stable_dt` over every row, set when the pair table or the platens
    change and lowered by a bond break that shortens it.  :meth:`equilibrate`
    steps at a longer one under masses of its own and leaves ``dt`` no
    longer than it found it.

    Positions, velocities and the bond shear are stored component-major,
    ``(3, n)`` and ``(3, nb)``, and the force pass works on ``(3, m)`` rows
    of pair normals and pair forces, so a row norm or a dot product is three
    contiguous row operations.  ``pos``, ``vel`` and ``b_shear`` are
    writable ``(n, 3)`` and ``(nb, 3)`` views of that storage, with setters,
    so ``system.pos += u`` and ``system.b_shear[:] = s`` write through.
    Every row sum is written out in the order ``np.einsum("ij,ij->i")``
    takes on contiguous rows, ``(p0 + p2) + p1``, and every sum over
    particles (FIRE's power and norms, :meth:`_mean_forces`,
    :meth:`kinetic_energy`) runs in particle-major order, so the pass rounds
    as a row-major one does.

    One force pass serves :meth:`step`, :meth:`unbalanced_ratio` and
    :meth:`contact_summary`.  It reads caches that hold only what the state
    fixes, so it does the arithmetic of a pass that caches nothing, bit for
    bit:

    - per pair-table row, rebuilt with the table by
      :meth:`refresh_transient_contacts`: the flat index ``axis * n + i``
      of both ends, shaped ``(2, 3, m)`` (every row's b, then every row's
      a), which gathers their positions and scatters the pair forces, the
      same index of both bond ends, which gathers their velocities, and
      the radius sums ``r_a + r_b``;
    - per bond, set at construction: the negated tensile strengths;
    - the bond shear stiffness times the step, ``(k_s * intact) * dt``,
      rebuilt when a step of another ``dt`` comes and cleared by a bond
      break;
    - the platen push buffer, made by :meth:`set_platens`, and the bottom
      platen's reach ``z_bot + r``, rebuilt when ``walls["z_bot"]`` or the
      radii change.

    Radii enter the radius sums, so they change only through
    :meth:`grow_radii`, which rebuilds the pair table.
    """

    def __init__(self, assembly: ParticleAssembly,
                 materials: dict[ContactKind, BondMaterial],
                 *, damping: float = DEFAULT_DAMPING,
                 mass_scale: float = DEFAULT_MASS_SCALE):
        self.assembly = assembly
        # one row per contact kind, one column per BondMaterial field
        self._material_table = np.zeros((len(ContactKind), len(fields(BondMaterial))))
        self._has_material = np.zeros(len(ContactKind), dtype=bool)
        for kind, material in materials.items():
            self._material_table[kind] = astuple(material)
            self._has_material[kind] = True
        self.damping = damping
        self.mass_scale = mass_scale

        self.n = assembly.n_particles
        self._pos = assembly.centers.T.copy()
        self._vel = np.zeros_like(self._pos)
        self.radii = assembly.radii.copy()
        self.phases = assembly.phases.copy()
        self.mass = assembly.masses() * mass_scale
        self.inv_mass = np.where(self.mass > 0, 1.0 / np.maximum(self.mass, 1e-300), 0.0)
        self.time = 0.0
        self.step_count = 0
        self.crack_events: list[CrackEvent] = []
        self.walls: dict | None = None
        self._fire: _Fire | None = None
        self._install_bonds()
        self.refresh_transient_contacts()

    # -- state views ----------------------------------------------------------

    pos = _row_view("_pos", "Particle centres, ``(n, 3)``.")
    vel = _row_view("_vel", "Particle velocities, ``(n, 3)``.")
    b_shear = _row_view("_shear", "Bond shear forces, ``(nb, 3)``.")

    # -- construction -------------------------------------------------------

    def _materials_of(self, kinds: np.ndarray) -> np.ndarray:
        """The material table's entries for ``kinds``, ``(field, row)``; a
        kind with no material raises, naming the smallest such kind."""
        missing = kinds[~self._has_material[kinds]]
        if len(missing):
            raise InvalidConfigError("no material defined for contact kind "
                                     f"{ContactKind(int(missing.min())).name}")
        return self._material_table.T.take(kinds, axis=1)

    def _pair_materials(self, ia: np.ndarray, ib: np.ndarray) -> tuple:
        """Kind and material entries ``(field, row)`` of each pair, and the
        areas and springs, ``(2, row)``, of its contact and its bond."""
        kind = self.phases[ia] + self.phases[ib]
        material = self._materials_of(kind)
        r_a, r_b = self.radii[ia], self.radii[ib]
        # the contact acts over the disc of the smaller radius and the bond
        # over the radius-sum disc, each with E * 1e3 / (r_a + r_b) * area
        area = np.pi * np.stack((np.minimum(r_a, r_b) ** 2, (r_a + r_b) ** 2))
        return kind, material, area, material[:2] * 1e3 / (r_a + r_b) * area

    def _install_bonds(self) -> None:
        r_min = float(self.radii.min()) if self.n else 0.0
        self.skin = CONTACT_SKIN * r_min
        ia, ib, gap = contact_arrays(self.assembly, 0.05 * r_min)
        self.b_ia, self.b_ib = ia, ib
        self.b_kind, material, area, (self.k_lin, self.b_k_normal) = \
            self._pair_materials(ia, ib)
        _, _, ratio, self.b_tensile, self.b_cohesion, friction = material
        self.n_bonds = m = len(ia)
        self.b_area = area[1]
        self.b_k_shear = self.b_k_normal / ratio
        self._neg_tensile = -self.b_tensile
        self.b_tanphi = np.tan(np.radians(friction))
        overlap = -gap
        # Bonds across a gap install force-free; overlapped bonds are preloaded.
        self.b_form_ref = np.minimum(overlap, 0.0)
        self.b_offset = np.zeros(m)
        self.b_length0 = np.linalg.norm(self.pos[ib] - self.pos[ia], axis=1)
        self.b_intact = np.ones(m, dtype=bool)
        self._shear = np.zeros((3, m))
        self._shear_dt = None
        self._bond_keys = ia * np.int64(self.n) + ib

    # -- platens -------------------------------------------------------------

    def set_platens(self) -> None:
        """Install rigid frictionless platens touching the axial extremes."""
        if self.n == 0:
            raise InvalidConfigError("cannot set platens on an empty system")
        z_bot = float(np.min(self._pos[2] - self.radii))
        z_top = float(np.max(self._pos[2] + self.radii))
        # a platen presses on a particle as a particle of its phase does,
        # and a pair of like phases has the kind 2 * phase
        k_wall = self._materials_of(2 * self.phases)[0] * 1e3 * np.pi * self.radii
        self.walls = {"z_bot": z_bot, "z_top": z_top, "k": k_wall,
                      "gap0": z_top - z_bot, "f_bot": 0.0, "f_top": 0.0}
        # the bottom and top platens' push on every particle, rewritten by
        # each force pass
        self._platen_push = np.empty((2, self.n))
        self._bot_reach_z = None
        self.dt = self.stable_dt()

    def platen_strain(self) -> float:
        w = self.walls
        return (w["gap0"] - (w["z_top"] - w["z_bot"])) / w["gap0"]

    def platen_stress(self) -> float:
        """Mean platen reaction over the specimen cross-section, MPa."""
        w = self.walls
        area = math.pi * self.assembly.domain.radius ** 2
        return 0.5 * (abs(w["f_bot"]) + abs(w["f_top"])) / area

    # -- geometry and forces --------------------------------------------------

    def _normal_forces(self, overlap: np.ndarray) -> np.ndarray:
        """Normal force of every pair, compression positive: the bond spring
        on the effective overlap for intact bonds, the compression-only
        linear spring on the geometric overlap for every other pair."""
        fn = self.k_lin * np.maximum(overlap, 0.0)
        f_bond = self.b_k_normal * (overlap[:self.n_bonds] + self.b_offset
                                    - self.b_form_ref)
        np.copyto(fn[:self.n_bonds], f_bond, where=self.b_intact)
        return fn

    def bond_normal_forces(self) -> np.ndarray:
        """Per-bond normal force, compression positive; broken bonds act as
        compression-only linear contacts on geometric overlap."""
        return self._force_pass(0.0, mutate=False)[1][:self.n_bonds]

    def _force_pass(self, dt: float, mutate: bool = True):
        """Net force on every particle, an ``(n, 3)`` view of a ``(3, n)``
        array like :attr:`pos`, and the normal force, centre distance and
        overlap of every pair.

        With ``mutate`` the bond shear advances by ``dt``, is rotated into
        the tangent plane, and the parallel-bond strength envelope is
        checked: a bond fails in tension when its normal tension exceeds the
        tensile strength, and in shear when its shear stress exceeds
        cohesion plus the compression-scaled friction term.  A failed bond
        logs a crack at its midpoint and acts as a linear contact in this
        same pass.  With platens, their push enters the axial force and the
        sums are stored as ``walls["f_bot"]`` and ``walls["f_top"]``.
        """
        nb, m, n = self.n_bonds, len(self.ia), self.n
        # (2, 3, m): the b ends' centres, then the a ends'
        ends = self._pos.ravel().take(self._end_idx)
        normal = ends[0]
        normal -= ends[1]                       # a towards b
        dist = _row_dot(normal, normal)
        np.sqrt(dist, out=dist)
        normal /= np.maximum(dist, 1e-12)
        overlap = self._radius_sum - dist
        fn = self._normal_forces(overlap)
        shear = self._shear
        if mutate and nb:
            if dt != self._shear_dt:
                # a broken bond has no shear stiffness, so its shear stays 0
                self._k_shear_dt = self.b_k_shear * self.b_intact * dt
                self._shear_dt = dt
            v = self._vel.ravel().take(self._vel_idx)
            slip = v[0]
            slip -= v[1]
            slip *= self._k_shear_dt
            shear -= slip
            # projecting after the increment drops its normal part
            n_b = normal[:, :nb]
            shear -= _row_dot(shear, n_b) * n_b
            sigma_n = fn[:nb] / self.b_area
            # rotational DOF are not carried, so there is no bending moment
            # and the extreme-fiber tension is the normal tension alone
            tensile = sigma_n < self._neg_tensile
            tau = np.sqrt(_row_dot(shear, shear)) / self.b_area
            failing = tensile | (tau > self.b_cohesion + sigma_n * self.b_tanphi)
            # a broken bond cannot fail (its force is >= 0 and its shear 0),
            # so the intact mask waits until something fails
            if np.count_nonzero(failing):
                failed = np.flatnonzero(failing & self.b_intact)
                mid = 0.5 * (self.pos[self.b_ia[failed]] + self.pos[self.b_ib[failed]])
                for row, idx in enumerate(failed):
                    self.crack_events.append(CrackEvent(
                        self.time, tuple(float(x) for x in mid[row]),
                        "tensile" if tensile[idx] else "shear"))
                self._break_bonds(failed)
                fn = self._normal_forces(overlap)

        pair_force = np.empty((2, 3, m))          # force on b, then on a
        np.multiply(fn, normal, out=pair_force[0])
        pair_force[0, :, :nb] += shear
        np.negative(pair_force[0], out=pair_force[1])
        if m:
            # each bin sums its pairs in row order, as particle-major bins do
            force = np.bincount(self._end_idx.ravel(), weights=pair_force.ravel(),
                                minlength=3 * n).reshape(3, n)
        else:
            # np.bincount over no weights counts in integers
            force = np.zeros((3, n))

        if self.walls is not None:
            # upward push of the bottom platen, downward push of the top one
            w, z, push = self.walls, self._pos[2], self._platen_push
            if w["z_bot"] != self._bot_reach_z:
                self._bot_reach_z = w["z_bot"]
                self._bot_reach = w["z_bot"] + self.radii
            np.subtract(self._bot_reach, z, out=push[0])
            np.add(z, self.radii, out=push[1])
            push[1] -= w["z_top"]
            np.maximum(push, 0.0, out=push)
            push *= w["k"]
            force[2] += push[0] - push[1]
            w["f_bot"], w["f_top"] = np.add.reduce(push, axis=1).tolist()
        return force.T, fn, dist, overlap

    def _break_bonds(self, rows: np.ndarray) -> None:
        """Turn the bonds ``rows`` into linear contacts: no shear and no
        shear stiffness.  The contact spring changes the particle stiffness
        totals, so ``dt`` drops to a stable step that is now shorter; a
        longer one waits for the next change of the pair table."""
        self.b_intact[rows] = False
        self._shear[:, rows] = 0.0
        self._shear_dt = None
        self.dt = min(self.dt, self.stable_dt())

    # -- stepping -------------------------------------------------------------

    def _stiffness_totals(self) -> np.ndarray:
        """Per-particle sum of the spring stiffnesses acting on it: bond
        normal plus shear for intact bonds, the linear spring for every other
        row, and the platen springs.

        Radii enter no stiffness here (``k_lin`` is fixed when a row is
        made), so only the pair table, a bond break and the platens move it.
        """
        k_pair = self.k_lin.copy()
        np.copyto(k_pair[:self.n_bonds], self.b_k_normal + self.b_k_shear,
                  where=self.b_intact)
        # float even over no rows, where np.bincount counts in integers
        k_sum = (np.bincount(self.ia, weights=k_pair, minlength=self.n)
                 + np.bincount(self.ib, weights=k_pair, minlength=self.n)
                 ).astype(float, copy=False)
        if self.walls is not None:
            k_sum += self.walls["k"]
        return k_sum

    def stable_dt(self) -> float:
        """Safety-scaled critical step from per-particle stiffness totals."""
        k_sum = self._stiffness_totals()
        active = k_sum > 0
        return DT_SAFETY * float(np.min(
            np.sqrt(self.mass[active] / k_sum[active]), initial=np.inf))

    def step(self, dt: float) -> None:
        """One explicit step: forces, local damping, semi-implicit Euler,
        then :meth:`refresh_transient_contacts` once a particle has moved
        half the skin since the last one.

        Inside :meth:`equilibrate` the FIRE velocity update takes the place
        of local damping.
        """
        if not (dt > 0.0 and math.isfinite(dt)):
            raise InvalidConfigError(f"dt must be positive and finite, got {dt}")
        if dt > self.dt * (1.0 + 1e-12):
            raise StabilityError(
                f"dt={dt:g} s exceeds stability limit {self.dt:g} s")
        force = self._force_pass(dt)[0].T
        vel = self._vel
        if self._fire is not None:
            self._fire.steer(vel.T, force.T)
        elif self.damping > 0.0:
            drag = np.abs(force)
            drag *= self.damping
            drag *= np.sign(vel)
            force -= drag
        force *= self.inv_mass
        force *= dt
        vel += force
        self._pos += np.multiply(vel, dt, out=force)
        self.time += dt
        self.step_count += 1
        if self._anchor.moved_half_skin(self._pos):
            self.refresh_transient_contacts()

    def run(self, n_steps: int) -> None:
        """``n_steps`` steps of ``dt``, which a bond break can shorten."""
        for _ in range(n_steps):
            self.step(self.dt)

    def unbalanced_ratio(self, floor: float = 0.0) -> float:
        """Mean net force over mean contact force magnitude, the latter
        raised to ``floor`` where it falls below it (0 when no contact
        carries more than 1e-12 N)."""
        return _force_ratio(*self._mean_forces(), floor)

    def _mean_forces(self) -> tuple[float, float]:
        """Mean net force over the particles, and mean force magnitude over
        the active pairs and the pressing platen contacts."""
        force, fn, _, overlap = self._force_pass(0.0, mutate=False)
        shear = self._shear
        mag_sum = float(np.abs(fn).sum() + np.sqrt(_row_dot(shear, shear)).sum())
        count = int(np.count_nonzero(self._active_rows(overlap)))
        if self.walls is not None:
            mag_sum += self.walls["f_bot"] + self.walls["f_top"]
            count += int(np.count_nonzero(self._platen_push))
        # summed particle-major, the order of the row-major force array
        net = float(np.abs(force.ravel()).sum())
        return net / max(self.n, 1), mag_sum / max(count, 1)

    def equilibrate(self, tol: float = EQUILIBRIUM_RATIO,
                    max_steps: int = 60_000) -> float:
        """FIRE relaxation until the unbalanced ratio drops below ``tol``.

        A static state does not depend on the masses, so the relaxation runs
        under masses of its own: each particle with a spring gets its
        stiffness total ``k_i`` times ``T = max_j(m_j / k_j)``.  No mass falls,
        every particle has the same per-particle bound ``sqrt(T)``, and the
        relaxation steps at :data:`RELAX_DT_SAFETY` times it, so a step moves
        a particle by ``RELAX_DT_SAFETY**2 * F / k_i`` whatever the densities
        are (density scaling; Potyondy & Cundall, IJRMMS 41 (2004) 1329).
        Particles with no spring, and held ones (``inv_mass`` 0), keep their
        masses.  A bond break or a rebuild of the pair table inside the
        relaxation lowers its step to :meth:`stable_dt` under these masses
        where that is shorter.  That bound is scaled by :data:`DT_SAFETY`
        (0.4), not :data:`RELAX_DT_SAFETY` (0.8), so the first such event
        cuts the step to about half whether or not a stiffness rose.  This
        is a known fault, kept for now: mending it moves crack paths, which
        the freeze-damage study has to settle first.

        Each step is a :meth:`step` of that ``dt`` with the velocity update
        of the Fast Inertial Relaxation Engine in place of local damping:
        velocity is mixed toward the force while the power ``F . v`` is
        positive and zeroed when it is not (:data:`FIRE_ALPHA0`,
        :data:`FIRE_F_ALPHA`, :data:`FIRE_N_MIN`).  ``time`` advances by the
        relaxation's step, so a crack inside a relaxation is stamped in that
        time.  The ratio is checked every :data:`EQUILIBRIUM_CHECK_INTERVAL`
        steps, against a mean contact force no lower than
        :data:`CONTACT_FORCE_FLOOR` times its value at the start, so a lone
        loaded pair whose forces all decay together still settles.  A ratio
        that is not finite raises :class:`~frostdem.errors.StabilityError`,
        and one still above ``tol`` after ``max_steps`` raises
        :class:`~frostdem.errors.ConvergenceError`.

        On return or raise, ``mass`` and ``inv_mass`` are the true ones again
        and ``dt`` is the lesser of its value before the call and
        :meth:`stable_dt` at the true masses, which a stiffening bond break
        or a new row inside the relaxation lowers.
        """
        net, contact = self._mean_forces()
        floor = CONTACT_FORCE_FLOOR * contact
        ratio = _force_ratio(net, contact, floor)
        steps = 0
        mass, inv_mass, dt = self.mass, self.inv_mass, self.dt
        k_sum = self._stiffness_totals()
        sprung = k_sum > 0
        if np.any(sprung):
            t_sq = float(np.max(mass[sprung] / k_sum[sprung]))
            self.mass = np.where(sprung, k_sum * t_sq, mass)
            self.inv_mass = np.divide(1.0, self.mass, out=np.zeros(self.n),
                                      where=inv_mass > 0.0)
            self.dt = RELAX_DT_SAFETY * math.sqrt(t_sq)
        self._fire = _Fire()
        try:
            while ratio > tol and steps < max_steps:
                block = min(EQUILIBRIUM_CHECK_INTERVAL, max_steps - steps)
                for _ in range(block):
                    self.step(self.dt)
                steps += block
                ratio = self.unbalanced_ratio(floor)
        finally:
            self._fire = None
            self.mass, self.inv_mass = mass, inv_mass
            self.dt = min(dt, self.stable_dt())
        _require_finite("unbalanced-force ratio", ratio)
        if ratio > tol:
            raise ConvergenceError(
                f"equilibration left an unbalanced-force ratio of {ratio:g} "
                f"after {steps} steps; the tolerance is {tol:g}")
        self._vel[:] = 0.0
        return ratio

    # -- transient contacts ----------------------------------------------------

    def snapshot(self) -> ParticleAssembly:
        """The assembly at the current positions and radii."""
        return ParticleAssembly(self.pos, self.radii, self.phases,
                                self.assembly.densities, self.assembly.domain)

    def refresh_transient_contacts(self) -> None:
        """Rebuild the unbonded rows of the pair table at ``skin`` and anchor
        :meth:`step`'s move test here.

        Pairs that carry a bond row (intact or broken) are excluded; a broken
        bond already acts as a linear contact through its own row.  ``dt``
        becomes :meth:`stable_dt`, or inside :meth:`equilibrate` the lesser
        of the two, as after a bond break.
        """
        ia, ib, _ = contact_arrays(self.snapshot(), self.skin)
        new = ~np.isin(ia * np.int64(self.n) + ib, self._bond_keys)
        ia, ib = ia[new], ib[new]
        nb = self.n_bonds
        self.ia = np.concatenate([self.b_ia, ia])
        self.ib = np.concatenate([self.b_ib, ib])
        k_lin = self._pair_materials(ia, ib)[3][0]
        self.k_lin = np.concatenate([self.k_lin[:nb], k_lin])
        # the per-row caches the class docstring lists
        axes = self.n * np.arange(3)[:, None]
        self._end_idx = np.stack((self.ib, self.ia))[:, None, :] + axes
        self._vel_idx = self._end_idx[:, :, :nb].copy()
        self._radius_sum = self.radii.take(self.ia) + self.radii.take(self.ib)
        self._anchor = SkinAnchor(self._pos, self.skin)
        dt = self.stable_dt()
        self.dt = dt if self._fire is None else min(self.dt, dt)

    def grow_radii(self, d_radius: np.ndarray) -> None:
        """Add ``d_radius`` to the radii, then
        :meth:`refresh_transient_contacts`, which rebuilds the radius sums
        the force pass reads."""
        self.radii += d_radius
        self._bot_reach_z = None
        self.refresh_transient_contacts()

    # -- thermal coupling hooks -------------------------------------------------

    def apply_bond_thermal_offsets(self, d_temp: np.ndarray,
                                   alpha: np.ndarray) -> None:
        """Accumulate thermal displacement offsets on intact bonds.

        The offset per bond is ``-alpha_b * L0 * dT`` with ``alpha_b`` the
        smaller expansion coefficient of the pair and ``dT`` the mean
        temperature change of the two particles; cooling therefore adds
        compression.  That cancels the geometric shrink of a bond between
        two particles of a material that shrinks on cooling, but ice grows
        on cooling, so on an ice-ice bond it doubles the compression of the
        growth (see :mod:`frostdem.frostheave`).
        """
        alpha_b = np.minimum(alpha[self.b_ia], alpha[self.b_ib])
        dt_bond = 0.5 * (d_temp[self.b_ia] + d_temp[self.b_ib])
        self.b_offset[self.b_intact] += (-alpha_b * self.b_length0
                                         * dt_bond)[self.b_intact]

    # -- observables --------------------------------------------------------------

    def kinetic_energy(self) -> float:
        return 0.5 * float(np.sum(self.mass * np.sum(self.vel ** 2, axis=1)))

    def momentum(self) -> np.ndarray:
        # summed over row-major velocities, particle by particle
        return (self.mass[:, None] * np.ascontiguousarray(self.vel)).sum(axis=0)

    def _active_rows(self, overlap: np.ndarray) -> np.ndarray:
        """The rows that carry force: intact bonds and overlapping pairs."""
        active = overlap > 0.0
        active[:self.n_bonds] |= self.b_intact
        return active

    def contact_summary(self) -> tuple[float, int, float]:
        """Largest compressive normal force over the pair table; active
        pairs, the intact bonds plus the other pairs currently overlapping;
        and the total overlap-lens volume over all overlapping pairs."""
        _, fn, dist, overlap = self._force_pass(0.0, mutate=False)
        force = float(np.max(fn, initial=0.0))
        touching = overlap > 0.0
        active = self._active_rows(overlap)
        dd, ra, rb = (dist[touching], self.radii[self.ia[touching]],
                      self.radii[self.ib[touching]])
        lens = (np.pi * (ra + rb - dd) ** 2
                * (dd ** 2 + 2.0 * dd * (ra + rb) - 3.0 * (ra - rb) ** 2)
                / (12.0 * np.maximum(dd, 1e-12)))
        return force, int(np.count_nonzero(active)), float(lens.sum())


class _Fire:
    """The FIRE velocity update of one :meth:`ParticleSystem.equilibrate`."""

    def __init__(self):
        self.alpha = FIRE_ALPHA0
        self.positive_steps = 0

    def steer(self, vel: np.ndarray, force: np.ndarray) -> None:
        """Mix ``vel`` in place toward ``force`` while the power is positive,
        shrinking the mixing weight after :data:`FIRE_N_MIN` such steps; zero
        it otherwise.  A power that is not finite mixes, so a non-finite
        state stays non-finite for the ratio check to catch.

        Both arrays are ``(n, 3)``, views of the component-major storage
        included: the power and the norms run over their particle-major
        flattening, as ``np.vdot`` flattens them."""
        f, v = force.ravel(), vel.ravel()
        power = float(np.vdot(f, v))
        if power <= 0.0:
            vel[:] = 0.0
            self.alpha = FIRE_ALPHA0
            self.positive_steps = 0
            return
        # a positive power means a nonzero force, so |F| divides safely
        v_norm = math.sqrt(float(np.vdot(v, v)))
        f_norm = math.sqrt(float(np.vdot(f, f)))
        vel *= 1.0 - self.alpha
        vel += (self.alpha * v_norm / f_norm) * force
        self.positive_steps += 1
        if self.positive_steps > FIRE_N_MIN:
            self.alpha *= FIRE_F_ALPHA


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-column dot product of two ``(3, m)`` arrays, summed as
    ``np.einsum("ij,ij->i")`` sums a contiguous 3-wide row:
    ``(p0 + p2) + p1``."""
    p = u * v
    out = p[0] + p[2]
    out += p[1]
    return out


def _force_ratio(net: float, contact: float, floor: float) -> float:
    """Mean net force over mean contact force raised to ``floor``; 0 when no
    contact carries more than 1e-12 N."""
    if contact <= 1e-12:
        return 0.0
    return net / max(contact, floor)


def _require_finite(what: str, value: float,
                    strain: float | None = None) -> float:
    """``value``, or a StabilityError naming ``what`` if it is not finite."""
    if not math.isfinite(value):
        at = "" if strain is None else f" at a strain of {strain:g}"
        raise StabilityError(f"the {what} is {value}{at}: the particle state "
                             "is no longer finite")
    return value


# ---------------------------------------------------------------------------
# Uniaxial compression test and calibration

def default_materials(assembly: ParticleAssembly) -> dict[ContactKind, BondMaterial]:
    """A fresh copy of the shipped table for the assembly's phase mix:
    :data:`SATURATED_MATERIALS` if it holds water, else :data:`DRY_MATERIALS`."""
    return dict(SATURATED_MATERIALS if assembly.n_water else DRY_MATERIALS)


def build_system(assembly: ParticleAssembly,
                 materials: dict[ContactKind, BondMaterial] | None = None
                 ) -> ParticleSystem:
    """Construct a particle system; ``materials`` default to the phase mix's."""
    return ParticleSystem(assembly, default_materials(assembly)
                          if materials is None else materials)


@dataclass(frozen=True)
class LoadingConfig:
    """Loading and calibration of one compression run: the ``[mechanics]``
    section.  Calibration runs when both targets are set, for at most
    ``calibration_budget`` runs (20 when left out)."""

    platen_velocity: float = 2.0          # mm/s
    target_strain: float = 0.015
    calibrate_peak: float | None = None     # MPa
    calibrate_modulus: float | None = None  # GPa
    calibration_budget: int | None = None

    def __post_init__(self):
        require_finite(platen_velocity=self.platen_velocity,
                       target_strain=self.target_strain)
        if self.platen_velocity <= 0:
            raise InvalidConfigError(
                f"platen_velocity must be > 0, got {self.platen_velocity:g}")
        if self.target_strain < MODULUS_WINDOW[1]:
            raise InvalidConfigError(
                f"target_strain must be >= {MODULUS_WINDOW[1]:g}, the end of the "
                f"modulus window, got {self.target_strain:g}")
        if self.calibration_budget is not None and self.calibration_budget < 1:
            raise InvalidConfigError(
                f"calibration_budget must be >= 1, got {self.calibration_budget}")
        targets = {"calibrate_peak": self.calibrate_peak,
                   "calibrate_modulus": self.calibrate_modulus}
        for key, value in targets.items():
            # written 'not > 0' so that a NaN fails it too
            if value is not None and not value > 0:
                raise InvalidConfigError(f"{key} must be > 0, got {value:g}")
        missing = [key for key, value in targets.items() if value is None]
        if len(missing) == 1:
            raise InvalidConfigError(
                f"{missing[0]} is missing: calibration takes both targets")
        if missing and self.calibration_budget is not None:
            raise InvalidConfigError(
                "calibration_budget is set without calibrate_peak and "
                "calibrate_modulus: the budget needs both targets")


def run_uniaxial_test(assembly: ParticleAssembly, platen_velocity: float,
                      target_strain: float,
                      materials: dict[ContactKind, BondMaterial] | None = None,
                      *, stop_fraction: float = 0.6) -> StressStrainCurve:
    """Rigid-platen axial compression of ``assembly`` to ``target_strain``.

    The assembly's system is built with ``materials`` (by default the phase
    mix's) and equilibrated unconfined, which raises
    :class:`~frostdem.errors.ConvergenceError` if it stops at its step cap;
    the platens are then seated force-free at the relaxed extremes.
    Sampling occurs on a fixed strain grid; the run stops at the target
    strain or once post-peak stress falls below ``stop_fraction`` of the
    peak.  A run that reaches neither within :data:`LOADING_STEP_CAP` steps
    raises :class:`~frostdem.errors.ConvergenceError`; a platen stress that
    is not finite at a sample raises :class:`~frostdem.errors.StabilityError`.
    A platen velocity or target strain that :class:`LoadingConfig` refuses
    raises :class:`~frostdem.errors.InvalidConfigError` before any step.  The
    assembly is only read.
    """
    LoadingConfig(platen_velocity, target_strain)
    system = build_system(assembly, materials)
    system.equilibrate()
    system.set_platens()

    strains, stresses = [0.0], [system.platen_stress()]
    # the loop computes platen_stress and platen_strain from locals
    walls = system.walls
    area = math.pi * assembly.domain.radius ** 2
    z_bot, gap0 = walls["z_bot"], walls["gap0"]
    sample_interval = 2e-5      # strain between two curve samples
    next_sample = sample_interval
    peak = 0.0
    stress_acc = 0.0
    acc_count = 0
    for _ in range(LOADING_STEP_CAP):
        h = system.dt
        walls["z_top"] = z_top = walls["z_top"] - platen_velocity * h
        system.step(h)
        stress_acc += 0.5 * (abs(walls["f_bot"]) + abs(walls["f_top"])) / area
        acc_count += 1
        strain = (gap0 - (z_top - z_bot)) / gap0
        if strain >= next_sample:
            stress = _require_finite("platen stress", stress_acc / acc_count, strain)
            strains.append(strain)
            stresses.append(stress)
            stress_acc, acc_count = 0.0, 0
            next_sample += sample_interval
            peak = max(peak, stress)
            if strain >= target_strain:
                break
            if (peak > 0 and stress < stop_fraction * peak
                    and strain > MODULUS_WINDOW[1] * 1.5):
                break
    else:
        raise ConvergenceError(
            f"loading reached a strain of {system.platen_strain():g} after "
            f"{LOADING_STEP_CAP} steps; the target is {target_strain:g}")
    return StressStrainCurve(np.array(strains), np.array(stresses))


@dataclass(frozen=True)
class CalibrationRound:
    round_index: int
    material: BondMaterial
    sim_peak: float
    sim_modulus: float
    peak_rel_err: float
    modulus_rel_err: float


@dataclass
class CalibrationResult:
    """Outcome of :func:`calibrate`: one audit round per simulation run, and
    ``curve`` and its ``report``, the run of the returned ``material``."""

    material: BondMaterial
    converged: bool
    sim_runs: int
    audit: list[CalibrationRound]
    curve: StressStrainCurve
    report: MechanicalReport

    @property
    def final(self) -> CalibrationRound:
        return self.audit[-1]


#: Relative-error target for calibration convergence.
CALIBRATION_TOLERANCE = 0.05


def calibrate(loading: LoadingConfig, initial: BondMaterial,
              assembly: ParticleAssembly) -> CalibrationResult:
    """Deterministic coordinate descent on the rock-bond micro-parameters.

    Scales the contact/bond moduli to match the target modulus, then the
    bond strengths to match the target peak, re-simulating after each
    adjustment until both relative errors fall under 5% or the simulation
    budget is exhausted (the result is then flagged non-converged).  The
    water bonds of a saturated assembly keep :data:`SATURATED_MATERIALS`.
    The result keeps the curve of the last run, the run of its material,
    and that curve's report.
    """
    peak, modulus = loading.calibrate_peak, loading.calibrate_modulus
    budget = loading.calibration_budget or 20

    # secant updates in log space absorb the mildly nonlinear response of the
    # packing; each knob keeps its last (log scale, log response) point
    def secant_step(history: list[tuple[float, float]], target: float,
                    current: float, default_exp: float) -> float:
        exponent = default_exp
        if len(history) >= 2:
            (s0, r0), (s1, r1) = history[-2], history[-1]
            if abs(s1 - s0) > 1e-9 and abs(r1 - r0) > 1e-9:
                exponent = float(np.clip((r1 - r0) / (s1 - s0), 0.4, 3.0))
        return math.log(target / current) / exponent

    mod_scale, str_scale = 1.0, 1.0
    mod_hist: list[tuple[float, float]] = []
    str_hist: list[tuple[float, float]] = []
    audit: list[CalibrationRound] = []
    while True:
        material = initial.scaled(mod_scale, str_scale)
        materials = default_materials(assembly)
        materials[ContactKind.ROCK_ROCK] = material
        curve = run_uniaxial_test(assembly, loading.platen_velocity,
                                  loading.target_strain, materials)
        report = extract_mechanical_params(curve)
        err_peak = (report.peak_strength - peak) / peak
        err_mod = (report.elastic_modulus - modulus) / modulus
        audit.append(CalibrationRound(len(audit), material, report.peak_strength,
                                      report.elastic_modulus, err_peak, err_mod))
        mod_hist.append((math.log(mod_scale), math.log(report.elastic_modulus)))
        str_hist.append((math.log(str_scale), math.log(report.peak_strength)))
        converged = (abs(err_peak) < CALIBRATION_TOLERANCE
                     and abs(err_mod) < CALIBRATION_TOLERANCE)
        if converged or len(audit) >= budget:
            return CalibrationResult(material, converged, len(audit), audit,
                                     curve, report)
        if abs(err_mod) >= CALIBRATION_TOLERANCE:
            step = secant_step(mod_hist, modulus, report.elastic_modulus,
                               default_exp=1.3)
            mod_scale *= math.exp(float(np.clip(step, -1.2, 1.2)))
        else:
            step = secant_step(str_hist, peak, report.peak_strength,
                               default_exp=1.0)
            str_scale *= math.exp(float(np.clip(step, -1.2, 1.2)))
