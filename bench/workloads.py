"""The three workloads: inputs made from a seed, and their output checks.

The program sees only what ``prepare`` writes (a config file and, for some
workloads, input files); the seed reaches it only through those files.  See
README.md in this directory for why each workload was chosen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# The README's desk packing: rock 1.0-1.2 mm, water 0.8-0.95 mm, 8.59%
# water share of particle volume, cylinders filled to solid fraction 0.5.
DESK_PACKING = dict(target_porosity=0.0859, rock_radius_min=1.0,
                    rock_radius_max=1.2, water_radius_min=0.8,
                    water_radius_max=0.95, rock_density=2600.0,
                    water_density=960.0, solid_fraction=0.5)

# Cylinder (radius, height) in mm and the particle count the desk packing
# puts in it.  Both DEM workloads use it, so one call takes a few seconds
# and a run holds a dozen of them.  The README's smaller 5 mm x 10 mm
# cylinder is not used: some seeds cannot be packed in it (seed 6 raises
# PackingInfeasibleError), and a benchmark input must not fail.
DESK_CYLINDER = (6.0, 12.0)
DESK_PARTICLES = 132
CALIBRATION_BUDGET = 2
PLATEN_VELOCITY = 4.0   # mm/s
# Input sets per run, each from its own seed.  The packing a seed gives sets
# how long packing and equilibration take (packing alone varies 2.5x from
# seed to seed), so a run times several packings and takes the median.
FREEZE_SETS = 5
COMPRESS_SETS = 5
ANALYZE_SETS = 4
WAVEFORM_ROWS = 25_000
SPECTRUM_ROWS = 5_000
CLOUD_POINTS = 75_000
# The cloud keeps 5 of 8 octants at every one of 12 halvings, so its
# similarity dimension is log2(5); sampling it with 7.5e4 points leaves the
# box-counting estimate within about 0.15 of that.
CLOUD_KEEP = 5
CLOUD_LEVELS = 12
CLOUD_DIMENSION = math.log2(CLOUD_KEEP)
DIMENSION_BAND = 0.3


def _write_config(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _packing_section(radius: float, height: float) -> dict[str, object]:
    return {**DESK_PACKING, "cylinder_radius": radius, "cylinder_height": height}


# ---------------------------------------------------------------------------
# freeze_n132

def prepare_freeze(seed: int, inputs: Path) -> Path:
    return _write_config(inputs / "freeze.cfg", {
        "run": {"seed": seed},
        "packing": _packing_section(*DESK_CYLINDER),
        "thermal": {"start_temp": 20, "stage_temps": "0,-10,-20"},
    })


# ---------------------------------------------------------------------------
# compress_n132

def prepare_compress(seed: int, inputs: Path) -> Path:
    from frostdem import artifacts
    from frostdem.packing import PackingConfig, generate_packing

    packing = _packing_section(*DESK_CYLINDER)
    assembly = generate_packing(PackingConfig(**packing, rng_seed=seed))
    snapshot = artifacts.write_particles(inputs / "snapshot.tsv", assembly)
    return _write_config(inputs / "compress.cfg", {
        "run": {"seed": seed},
        "packing": packing,
        "mechanics": {"platen_velocity": PLATEN_VELOCITY, "target_strain": 0.015,
                      "calibrate_peak": 58.7, "calibrate_modulus": 4.0,
                      "calibration_budget": CALIBRATION_BUDGET,
                      "load_particles": snapshot.resolve()},
    })


# ---------------------------------------------------------------------------
# analyze_shpb

BAR_HEADER = {"bar_area": 1.9635e-3, "bar_wave_speed": 5000.0,
              "bar_modulus": 200.0, "specimen_area": 4.9087e-4,
              "specimen_length": 0.05}


def waveform(rng: np.random.Generator) -> np.ndarray:
    """Aligned split-Hopkinson-bar gauge strains: a half-sine incident pulse,
    a reflected share of it and a transmitted share that together keep the
    specimen near force balance and absorb the rest of the energy."""
    dt = 1e-8
    t = np.arange(WAVEFORM_ROWS) * dt
    duration = 0.4 * WAVEFORM_ROWS * dt
    start = 0.1 * WAVEFORM_ROWS * dt
    phase = np.clip((t - start) / duration, 0.0, 1.0)
    pulse = np.sin(np.pi * phase)
    amplitude = rng.uniform(1.8e-4, 2.2e-4)
    reflected = rng.uniform(0.55, 0.65)
    transmitted = (1.0 - reflected) * rng.uniform(0.9, 1.0)
    noise = rng.normal(scale=1e-3 * amplitude, size=(3, len(t)))
    e_i = amplitude * pulse + noise[0]
    e_r = -reflected * amplitude * pulse ** 1.2 + noise[1]
    e_t = transmitted * amplitude * pulse ** 1.5 + noise[2]
    return np.column_stack([t, e_i, e_r, e_t])


def fractal_cloud(rng: np.random.Generator) -> np.ndarray:
    """Points on a random Cantor dust: at each halving, a point lands in one
    of ``CLOUD_KEEP`` fixed octants (mm, 50 mm cube)."""
    octants = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)], float)
    kept = octants[np.sort(rng.permutation(8)[:CLOUD_KEEP])]
    pts = np.zeros((CLOUD_POINTS, 3))
    for level in range(1, CLOUD_LEVELS + 1):
        pts += kept[rng.integers(0, CLOUD_KEEP, CLOUD_POINTS)] * 0.5 ** level
    pts += rng.random(pts.shape) * 0.5 ** CLOUD_LEVELS
    return 50.0 * pts


def t2_spectrum(rng: np.random.Generator) -> np.ndarray:
    """Three log-normal pore-size peaks over log-spaced relaxation times (ms)."""
    t2 = np.logspace(-2, 4, SPECTRUM_ROWS)
    amp = np.zeros_like(t2)
    for center, weight in ((1.0, rng.uniform(0.5, 0.8)),
                           (30.0, rng.uniform(0.1, 0.3)),
                           (1000.0, rng.uniform(0.02, 0.1))):
        amp += 400.0 * weight * np.exp(-0.5 * (np.log10(t2 / center) / 0.3) ** 2)
    return np.column_stack([t2, amp])


def prepare_analyze(seed: int, inputs: Path) -> Path:
    rng = np.random.default_rng(seed)
    wave_path = inputs / "waveform.tsv"
    header = "\n".join(f"# {k} = {v!r}" for k, v in BAR_HEADER.items())
    np.savetxt(wave_path, waveform(rng), fmt="%.10g", delimiter="\t",
               comments="",
               header=header + "\ntime\tstrain_incident\tstrain_reflected"
                               "\tstrain_transmitted")
    points_path = inputs / "points.tsv"
    np.savetxt(points_path, fractal_cloud(rng), fmt="%.10g", delimiter="\t")
    spectrum_path = inputs / "spectrum.tsv"
    np.savetxt(spectrum_path, t2_spectrum(rng), fmt="%.10g", delimiter="\t",
               comments="", header="t2_ms\tamplitude")
    ratios = 1.0 + np.array([0.05, 0.12, 0.32]) * rng.uniform(0.9, 1.1, 3)
    rdif = ",".join(f"{rate}:{ratio:.4f}" for rate, ratio in
                    zip((200, 400, 600), ratios))
    return _write_config(inputs / "analyze.cfg", {
        "run": {"seed": seed},
        "analysis": {"waveform": wave_path.resolve(),
                     "energy_mode": "stress-strain",
                     "static_strength": 58.7,
                     "spectrum": spectrum_path.resolve(),
                     "spectrum_baseline_area": 14683,
                     "t2_areas": "17944,23956",
                     "t2_baseline_area": 14683,
                     "points": points_path.resolve(),
                     "rdif_points": rdif},
    })


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str                          # frostdem subcommand
    expected_files: set[str]
    prepare: Callable[[int, Path], Path]  # (seed, inputs dir) -> config path
    check: Callable[[Path], list[str]]    # run dir -> problems
    input_sets: int                       # input sets one run makes and times

    def input_seeds(self, seed: int) -> list[int]:
        """The seeds of one run's input sets; distinct for distinct ``seed``."""
        return [seed * self.input_sets + i for i in range(self.input_sets)]


WORKLOADS = {w.name: w for w in (
    Workload("freeze_n132", "freeze", checks.FREEZE_FILES, prepare_freeze,
             lambda out: checks.check_freeze(out, DESK_PARTICLES), FREEZE_SETS),
    Workload("compress_n132", "compress", checks.COMPRESS_FILES,
             prepare_compress,
             lambda out: checks.check_compress(out, CALIBRATION_BUDGET),
             COMPRESS_SETS),
    Workload("analyze_shpb", "analyze", checks.ANALYZE_FILES,
             prepare_analyze,
             lambda out: checks.check_analyze(out, WAVEFORM_ROWS,
                                              CLOUD_DIMENSION, DIMENSION_BAND),
             ANALYZE_SETS),
)}
