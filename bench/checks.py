"""Output checks on a finished run directory; plain file reads, no frostdem.

Each check returns a list of problems; an empty list means the run passed.
Invariants are physical and carry tolerances, never bitwise comparisons
across commits, because reordered sums change round-off.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

FREEZE_FILES = {"particles.tsv", "bonds.tsv", "temperature.tsv",
                "contact_stats.tsv", "cracks.tsv"}
COMPRESS_FILES = {"calibration_log.tsv", "curve.tsv", "mech_report.txt"}
ANALYZE_FILES = {"dynamic_curve.tsv", "energy_report.txt", "rdif_report.txt",
                 "t2_report.txt", "t2_area_changes.tsv", "fractal_report.txt"}


def verify_manifest(out_dir: Path, expected: set[str]) -> list[str]:
    """Every listed file exists with the listed SHA-256 and size, and the
    run directory holds exactly ``expected`` plus the manifest."""
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        return ["manifest.txt is missing"]
    problems = []
    listed = set()
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            problems.append(f"manifest line {lineno} is malformed")
            continue
        name, digest, size = parts
        listed.add(name)
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} is listed in the manifest but missing")
            continue
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"{name} does not match its manifest digest")
        if str(len(data)) != size:
            problems.append(f"{name} does not match its manifest size")
    if listed != expected:
        problems.append(f"manifest lists {sorted(listed)}, expected {sorted(expected)}")
    present = {p.name for p in out_dir.iterdir()} - {"manifest.txt"}
    if present != listed:
        problems.append(f"files outside the manifest: {sorted(present - listed)}")
    return problems


def read_report(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines())
    return {key: value for key, value in pairs}


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def column(path: Path, name: str) -> np.ndarray:
    header, rows = read_table(path)
    i = header.index(name)
    return np.array([float(row[i]) for row in rows])


def nonfinite_cells(path: Path) -> list[str]:
    """Problems for every numeric cell of a table or report that is not finite."""
    if path.suffix == ".txt":
        cells = read_report(path).values()
    else:
        cells = (cell for row in read_table(path)[1] for cell in row)
    bad = 0
    for cell in cells:
        try:
            bad += not math.isfinite(float(cell))
        except ValueError:
            pass  # text cell (phase, mode, "undefined")
    return [f"{path.name} holds {bad} non-finite values"] if bad else []


def _finite_outputs(out_dir: Path, names: set[str]) -> list[str]:
    return [p for name in sorted(names) for p in nonfinite_cells(out_dir / name)]


def check_freeze(out_dir: Path, n_particles: int) -> list[str]:
    """Stage directions: liquid cooling relaxes the network, frozen cooling
    loads it further; every value is finite."""
    problems = _finite_outputs(out_dir, FREEZE_FILES)
    if len(read_table(out_dir / "particles.tsv")[1]) != n_particles:
        problems.append(f"particles.tsv does not hold {n_particles} particles")
    stats = out_dir / "contact_stats.tsv"
    temp = column(stats, "temperature_c")
    force = column(stats, "max_contact_force_n")
    increase = column(stats, "force_increase_pct")
    by_temp = {float(t): i for i, t in enumerate(temp)}
    if not all(t in by_temp for t in (0.0, -10.0, -20.0)):
        return problems + ["contact_stats.tsv lacks the 0, -10 and -20 degC stages"]
    if not increase[by_temp[0.0]] < 0.0:
        problems.append("the 20->0 degC stage did not relax the contact network")
    if not force[by_temp[-20.0]] > force[by_temp[-10.0]]:
        problems.append("the -10->-20 degC stage did not load above the previous stage")
    return problems


def check_compress(out_dir: Path, budget: int) -> list[str]:
    problems = _finite_outputs(out_dir, COMPRESS_FILES)
    report = read_report(out_dir / "mech_report.txt")
    for key in ("peak_strength_mpa", "elastic_modulus_gpa"):
        value = float(report.get(key, "nan"))
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{key} = {value} is not finite and positive")
    if report.get("calibration_runs") != str(budget):
        problems.append(f"calibration_runs = {report.get('calibration_runs')}, "
                        f"expected the budget {budget}")
    if len(read_table(out_dir / "calibration_log.tsv")[1]) != budget:
        problems.append(f"calibration_log.tsv does not hold {budget} rounds")
    return problems


def energy_balance_problems(report: dict[str, str], rel_tol: float = 1e-9
                            ) -> list[str]:
    """``E_i = E_r + E_t + E_a`` to the round-off of 12 written digits."""
    e = {key: float(report[key]) for key in ("E_i", "E_r", "E_t", "E_a")}
    scale = max(abs(v) for v in e.values())
    residual = e["E_i"] - (e["E_r"] + e["E_t"] + e["E_a"])
    if not abs(residual) <= rel_tol * scale:
        return [f"energy balance off by {residual:g} J (E_i = {e['E_i']:g} J)"]
    return []


def check_analyze(out_dir: Path, waveform_rows: int, dimension: float,
                  dimension_band: float) -> list[str]:
    problems = _finite_outputs(out_dir, ANALYZE_FILES)
    problems += energy_balance_problems(read_report(out_dir / "energy_report.txt"))
    t2 = read_report(out_dir / "t2_report.txt")
    total = sum(float(t2[f"peak{i}_pct"]) for i in (1, 2, 3))
    if not abs(total - 100.0) <= 1e-6:
        problems.append(f"T2 peak percentages sum to {total!r}, not 100")
    d = float(read_report(out_dir / "fractal_report.txt")["D"])
    if not abs(d - dimension) <= dimension_band:
        problems.append(f"box-counting D = {d:.4f} is outside "
                        f"{dimension:.4f} +- {dimension_band}")
    if len(read_table(out_dir / "dynamic_curve.tsv")[1]) != waveform_rows:
        problems.append(f"dynamic_curve.tsv does not hold {waveform_rows} rows")
    return problems


# ---------------------------------------------------------------------------
# Results the program did not reach

def uniaxial_reached(strain: np.ndarray, stress: np.ndarray,
                     target_strain: float, stop_fraction: float) -> bool:
    """A curve ends at its target strain or after the post-peak drop; any
    other end means the step cap cut it short."""
    if strain[-1] >= target_strain:
        return True
    return bool(stress[-1] < stop_fraction * np.max(stress))


def unreached_problems(equilibrate, uniformity_devs, uniformity_limit: float,
                       uniaxial) -> list[str]:
    """Flags for results a call did not reach: an equilibration that stopped
    above its tolerance (``(ratio, tol)`` pairs), a freeze field outside the
    uniformity limit, a truncated uniaxial curve
    (``(strain, stress, target_strain, stop_fraction)``)."""
    problems = []
    for ratio, tol in equilibrate:
        if not ratio <= tol:
            problems.append(f"equilibrate returned ratio {ratio:.3g} above tol {tol:.3g}")
    for dev in uniformity_devs:
        if not dev < uniformity_limit:
            problems.append(f"freeze field deviates {dev:.3g} degC, limit "
                            f"{uniformity_limit} degC")
    for strain, stress, target, stop_fraction in uniaxial:
        if not uniaxial_reached(strain, stress, target, stop_fraction):
            problems.append(f"uniaxial curve stopped at strain {strain[-1]:.3g} "
                            f"before target {target:.3g} without a post-peak drop")
    return problems
