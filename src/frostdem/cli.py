"""Experiment orchestration: freeze, compression and analysis pipelines.

One pipeline per invocation.  Each ``cmd_*`` picks its settings types,
reads its inputs and computes, then hands back its artifacts unwritten with
a one-line summary.  ``main`` alone writes: it refuses a run directory that
cannot be one before the command runs, and once the command has returned
it checks that the directory holds no file the manifest would not list,
then writes every artifact atomically and then the digest manifest.  So a
failed run leaves no run directory, and identical config+seed reruns are
byte-identical.

Exit codes: 0 success, 2 config error, 3 input-parse error, 4 numerical
stability error.
"""
from __future__ import annotations

import argparse
import errno
import io
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, artifacts
from .config import ExperimentConfig
from .errors import (FrostDemError, InputParseError, InvalidConfigError,
                     StabilityError)
from .frostheave import FreezeConfig, run_freeze
from .mechanics import (LoadingConfig, calibrate, default_materials,
                        extract_mechanical_params, run_uniaxial_test)
from .packing import (ContactKind, CylinderDomain, PackingConfig,
                      ParticleAssembly, Phase, generate_packing)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_STABILITY = 4


# ---------------------------------------------------------------------------
# Input-file readers

#: The line ends ``str.splitlines`` knows once ``read_text`` has turned
#: "\r\n" and "\r" into "\n"; ``_read_rows`` splits lines at these alone.
_LINE_END = re.compile("[\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
#: Every byte a row body may hold for ``_load_body`` to parse it: with only
#: these, np.loadtxt and the line loop split lines and fields alike, and
#: numpy converts each field to the same double as ``float``.
_PLAIN_BODY = b"0123456789.eE+- \t\n"


def _read_rows(path: Path, n_columns: tuple[int, ...], kind: str):
    """Numeric rows from a columnar text file.  Every row before the first
    data row that is not all numbers, such as a column-name row, is
    skipped, and a '#' line anywhere is a header.  The first data row fixes
    the column count, which must be one of ``n_columns``, and every value
    must be finite.  Header values come back as ``meta[key] = (text, line
    number)``.  Errors cite the 1-based line number, counting lines as
    ``str.splitlines`` does (``_LINE_END``).

    The header is scanned once, up to the first data row; from that row
    on, a plain body is parsed by one ``np.loadtxt``, and any other body,
    or one that np.loadtxt declines, by the line loop, which reports the
    body's errors."""
    if not path.exists():
        raise InvalidConfigError(f"{kind} file not found: {path}")
    text = path.read_text()
    meta: dict[str, tuple[str, int]] = {}
    pos, lineno = 0, 0
    while pos < len(text):
        lineno += 1
        found = _LINE_END.search(text, pos)
        end = found.start() if found else len(text)
        line = text[pos:end].strip()
        if line.startswith("#"):
            _meta_line(line, lineno, meta, path)
        elif line and (first := _numbers(line)) is not None:
            break
        pos = end + 1
    else:
        raise InputParseError(f"no data rows in {kind} file", line=1,
                              path=str(path))
    if len(first) not in n_columns:
        raise InputParseError(
            f"expected {' or '.join(map(str, n_columns))} columns, "
            f"got {len(first)}", line=lineno, path=str(path))
    # no text copy of the body lives beside the bytes np.loadtxt parses
    data = _load_body(text[pos:].encode())
    if data is None:
        data = _read_body_by_line(text[pos:], lineno, len(first), meta, path)
    return data, meta


def _load_body(body: bytes) -> np.ndarray | None:
    """The rows of a plain body parsed by one np.loadtxt, or None where
    that might not match the line loop."""
    if body.translate(None, _PLAIN_BODY):
        return None
    try:
        data = np.loadtxt(io.BytesIO(body), ndmin=2)
    except ValueError:
        return None
    return data if np.isfinite(data).all() else None


def _read_body_by_line(body: str, lineno: int, width: int, meta: dict,
                       path: Path) -> np.ndarray:
    """The rows of a body whose first line, line ``lineno`` of the file, is
    a data row ``width`` wide, read one line at a time; '#' lines go to
    ``meta``, and the first bad line raises."""
    rows = []
    for lineno, raw in enumerate(_LINE_END.split(body), start=lineno):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _meta_line(line, lineno, meta, path)
            continue
        values = _numbers(line)
        if values is None:
            raise InputParseError(f"expected numbers, got {line!r}",
                                  line=lineno, path=str(path))
        if len(values) != width:
            raise InputParseError(f"expected {width} columns, got {len(values)}",
                                  line=lineno, path=str(path))
        if not all(map(math.isfinite, values)):
            raise InputParseError(f"expected finite numbers, got {line!r}",
                                  line=lineno, path=str(path))
        rows.append(values)
    return np.array(rows)


def _meta_line(line: str, lineno: int, meta: dict, path: Path) -> None:
    """Record a '# key = value' line in ``meta``; a key given twice is an
    input error at its second line, since either value could be the one
    meant."""
    body = line.lstrip("#").strip()
    if "=" in body:
        key, value = body.split("=", 1)
        key = key.strip()
        if key in meta:
            raise InputParseError(
                f"header {key} is given twice, first at line {meta[key][1]}",
                line=lineno, path=str(path))
        meta[key] = (value.strip(), lineno)


def _numbers(line: str) -> list[float] | None:
    """The values of a data line, or None if a field is not a number."""
    try:
        return [float(p) for p in line.replace(",", "\t").split()]
    except ValueError:
        return None


def read_wave_record(path: str | Path) -> analysis.WaveRecord:
    """Waveform table (time, strain_i, strain_r, strain_t) with a # header
    block declaring bar and specimen geometry."""
    data, meta = _read_rows(Path(path), (4,), "waveform")

    def header(key, required=True):
        if key not in meta:
            if not required:
                return None
            raise InputParseError(f"missing '# {key} = ...' header", line=1,
                                  path=str(path))
        text, lineno = meta[key]
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InputParseError(
                f"header {key} must be a finite number, got {text!r}",
                line=lineno, path=str(path))
        return value

    return analysis.WaveRecord(
        time=data[:, 0], strain_incident=data[:, 1],
        strain_reflected=data[:, 2], strain_transmitted=data[:, 3],
        bar_area=header("bar_area"), bar_wave_speed=header("bar_wave_speed"),
        bar_modulus=header("bar_modulus"),
        specimen_area=header("specimen_area", required=False),
        specimen_length=header("specimen_length", required=False))


def read_spectrum(path: str | Path) -> np.ndarray:
    """Relaxation-time spectrum, an (N, 2) array of time and amplitude."""
    data, _ = _read_rows(Path(path), (2,), "spectrum")
    return data


def read_points(path: str | Path) -> np.ndarray:
    """Point cloud of 2 or 3 coordinate columns, as the first row has."""
    data, _ = _read_rows(Path(path), (2, 3), "points")
    return data


def read_particles(path: str | Path, domain: CylinderDomain) -> ParticleAssembly:
    """Assembly from a particle snapshot table (id x y z radius phase density)."""
    p = Path(path)
    if not p.exists():
        raise InvalidConfigError(f"particles file not found: {p}")
    centers, radii, phases, densities = [], [], [], []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise InputParseError(f"expected 7 columns, got {len(parts)}",
                                  line=lineno, path=str(p))
        try:
            x, y, z, radius, density = (float(parts[i]) for i in (1, 2, 3, 4, 6))
        except ValueError:
            if not centers:
                continue
            raise InputParseError(f"expected numbers, got {line!r}",
                                  line=lineno, path=str(p)) from None
        if not all(map(math.isfinite, (x, y, z, radius, density))):
            raise InputParseError(f"expected finite numbers, got {line!r}",
                                  line=lineno, path=str(p))
        if radius <= 0 or density <= 0:
            raise InputParseError(
                f"radius and density must be > 0, got {line!r}",
                line=lineno, path=str(p))
        if parts[5] not in ("rock", "water"):
            raise InputParseError(
                f"phase must be 'rock' or 'water', got {parts[5]!r}",
                line=lineno, path=str(p))
        centers.append((x, y, z))
        radii.append(radius)
        phases.append(Phase[parts[5].upper()])
        densities.append(density)
    if not centers:
        raise InputParseError("no particle rows", line=1, path=str(p))
    return ParticleAssembly(np.array(centers), np.array(radii),
                            np.array(phases, dtype=np.int8),
                            np.array(densities), domain)


# ---------------------------------------------------------------------------
# Pipelines
#
# A command returns ``(outputs, summary)``: ``outputs`` lists each artifact as
# ``(file name, writer, *writer arguments)`` in the order ``main`` writes them.

def cmd_freeze(config: ExperimentConfig, args) -> tuple[list[tuple], str]:
    packing = config.read("packing", PackingConfig, rng_seed=args.seed)
    freeze = config.read("thermal", FreezeConfig)
    result = run_freeze(generate_packing(packing), freeze)

    stat_rows = [(row.label, row.temperature, row.stats.max_contact_force,
                  row.stats.contact_pair_count, row.stats.force_increase_pct,
                  row.stats.contact_volume_reduction_pct)
                 for row in result.rows()]
    crack_rows = ((c.stage, c.substep, c.event.time, *c.event.position,
                   c.event.mode) for c in result.cracks)
    outputs = [
        ("particles.tsv", artifacts.write_particles, result.system.snapshot()),
        ("bonds.tsv", artifacts.write_bonds, result.system),
        ("temperature.tsv", artifacts.write_temperatures,
         result.field.temperatures),
        ("contact_stats.tsv", artifacts.write_table,
         ("stage", "temperature_c", "max_contact_force_n", "contact_pair_count",
          "force_increase_pct", "contact_volume_reduction_pct"), stat_rows),
        ("cracks.tsv", artifacts.write_table,
         ("stage", "substep", "time_s", "x", "y", "z", "mode"), crack_rows)]
    return outputs, (f"freeze run complete: {len(result.stages)} stages, "
                     f"{len(result.cracks)} crack events")


def cmd_compress(config: ExperimentConfig, args) -> tuple[list[tuple], str]:
    loading = config.read("mechanics", LoadingConfig)
    load_path = config.value("mechanics", "load_particles")
    if load_path:
        assembly = read_particles(load_path, config.cylinder())
    else:
        assembly = generate_packing(
            config.read("packing", PackingConfig, rng_seed=args.seed))

    outputs, calibration_pairs, flag = [], [], ""
    if loading.calibrate_peak is None:
        curve = run_uniaxial_test(assembly, loading.platen_velocity,
                                  loading.target_strain)
        report = extract_mechanical_params(curve)
    else:
        calibrated = calibrate(
            loading, default_materials(assembly)[ContactKind.ROCK_ROCK], assembly)
        audit_rows = ((r.round_index, r.material.bond_modulus,
                       r.material.contact_modulus, r.material.tensile_strength,
                       r.material.cohesion, r.sim_peak, r.sim_modulus,
                       r.peak_rel_err, r.modulus_rel_err)
                      for r in calibrated.audit)
        outputs.append((
            "calibration_log.tsv", artifacts.write_table,
            ("round", "bond_modulus_gpa", "contact_modulus_gpa",
             "tensile_strength_mpa", "cohesion_mpa", "sim_peak_mpa",
             "sim_modulus_gpa", "peak_rel_err", "modulus_rel_err"),
            audit_rows))
        # the last calibration run is the run of the calibrated material
        curve, report = calibrated.curve, calibrated.report
        calibration_pairs = [
            ("calibration_converged", calibrated.converged),
            ("calibration_runs", calibrated.sim_runs),
            ("calibration_peak_rel_err", calibrated.final.peak_rel_err),
            ("calibration_modulus_rel_err", calibrated.final.modulus_rel_err)]
        if not calibrated.converged:
            flag = " (calibration non-converged)"
    outputs += [
        ("curve.tsv", artifacts.write_curve, curve),
        ("mech_report.txt", artifacts.write_report,
         [("peak_strength_mpa", report.peak_strength),
          ("elastic_modulus_gpa", report.elastic_modulus),
          ("peak_strain", report.peak_strain),
          ("strain_energy_kj_m3", report.strain_energy), *calibration_pairs])]
    return outputs, (f"compression run complete: peak "
                     f"{report.peak_strength:.2f} MPa, modulus "
                     f"{report.elastic_modulus:.3f} GPa{flag}")


def cmd_analyze(config: ExperimentConfig, args) -> tuple[list[tuple], str]:
    settings = config.read("analysis", analysis.AnalysisConfig)
    outputs = []
    if settings.waveform:
        record = read_wave_record(settings.waveform)
        energies = analysis.compute_energies(record)
        missing = [f"# {key}" for key in ("specimen_area", "specimen_length")
                   if getattr(record, key) is None]
        if settings.static_strength is not None and missing:
            raise InvalidConfigError(
                "[analysis] static_strength needs the specimen geometry, but "
                f"the waveform has no {' or '.join(missing)} header")
        pairs = [("E_i", energies.incident), ("E_r", energies.reflected),
                 ("E_t", energies.transmitted), ("E_a", energies.absorbed),
                 ("eta_pct", "undefined" if energies.efficiency_pct is None
                  else energies.efficiency_pct)]
        if not missing:
            response = analysis.reconstruct_three_wave(record)
            # the columns are stacked only when the table is written
            outputs.append((
                "dynamic_curve.tsv",
                lambda path, r: artifacts.write_table(
                    path, ("time_s", "strain", "stress_mpa", "strain_rate"),
                    np.column_stack((r.time, r.strain, r.stress,
                                     r.strain_rate))),
                response))
            if settings.static_strength is not None:
                dynamic = float(np.max(response.stress))
                pairs.append(("rdif", analysis.compute_rdif(
                    dynamic, settings.static_strength)))
        outputs.append(("energy_report.txt", artifacts.write_report, pairs))
    if settings.rdif_points:
        model = analysis.fit_rdif_model(settings.rdif_points)
        outputs.append(("rdif_report.txt", artifacts.write_report,
                        [("k", model.k), ("m", model.m),
                         ("residual", model.residual),
                         ("degenerate", model.degenerate),
                         ("excluded_points", len(model.excluded))]))
    if settings.spectrum:
        stats = analysis.t2_spectrum_stats(read_spectrum(settings.spectrum),
                                           settings.spectrum_baseline_area)
        outputs.append(("t2_report.txt", artifacts.write_report,
                        [("peak1_pct", stats.peak1_pct),
                         ("peak2_pct", stats.peak2_pct),
                         ("peak3_pct", stats.peak3_pct), ("area", stats.area),
                         ("change_rate_pct", "undefined"
                          if stats.change_rate_pct is None
                          else stats.change_rate_pct)]))
    if settings.t2_areas:
        outputs.append((
            "t2_area_changes.tsv", artifacts.write_table,
            ("area", "change_rate_pct"),
            [(a, analysis.area_change_rate(a, settings.t2_baseline_area))
             for a in settings.t2_areas]))
    if settings.points:
        fractal = analysis.box_counting_dimension(read_points(settings.points))
        outputs.append(("fractal_report.txt", artifacts.write_report,
                        [("D", fractal.dimension),
                         ("r_squared", fractal.r_squared),
                         ("n_scales", len(fractal.scales)),
                         ("degenerate", fractal.degenerate)]))
    return outputs, f"analysis complete: {len(outputs)} reports"


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frostdem",
        description="Freeze-thaw particle simulation and impact-test analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("freeze", "run the freeze pipeline"),
                            ("compress", "run calibration and uniaxial compression"),
                            ("analyze", "run waveform/spectrum/fractal analysis")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides [run] out_dir)")
        # analyze draws no random numbers, so only the packing commands take
        # a seed; argparse rejects it on analyze with exit 2
        if name != "analyze":
            p.add_argument("--seed", type=int, help="seed override")
    return parser


def _check_run_dir(out_dir: Path) -> None:
    """Refuse, before the command runs, an ``out_dir`` that cannot be a
    directory: a file, or a path under one, with the reason mkdir gives."""
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        code = errno.EEXIST if nearest == out_dir else errno.ENOTDIR
        raise InvalidConfigError(f"output directory {out_dir} cannot be "
                                 f"made: {os.strerror(code)}")


def _claim_run_dir(out_dir: Path, names: list[str]) -> None:
    """Create ``out_dir`` for the artifacts ``names`` and their manifest.

    A directory holding another file, which the manifest would not list, or
    a path mkdir fails on, is a config error that leaves the path as it was.
    """
    keep = {*names, "manifest.txt"}
    others = sorted(p.name for p in out_dir.iterdir()
                    if p.name not in keep) if out_dir.is_dir() else []
    if others:
        raise InvalidConfigError(
            f"output directory {out_dir} holds {', '.join(others)}, which this "
            "run would not replace and its manifest would not list")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"output directory {out_dir} cannot be "
                                 f"made: {exc.strerror}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"freeze": cmd_freeze, "compress": cmd_compress,
                "analyze": cmd_analyze}
    try:
        config = ExperimentConfig.from_path(args.config)
        # one seed per run, checked on every command before any work: --seed
        # when given, else [run] seed.  [run] seed and out_dir are checked
        # even where a flag overrides them, and analyze checks the seed
        # though it draws no random numbers
        seed = config.value("run", "seed", int, 0)
        out_dir = config.value("run", "out_dir")
        flag = getattr(args, "seed", None)
        for name, value in (("[run] seed", seed), ("--seed", flag)):
            if value is not None and value < 0:
                raise InvalidConfigError(f"{name} must be >= 0, got {value}")
        args.seed = seed if flag is None else flag
        out_dir = args.out or out_dir
        if not out_dir:
            raise InvalidConfigError(
                "no output directory: set --out or [run] out_dir")
        out_dir = Path(out_dir)
        _check_run_dir(out_dir)
        outputs, summary = handlers[args.command](config, args)
        names = [name for name, *_ in outputs]
        _claim_run_dir(out_dir, names)
        for name, write, *data in outputs:
            write(out_dir / name, *data)
        artifacts.write_manifest(out_dir, names)
    except InputParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except FrostDemError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{summary}; artifacts in {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
