"""Experiment orchestration: freeze, compression and analysis pipelines.

One pipeline per invocation; every artifact is written atomically into the
run directory together with a digest manifest, so identical config+seed
reruns are byte-identical.

Exit codes: 0 success, 2 config error, 3 input-parse error, 4 numerical
stability error.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, artifacts
from .config import ExperimentConfig
from .errors import (FrostDemError, InputParseError, InvalidConfigError,
                     StabilityError)
from .frostheave import FreezeConfig, run_freeze
from .mechanics import (DEFAULT_MASS_SCALE, MODULUS_WINDOW, MechanicalReport,
                        calibrate, default_materials, extract_mechanical_params,
                        run_uniaxial_test)
from .packing import (ContactKind, CylinderDomain, ParticleAssembly, Phase,
                      generate_packing)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_STABILITY = 4


# ---------------------------------------------------------------------------
# Input-file readers

#: Every byte a row body may hold for ``_load_body`` to parse it: with only
#: these, np.loadtxt and the line loop split lines and fields alike, and
#: numpy converts each field to the same double as ``float``.
_PLAIN_BODY = b"0123456789.eE+- \t\n"
#: Line ends ``str.splitlines`` knows besides "\n" (``read_text`` has already
#: turned "\r\n" and "\r" into "\n").
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _read_rows(path: Path, n_columns: tuple[int, ...], kind: str):
    """Numeric rows from a columnar text file; '#' headers and one optional
    column-name row are skipped.  The first data row fixes the column count,
    which must be one of ``n_columns``, and every value must be finite.
    Header values come back as ``meta[key] = (text, line number)``.  Errors
    cite the 1-based line number.

    A plain body is parsed by one ``np.loadtxt``; anything else, and every
    malformed file, goes through the line loop, which gives the same result
    and is the one that reports errors."""
    if not path.exists():
        raise InvalidConfigError(f"{kind} file not found: {path}")
    text = path.read_text()
    fast = _load_body(text, n_columns)
    if fast is not None:
        return fast
    return _read_rows_by_line(text, n_columns, path, kind)


def _load_body(text: str, n_columns: tuple[int, ...]):
    """(data, meta) of ``_read_rows`` with the rows after the header parsed
    by np.loadtxt, or None where that might not match the line loop."""
    meta: dict[str, tuple[str, int]] = {}
    pos = 0
    lineno = 0
    while True:
        if pos >= len(text):
            return None
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        lineno += 1
        line = text[pos:end].strip()
        if line.startswith("#"):
            _meta_line(line, lineno, meta)
        elif line and _numbers(line) is not None:
            break
        pos = end + 1
    body = text[pos:].encode()
    if (any(c in text[:pos] for c in _OTHER_LINE_ENDS)
            or body.translate(None, _PLAIN_BODY)):
        return None
    try:
        data = np.loadtxt(io.BytesIO(body), ndmin=2)
    except ValueError:
        return None
    if data.shape[1] not in n_columns or not np.isfinite(data).all():
        return None
    return data, meta


def _meta_line(line: str, lineno: int, meta: dict) -> None:
    """Record a '# key = value' line in ``meta``."""
    body = line.lstrip("#").strip()
    if "=" in body:
        key, value = body.split("=", 1)
        meta[key.strip()] = (value.strip(), lineno)


def _numbers(line: str) -> list[float] | None:
    """The values of a data line, or None if a field is not a number."""
    try:
        return [float(p) for p in line.replace(",", "\t").split()]
    except ValueError:
        return None


def _read_rows_by_line(text: str, n_columns: tuple[int, ...], path: Path,
                       kind: str):
    """``_read_rows`` one line at a time."""
    lines = text.splitlines()
    rows = []
    meta: dict[str, tuple[str, int]] = {}
    width = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _meta_line(line, lineno, meta)
            continue
        values = _numbers(line)
        if values is None:
            if width is None:
                continue  # single column-name header row
            raise InputParseError(f"expected numbers, got {line!r}",
                                  line=lineno, path=str(path))
        if width is None:
            if len(values) not in n_columns:
                raise InputParseError(
                    f"expected {' or '.join(map(str, n_columns))} columns, "
                    f"got {len(values)}", line=lineno, path=str(path))
            width = len(values)
        elif len(values) != width:
            raise InputParseError(f"expected {width} columns, got {len(values)}",
                                  line=lineno, path=str(path))
        rows.append(values)
    if not rows:
        raise InputParseError(f"no data rows in {kind} file", line=1,
                              path=str(path))
    data = np.array(rows)
    if not np.isfinite(data).all():
        # only on failure: look again for the first line holding nan or inf
        lineno = next(n for n, raw in enumerate(lines, start=1)
                      if not _finite_row(raw))
        raise InputParseError(
            f"expected finite numbers, got {lines[lineno - 1].strip()!r}",
            line=lineno, path=str(path))
    return data, meta


def _finite_row(raw: str) -> bool:
    """False only for a line of numbers of which one is not finite."""
    values = _numbers(raw)
    return values is None or all(map(math.isfinite, values))


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
    saw_data = False
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
            if not saw_data:
                continue
            raise InputParseError(f"expected numbers, got {line!r}",
                                  line=lineno, path=str(p)) from None
        if not all(map(math.isfinite, (x, y, z, radius, density))):
            raise InputParseError(f"expected finite numbers, got {line!r}",
                                  line=lineno, path=str(p))
        if parts[5] not in ("rock", "water"):
            raise InputParseError(
                f"phase must be 'rock' or 'water', got {parts[5]!r}",
                line=lineno, path=str(p))
        centers.append((x, y, z))
        radii.append(radius)
        phases.append(Phase[parts[5].upper()])
        densities.append(density)
        saw_data = True
    if not centers:
        raise InputParseError("no particle rows", line=1, path=str(p))
    return ParticleAssembly(np.array(centers), np.array(radii),
                            np.array(phases, dtype=np.int8),
                            np.array(densities), domain)


# ---------------------------------------------------------------------------
# Pipelines

def _resolve_out(config: ExperimentConfig, args) -> Path:
    out = args.out or config.out_dir
    if not out:
        raise InvalidConfigError("no output directory: set --out or [run] out_dir")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_freeze(config: ExperimentConfig, args) -> int:
    out_dir = _resolve_out(config, args)
    seed = args.seed if args.seed is not None else config.seed
    packing_cfg = config.packing_config(seed)
    thermal = config.section("thermal", required=False)
    # the boundary steps through the stage checkpoints in conducted substeps
    # and each stage holds until the field is uniform, so a ramp rate or a
    # hold time would have no effect, and the mass scale is not a setting;
    # reject them rather than ignore them
    schedule = ("the boundary follows stage_temps or target_temp in "
                "conducted substeps")
    fixed_mass = f"the mass scale is fixed at {DEFAULT_MASS_SCALE:g}"
    for key, reason in (("ramp_rate", schedule), ("hold", schedule),
                        ("mass_scale", fixed_mass)):
        if key in thermal.values:
            raise InvalidConfigError(f"[thermal] {key} is not supported: {reason}")
    # keys the file leaves out take FreezeConfig's defaults
    common = {key: thermal.get_float(key)
              for key in ("start_temp", "substep_dt_max", "water_prestress",
                          "freeze_volume_jump")
              if key in thermal.values}
    if "stage_temps" in thermal.values and "target_temp" in thermal.values:
        raise InvalidConfigError(
            "[thermal] stage_temps and target_temp are both set: the schedule "
            "takes one of them")
    stage_temps = thermal.get_float_list("stage_temps")
    target_temp = thermal.get_float("target_temp")
    if stage_temps:
        freeze_cfg = FreezeConfig(stage_temps=tuple(stage_temps), **common)
    elif target_temp is not None:
        freeze_cfg = FreezeConfig.to_target(target_temp, **common)
    else:
        freeze_cfg = FreezeConfig(**common)
    assembly = generate_packing(packing_cfg)
    result = run_freeze(assembly, freeze_cfg)

    files = []
    files.append(artifacts.write_particles(out_dir / "particles.tsv",
                                           _snapshot(result.system)).name)
    files.append(artifacts.write_bonds(out_dir / "bonds.tsv", result.system).name)
    files.append(artifacts.write_temperatures(
        out_dir / "temperature.tsv", result.field.temperatures).name)
    stat_rows = []
    for row in result.rows():
        s = row.stats
        stat_rows.append((row.label, row.temperature, s.max_contact_force,
                          s.contact_pair_count, s.force_increase_pct,
                          s.contact_volume_reduction_pct))
    files.append(artifacts.write_table(
        out_dir / "contact_stats.tsv",
        ("stage", "temperature_c", "max_contact_force_n", "contact_pair_count",
         "force_increase_pct", "contact_volume_reduction_pct"),
        stat_rows).name)
    crack_rows = ((c.time, c.position[0], c.position[1], c.position[2], c.mode)
                  for c in result.cracks)
    files.append(artifacts.write_table(out_dir / "cracks.tsv",
                                       ("time_s", "x", "y", "z", "mode"),
                                       crack_rows).name)
    artifacts.write_manifest(out_dir, files)
    print(f"freeze run complete: {len(result.stages)} stages, "
          f"{len(result.cracks)} crack events, artifacts in {out_dir}")
    return EXIT_OK


def _snapshot(system) -> ParticleAssembly:
    return ParticleAssembly(system.pos, system.radii, system.phases,
                            system.assembly.densities, system.assembly.domain)


def cmd_compress(config: ExperimentConfig, args) -> int:
    seed = args.seed if args.seed is not None else config.seed
    mech = config.section("mechanics", required=False)
    platen_velocity = mech.get_float("platen_velocity", 2.0)
    target_strain = mech.get_float("target_strain", 0.015)
    peak_target = mech.get_float("calibrate_peak")
    modulus_target = mech.get_float("calibrate_modulus")
    budget = mech.get_int("calibration_budget", 20)
    # checked before any output or packing, so a bad value fails at once
    if platen_velocity <= 0:
        raise InvalidConfigError(
            f"[mechanics] platen_velocity must be > 0, got {platen_velocity:g}")
    if target_strain < MODULUS_WINDOW[1]:
        raise InvalidConfigError(
            f"[mechanics] target_strain must be >= {MODULUS_WINDOW[1]:g}, the "
            f"end of the modulus window, got {target_strain:g}")
    if budget < 1:
        raise InvalidConfigError(
            f"[mechanics] calibration_budget must be >= 1, got {budget}")
    for key, value in (("calibrate_peak", peak_target),
                       ("calibrate_modulus", modulus_target)):
        if value is not None and value <= 0:
            raise InvalidConfigError(f"[mechanics] {key} must be > 0, got {value:g}")
    if (peak_target is None) != (modulus_target is None):
        missing = "calibrate_peak" if peak_target is None else "calibrate_modulus"
        raise InvalidConfigError(
            f"[mechanics] {missing} is missing: calibration takes both targets")
    if peak_target is None and "calibration_budget" in mech.values:
        raise InvalidConfigError(
            "[mechanics] calibration_budget is set without calibrate_peak and "
            "calibrate_modulus: the budget needs both targets")

    out_dir = _resolve_out(config, args)
    load_path = mech.get_str("load_particles")
    if load_path:
        pack = config.section("packing")
        domain = CylinderDomain(pack.get_float("cylinder_radius", required=True),
                                pack.get_float("cylinder_height", required=True))
        assembly = read_particles(load_path, domain)
    else:
        assembly = generate_packing(config.packing_config(seed))

    files = []
    calibrated = None
    if peak_target is not None:
        targets = MechanicalReport(peak_target, modulus_target, 0.0, 0.0)
        calibrated = calibrate(targets,
                               default_materials(assembly)[ContactKind.ROCK_ROCK],
                               budget, assembly, platen_velocity=platen_velocity,
                               target_strain=target_strain)
        audit_rows = ((r.round_index, r.material.bond_modulus,
                       r.material.contact_modulus, r.material.tensile_strength,
                       r.material.cohesion, r.sim_peak, r.sim_modulus,
                       r.peak_rel_err, r.modulus_rel_err)
                      for r in calibrated.audit)
        files.append(artifacts.write_table(
            out_dir / "calibration_log.tsv",
            ("round", "bond_modulus_gpa", "contact_modulus_gpa",
             "tensile_strength_mpa", "cohesion_mpa", "sim_peak_mpa",
             "sim_modulus_gpa", "peak_rel_err", "modulus_rel_err"),
            audit_rows).name)
        # the last calibration run is the run of the calibrated material
        curve = calibrated.curve
    else:
        curve = run_uniaxial_test(assembly, platen_velocity, target_strain)
    report = extract_mechanical_params(curve)
    files.append(artifacts.write_curve(out_dir / "curve.tsv", curve).name)
    pairs = [("peak_strength_mpa", report.peak_strength),
             ("elastic_modulus_gpa", report.elastic_modulus),
             ("peak_strain", report.peak_strain),
             ("strain_energy_kj_m3", report.strain_energy)]
    if calibrated is not None:
        pairs += [("calibration_converged", calibrated.converged),
                  ("calibration_runs", calibrated.sim_runs),
                  ("calibration_peak_rel_err", calibrated.final.peak_rel_err),
                  ("calibration_modulus_rel_err", calibrated.final.modulus_rel_err)]
    files.append(artifacts.write_report(out_dir / "mech_report.txt", pairs).name)
    artifacts.write_manifest(out_dir, files)
    flag = ""
    if calibrated is not None and not calibrated.converged:
        flag = " (calibration non-converged)"
    print(f"compression run complete: peak {report.peak_strength:.2f} MPa, "
          f"modulus {report.elastic_modulus:.3f} GPa{flag}; artifacts in {out_dir}")
    return EXIT_OK


def cmd_analyze(config: ExperimentConfig, args) -> int:
    section = config.section("analysis")
    mode = section.get_str("energy_mode", "stress-strain")
    if mode != "stress-strain":
        raise InvalidConfigError(
            f"[analysis] energy_mode must be stress-strain, got {mode!r}: "
            "waveform files carry strains only, so the squared-strain form "
            "equals the stress-strain form")
    out_dir = _resolve_out(config, args)
    files = []
    did_anything = False

    wave_path = section.get_str("waveform")
    if wave_path:
        record = read_wave_record(wave_path)
        report = analysis.compute_energies(record)
        pairs = [("E_i", report.incident), ("E_r", report.reflected),
                 ("E_t", report.transmitted), ("E_a", report.absorbed),
                 ("eta_pct", "undefined" if report.efficiency_pct is None
                  else report.efficiency_pct)]
        static_strength = section.get_float("static_strength")
        missing = [f"# {key}" for key in ("specimen_area", "specimen_length")
                   if getattr(record, key) is None]
        if static_strength is not None and missing:
            raise InvalidConfigError(
                "[analysis] static_strength needs the specimen geometry, but "
                f"the waveform has no {' or '.join(missing)} header")
        if not missing:
            response = analysis.reconstruct_three_wave(record)
            files.append(artifacts.write_table(
                out_dir / "dynamic_curve.tsv",
                ("time_s", "strain", "stress_mpa", "strain_rate"),
                np.column_stack((response.time, response.strain,
                                 response.stress, response.strain_rate))).name)
            if static_strength is not None:
                dynamic = float(np.max(response.stress))
                pairs.append(("rdif", analysis.compute_rdif(dynamic, static_strength)))
        files.append(artifacts.write_report(out_dir / "energy_report.txt",
                                            pairs).name)
        did_anything = True

    rdif_raw = section.get_str("rdif_points")
    if rdif_raw:
        try:
            points = [(float(r), float(v)) for r, v in
                      (item.split(":") for item in rdif_raw.split(",") if item)]
        except ValueError:
            raise InvalidConfigError(
                "[analysis] rdif_points must look like '200:1.05,600:1.32'") from None
        if not all(math.isfinite(x) for point in points for x in point):
            raise InvalidConfigError(
                f"[analysis] rdif_points must be finite numbers, got {rdif_raw!r}")
        model = analysis.fit_rdif_model(points)
        files.append(artifacts.write_report(
            out_dir / "rdif_report.txt",
            [("k", model.k), ("m", model.m), ("residual", model.residual),
             ("degenerate", model.degenerate),
             ("excluded_points", len(model.excluded))]).name)
        did_anything = True

    spectrum_path = section.get_str("spectrum")
    if spectrum_path:
        spectrum = read_spectrum(spectrum_path)
        baseline = section.get_float("spectrum_baseline_area")
        stats = analysis.t2_spectrum_stats(spectrum, baseline)
        files.append(artifacts.write_report(
            out_dir / "t2_report.txt",
            [("peak1_pct", stats.peak1_pct), ("peak2_pct", stats.peak2_pct),
             ("peak3_pct", stats.peak3_pct), ("area", stats.area),
             ("change_rate_pct", "undefined" if stats.change_rate_pct is None
              else stats.change_rate_pct)]).name)
        did_anything = True

    areas_raw = section.get_float_list("t2_areas")
    if areas_raw:
        baseline = section.get_float("t2_baseline_area", required=True)
        rows = [(a, analysis.area_change_rate(a, baseline)) for a in areas_raw]
        files.append(artifacts.write_table(out_dir / "t2_area_changes.tsv",
                                           ("area", "change_rate_pct"),
                                           rows).name)
        did_anything = True

    points_path = section.get_str("points")
    if points_path:
        pts = read_points(points_path)
        result = analysis.box_counting_dimension(pts)
        files.append(artifacts.write_report(
            out_dir / "fractal_report.txt",
            [("D", result.dimension), ("r_squared", result.r_squared),
             ("n_scales", len(result.scales)),
             ("degenerate", result.degenerate)]).name)
        did_anything = True

    if not did_anything:
        raise InvalidConfigError(
            "[analysis] gives nothing to do: set waveform, spectrum, t2_areas, "
            "rdif_points or points")
    artifacts.write_manifest(out_dir, files)
    print(f"analysis complete: {len(files)} reports in {out_dir}")
    return EXIT_OK


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
        p.add_argument("--seed", type=int, help="seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"freeze": cmd_freeze, "compress": cmd_compress,
                "analyze": cmd_analyze}
    try:
        config = ExperimentConfig.from_path(args.config)
        return handlers[args.command](config, args)
    except InputParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except (InvalidConfigError, FrostDemError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
