"""Deterministic artifact writing: atomic files, fixed formats, manifest.

Every file is written through a temp-file-plus-rename so interrupted runs
never leave truncated tables; float formatting is fixed so identical runs
produce identical bytes.
"""
from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .mechanics import ParticleSystem, StressStrainCurve
from .packing import ContactKind, ParticleAssembly, Phase


def fmt(value) -> str:
    """Fixed text form for one cell; floats use 12 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def atomic_write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence] | np.ndarray) -> Path:
    """Tab-separated table; every cell as ``fmt`` writes it.  A 2-D float64
    array is formatted in one ``%`` operation over its flattened values,
    with a "%.12g" template per cell, which gives ``fmt``'s text for every
    float."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 \
            and rows.ndim == 2:
        template = "\n".join(["\t".join(["%.12g"] * rows.shape[1])] * len(rows))
        body = [template % tuple(rows.ravel().tolist())] if len(rows) else []
    else:
        body = ["\t".join(fmt(v) for v in row) for row in rows]
    return atomic_write_text(path, "\n".join(["\t".join(header), *body]) + "\n")


def write_report(path: str | Path, pairs: Sequence[tuple[str, object]]) -> Path:
    lines = [f"{key} = {fmt(value)}" for key, value in pairs]
    return atomic_write_text(path, "\n".join(lines) + "\n")


def sha256_of(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: str | Path, names: Sequence[str]) -> Path:
    """Digest listing of every artifact in the run directory."""
    out_dir = Path(out_dir)
    lines = []
    for name in sorted(names):
        p = out_dir / name
        lines.append(f"{name}\t{sha256_of(p)}\t{p.stat().st_size}")
    return atomic_write_text(out_dir / "manifest.txt", "\n".join(lines) + "\n")


def write_particles(path: str | Path, assembly: ParticleAssembly) -> Path:
    rows = ((i, x, y, z, r, Phase(p).name.lower(), d)
            for i, ((x, y, z), r, p, d) in enumerate(zip(
                assembly.centers.tolist(), assembly.radii.tolist(),
                assembly.phases.tolist(), assembly.densities.tolist())))
    return write_table(path, ("id", "x", "y", "z", "radius", "phase", "density"),
                       rows)


def write_bonds(path: str | Path, system: ParticleSystem) -> Path:
    rows = []
    for idx in range(system.n_bonds):
        rows.append((int(system.b_ia[idx]), int(system.b_ib[idx]),
                     ContactKind(int(system.b_kind[idx])).name.lower(),
                     bool(system.b_intact[idx])))
    return write_table(path, ("a", "b", "kind", "intact"), rows)


def write_curve(path: str | Path, curve: StressStrainCurve) -> Path:
    rows = zip(curve.strain, curve.stress)
    return write_table(path, ("strain", "stress_mpa"), rows)


def write_temperatures(path: str | Path, temperatures: np.ndarray) -> Path:
    rows = ((i, t) for i, t in enumerate(temperatures))
    return write_table(path, ("id", "temperature_c"), rows)
