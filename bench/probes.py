"""Wrappers on frostdem's public names: call counters, observations, spans.

A :class:`Recorder` replaces each public function or method named in
:data:`TARGETS` with a wrapper.  With spans off the wrapper only counts the
call and hands the result to an observer (cheap enough to stay on for the
timed, untraced calls); with spans on it also records ``(name, start, end,
parent)`` in memory.  Private names (``_CellGrid``, ``_accumulate_forces``
and the like) are never wrapped, so refactors that delete them leave the
harness working; a public name that no longer exists is reported missing.

A function imported by name into another module (``cli.run_freeze``,
``mechanics.contact_arrays``, ...) is patched in every frostdem module whose
namespace holds it, because that binding is the one the caller looks up.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

#: (module, qualified name) of every wrapped public function or method.
#: Tiny per-step accessors (``ParticleSystem.stable_dt``, ``platen_stress``,
#: ``platen_strain``) are left out: their cost would land in every step and
#: the time they take is attributed to the caller's self time instead.
TARGETS = (
    ("packing", "generate_packing"),
    ("packing", "contact_arrays"),
    ("mechanics", "build_system"),
    ("mechanics", "ParticleSystem.step"),
    ("mechanics", "ParticleSystem.run"),
    ("mechanics", "ParticleSystem.unbalanced_ratio"),
    ("mechanics", "ParticleSystem.equilibrate"),
    ("mechanics", "ParticleSystem.refresh_transient_contacts"),
    ("mechanics", "run_uniaxial_test"),
    ("mechanics", "extract_mechanical_params"),
    ("mechanics", "calibrate"),
    ("thermal", "ConductionNetwork.step"),
    ("thermal", "ConductionNetwork.stable_dt"),
    ("thermal", "ConductionNetwork.boundary_reachable"),
    ("thermal", "surface_particle_ids"),
    ("frostheave", "run_freeze"),
    ("frostheave", "contact_statistics"),
    ("analysis", "compute_energies"),
    ("analysis", "reconstruct_three_wave"),
    ("analysis", "fit_rdif_model"),
    ("analysis", "box_counting_dimension"),
    ("analysis", "t2_spectrum_stats"),
    ("cli", "main"),
    ("cli", "cmd_freeze"),
    ("cli", "cmd_compress"),
    ("cli", "cmd_analyze"),
    ("cli", "read_wave_record"),
    ("cli", "read_spectrum"),
    ("cli", "read_points"),
    ("cli", "read_particles"),
    ("artifacts", "write_table"),
    ("artifacts", "write_report"),
    ("artifacts", "write_manifest"),
    ("artifacts", "write_particles"),
    ("artifacts", "write_bonds"),
    ("artifacts", "write_curve"),
    ("artifacts", "write_temperatures"),
    ("artifacts", "atomic_write_text"),
)

PACKAGE = "frostdem"

READERS = ("cli.read_wave_record", "cli.read_spectrum", "cli.read_points",
           "cli.read_particles")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_reader(rec, fn, args, kwargs, result):
    rec.counts["cli.bytes_read"] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    rows = result.n_particles if hasattr(result, "n_particles") else \
        len(getattr(result, "time", result))
    rec.counts["cli.rows_parsed"] += rows


def _observe_step(rec, fn, args, kwargs, result):
    rec.counts["mechanics.ParticleSystem.step.particles"] += args[0].n


def _observe_contact_arrays(rec, fn, args, kwargs, result):
    rec.counts["packing.contact_arrays.pairs"] += len(result[0])


def _observe_equilibrate(rec, fn, args, kwargs, result):
    rec.observed["equilibrate"].append((float(result),
                                        float(_bound(fn, args, kwargs)["tol"])))


def _observe_uniaxial(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rec.observed["uniaxial"].append((result.strain.copy(), result.stress.copy(),
                                     float(a["target_strain"]),
                                     float(a["stop_fraction"])))


def _observe_calibrate(rec, fn, args, kwargs, result):
    rec.counts["mechanics.calibrate.sim_runs"] += result.sim_runs


def _observe_freeze(rec, fn, args, kwargs, result):
    rec.observed["freeze_field"].append(result.field.copy())


OBSERVERS = {
    "packing.contact_arrays": _observe_contact_arrays,
    "mechanics.ParticleSystem.step": _observe_step,
    "mechanics.ParticleSystem.equilibrate": _observe_equilibrate,
    "mechanics.run_uniaxial_test": _observe_uniaxial,
    "mechanics.calibrate": _observe_calibrate,
    "frostheave.run_freeze": _observe_freeze,
    **{name: _observe_reader for name in READERS},
}


class Recorder:
    """Counters, observations and (optionally) spans for one pipeline call."""

    def __init__(self):
        self.tracing = False
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.observed: defaultdict = defaultdict(list)
        self.spans: list = []
        self._stack: list[int] = []

    def work_counters(self) -> dict[str, int]:
        """Deterministic counters: identical for identical inputs and code."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for mod_name in sorted({mod_name for mod_name, _ in TARGETS}):
            try:
                importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, qualname in TARGETS:
            name = f"{mod_name}.{qualname}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if module is None:
                self.missing.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = inspect.getattr_static(owner, attr, None) \
                if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[name] += 1
            if not rec.tracing:
                result = fn(*args, **kwargs)
            else:
                stack = rec._stack
                index = len(rec.spans)
                parent = stack[-1] if stack else -1
                rec.spans.append(None)
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    rec.spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(rec, fn, args, kwargs, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Span analysis

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total if cur_end is None else total + cur_end - cur_start


def span_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_s`` (summed duration) and ``self_s``.

    A span's self time is its duration minus the part of that interval its
    direct child spans cover.
    """
    children: defaultdict = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(children.get(index, []))
    return out


def write_spans(path, spans) -> None:
    """Spans as TSV: index, name, start_s, end_s, parent index (-1 = root)."""
    lines = ["index\tname\tstart_s\tend_s\tparent"]
    lines += [f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}"
              for i, (name, start, end, parent) in enumerate(spans)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
