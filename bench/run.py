"""frostdem benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload freeze_n132 --seed 1 --seconds 25 --trace 0

frostdem is imported from the ``src/`` of the checkout that holds this
file.  The run writes the workload's inputs, several sets of them from
seeds derived from ``--seed``, makes one warm-up call of
``frostdem.cli.main`` in process, then calls it on each input set in turn
until ``--seconds`` have passed and every set has run at least twice, so
every run also checks that reruns are byte-identical.  Every call's
artifacts are checked; a call that fails a check counts as failed.  During
each untraced call the host's speed is sampled (``hostspeed.py``), and
``cost_ref`` is the call's wall time in units of that reference loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
traced call after the untraced ones and reports the per-layer metrics.
The last line of standard output is the JSON result; diagnostics go to
standard error.  Working files live under ``.bench_work/`` (removed at the
end) and a result record, plus spans when tracing, under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5
MIN_PASSES = 2
# stop starting calls once one more (plus the traced one) could end past
# this many seconds, so a run always exits well inside its 180 s limit
DEADLINE_S = 150.0


def import_frostdem():
    if not (SRC / "frostdem" / "__init__.py").is_file():
        raise SystemExit(f"bench: no frostdem sources under {SRC}; run from "
                         "the root of a frostdem checkout")
    sys.path.insert(0, str(SRC))
    import frostdem.cli
    if not Path(frostdem.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported frostdem from {frostdem.__file__}, "
                         f"not from {SRC}")
    return frostdem


def fresh_import_s() -> float:
    """Wall time for a fresh interpreter to start, import frostdem.cli and exit."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import frostdem.cli"],
                   env=dict(os.environ, PYTHONPATH=path), check=True)
    return time.perf_counter() - start


def machine_info() -> dict[str, object]:
    import numpy
    import scipy
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def files_written(out_dir: Path) -> dict[str, int]:
    files = [p for p in out_dir.iterdir() if p.is_file()]
    rows = sum(len(p.read_text().splitlines()) - 1 for p in files
               if p.suffix == ".tsv")
    return {"artifacts.bytes_written": sum(p.stat().st_size for p in files),
            "artifacts.rows_written": rows}


def per_set_estimate(values: list[list[float]]) -> float:
    """One figure from per-call values grouped by input set: the median,
    over the sets, of each set's lowest value.

    Other tenants of a shared host only ever add time to a call, so a set's
    fastest call is the one they disturbed least.  Packings differ in cost
    from seed to seed, and now and then one costs half as much again as the
    rest, hence the median over several sets.
    """
    return statistics.median(min(v) for v in values)


class Runner:
    """Calls the pipeline, checks its artifacts and keeps per-call records."""

    def __init__(self, frostdem, workload, recorder, work: Path):
        self.frostdem = frostdem
        self.workload = workload
        self.recorder = recorder
        self.work = work
        self.calls: list[dict] = []
        self.first: dict[int, dict] = {}  # per input, first call that passed
        from hostspeed import HostSpeed   # numpy, so after the thread settings
        self.speed = HostSpeed()

    def call(self, index: int, config: Path) -> dict:
        """Run the pipeline on input set ``index``, whose config is ``config``."""
        import checks
        out = self.work / f"call{len(self.calls)}"
        argv = [self.workload.command, "--config", str(config), "--out", str(out)]
        self.recorder.reset()
        problems = []
        # spans time the program alone, so a traced call is not sampled
        sampling = not self.recorder.tracing
        with self.speed if sampling else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    code = self.frostdem.cli.main(argv)
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - start
        record = {"input": index, "exit_code": code,
                  "traced": self.recorder.tracing}
        if sampling:
            record["wall_s"] = wall - self.speed.handler_s
            record["cost_ref"] = self.speed.work(record["wall_s"])
            record["host_samples"] = len(self.speed.samples)
        else:
            record["wall_s"] = wall
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                problems += checks.verify_manifest(out, self.workload.expected_files)
                problems += self.workload.check(out)
                record["counters"] = {**self.recorder.work_counters(),
                                      **files_written(out)}
                record["manifest"] = (out / "manifest.txt").read_text()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"artifacts cannot be read: {exc!r}")
            observed = self.recorder.observed
            record["equilibrate"] = observed["equilibrate"]
            record["uniformity_dev"] = [
                self.frostdem.thermal.uniformity_report(field).max_deviation
                for field in observed["freeze_field"]]
            problems += checks.unreached_problems(
                record["equilibrate"], record["uniformity_dev"],
                self.frostdem.thermal.UNIFORMITY_LIMIT, observed["uniaxial"])
        if "manifest" in record:
            if index in self.first:
                problems += self._rerun_problems(self.first[index], record)
            elif not problems:
                self.first[index] = record
        shutil.rmtree(out, ignore_errors=True)
        record["problems"] = problems
        for problem in problems:
            print(f"bench: {self.workload.name} call {len(self.calls)}: {problem}",
                  file=sys.stderr)
        self.calls.append(record)
        return record

    @staticmethod
    def _rerun_problems(first: dict, record: dict) -> list[str]:
        """A rerun of one commit on one input must repeat the first call."""
        problems = []
        if record["manifest"] != first["manifest"]:
            problems.append("rerun artifacts are not byte-identical")
        keys = sorted(set(first["counters"]) | set(record["counters"]))
        differ = [k for k in keys
                  if first["counters"].get(k) != record["counters"].get(k)]
        if differ:
            problems.append("rerun work counters differ: " + ", ".join(differ))
        return problems


# Span statistics reported per layer for the traced call; "calls" counts
# calls, "total_s" sums span durations, "self_s" subtracts child spans.
LAYER_STATS = {
    "packing.contact_arrays": ("calls", "total_s"),
    "mechanics.ParticleSystem.step": ("calls", "self_s"),
    "mechanics.ParticleSystem.unbalanced_ratio": ("calls", "total_s"),
    "mechanics.ParticleSystem.equilibrate": ("calls",),
    "mechanics.ParticleSystem.refresh_transient_contacts": ("calls", "self_s"),
    "mechanics.run_uniaxial_test": ("calls", "self_s"),
    "mechanics.calibrate": ("self_s",),
    "thermal.ConductionNetwork.step": ("calls", "self_s"),
    "thermal.ConductionNetwork.stable_dt": ("calls", "total_s"),
    "frostheave.run_freeze": ("self_s",),
    "frostheave.contact_statistics": ("calls", "total_s"),
    "analysis.box_counting_dimension": ("total_s",),
    "analysis.compute_energies": ("total_s",),
    "analysis.reconstruct_three_wave": ("total_s",),
    "analysis.t2_spectrum_stats": ("total_s",),
    "analysis.fit_rdif_model": ("total_s",),
    "cli.main": ("total_s",),
    "cli.read_wave_record": ("total_s",),
    "cli.read_points": ("total_s",),
    "cli.read_spectrum": ("total_s",),
    "cli.read_particles": ("total_s",),
    "artifacts.write_table": ("calls", "total_s"),
    "artifacts.write_report": ("calls", "total_s"),
    "artifacts.write_manifest": ("calls", "total_s"),
}
# Work counters reported as they are, with their units.
LAYER_COUNTERS = {
    "packing.contact_arrays.pairs": "count",
    "mechanics.calibrate.sim_runs": "count",
    "cli.rows_parsed": "count",
    "cli.bytes_read": "bytes",
    "artifacts.bytes_written": "bytes",
    "artifacts.rows_written": "count",
}


def layer_metrics(spans, setup_spans, command: str, traced: dict,
                  untraced_wall: float, wall_s: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced call (and its traced set-up), with
    units, plus the run's untraced ``wall_s``."""
    from probes import span_times
    times = span_times(spans)
    setup_times = span_times(setup_spans)
    counts = traced.get("counters", {})
    zero = {"total_s": 0.0, "self_s": 0.0}

    m: dict[str, tuple[float, str]] = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            m[f"{name}.{stat}"] = (counts.get(f"{name}.calls", 0), "count") \
                if stat == "calls" else (times.get(name, zero)[stat], "s")
    for name, unit in LAYER_COUNTERS.items():
        m[name] = (counts.get(name, 0), unit)

    packing = "packing.generate_packing"
    m[f"{packing}.total_s"] = (times.get(packing, zero)["total_s"]
                               + setup_times.get(packing, zero)["total_s"], "s")
    step = "mechanics.ParticleSystem.step"
    particle_steps = counts.get(f"{step}.particles", 0)
    m[f"{step}.us_per_particle"] = (
        1e6 * m[f"{step}.self_s"][0] / particle_steps if particle_steps else 0.0,
        "us")
    m["mechanics.ParticleSystem.equilibrate.max_ratio_over_tol"] = (
        max((r / t for r, t in traced.get("equilibrate", [])), default=0.0),
        "ratio")
    m["frostheave.final_uniformity_dev"] = (
        max(traced.get("uniformity_dev", []), default=0.0), "degC")
    main_s = m["cli.main.total_s"][0]
    unattributed = times.get("cli.main", zero)["self_s"] \
        + times.get(f"cli.cmd_{command}", zero)["self_s"]
    m["unattributed_self_pct"] = (100.0 * unattributed / main_s if main_s else 0.0,
                                  "%")
    m["trace_overhead_pct"] = (100.0 * (traced["wall_s"] / untraced_wall - 1.0), "%")
    m["wall_s"] = (wall_s, "s")
    return dict(sorted(m.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one thread per process: numpy's BLAS pools would otherwise follow the
    # machine's core count, and the benchmark is defined single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    frostdem = import_frostdem()
    from probes import Recorder
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    results = ROOT / ".bench_out"
    try:
        # -- set-up: a fresh interpreter's frostdem import (median of a few)
        # plus writing every input set ------------------------------------------
        import_s = [fresh_import_s() for _ in range(IMPORT_REPEATS)]
        seeds = workload.input_seeds(args.seed)
        start = time.perf_counter()
        configs = []
        for i, seed in enumerate(seeds):
            (work / f"inputs{i}").mkdir(parents=True)
            configs.append(workload.prepare(seed, work / f"inputs{i}"))
        prepare_s = time.perf_counter() - start
        setup_s = statistics.median(import_s) + prepare_s

        # -- untraced calls: one warm-up, then passes over the input sets -------
        recorder = Recorder()
        recorder.install()
        runner = Runner(frostdem, workload, recorder, work)
        longest = runner.call(0, configs[0])["wall_s"]
        measure_start = time.perf_counter()
        timed: list[list[float]] = [[] for _ in configs]     # wall_s per set
        costs: list[list[float]] = [[] for _ in configs]     # cost_ref per set
        stop = False
        while not stop:
            for i, config in enumerate(configs):
                now = time.perf_counter()
                passes = min(map(len, timed))
                if passes >= MIN_PASSES and now - measure_start >= args.seconds:
                    stop = True
                    break
                if passes and now - PROCESS_START + longest * (1 + args.trace) \
                        > DEADLINE_S:
                    print("bench: stopping early to stay inside the time limit",
                          file=sys.stderr)
                    stop = True
                    break
                record = runner.call(i, config)
                timed[i].append(record["wall_s"])
                costs[i].append(record["cost_ref"])
                longest = max(longest, record["wall_s"])
        wall_s = per_set_estimate(timed)
        cost_ref = per_set_estimate(costs)

        # -- traced call on the first input set, and its traced set-up ---------
        if args.trace:
            recorder.reset()
            recorder.tracing = True
            workload.prepare(seeds[0], work / "inputs0")
            setup_spans = recorder.spans
            traced = runner.call(0, configs[0])
            recorder.tracing = False
        recorder.uninstall()

        failed = sum(bool(c["problems"]) for c in runner.calls)
        attempted = len(runner.calls)
        results.mkdir(exist_ok=True)
        stem = f"{workload.name}-s{args.seed}"
        if args.trace:
            from probes import write_spans
            write_spans(results / f"{stem}-spans.tsv", recorder.spans)
            metrics = layer_metrics(recorder.spans, setup_spans,
                                    workload.command, traced,
                                    statistics.median(timed[0]), wall_s)
        else:
            metrics = {
                "cost_ref": (cost_ref, "ref"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        record = {
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "machine": machine_info(),
            "input_seeds": seeds, "import_s": import_s, "prepare_s": prepare_s,
            "wall_s": wall_s, "cost_ref": cost_ref,
            "error_rate": failed / attempted,
            "calls": [{k: v for k, v in c.items() if k != "manifest"}
                      for c in runner.calls],
            "missing_probes": recorder.missing, **result,
        }
        (results / f"{stem}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=float) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{workload.name}\t{name}\t{value:.6g}\t{unit}")
    print(f"{workload.name}\terror_rate\t{failed / attempted:.6g}\t"
          f"({failed} of {attempted} calls failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
