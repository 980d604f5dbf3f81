"""Tests of the benchmark harness itself: output checks, patching, span maths."""
from pathlib import Path

import numpy as np
import pytest

from checks import (energy_balance_problems, uniaxial_reached,
                    unreached_problems, verify_manifest)
from probes import Recorder, span_times


def _run_dir(tmp_path: Path) -> Path:
    from frostdem import artifacts
    artifacts.write_report(tmp_path / "energy_report.txt",
                           [("E_i", 2.5), ("E_r", 1.0), ("E_t", 0.5), ("E_a", 1.0)])
    artifacts.write_table(tmp_path / "curve.tsv", ("strain", "stress_mpa"),
                          [(0.0, 0.0), (0.001, 4.2)])
    artifacts.write_manifest(tmp_path, ["energy_report.txt", "curve.tsv"])
    return tmp_path


EXPECTED = {"energy_report.txt", "curve.tsv"}


def test_untouched_run_passes_manifest_check(tmp_path):
    assert verify_manifest(_run_dir(tmp_path), EXPECTED) == []


def test_tampered_artifact_fails_manifest_check(tmp_path):
    out = _run_dir(tmp_path)
    path = out / "curve.tsv"
    path.write_text(path.read_text().replace("4.2", "4.3"))
    assert verify_manifest(out, EXPECTED) == [
        "curve.tsv does not match its manifest digest"]


def test_file_outside_manifest_fails_manifest_check(tmp_path):
    out = _run_dir(tmp_path)
    (out / "curve.tsv.tmp").write_text("partial")
    assert verify_manifest(out, EXPECTED) == [
        "files outside the manifest: ['curve.tsv.tmp']"]


def test_energy_balance_check():
    exact = {"E_i": "2.5", "E_r": "1", "E_t": "0.5", "E_a": "1"}
    assert energy_balance_problems(exact) == []
    broken = dict(exact, E_a="1.000001")
    assert len(energy_balance_problems(broken)) == 1


def test_self_time_is_duration_minus_children():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 3.0, 0),
             ("b", 4.0, 8.0, 0),
             ("a", 5.0, 6.0, 2),
             ("root", 20.0, 21.0, -1)]
    times = span_times(spans)
    assert times["root"] == pytest.approx({"count": 2, "total_s": 11.0,
                                           "self_s": 10.0 - 2.0 - 4.0 + 1.0})
    assert times["b"] == pytest.approx({"count": 1, "total_s": 4.0, "self_s": 3.0})
    assert times["a"] == pytest.approx({"count": 2, "total_s": 3.0, "self_s": 3.0})


def test_recorder_patches_the_binding_each_caller_looks_up():
    from frostdem import cli, frostheave, mechanics, packing
    originals = (packing.contact_arrays, cli.run_freeze,
                 mechanics.ParticleSystem.step)
    rec = Recorder()
    rec.install()
    try:
        assert rec.missing == []
        assert frostheave.contact_arrays is packing.contact_arrays
        assert mechanics.contact_arrays is packing.contact_arrays
        assert packing.contact_arrays is not originals[0]
        assert cli.run_freeze is frostheave.run_freeze is not originals[1]
        assembly = packing.ParticleAssembly(
            np.array([[0.0, 0.0, 1.0], [1.9, 0.0, 1.0], [9.0, 0.0, 1.0]]),
            np.ones(3), np.zeros(3, dtype=np.int8), np.full(3, 2600.0),
            packing.CylinderDomain(10.0, 2.0))
        rec.tracing = True
        frostheave.contact_arrays(assembly, 0.0)
        assert rec.work_counters() == {"packing.contact_arrays.calls": 1,
                                       "packing.contact_arrays.pairs": 1}
        assert [s[0] for s in rec.spans] == ["packing.contact_arrays"]
    finally:
        rec.uninstall()
    assert (packing.contact_arrays, cli.run_freeze,
            mechanics.ParticleSystem.step) == originals


def test_unreached_results_are_flagged():
    strain = np.array([0.0, 0.005, 0.010])
    rising = np.array([0.0, 20.0, 40.0])
    dropped = np.array([0.0, 40.0, 10.0])
    assert uniaxial_reached(np.append(strain, 0.015), np.append(rising, 50.0),
                            0.015, 0.6)
    assert uniaxial_reached(strain, dropped, 0.015, 0.6)
    assert not uniaxial_reached(strain, rising, 0.015, 0.6)
    assert unreached_problems([(1e-3, 1e-3)], [0.45], 0.5,
                              [(strain, dropped, 0.015, 0.6)]) == []
    assert len(unreached_problems([(2e-3, 1e-3)], [0.5], 0.5,
                                  [(strain, rising, 0.015, 0.6)])) == 3


def test_benchmark_json_names_every_layer_metric():
    import json

    import run
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = run.layer_metrics([], [], "analyze", {"wall_s": 1.0}, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layer.items()]


def test_per_set_estimate_is_the_median_of_each_input_sets_fastest_call():
    from run import per_set_estimate
    assert per_set_estimate([[3.0, 2.0, 2.5], [4.0, 6.0], [9.0, 8.0]]) == 4.0


def test_input_seeds_of_different_runs_do_not_overlap():
    from workloads import WORKLOADS
    for workload in WORKLOADS.values():
        seeds = [set(workload.input_seeds(seed)) for seed in range(20)]
        assert all(len(s) == workload.input_sets for s in seeds)
        assert len(set().union(*seeds)) == 20 * workload.input_sets
