import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostdem import cli
from frostdem.cli import main, read_particles, read_points
from frostdem.config import KEYS, SECTIONS, ExperimentConfig, parse_config_text
from frostdem.errors import InputParseError, InvalidConfigError
from frostdem.frostheave import FreezeConfig
from frostdem.packing import CylinderDomain, PackingConfig

from conftest import corrupt_loading


PACKING_BLOCK = """
[packing]
target_porosity = 0.0859
rock_radius_min = 1.0
rock_radius_max = 1.2
water_radius_min = 0.8
water_radius_max = 0.95
cylinder_radius = 5
cylinder_height = 10
solid_fraction = 0.48
"""


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_parse_sections_and_comments():
    text = "# top comment\n[a]\nx = 1  # trailing\n\n[b]\ny = two words\n"
    sections = parse_config_text(text)
    assert sections == {"a": {"x": "1"}, "b": {"y": "two words"}}


def test_parse_rejects_key_outside_section():
    with pytest.raises(InvalidConfigError, match="outside"):
        parse_config_text("x = 1\n")


def test_parse_rejects_garbage_line():
    with pytest.raises(InvalidConfigError, match="key = value"):
        parse_config_text("[a]\nnot a pair\n")


@pytest.mark.parametrize("text, line, key", [
    # each ran on the last value given: the second points file was read,
    # and seed 2 ran
    ("[analysis]\npoints = pts.txt\npoints = nothere.txt\n", 3,
     "[analysis] points"),
    ("[run]\nseed = 1\nseed = 2\n", 3, "[run] seed"),
    # a repeated header adds to its section, so its keys count too
    ("[run]\nseed = 1\n[packing]\ncylinder_radius = 5\n[run]\nseed = 2\n", 6,
     "[run] seed"),
], ids=["points", "seed", "across_headers"])
def test_parse_rejects_a_key_given_twice(text, line, key):
    with pytest.raises(InvalidConfigError,
                       match=re.escape(f"run.cfg:{line}: {key} is given twice")):
        parse_config_text(text, "run.cfg")


def test_parse_merges_a_repeated_header():
    sections = parse_config_text("[run]\nseed = 1\n[packing]\nx = 2\n"
                                 "[run]\nout_dir = out\n")
    assert sections == {"run": {"seed": "1", "out_dir": "out"},
                        "packing": {"x": "2"}}


def test_typed_accessors_name_the_key():
    cfg = ExperimentConfig({"packing": {"target_porosity": "abc"}})
    with pytest.raises(InvalidConfigError, match=re.escape(
            "[packing] target_porosity must be a finite number, got 'abc'")):
        cfg.read("packing", PackingConfig, rng_seed=0)


def test_missing_section_reported():
    cfg = ExperimentConfig({})
    with pytest.raises(InvalidConfigError, match=r"\[packing\]"):
        cfg.read("packing", PackingConfig, rng_seed=0)


#: A value other than its default for every key a settings type holds.
EVERY_KEY = {
    "packing": {"target_porosity": "0.1", "rock_radius_min": "1.1",
                "rock_radius_max": "1.3", "water_radius_min": "0.7",
                "water_radius_max": "0.9", "cylinder_radius": "6",
                "cylinder_height": "11", "rock_density": "2500",
                "water_density": "950", "solid_fraction": "0.45"},
    "thermal": {"start_temp": "15", "target_temp": "-15",
                "water_prestress": "0.005", "freeze_volume_jump": "0.09",
                "substep_dt_max": "1.5"},
    "mechanics": {"platen_velocity": "3", "target_strain": "0.02",
                  "calibrate_peak": "50", "calibrate_modulus": "5",
                  "calibration_budget": "7"},
    "analysis": {"waveform": "w.tsv", "energy_mode": "stress-strain",
                 "static_strength": "60", "spectrum": "s.tsv",
                 "spectrum_baseline_area": "100", "t2_areas": "110,120",
                 "t2_baseline_area": "105", "points": "p.tsv",
                 "rdif_points": "200:1.05,600:1.3"},
}


def test_section_reader_sends_every_key_to_its_field():
    cfg = ExperimentConfig(EVERY_KEY)
    given = {"packing": {"rng_seed": 3}}
    built = {name: cfg.read(name, cls, **given.get(name, {}))
             for name, cls in SECTIONS.items()}
    expected = {
        "packing": {"target_porosity": 0.1, "rock_radius_min": 1.1,
                    "rock_radius_max": 1.3, "water_radius_min": 0.7,
                    "water_radius_max": 0.9, "cylinder_radius": 6.0,
                    "cylinder_height": 11.0, "rock_density": 2500.0,
                    "water_density": 950.0, "solid_fraction": 0.45,
                    "rng_seed": 3},
        # a target keeps the checkpoints above it
        "thermal": {"start_temp": 15.0, "stage_temps": (0.0, -10.0, -15.0),
                    "target_temp": -15.0, "water_prestress": 0.005,
                    "freeze_volume_jump": 0.09, "substep_dt_max": 1.5},
        "mechanics": {"platen_velocity": 3.0, "target_strain": 0.02,
                      "calibrate_peak": 50.0, "calibrate_modulus": 5.0,
                      "calibration_budget": 7},
        "analysis": {"waveform": "w.tsv", "energy_mode": "stress-strain",
                     "static_strength": 60.0, "spectrum": "s.tsv",
                     "spectrum_baseline_area": 100.0,
                     "t2_areas": (110.0, 120.0), "t2_baseline_area": 105.0,
                     "points": "p.tsv",
                     "rdif_points": ((200.0, 1.05), (600.0, 1.3))},
    }
    assert {name: vars(s) for name, s in built.items()} == expected
    # every key but energy_mode, which allows one value, differs from its
    # default, so a key dropped or sent to another field fails the
    # comparison above
    for name, settings in built.items():
        defaults = {f.name: f.default for f in fields(settings)}
        same = [key for key in EVERY_KEY[name]
                if getattr(settings, key) == defaults[key]]
        assert same == (["energy_mode"] if name == "analysis" else [])
    # stage_temps goes without target_temp, which it excludes
    thermal = ExperimentConfig({"thermal": {"stage_temps": "5,-5"}})
    assert thermal.read("thermal", SECTIONS["thermal"]).stage_temps == (5.0, -5.0)
    # EVERY_KEY sets every key a settings type holds but stage_temps
    assert {name: set(keys) for name, keys in EVERY_KEY.items()} == {
        name: set(KEYS[name]) - {"load_particles", "stage_temps"}
        for name in SECTIONS}


# ---------------------------------------------------------------------------
# exit codes

def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["freeze", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_compress_without_packing_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[mechanics]\nplaten_velocity = 1\n")
    assert main(["compress", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "[packing]" in capsys.readouterr().err


def test_zero_rock_radius_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, PACKING_BLOCK.replace(
        "rock_radius_min = 1.0", "rock_radius_min = 0"))
    assert main(["freeze", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "rock_radius_min must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_empty_waveform_exits_3(tmp_path, capsys):
    wave = tmp_path / "wave.tsv"
    wave.write_text("")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "input error" in err


def test_analyze_malformed_row_cites_line(tmp_path, capsys):
    wave = tmp_path / "wave.tsv"
    wave.write_text("# bar_area = 1e-3\n# bar_wave_speed = 5000\n"
                    "# bar_modulus = 200\n"
                    "time\te_i\te_r\te_t\n0\t0\t0\t0\n1e-6\toops\t0\t0\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert ":6" in capsys.readouterr().err


def test_analyze_points_row_width_change_cites_line(tmp_path, capsys):
    # the first data row fixes the width; a short row later is reported at
    # its own line, not at the first row
    pts = tmp_path / "pts.txt"
    pts.write_text("x y z\n0 0 0\n1 1 1\n2 2 2\n3 3\n4 4 4\n")
    cfg = write_config(tmp_path, f"[analysis]\npoints = {pts}\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{pts}:5:" in err
    assert "expected 3 columns, got 2" in err
    flat = tmp_path / "flat.txt"
    flat.write_text("0 0\n1 2\n3 4\n")
    assert read_points(flat).shape == (3, 2)


@pytest.mark.parametrize("key", ["ramp_rate", "hold", "mass_scale"])
def test_freeze_rejects_unsupported_schedule_key(tmp_path, capsys, key):
    body = f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\ntarget_temp = -20\n{key} = 1\n"
    cfg = write_config(tmp_path, body)
    assert main(["freeze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"[thermal] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, body, named", [
    # packed at the default solid fraction, then failed naming that default
    ("freeze", f"[run]\nseed = 5\n{PACKING_BLOCK}solid_fracton = 0.3\n",
     "[packing] solid_fracton"),
    ("freeze", f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\n"
               "stage_temp = 0,-10\n", "[thermal] stage_temp"),
    ("compress", f"[run]\nseed = 5\n{PACKING_BLOCK}\n[mechanics]\n"
                 "platen_velocty = 1\n", "[mechanics] platen_velocty"),
    # exited 0 on the default energy mode
    ("analyze", "[analysis]\nt2_areas = 17944\nt2_baseline_area = 14683\n"
                "energy_mod = conventional\n", "[analysis] energy_mod"),
    ("analyze", "[analysis]\nt2_areas = 17944\nt2_baseline_area = 14683\n"
                "[analyse]\npoints = pts.txt\n", "[analyse]"),
], ids=["freeze_packing", "freeze_thermal", "compress", "analyze",
        "analyze_section"])
def test_key_no_command_reads_exits_2(tmp_path, capsys, monkeypatch, command,
                                      body, named):
    def explode(*args):
        raise AssertionError("an unread key must fail before any work")

    monkeypatch.setattr(cli, "generate_packing", explode)
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {cfg}: no command reads {named}\n"
    assert not out.exists()


def test_readme_config_schema_lists_every_key_a_command_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.S | re.M)
    schema = [b for b in blocks if b.startswith("[run]")]
    assert len(schema) == 1
    documented = {name: set(values)
                  for name, values in parse_config_text(schema[0]).items()}
    assert documented == {name: set(keys) for name, keys in KEYS.items()}


@pytest.mark.parametrize("command, body, argv, message", [
    ("freeze", f"[run]\nseed = -1\n{PACKING_BLOCK}", [],
     "[run] seed must be >= 0, got -1"),
    ("freeze", f"[run]\nseed = 5\n{PACKING_BLOCK}", ["--seed", "-3"],
     "--seed must be >= 0, got -3"),
    ("compress", f"[run]\nseed = -1\n{PACKING_BLOCK}", [],
     "[run] seed must be >= 0, got -1"),
    ("compress", f"[run]\nseed = 5\n{PACKING_BLOCK}", ["--seed", "-3"],
     "--seed must be >= 0, got -3"),
], ids=["freeze_config", "freeze_option", "compress_config", "compress_option"])
def test_negative_seed_exits_2_before_packing(tmp_path, capsys, monkeypatch,
                                              command, body, argv, message):
    def explode(*args):
        raise AssertionError("a negative seed must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_analyze_negative_config_seed_exits_2_before_reading(
        tmp_path, capsys, monkeypatch):
    # analyze draws no random numbers, but a negative [run] seed is still a
    # bad config, rejected before any input file is read
    def explode(*args):
        raise AssertionError("a negative seed must fail before any reading")

    monkeypatch.setattr(cli, "read_points", explode)
    points = tmp_path / "points.tsv"
    points.write_text("0 0\n1 1\n")
    cfg = write_config(tmp_path, f"[run]\nseed = -1\n"
                                 f"[analysis]\npoints = {points}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "config error: [run] seed must be >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("run_keys, argv, message", [
    # each reached packing: the flag took the place of a value never read
    ("seed = abc", ["--seed", "1"], "[run] seed must be an integer, got 'abc'"),
    ("seed = -4", ["--seed", "1"], "[run] seed must be >= 0, got -4"),
    ("out_dir =", [], "[run] out_dir is empty"),
], ids=["seed_not_integer", "seed_negative", "out_dir_empty"])
def test_run_value_beside_its_flag_exits_2_before_packing(
        tmp_path, capsys, monkeypatch, run_keys, argv, message):
    def explode(*args):
        raise AssertionError("a bad [run] value must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    cfg = write_config(tmp_path, f"[run]\n{run_keys}\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out), *argv]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_artifacts_land_in_the_config_out_dir(tmp_path, capsys):
    out = tmp_path / "from_config"
    cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n[analysis]\n"
                                 "t2_areas = 17944\nt2_baseline_area = 14683\n")
    assert main(["analyze", "--config", cfg]) == 0
    assert capsys.readouterr().out.endswith(f"; artifacts in {out}\n")
    assert {p.name for p in out.iterdir()} == {"t2_area_changes.tsv",
                                               "manifest.txt"}


def test_no_output_directory_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[analysis]\nt2_areas = 17944\n"
                                 "t2_baseline_area = 14683\n")
    assert main(["analyze", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("config error: no output directory: "
                                       "set --out or [run] out_dir\n")


def test_freeze_negative_water_prestress_exits_2_before_packing(
        tmp_path, capsys, monkeypatch):
    def explode(*args):
        raise AssertionError("a bad [thermal] value must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    body = (f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\n"
            "stage_temps = 0,-10\nwater_prestress = -0.5\n")
    cfg = write_config(tmp_path, body)
    assert main(["freeze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "water_prestress must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_freeze_with_no_baseline_contact_force_exits_2(tmp_path, capsys):
    # a cylinder that packs one particle: no pair and no platen, so no force
    body = """
[run]
seed = 1
[packing]
target_porosity = 0
rock_radius_min = 1.0
rock_radius_max = 1.2
cylinder_radius = 1.3
cylinder_height = 2.6
solid_fraction = 0.5
[thermal]
stage_temps = 0,-10
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 2
    assert ("config error: the baseline carries no contact force"
            in capsys.readouterr().err)
    assert not out.exists()


def test_freeze_of_an_isolated_loaded_bond_settles_then_exits_2(
        tmp_path, capsys, monkeypatch):
    # 13 particles and 2 bonds: the set-up relaxes a lone loaded pair, whose
    # net force and contact force decay together.  Against a floor on the
    # mean contact force it settles far inside its step cap (it spent the
    # whole cap without one), and the freeze then stops at its zero baseline
    from frostdem import frostheave
    from frostdem.mechanics import ParticleSystem

    relaxed = []
    equilibrate = ParticleSystem.equilibrate

    def counted(self, *args, **kwargs):
        start = self.step_count
        ratio = equilibrate(self, *args, **kwargs)
        relaxed.append((self.n, self.n_bonds, self.step_count - start))
        return ratio

    monkeypatch.setattr(ParticleSystem, "equilibrate", counted)
    packing = (PACKING_BLOCK.replace("cylinder_radius = 5", "cylinder_radius = 6")
               .replace("cylinder_height = 10", "cylinder_height = 12")
               .replace("solid_fraction = 0.48", "solid_fraction = 0.05"))
    cfg = write_config(tmp_path, f"[run]\nseed = 1\n{packing}\n[thermal]\n"
                                 "stage_temps = 0,-10\n")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 2
    assert ("config error: the baseline carries no contact force"
            in capsys.readouterr().err)
    assert not out.exists()
    ((n, bonds, steps),) = relaxed
    assert (n, bonds) == (13, 2)
    assert 0 < steps <= frostheave.STAGE_RELAX_STEP_CAP // 20


def test_analyze_with_nothing_to_do_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[analysis]\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_analyze_seed_exits_2_through_argparse(tmp_path, capsys):
    # analyze draws no random numbers, so it has no --seed to ignore
    cfg = write_config(tmp_path, "[analysis]\nt2_areas = 17944\n"
                                 "t2_baseline_area = 14683\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", cfg, "--out", str(out), "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0


def test_stability_error_exits_4(tmp_path, capsys, monkeypatch):
    from frostdem import cli
    from frostdem.errors import StabilityError

    def explode(cfg):
        raise StabilityError("dt exceeds stability limit")

    monkeypatch.setattr(cli, "generate_packing", explode)
    cfg = write_config(tmp_path, f"[run]\nseed = 1\n{PACKING_BLOCK}")
    assert main(["freeze", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert "stability error" in capsys.readouterr().err


def test_freeze_non_finite_position_exits_4(tmp_path, capsys, monkeypatch):
    from frostdem.mechanics import ParticleSystem

    equilibrate, calls = ParticleSystem.equilibrate, []

    def equilibrate_then_corrupt(self, *args, **kwargs):
        ratio = equilibrate(self, *args, **kwargs)
        calls.append(ratio)
        if len(calls) == 2:
            self.pos[0, 0] = np.nan
        return ratio

    # after the set-up's relaxation and the first substep's, the next
    # substep's neighbour search meets the NaN centre
    monkeypatch.setattr(ParticleSystem, "equilibrate", equilibrate_then_corrupt)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 4
    assert "stability error: a particle centre is not finite at the " \
        "neighbour search" in capsys.readouterr().err
    assert len(calls) == 2
    assert not out.exists()


def test_freeze_conduction_cap_exits_4(tmp_path, capsys, monkeypatch):
    from frostdem import frostheave

    monkeypatch.setattr(frostheave, "CONDUCTION_STEP_CAP", 1)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "stability error: conduction left a deviation" in err
    assert "tolerance is 0.45 degC" in err
    assert not out.exists()


def test_freeze_equilibration_cap_exits_4(tmp_path, capsys, monkeypatch):
    from frostdem import frostheave

    # this packing's set-up relaxation takes 50 steps and each substep's 30
    monkeypatch.setattr(frostheave, "STAGE_RELAX_STEP_CAP", 30)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "stability error: equilibration left an unbalanced-force ratio" in err
    assert "after 30 steps; the tolerance is 0.001" in err
    assert not out.exists()


def test_freeze_substep_relaxation_cap_exits_4(tmp_path, capsys, monkeypatch):
    # with the volume jump this packing's set-up relaxation takes 50 steps,
    # most substeps' 30 and those that freeze water up to 110: the set-up
    # reaches its tolerance and a substep runs out of steps
    from frostdem import frostheave
    from frostdem.mechanics import ParticleSystem

    equilibrate, calls = ParticleSystem.equilibrate, []

    def counted(self, *args, **kwargs):
        calls.append(True)
        return equilibrate(self, *args, **kwargs)

    monkeypatch.setattr(ParticleSystem, "equilibrate", counted)
    monkeypatch.setattr(frostheave, "STAGE_RELAX_STEP_CAP", 60)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\n"
                                 "freeze_volume_jump = 0.09\n")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "stability error: equilibration left an unbalanced-force ratio" in err
    assert "after 60 steps; the tolerance is 0.001" in err
    assert len(calls) > 1
    assert not out.exists()


def test_compress_loading_cap_exits_4(tmp_path, capsys, monkeypatch):
    from frostdem import mechanics

    monkeypatch.setattr(mechanics, "LOADING_STEP_CAP", 1)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "stability error: loading reached a strain of" in err
    assert "after 1 steps; the target is 0.015" in err
    assert not out.exists()


@pytest.mark.parametrize("mechanics_block, message", [
    ("platen_velocity = 0", "platen_velocity must be > 0, got 0"),
    ("platen_velocity = -1", "platen_velocity must be > 0, got -1"),
    ("target_strain = 0", "target_strain must be >= 0.0015, the end of the "
                          "modulus window, got 0"),
    ("calibrate_peak = 58.7\ncalibrate_modulus = 4\ncalibration_budget = 0",
     "calibration_budget must be >= 1, got 0"),
    ("calibrate_peak = 0\ncalibrate_modulus = 4",
     "calibrate_peak must be > 0, got 0"),
    ("calibrate_peak = 58.7\ncalibrate_modulus = -4",
     "calibrate_modulus must be > 0, got -4"),
    ("calibrate_peak = 58.7",
     "calibrate_modulus is missing: calibration takes both targets"),
    ("calibrate_modulus = 4",
     "calibrate_peak is missing: calibration takes both targets"),
    ("calibration_budget = 5",
     "calibration_budget is set without calibrate_peak and calibrate_modulus: "
     "the budget needs both targets"),
], ids=["zero_velocity", "negative_velocity", "target_strain",
        "calibration_budget", "peak_target", "modulus_target", "peak_alone",
        "modulus_alone", "budget_alone"])
def test_compress_bad_mechanics_value_exits_2_before_packing(
        tmp_path, capsys, monkeypatch, mechanics_block, message):
    def explode(*args):
        raise AssertionError("a bad [mechanics] value must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    monkeypatch.setattr(cli, "read_particles", explode)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}\n"
                                 f"[mechanics]\n{mechanics_block}\n")
    assert main(["compress", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: [mechanics] {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("cylinder_radius", "0"), ("cylinder_radius", "-6"),
    ("cylinder_height", "0"), ("cylinder_height", "-12")],
    ids=["zero_radius", "negative_radius", "zero_height", "negative_height"])
def test_compress_loaded_snapshot_bad_cylinder_exits_2_before_reading(
        tmp_path, capsys, monkeypatch, key, value):
    # a zero radius divided by zero (exit 1), a negative one reported the
    # stresses of its opposite, and the height was never used
    def explode(*args):
        raise AssertionError("a bad cylinder must fail before the snapshot "
                             "is read")

    monkeypatch.setattr(cli, "read_particles", explode)
    sizes = {"cylinder_radius": "6", "cylinder_height": "12", key: value}
    cfg = write_config(tmp_path, "[packing]\n" + "".join(
        f"{k} = {v}\n" for k, v in sizes.items()) + "[mechanics]\n"
        f"load_particles = {tmp_path}/particles.tsv\n")
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: [packing] {key} must be > 0\n"
    assert not out.exists()


def test_compress_non_finite_loading_exits_4(tmp_path, capsys, monkeypatch):
    def nan_velocity(system):
        system.vel[0] = np.nan

    corrupt_loading(monkeypatch, lambda s, n: n == 20, nan_velocity)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 4
    assert "stability error: the platen stress is nan at a strain of" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("1\t0\tnan\t4\t1\twater\t960", "expected finite numbers"),
    # a radius or density <= 0 cites its line instead of failing in the
    # contact search or the time step
    ("1\t0\t0\t4\t-1\twater\t960", "radius and density must be > 0"),
    ("1\t0\t0\t4\t1\twater\t0", "radius and density must be > 0"),
], ids=["nan", "negative_radius", "zero_density"])
def test_snapshot_non_finite_value_exits_3(tmp_path, capsys, row, message):
    snap = tmp_path / "particles.tsv"
    snap.write_text("id\tx\ty\tz\tradius\tphase\tdensity\n"
                    "0\t0\t0\t2\t1\trock\t2600\n"
                    f"{row}\n"
                    "2\t0\t0\t6\t1\trock\t2600\n")
    cfg = write_config(tmp_path, f"{PACKING_BLOCK}\n[mechanics]\n"
                                 f"load_particles = {snap}\n")
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"particles.tsv:3: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("calibration", [
    "", "calibrate_peak = 58.7\ncalibrate_modulus = 4.0\ncalibration_budget = 3\n"],
    ids=["plain", "calibrated"])
def test_compress_with_no_load_path_exits_4_before_any_artifact(
        tmp_path, capsys, calibration):
    # two spheres 2 mm apart: no bond and no contact, so the pair table has
    # no rows while the platens load the specimen; the top platen pushes one
    # free sphere, whose inertia gives a negative windowed modulus
    snap = tmp_path / "particles.tsv"
    snap.write_text("id\tx\ty\tz\tradius\tphase\tdensity\n"
                    "0\t0\t0\t2\t1\trock\t2600\n"
                    "1\t0\t0\t6\t1\trock\t2600\n")
    cfg = write_config(tmp_path, "[packing]\ncylinder_radius = 3\n"
                                 "cylinder_height = 8\n[mechanics]\n"
                                 f"load_particles = {snap}\n{calibration}")
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 4
    assert "no load path" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_points_non_finite_value_exits_3(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("# cloud\nx y z\n0 0 0\n1 1 1\n2 inf 2\n3 3 nan\n")
    cfg = write_config(tmp_path, f"[analysis]\npoints = {pts}\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{pts}:5: expected finite numbers, got '2 inf 2'" in err


WAVE_HEADER = ("# bar_area = 1e-3\n# bar_wave_speed = 5000\n"
               "# bar_modulus = 200\n")
WAVE_ROWS = "time\te_i\te_r\te_t\n0\t1e-4\t0\t0\n1e-6\t1e-4\t0\t0\n"


@pytest.mark.parametrize("header, line, value", [
    # a required key cites its own line, not line 1
    (WAVE_HEADER.replace("200", "two hundred"), 3, "'two hundred'"),
    (WAVE_HEADER.replace("1e-3", "nan"), 1, "'nan'"),
    (WAVE_HEADER + "# specimen_length = 0.05\n# specimen_area = abc\n", 5,
     "'abc'"),
    (WAVE_HEADER + "# specimen_area = -inf\n", 4, "'-inf'"),
], ids=["non_numeric_required", "nan_required", "non_numeric_optional",
        "inf_optional"])
def test_analyze_bad_header_value_cites_its_line(tmp_path, capsys, header,
                                                 line, value):
    wave = tmp_path / "wave.tsv"
    wave.write_text(header + "time\te_i\te_r\te_t\n0\t0\t0\t0\n1e-6\t0\t0\t0\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{wave}:{line}: header " in err
    assert f"must be a finite number, got {value}" in err


def test_analyze_header_key_given_twice_exits_3(tmp_path, capsys):
    # the second value won: 20 GPa wrote an incident energy ten times low
    # and exited 0
    wave = tmp_path / "wave.tsv"
    wave.write_text(WAVE_HEADER + "# bar_modulus = 20\n" + WAVE_ROWS)
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"input error: {wave}:4: header bar_modulus is given twice, first at "
        "line 3\n")
    assert not out.exists()


SPECIMEN = "# specimen_area = 4.9e-4\n# specimen_length = 0.05\n"


@pytest.mark.parametrize("header, static, message", [
    (WAVE_HEADER.replace("200", "-200"), "", "modulus must be > 0"),
    (WAVE_HEADER + SPECIMEN.replace("4.9e-4", "0"), "",
     "specimen area and length must be > 0"),
    (WAVE_HEADER + SPECIMEN.replace("4.9e-4", "-4.9e-4"), "",
     "specimen area and length must be > 0"),
    (WAVE_HEADER + SPECIMEN.replace("0.05", "0"), "",
     "specimen area and length must be > 0"),
    (WAVE_HEADER + SPECIMEN, "static_strength = 0\n",
     "static strength must be > 0"),
], ids=["negative_bar_modulus", "zero_specimen_area",
        "negative_specimen_area", "zero_specimen_length",
        "zero_static_strength"])
def test_analyze_non_positive_value_exits_2(tmp_path, capsys, header, static,
                                            message):
    wave = tmp_path / "wave.tsv"
    wave.write_text(header + "time\te_i\te_r\te_t\n0\t1e-4\t0\t0\n"
                    "1e-6\t1e-4\t0\t0\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n{static}")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "energy_report.txt").exists()


@pytest.mark.parametrize("header, missing", [
    (WAVE_HEADER, "# specimen_area or # specimen_length"),
    (WAVE_HEADER + "# specimen_area = 4.9e-4\n", "# specimen_length"),
], ids=["no_specimen", "no_specimen_length"])
def test_analyze_static_strength_without_specimen_exits_2(tmp_path, capsys,
                                                          header, missing):
    # a requested rdif needs the dynamic curve, so the run must not end
    # with exit 0 and no rdif in the report
    wave = tmp_path / "wave.tsv"
    wave.write_text(header + "time\te_i\te_r\te_t\n0\t1e-4\t0\t0\n"
                    "1e-6\t1e-4\t0\t0\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n"
                                 "static_strength = 100\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [analysis] static_strength needs the specimen" in err
    assert f"the waveform has no {missing} header" in err
    assert not (out / "energy_report.txt").exists()


@pytest.mark.parametrize("body, key", [
    ("t2_areas = 1,2\nt2_baseline_area = inf\n", "t2_baseline_area"),
    ("t2_areas = 1,nan\nt2_baseline_area = 3\n", "t2_areas"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, body, key):
    cfg = write_config(tmp_path, "[analysis]\n" + body)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"[analysis] {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("points", [
    "200:nan,600:1.32",         # a nan ratio was dropped without a word
    "inf:1.05,600:1.32,400:1.2",  # an inf rate broke the fit
    "200:1.05,600:inf",         # an inf ratio gave k = m = nan
], ids=["nan_ratio", "inf_rate", "inf_ratio"])
def test_analyze_non_finite_rdif_point_exits_2(tmp_path, capsys, points):
    cfg = write_config(tmp_path, f"[analysis]\nrdif_points = {points}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert ("config error: [analysis] rdif_points must be finite numbers, "
            f"got {points!r}") in capsys.readouterr().err
    assert not (out / "rdif_report.txt").exists()


def test_analyze_energy_mode_other_than_stress_strain_exits_2(
        tmp_path, capsys, monkeypatch):
    def explode(*args):
        raise AssertionError("energy_mode must be checked before the waveform")

    monkeypatch.setattr(cli, "read_wave_record", explode)
    cfg = write_config(tmp_path, "[analysis]\nwaveform = wave.tsv\n"
                                 "energy_mode = conventional\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [analysis] energy_mode must be stress-strain, " \
           "got 'conventional'" in err
    assert "waveform files carry strains only" in err
    assert not out.exists()


def test_analyze_energy_mode_stress_strain_changes_nothing(tmp_path):
    wave = tmp_path / "wave.tsv"
    wave.write_text(WAVE_HEADER + "time\te_i\te_r\te_t\n0\t1e-4\t0\t0\n"
                    "1e-6\t1e-4\t0\t0\n")
    reports = []
    for name, extra in (("plain", ""), ("named", "energy_mode = stress-strain\n")):
        cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n{extra}",
                           name=f"{name}.cfg")
        out = tmp_path / name
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        reports.append((out / "manifest.txt").read_bytes())
    assert reports[0] == reports[1]


def test_readme_waveform_example_analyzes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.S | re.M)
    example = [b for b in blocks if b.startswith("# bar_area =")]
    assert len(example) == 1
    wave = tmp_path / "wave.tsv"
    wave.write_text(example[0])
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "dynamic_curve.tsv").exists()


T2_KEYS = "t2_areas = 17944\nt2_baseline_area = 14683\n"
RDIF_KEY = "rdif_points = 200:1.05,600:1.32\n"


@pytest.mark.parametrize("body, named", [
    # each exited 0 with the other report alone: an empty t2_areas dropped
    # t2_area_changes.tsv, an empty rdif_points dropped rdif_report.txt and
    # ',' fitted no point at all
    ("t2_areas =\nt2_baseline_area = 14683\n" + RDIF_KEY, "t2_areas must be"),
    ("t2_areas = ,\nt2_baseline_area = 14683\n" + RDIF_KEY, "t2_areas must be"),
    ("rdif_points =\n" + T2_KEYS, "rdif_points must look like"),
    ("rdif_points = ,\n" + T2_KEYS, "rdif_points must look like"),
], ids=["t2_empty", "t2_comma", "rdif_empty", "rdif_comma"])
def test_analyze_list_key_listing_nothing_exits_2(tmp_path, capsys, body,
                                                  named):
    cfg = write_config(tmp_path, "[analysis]\n" + body)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: [analysis] {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, body, key", [
    # compress packed a fresh specimen from [packing] and exited 0
    ("compress", PACKING_BLOCK + "[mechanics]\nload_particles =\n",
     "[mechanics] load_particles"),
    # analyze skipped the waveform and exited 0 with the fractal report
    ("analyze", "[analysis]\nwaveform =\npoints = {pts}\n",
     "[analysis] waveform"),
], ids=["load_particles", "waveform"])
def test_key_with_an_empty_value_exits_2(tmp_path, capsys, command, body, key):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0 0\n1 1 1\n2 0 1\n")
    cfg = write_config(tmp_path, body.format(pts=pts))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {key} is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, partner", [
    # each exited 0 with the fractal report alone: the key was ignored
    ("t2_baseline_area = 14683", "t2_areas"),
    ("spectrum_baseline_area = -5", "spectrum"),
    ("static_strength = 58.7", "waveform"),
], ids=["t2_baseline_area", "spectrum_baseline_area", "static_strength"])
def test_analyze_key_without_its_partner_exits_2(tmp_path, capsys,
                                                 monkeypatch, key, partner):
    def explode(*args):
        raise AssertionError("the keys must be checked before any input")

    monkeypatch.setattr(cli, "read_points", explode)
    cfg = write_config(tmp_path, f"[analysis]\npoints = pts.txt\n{key}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    name = key.split(" =")[0]
    assert (f"config error: [analysis] {name} is set without {partner}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    # the spectrum baseline was checked only once both inputs were read,
    # and neither message named its key
    ("spectrum = spectrum.tsv\nspectrum_baseline_area = 0\n",
     "spectrum_baseline_area must be > 0, got 0"),
    ("t2_areas = 17944\nt2_baseline_area = -3\n",
     "t2_baseline_area must be > 0, got -3"),
], ids=["spectrum_baseline_area", "t2_baseline_area"])
def test_analyze_non_positive_baseline_area_exits_2_before_reading(
        tmp_path, capsys, monkeypatch, keys, message):
    def explode(*args):
        raise AssertionError("the keys must be checked before any input")

    monkeypatch.setattr(cli, "read_wave_record", explode)
    monkeypatch.setattr(cli, "read_spectrum", explode)
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = wave.tsv\n{keys}")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: [analysis] {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    # static_strength and the rates were checked only once the waveform was
    # read, and neither message named its key; non-positive t2_areas wrote
    # change rates of -105% and -100% and exited 0
    ("static_strength = 0\n",
     "static_strength is 0: the static strength must be > 0"),
    ("rdif_points = -200:1.05,600:1.3\n",
     "rdif_points strain rates must be > 0, got -200"),
    ("rdif_points = 0:1.05,600:1.3\n",
     "rdif_points strain rates must be > 0, got 0"),
    ("t2_areas = -5,0\nt2_baseline_area = 100\n",
     "t2_areas must be > 0, got -5"),
    ("t2_areas = 17944,0\nt2_baseline_area = 100\n",
     "t2_areas must be > 0, got 0"),
], ids=["static_strength", "negative_rate", "zero_rate", "negative_t2_area",
        "zero_t2_area"])
def test_analyze_non_positive_key_exits_2_before_reading(
        tmp_path, capsys, monkeypatch, keys, message):
    def explode(*args):
        raise AssertionError("the keys must be checked before any input")

    monkeypatch.setattr(cli, "read_wave_record", explode)
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = wave.tsv\n{keys}")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: [analysis] {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("out, reason", [
    ("taken", "File exists"), ("taken/run", "Not a directory")])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, out, reason):
    # --out naming a regular file raised FileExistsError, exit 1
    (tmp_path / "taken").write_text("kept\n")
    cfg = write_config(tmp_path, "[analysis]\n" + RDIF_KEY)
    out = tmp_path / out
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output directory {out} cannot be made: {reason}\n")
    assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize("out, reason", [
    ("taken", "File exists"), ("taken/run", "Not a directory")])
def test_out_that_cannot_be_a_directory_exits_2_before_packing(
        tmp_path, capsys, monkeypatch, out, reason):
    # a freeze packed and froze the specimen, about a second of work, and
    # only then was refused
    def explode(*args):
        raise AssertionError("a refused --out must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    (tmp_path / "taken").write_text("kept\n")
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / out
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output directory {out} cannot be made: {reason}\n")
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_run_into_a_directory_with_a_file_it_would_not_list_exits_2(
        tmp_path, capsys):
    # an rdif-only run after an rdif and t2 run exited 0 and left
    # t2_area_changes.tsv beside a manifest that did not list it
    out = tmp_path / "out"
    both = write_config(tmp_path, "[analysis]\n" + RDIF_KEY + T2_KEYS,
                        name="both.cfg")
    assert main(["analyze", "--config", both, "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    # a rerun of the same config into its own directory replaces every file
    assert main(["analyze", "--config", both, "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    capsys.readouterr()
    rdif = write_config(tmp_path, "[analysis]\n" + RDIF_KEY, name="rdif.cfg")
    assert main(["analyze", "--config", rdif, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output directory {out} holds t2_area_changes.tsv, "
        "which this run would not replace and its manifest would not list\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_analyze_reversed_time_column_exits_2(tmp_path, capsys):
    # it wrote negative energies and exited 0
    wave = tmp_path / "wave.tsv"
    wave.write_text(WAVE_HEADER + "2e-6\t1e-4\t0\t0\n1e-6\t1e-4\t0\t0\n"
                    "0\t1e-4\t0\t0\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: time base must increase" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_config_error_leaves_no_run_directory(tmp_path, capsys):
    # a bad key after a good waveform leaves none of its reports behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.S | re.M)
    wave = tmp_path / "wave.tsv"
    wave.write_text(next(b for b in blocks if b.startswith("# bar_area =")))
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n"
                                 "rdif_points = abc\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert "[analysis] rdif_points must look like" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_bad_spectrum_row_leaves_no_run_directory(tmp_path, capsys):
    # a good waveform read before a spectrum with a bad row leaves none of
    # its reports behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.S | re.M)
    wave = tmp_path / "wave.tsv"
    wave.write_text(next(b for b in blocks if b.startswith("# bar_area =")))
    spectrum = tmp_path / "spectrum.tsv"
    spectrum.write_text("0.1 5\n1 oops\n10 2\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n"
                                 f"spectrum = {spectrum}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    assert f"{spectrum}:2: expected numbers" in capsys.readouterr().err
    assert not out.exists()


SNAPSHOT = ("id\tx\ty\tz\tradius\tphase\tdensity\n"
            "0\t0\t0\t2\t1\trock\t2600\n")
LOAD_SNAPSHOT = PACKING_BLOCK + "[mechanics]\nload_particles = {d}/particles.tsv\n"


@pytest.mark.parametrize("command, body, files, code, message", [
    ("analyze", "[analysis]\nwaveform = {d}/nothere.tsv\n", {}, 2,
     "config error: waveform file not found: {d}/nothere.tsv"),
    ("analyze", "[analysis]\nwaveform = {d}/wave.tsv\n",
     {"wave.tsv": WAVE_HEADER.replace("# bar_area = 1e-3\n", "") + WAVE_ROWS},
     3, "input error: {d}/wave.tsv:1: missing '# bar_area = ...' header"),
    ("analyze", "[]\n", {}, 2, "config error: {d}/run.cfg:1: empty section name"),
    ("analyze", "[analysis]\nspectrum = {d}/spectrum.tsv\n",
     {"spectrum.tsv": "0 5\n1 3\n10 1\n"}, 2,
     "config error: relaxation times must be > 0"),
    ("freeze", "[run]\nseed = abc\n" + PACKING_BLOCK, {}, 2,
     "config error: [run] seed must be an integer, got 'abc'"),
    ("freeze", PACKING_BLOCK.replace("target_porosity = 0.0859\n", ""), {}, 2,
     "config error: [packing] missing required key 'target_porosity'"),
    ("freeze", PACKING_BLOCK + "[thermal]\nstage_temps = a,b\n", {}, 2,
     "config error: [thermal] stage_temps must be comma-separated finite "
     "numbers, got 'a,b'"),
    ("freeze", PACKING_BLOCK + "[thermal]\nsubstep_dt_max = 0\n", {}, 2,
     "config error: [thermal] substep_dt_max must be > 0"),
    ("freeze", PACKING_BLOCK + "[thermal]\nfreeze_volume_jump = -1\n", {}, 2,
     "config error: [thermal] freeze_volume_jump must be >= 0"),
    ("freeze", PACKING_BLOCK.replace("0.48", "0.7"), {}, 2,
     "config error: [packing] solid_fraction must be in (0, 0.64), got 0.7"),
    ("freeze", PACKING_BLOCK + "rock_density = 0\n", {}, 2,
     "config error: [packing] densities must be > 0"),
    ("freeze", PACKING_BLOCK.replace("cylinder_radius = 5", "cylinder_radius = 0"),
     {}, 2, "config error: [packing] cylinder_radius must be > 0"),
    ("freeze", PACKING_BLOCK.replace("0.95", "0.8"), {}, 2,
     "config error: [packing] water radius range is degenerate"),
    ("freeze", PACKING_BLOCK.replace("cylinder_radius = 5",
                                     "cylinder_radius = 1.1"), {}, 2,
     "config error: cylinder is too small for the largest particle radius"),
    # a cylinder smaller than one particle packs none: the system builds a
    # pair table over no particles, and the platens refuse it
    ("compress", PACKING_BLOCK.replace("cylinder_radius = 5", "cylinder_radius = 0.5")
     .replace("cylinder_height = 10", "cylinder_height = 1"), {}, 2,
     "config error: cannot set platens on an empty system"),
    ("compress", LOAD_SNAPSHOT, {}, 2,
     "config error: particles file not found: {d}/particles.tsv"),
    ("compress", LOAD_SNAPSHOT,
     {"particles.tsv": SNAPSHOT + "1\t0\t0\t4\t1\trock\n"}, 3,
     "input error: {d}/particles.tsv:3: expected 7 columns, got 6"),
    ("compress", LOAD_SNAPSHOT,
     {"particles.tsv": SNAPSHOT + "id\tx\ty\tz\tradius\tphase\tdensity\n"},
     3, "input error: {d}/particles.tsv:3: expected numbers, got "
        "'id\\tx\\ty\\tz\\tradius\\tphase\\tdensity'"),
    ("compress", LOAD_SNAPSHOT,
     {"particles.tsv": SNAPSHOT.splitlines(keepends=True)[0]}, 3,
     "input error: {d}/particles.tsv:1: no particle rows"),
    ("analyze", "[analysis]\nenergy_mode = stress-strain\n", {}, 2,
     "config error: [analysis] gives nothing to do: set waveform, spectrum, "
     "t2_areas, rdif_points or points"),
    ("analyze", "[run]\nseed = 1\n", {}, 2,
     "config error: [analysis] gives nothing to do: set waveform, spectrum, "
     "t2_areas, rdif_points or points"),
    ("analyze", "[analysis]\nt2_areas = 17944\n", {}, 2,
     "config error: [analysis] missing required key 't2_baseline_area'"),
], ids=["waveform_not_found", "no_bar_area", "empty_section_name",
        "spectrum_time_not_positive", "seed_not_integer", "no_target_porosity",
        "stage_temps_not_numbers", "zero_substep", "negative_volume_jump",
        "solid_fraction_too_high", "zero_rock_density", "zero_cylinder_radius",
        "degenerate_water_range", "cylinder_too_small", "empty_packing",
        "snapshot_not_found",
        "six_column_snapshot_row", "word_row_after_data",
        "header_only_snapshot", "nothing_to_analyze", "no_analysis_section",
        "t2_areas_without_baseline"])
def test_input_and_config_errors_exit_with_their_code(
        tmp_path, capsys, command, body, files, code, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, body.format(d=tmp_path))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == message.format(d=tmp_path) + "\n"
    assert not out.exists()


def test_exit_code_reaches_the_shell(tmp_path):
    wave = tmp_path / "wave.tsv"
    wave.write_text(WAVE_ROWS)
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "frostdem.cli", "analyze", "--config", cfg,
         "--out", str(tmp_path / "out")], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 3
    assert done.stderr == (f"input error: {wave}:1: missing '# bar_area = ...' "
                           "header\n")


# ---------------------------------------------------------------------------
# the readers' np.loadtxt body parse against the line loop over the body: the
# oracle is ``_read_rows`` with that parse patched to decline, so the header
# scan is shared and the body loop reads every body

READER_FILES = {
    "meta_and_names": WAVE_HEADER + "#  a note\n#k=v\ntime\te_i\te_r\te_t\n"
                      "0\t1\t2\t3\n1e-6\t-1.5e3\t+.5\t7.\n2e-6 -0 0 1E-310\n",
    "blank_lines": "\n  \n0 1 2 3\n\n\t\n  4\t5  6 7  \n   \n",
    "one_row": "0 1 2 3",
    "comma_rows": "a,b,c,d\n0,1,2,3\n4, 5, 6, 7\n",
    "mid_file_hash": "0 1 2 3\n# bar_area = 9\n4 5 6 7\n",
    "trailing_comment": "0 1 2 3\n4 5 6 7 # note\n",
    "nan": "x y z w\n0 1 2 3\n4 nan 6 7\n",
    "inf": "0 1 2 3\n4 5 6 -inf\n",
    "overflow": "0 1 2 3\n1e999 5 6 7\n",
    "short_row": "0 1 2 3\n4 5 6\n8 9 10 11\n",
    "wide_first_row": "0 1 2 3 4\n",
    "bad_token": "0 1 2 3\n4 5e 6 7\n",
    "names_after_data": "0 1 2 3\nt a b c\n",
    "empty": "",
    "no_rows": "# a = 1\nname row\n\n",
    "form_feed_in_header": "# a = 1\x0c# b = 2\n0 1 2 3\n",
    "form_feed_in_body": "0 1 2 3\n4 5\x0c6 7\n",
    "unit_separator_in_body": "0 1 2 3\n4 5\x1f6 7\n",
    "line_separator_in_body": "0 1 2 3\n4 5\u20286 7\n",
    "non_ascii": "# \u00b5 = 1\nt\t\u00b5m\ta\tb\n0 1 2 3\n",
    "non_ascii_body": "0 1 2 3\n\u0664 5 6 7\n",
    "underscore": "0 1 2 3\n4_0 5 6 7\n",
    "crlf": "# a = 1\r\n0 1 2 3\r\n4 5 6 7\r\n",
    "repeated_header": "# a = 1\n# b = 2\n# a = 3\n0 1 2 3\n",
    "form_feed_repeated_header": "# bar_area = 1\x0c# note\n# bar_area = 2\n"
                                 "0 1 2 3\n",
    "form_feed_before_width_error": "# a = 1\x0c5\n# a = 2\n0 1 2 3\n",
}


def read_both(path, n_columns=(4,)):
    """What ``_read_rows`` makes of one file with its np.loadtxt body parse
    and with that parse declining: (data bytes, shape, meta) or the error's
    line and message."""
    def outcome():
        try:
            data, meta = cli._read_rows(path, n_columns, "waveform")
        except InputParseError as exc:
            return exc.line, str(exc)
        return data.tobytes(), data.shape, meta
    fast = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_load_body", lambda *args: None)
        return fast, outcome()


@pytest.mark.parametrize("name", sorted(READER_FILES))
def test_fast_reader_matches_line_loop(tmp_path, name):
    path = tmp_path / "rows.tsv"
    path.write_text(READER_FILES[name])
    fast, by_line = read_both(path)
    assert fast == by_line


def test_line_loop_cites_a_nan_row_above_a_column_count_change(tmp_path):
    # the first bad line is cited, whatever is wrong further down
    path = tmp_path / "rows.tsv"
    path.write_text("0 1 2 3\n4 nan 6 7\n8 9 10\n")
    with pytest.raises(InputParseError) as caught:
        cli._read_rows(path, (4,), "waveform")
    assert caught.value.line == 2
    assert str(caught.value) == (f"{path}:2: expected finite numbers, "
                                 "got '4 nan 6 7'")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.floats(allow_nan=False, width=64), min_size=2,
                              max_size=3), min_size=1, max_size=6),
       form=st.sampled_from(["%r", "%.10g", "%.3e", "%.17g"]),
       tail=st.text(alphabet="0123456789.eE+- \t\n", max_size=30))
def test_fast_reader_matches_line_loop_on_plain_bodies(tmp_path_factory, rows,
                                                       form, tail):
    # any text of the bytes the fast path accepts, malformed or not
    body = "\n".join(" ".join(form % v for v in row) for row in rows)
    path = tmp_path_factory.mktemp("rows") / "rows.tsv"
    path.write_text("# k = v\nx y z\n" + body + tail)
    fast, by_line = read_both(path, (2, 3))
    assert fast == by_line


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(
           [*"0123456789.eE+-,#=", "word", " ", "\t",
            *"\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]), max_size=40),
       n_columns=st.sampled_from([(2, 3), (3,)]))
def test_fast_reader_matches_line_loop_on_any_text(tmp_path_factory, pieces,
                                                   n_columns):
    # headers, names and rows cut at every line end str.splitlines knows
    path = tmp_path_factory.mktemp("rows") / "rows.tsv"
    path.write_text("".join(pieces))
    fast, by_line = read_both(path, n_columns)
    assert fast == by_line


def test_reader_splits_lines_where_splitlines_does():
    # every code point but "\r", which read_text turns into "\n"
    text = "".join(map(chr, range(0x110000))).replace("\r", "")
    assert cli._LINE_END.split(text) == text.splitlines()


def test_benchmark_style_files_take_the_fast_path(tmp_path, monkeypatch):
    # waveform, points and spectrum files as np.savetxt writes them: each
    # body is parsed by np.loadtxt
    parsed = []
    load_body = cli._load_body

    def spy(body):
        data = load_body(body)
        parsed.append(data is not None)
        return data
    monkeypatch.setattr(cli, "_load_body", spy)
    rng = np.random.default_rng(4)
    wave = tmp_path / "wave.tsv"
    np.savetxt(wave, np.column_stack([np.arange(50) * 1e-8,
                                      rng.normal(size=(50, 3)) * 1e-4]),
               fmt="%.10g",
               delimiter="\t", comments="",
               header=WAVE_HEADER.strip() + "\n# specimen_area = 4.9e-4"
                      "\ntime\te_i\te_r\te_t")
    record = cli.read_wave_record(wave)
    assert len(record.time) == 50 and record.specimen_area == 4.9e-4
    pts = tmp_path / "points.tsv"
    np.savetxt(pts, rng.random((40, 3)) * 50, fmt="%.10g", delimiter="\t")
    assert read_points(pts).shape == (40, 3)
    spectrum = tmp_path / "spectrum.tsv"
    np.savetxt(spectrum, np.column_stack([np.logspace(-2, 4, 30),
                                          rng.random(30)]),
               fmt="%.10g", delimiter="\t", comments="",
               header="t2_ms\tamplitude")
    assert len(cli.read_spectrum(spectrum)) == 30
    assert parsed == [True, True, True]


# ---------------------------------------------------------------------------
# pipelines

def test_freeze_pipeline_artifacts_and_determinism(tmp_path):
    body = f"""
[run]
seed = 5
{PACKING_BLOCK}
[thermal]
stage_temps = 0,-10,-20
"""
    cfg = write_config(tmp_path, body)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["freeze", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["freeze", "--config", cfg, "--out", str(out2)]) == 0
    names = ["particles.tsv", "bonds.tsv", "temperature.tsv",
             "contact_stats.tsv", "cracks.tsv", "manifest.txt"]
    for name in names:
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    stats = (out1 / "contact_stats.tsv").read_text().splitlines()
    assert len(stats) == 5  # header + baseline + three stages
    assert stats[1].startswith("baseline\t20")


def test_freeze_cracks_name_their_stage_and_substep(tmp_path):
    # every crack forms inside a relaxation: the set-up's or a substep's
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\n"
                                 "freeze_volume_jump = 0.09\n")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 0
    stats = [line.split("\t") for line in
             (out / "contact_stats.tsv").read_text().splitlines()[2:]]
    temps = [20.0] + [float(row[1]) for row in stats]
    dt_max = FreezeConfig().substep_dt_max
    substeps = {"setup": 1, **{row[0]: math.ceil((t0 - t1) / dt_max) for row, t0, t1
                               in zip(stats, temps, temps[1:])}}
    order = list(substeps)
    header, *rows = (line.split("\t") for line in
                     (out / "cracks.tsv").read_text().splitlines())
    assert header == ["stage", "substep", "time_s", "x", "y", "z", "mode"]
    assert rows
    for stage, substep, *_ in rows:
        assert 1 <= int(substep) <= substeps[stage]
    stamps = [(order.index(stage), int(substep)) for stage, substep, *_ in rows]
    assert stamps == sorted(stamps)


def test_freeze_target_temp_schedule_keys(tmp_path):
    body = f"""
[run]
seed = 5
{PACKING_BLOCK}
[thermal]
start_temp = 20
target_temp = -20
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 0
    stats = (out / "contact_stats.tsv").read_text().splitlines()
    assert len(stats) == 5  # baseline + 0, -10, -20 checkpoints


def test_freeze_stage_temps_and_target_temp_exit_2_before_packing(
        tmp_path, capsys, monkeypatch):
    def explode(*args):
        raise AssertionError("a conflicting schedule must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    body = (f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\n"
            "stage_temps = 0,-10,-20\ntarget_temp = -5\n")
    cfg = write_config(tmp_path, body)
    assert main(["freeze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "stage_temps" in err and "target_temp" in err


@pytest.mark.parametrize("value", ["", ",", " , "])
def test_freeze_stage_temps_listing_no_number_exits_2_before_packing(
        tmp_path, capsys, monkeypatch, value):
    # an empty list ran the default 0/-10/-20 degC schedule and exited 0
    def explode(*args):
        raise AssertionError("an empty schedule must fail before packing")

    monkeypatch.setattr(cli, "generate_packing", explode)
    body = f"[run]\nseed = 5\n{PACKING_BLOCK}\n[thermal]\nstage_temps = {value}\n"
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 2
    assert "[thermal] stage_temps must be" in capsys.readouterr().err
    assert not out.exists()


def test_freeze_dry_config_stays_quiet(tmp_path):
    body = """
[run]
seed = 5

[packing]
target_porosity = 0.0
rock_radius_min = 1.0
rock_radius_max = 1.2
water_radius_min = 0.8
water_radius_max = 0.95
cylinder_radius = 5
cylinder_height = 10
solid_fraction = 0.48
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "contact_stats.tsv").read_text().splitlines()[2:4]
    for row in rows:  # stages through -10
        force_pct = float(row.split("\t")[4])
        assert abs(force_pct) < 0.2


def test_freeze_seed_override_changes_output(tmp_path):
    body = f"[run]\nseed = 5\n{PACKING_BLOCK}"
    cfg = write_config(tmp_path, body)
    out1, out2 = tmp_path / "s5", tmp_path / "s6"
    assert main(["freeze", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["freeze", "--config", cfg, "--out", str(out2),
                 "--seed", "6"]) == 0
    assert (out1 / "particles.tsv").read_bytes() \
        != (out2 / "particles.tsv").read_bytes()


def test_compress_pipeline_without_calibration(tmp_path):
    body = f"""
[run]
seed = 5
{PACKING_BLOCK}
[mechanics]
platen_velocity = 2.0
target_strain = 0.006
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line
                  in (out / "mech_report.txt").read_text().splitlines())
    assert float(report["peak_strength_mpa"]) > 0
    assert not (out / "calibration_log.tsv").exists()
    curve_lines = (out / "curve.tsv").read_text().splitlines()
    assert curve_lines[0] == "strain\tstress_mpa"
    assert len(curve_lines) > 10


def test_analyze_t2_area_change_rates(tmp_path):
    cfg = write_config(tmp_path, "[analysis]\nt2_areas = 17944,23956\n"
                                 "t2_baseline_area = 14683\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "t2_area_changes.tsv").read_text().splitlines()[1:]
    rates = [float(r.split("\t")[1]) for r in rows]
    assert rates[0] == pytest.approx(22.21, abs=0.01)
    assert rates[1] == pytest.approx(63.15, abs=0.01)


def test_analyze_rectangular_pulse_energy(tmp_path):
    n = 101
    t = np.linspace(0.0, 100e-6, n)
    lines = ["# bar_area = 1.9635e-3", "# bar_wave_speed = 5000",
             "# bar_modulus = 10",
             "time\tstrain_incident\tstrain_reflected\tstrain_transmitted"]
    for ti in t:
        lines.append(f"{ti:.9g}\t0.001\t0\t0")
    wave = tmp_path / "wave.tsv"
    wave.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, f"[analysis]\nwaveform = {wave}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line
                  in (out / "energy_report.txt").read_text().splitlines())
    assert float(report["E_i"]) == pytest.approx(9.8175, rel=5e-3)
    assert float(report["E_a"]) == pytest.approx(float(report["E_i"])
                                                 - float(report["E_r"])
                                                 - float(report["E_t"]))


def test_analyze_loads_no_scipy(tmp_path):
    # scipy.spatial loads at the first neighbour search and scipy.sparse
    # when conduction starts; analyze builds no k-d tree and solves no
    # sparse system, so a fresh process running it never imports scipy,
    # whose spatial package alone costs about 0.3 s and 34 MB
    rng = np.random.default_rng(8)
    t = np.arange(400) * 1e-8
    pulse = 2e-4 * np.sin(np.pi * np.clip((t - 4e-7) / 1.6e-6, 0.0, 1.0))
    wave = tmp_path / "wave.tsv"
    np.savetxt(wave, np.column_stack([t, pulse, -0.6 * pulse, 0.35 * pulse]),
               fmt="%.10g", delimiter="\t", comments="",
               header=(WAVE_HEADER + SPECIMEN).strip() + "\ntime\te_i\te_r\te_t")
    t2 = np.logspace(-2, 4, 200)
    spectrum = tmp_path / "spectrum.tsv"
    np.savetxt(spectrum, np.column_stack(
        [t2, sum(w * np.exp(-0.5 * (np.log10(t2 / c) / 0.3) ** 2)
                 for c, w in ((1.0, 300.0), (30.0, 80.0), (1000.0, 20.0)))]),
        fmt="%.10g", delimiter="\t")
    points = tmp_path / "points.tsv"
    np.savetxt(points, rng.random((2000, 3)) * 50.0, fmt="%.10g",
               delimiter="\t")
    cfg = write_config(tmp_path, f"""[analysis]
waveform = {wave}
static_strength = 58.7
spectrum = {spectrum}
spectrum_baseline_area = 14683
{T2_KEYS}{RDIF_KEY}points = {points}
""")
    out = tmp_path / "out"
    script = ("import sys\n"
              "from frostdem.cli import main\n"
              f"code = main(['analyze', '--config', {cfg!r}, "
              f"'--out', {str(out)!r}])\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m == 'scipy' or m.startswith('scipy.')))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert {"energy_report.txt", "dynamic_curve.tsv", "t2_report.txt",
            "t2_area_changes.tsv", "rdif_report.txt", "fractal_report.txt"} \
        <= {p.name for p in out.iterdir()}


def test_compress_calibration_to_reference_targets(tmp_path):
    # denser packing: the loose desk block saturates below the target peak
    body = f"""
[run]
seed = 5
{PACKING_BLOCK.replace("solid_fraction = 0.48", "solid_fraction = 0.5")}
[mechanics]
platen_velocity = 2.0
target_strain = 0.015
calibrate_peak = 58.7
calibrate_modulus = 4.0
calibration_budget = 20
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line
                  in (out / "mech_report.txt").read_text().splitlines())
    assert report["calibration_converged"] == "1"
    assert abs(float(report["calibration_peak_rel_err"])) < 0.05
    assert abs(float(report["calibration_modulus_rel_err"])) < 0.05
    assert (out / "calibration_log.tsv").exists()


def test_compress_with_calibration_simulates_each_material_once(
        tmp_path, monkeypatch):
    # the calibrated material's run is the last calibration run, so compress
    # writes that run's curve instead of simulating the material again
    from frostdem import artifacts, cli, mechanics

    runs = []
    original = mechanics.run_uniaxial_test

    def counted(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(mechanics, "run_uniaxial_test", counted)
    monkeypatch.setattr(cli, "run_uniaxial_test", counted)
    body = f"""
[run]
seed = 5
{PACKING_BLOCK}
[mechanics]
platen_velocity = 2.0
target_strain = 0.004
calibrate_peak = 500.0
calibrate_modulus = 40.0
calibration_budget = 2
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 0
    assert len(runs) == 2
    last = artifacts.write_curve(tmp_path / "last_run.tsv", runs[-1])
    assert (out / "curve.tsv").read_bytes() == last.read_bytes()
    report = dict(line.split(" = ") for line
                  in (out / "mech_report.txt").read_text().splitlines())
    assert report["calibration_runs"] == "2"
    peak = mechanics.extract_mechanical_params(runs[-1]).peak_strength
    # the report keeps 12 significant digits
    assert float(report["peak_strength_mpa"]) == pytest.approx(peak, rel=1e-11)


def test_compress_nonconverged_calibration_still_exits_zero(tmp_path):
    body = f"""
[run]
seed = 5
{PACKING_BLOCK}
[mechanics]
platen_velocity = 2.0
target_strain = 0.01
calibrate_peak = 500.0
calibrate_modulus = 40.0
calibration_budget = 1
"""
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["compress", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ") for line
                  in (out / "mech_report.txt").read_text().splitlines())
    assert report["calibration_converged"] == "0"


def test_manifest_digests_match_files(tmp_path):
    from frostdem.artifacts import sha256_of
    cfg = write_config(tmp_path, "[analysis]\nt2_areas = 17944\n"
                                 "t2_baseline_area = 14683\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    for line in (out / "manifest.txt").read_text().splitlines():
        name, digest, size = line.split("\t")
        assert sha256_of(out / name) == digest
        assert (out / name).stat().st_size == int(size)
    # atomic writes leave no temp files behind
    assert not list(out.glob("*.tmp"))


def test_particle_snapshot_roundtrip(tmp_path):
    body = f"[run]\nseed = 5\n{PACKING_BLOCK}"
    cfg = write_config(tmp_path, body)
    out = tmp_path / "freeze_out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 0
    asm = read_particles(out / "particles.tsv", CylinderDomain(5.0, 10.0))
    assert asm.n_particles > 0
    assert asm.n_water > 0
    assert np.all(asm.radii > 0)


def test_snapshot_comment_line_is_skipped(tmp_path):
    rows = ("id\tx\ty\tz\tradius\tphase\tdensity\n",
            "0\t0\t0\t2\t1\trock\t2600\n", "1\t0\t0\t4\t1\twater\t960\n")
    plain, commented = tmp_path / "plain.tsv", tmp_path / "commented.tsv"
    plain.write_text("".join(rows))
    commented.write_text("".join((rows[0], rows[1], "# a note\n", rows[2])))
    domain = CylinderDomain(5.0, 10.0)
    a, b = read_particles(plain, domain), read_particles(commented, domain)
    for name in ("centers", "radii", "phases", "densities"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_snapshot_phase_word_must_be_rock_or_water(tmp_path, capsys):
    # a misspelt phase is an input error at its line, not a rock particle
    snap = tmp_path / "particles.tsv"
    snap.write_text("id\tx\ty\tz\tradius\tphase\tdensity\n"
                    "0\t0\t0\t2\t1\trock\t2600\n"
                    "1\t0\t0\t4\t1\twtaer\t960\n")
    with pytest.raises(InputParseError, match=r"particles\.tsv:3: .*'wtaer'"):
        read_particles(snap, CylinderDomain(5.0, 10.0))
    cfg = write_config(tmp_path, f"{PACKING_BLOCK}\n[mechanics]\n"
                                 f"load_particles = {snap}\n")
    assert main(["compress", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "particles.tsv:3" in capsys.readouterr().err
