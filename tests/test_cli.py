import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostdem import cli
from frostdem.cli import main, read_particles, read_points
from frostdem.config import KEYS, ExperimentConfig, parse_config_text
from frostdem.errors import InputParseError, InvalidConfigError
from frostdem.packing import CylinderDomain

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


def test_typed_accessors_name_the_key():
    cfg = ExperimentConfig({"packing": {"target_porosity": "abc"}})
    with pytest.raises(InvalidConfigError, match=r"target_porosity"):
        cfg.section("packing").get_float("target_porosity")


def test_missing_section_reported():
    cfg = ExperimentConfig({})
    with pytest.raises(InvalidConfigError, match=r"\[packing\]"):
        cfg.packing_config()


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

    # this packing's set-up relaxation takes 60 steps and each stage end 20-30
    monkeypatch.setattr(frostheave, "STAGE_RELAX_STEP_CAP", 30)
    cfg = write_config(tmp_path, f"[run]\nseed = 5\n{PACKING_BLOCK}")
    out = tmp_path / "out"
    assert main(["freeze", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "stability error: equilibration left an unbalanced-force ratio" in err
    assert "after 30 steps; the tolerance is 0.001" in err
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


# ---------------------------------------------------------------------------
# the readers' np.loadtxt fast path against the line loop

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
}


def read_both(path, n_columns=(4,)):
    """What ``_read_rows`` and the line loop make of one file: (data bytes,
    shape, meta) or the error's line and message."""
    def outcome(read):
        try:
            data, meta = read()
        except InputParseError as exc:
            return exc.line, str(exc)
        return data.tobytes(), data.shape, meta
    return (outcome(lambda: cli._read_rows(path, n_columns, "waveform")),
            outcome(lambda: cli._read_rows_by_line(
                path.read_text(), n_columns, path, "waveform")))


@pytest.mark.parametrize("name", sorted(READER_FILES))
def test_fast_reader_matches_line_loop(tmp_path, name):
    path = tmp_path / "rows.tsv"
    path.write_text(READER_FILES[name])
    fast, by_line = read_both(path)
    assert fast == by_line


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


def test_benchmark_style_files_take_the_fast_path(tmp_path, monkeypatch):
    # waveform, points and spectrum files as np.savetxt writes them
    def no_line_loop(*args):
        raise AssertionError("fell back to the line loop")
    monkeypatch.setattr(cli, "_read_rows_by_line", no_line_loop)
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
