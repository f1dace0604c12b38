"""End-to-end checks of the beamtrain command line."""
import dataclasses
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from beamtrain import DesignInputs, FixedTdNetwork, PilotPlan, design, dump_beam_pattern
from beamtrain.cli import build_parser
from beamtrain.harness import desk_config, desk_experiment_spec

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

REPO_ROOT = Path(__file__).resolve().parents[1]

# The wrapper an installer writes for a console-script entry point (pip's
# template, from distlib).
CONSOLE_SCRIPT = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "beamtrain.cli", *args],
        capture_output=True, text=True, **kwargs,
    )


@pytest.fixture(scope="module")
def inputs_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inputs.json"
    path.write_text(json.dumps(desk_experiment_spec().design_inputs().to_dict()))
    return path


@pytest.fixture(scope="module")
def plan_file(inputs_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "plan.json"
    out = run_cli("design", "--inputs", str(inputs_file), "--out", str(path))
    assert out.returncode == 0, out.stderr
    return path


def test_console_script_is_installed(tmp_path, monkeypatch):
    """The `beamtrain` command declared in pyproject.toml exists and runs the
    CLI.  The command is written the way an installer writes it, so the test
    checks the repository's declaration, not whether this interpreter has the
    package installed."""
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "beamtrain" in scripts
    entry = importlib.metadata.EntryPoint(
        name="beamtrain", value=scripts["beamtrain"], group="console_scripts")
    assert callable(entry.load())

    # An installed distribution must declare the same target (a stale install
    # would run something else).
    for installed in importlib.metadata.entry_points(
            group="console_scripts", name="beamtrain"):
        assert installed.value == entry.value

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "beamtrain"
    script.write_text(CONSOLE_SCRIPT.format(
        python=sys.executable, module=entry.module,
        import_name=entry.attr.split(".")[0], func=entry.attr))
    script.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))

    exe = shutil.which("beamtrain")
    assert exe is not None
    out = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: beamtrain")
    for sub in ("design", "pattern", "train", "sweep"):
        assert sub in out.stdout


# design ----------------------------------------------------------------------

def test_design_writes_plan_and_delays(inputs_file, tmp_path):
    plan_path = tmp_path / "plan.json"
    delays_path = tmp_path / "delays.csv"
    out = run_cli("design", "--inputs", str(inputs_file),
                  "--out", str(plan_path), "--delays-csv", str(delays_path))
    assert out.returncode == 0, out.stderr
    assert "pilot" in out.stdout

    plan = PilotPlan.from_json(plan_path.read_text())
    want = design(DesignInputs.from_json(inputs_file.read_text()))
    assert plan.K == want.K
    assert plan.params(1) == want.params(1)

    table = FixedTdNetwork.from_csv(delays_path.read_text())
    assert table.delays.shape == (plan.cfg.n_antennas, plan.K)


def test_design_rejects_missing_inputs(tmp_path):
    out = run_cli("design", "--inputs", str(tmp_path / "nope.json"))
    assert out.returncode == 2
    assert "error" in json.loads(out.stderr)


def _error(out) -> str:
    assert out.returncode == 2, out.stderr
    return json.loads(out.stderr)["error"]


@pytest.mark.parametrize("where", ["config", "inputs"])
def test_design_rejects_an_unknown_key(tmp_path, where):
    payload = desk_experiment_spec().design_inputs().to_dict()
    (payload["config"] if where == "config" else payload)["n_trails"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert "'n_trails'" in _error(run_cli("design", "--inputs", str(bad)))


def test_design_rejects_an_ill_typed_value(tmp_path):
    payload = desk_experiment_spec().design_inputs().to_dict()
    payload["config"]["n_antennas"] = "64"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert "invalid design inputs" in _error(run_cli("design", "--inputs", str(bad)))


def test_design_rejects_bad_gamma(tmp_path):
    payload = desk_experiment_spec().design_inputs().to_dict()
    payload["gamma"] = 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = run_cli("design", "--inputs", str(bad))
    assert out.returncode == 2
    assert "error" in json.loads(out.stderr)


@pytest.mark.parametrize("command", ["design", "pattern"])
def test_write_to_a_missing_directory_is_reported(inputs_file, plan_file, tmp_path,
                                                  command):
    source = ["--inputs", str(inputs_file)] if command == "design" else [
        "--plan", str(plan_file)]
    out = run_cli(command, *source, "--out", str(tmp_path / "missing" / "out"))
    assert "cannot write output" in _error(out)


# pattern ---------------------------------------------------------------------

def test_pattern_to_file_and_stdout(plan_file, tmp_path):
    csv_path = tmp_path / "pattern.csv"
    out = run_cli("pattern", "--plan", str(plan_file), "--out", str(csv_path))
    assert out.returncode == 0, out.stderr

    plan = PilotPlan.from_json(plan_file.read_text())
    _, want_text = dump_beam_pattern(plan)
    assert csv_path.read_text() == want_text

    piped = run_cli("pattern", "--plan", str(plan_file))
    assert piped.returncode == 0
    assert piped.stdout == want_text
    assert piped.stdout.startswith("pilot,subcarrier,freq_hz,")


def test_pattern_rejects_garbage_plan(tmp_path):
    bad = tmp_path / "plan.json"
    bad.write_text("{\"not\": \"a plan\"}")
    out = run_cli("pattern", "--plan", str(bad))
    assert out.returncode == 2
    assert "error" in json.loads(out.stderr)


# train -----------------------------------------------------------------------

def test_train_reports_estimate_and_rate(plan_file):
    out = run_cli("train", "--plan", str(plan_file), "--theta", "0.3",
                  "--distance", "5", "--snr-db", "12", "--seed", "4")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    for key in ("theta", "alpha", "scheme", "selected", "pilots_used",
                "clamped", "fallback", "true_theta", "true_alpha",
                "snr_db", "seed", "rate"):
        assert key in result, key
    assert result["scheme"] == "ongrid"
    assert result["true_theta"] == 0.3
    assert result["snr_db"] == 12.0
    assert 0 < result["rate"] <= math.log2(1 + 10 ** 1.2) + 1e-9

    again = run_cli("train", "--plan", str(plan_file), "--theta", "0.3",
                    "--distance", "5", "--snr-db", "12", "--seed", "4")
    assert again.stdout == out.stdout


def test_train_accepts_physical_angle(plan_file):
    out = run_cli("train", "--plan", str(plan_file), "--angle-deg", "30",
                  "--distance", "6")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["true_theta"] == pytest.approx(0.5)


@pytest.mark.parametrize("scheme,rings,pilots", [
    ("nearfield_rainbow", "4", 4),
    ("farfield_rainbow", "4", 1),
    ("aux_pair", "4", None),
    ("match_filter", "3", None),
])
def test_train_scheme_selection(plan_file, scheme, rings, pilots):
    out = run_cli("train", "--plan", str(plan_file), "--scheme", scheme,
                  "--theta", "0.2", "--distance", "4",
                  "--bank-angles", "24", "--bank-rings", rings)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["scheme"] == scheme
    if pilots is not None:
        assert result["pilots_used"] == pilots


def test_train_requires_exactly_one_angle(plan_file):
    both = run_cli("train", "--plan", str(plan_file), "--theta", "0.1",
                   "--angle-deg", "10", "--distance", "5")
    assert both.returncode == 2
    assert "error" in json.loads(both.stderr)
    neither = run_cli("train", "--plan", str(plan_file), "--distance", "5")
    assert neither.returncode == 2
    assert "error" in json.loads(neither.stderr)


def test_train_rejects_out_of_range_user(plan_file):
    out = run_cli("train", "--plan", str(plan_file), "--theta", "1.5",
                  "--distance", "5")
    assert out.returncode == 2
    assert "error" in json.loads(out.stderr)


def test_rainbow_on_one_subcarrier_names_the_cause(tmp_path):
    cfg = dataclasses.replace(desk_config(), n_subcarriers=1)
    plan_path = tmp_path / "plan.json"
    design(DesignInputs(cfg=cfg, gamma=0.5)).to_json(plan_path)
    out = run_cli("train", f"--plan={plan_path}", "--scheme=farfield_rainbow",
                  "--theta=0.2", "--distance=4")
    assert "need n_subcarriers >= 2" in _error(out)


# sweep -----------------------------------------------------------------------

def _small_spec_file(tmp_path, edit=None):
    """A two-scheme, four-trial desk spec written as JSON, after edit(payload)."""
    payload = desk_experiment_spec(
        schemes=("perfect_csi", "ongrid"), axis_values=(10.0, 20.0), n_trials=4
    ).to_dict()
    if edit is not None:
        edit(payload)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path

def test_sweep_writes_csv_and_json(tmp_path):
    spec_path = _small_spec_file(tmp_path)
    prefix = tmp_path / "result"
    out = run_cli("sweep", "--spec", str(spec_path), "--out", str(prefix),
                  "--trials", "5", "--seed", "9")
    assert out.returncode == 0, out.stderr

    csv_text = (tmp_path / "result.csv").read_text()
    assert csv_text.startswith("scheme,axis,axis_value,mean_rate,stderr,")
    assert csv_text.count("\n") == 1 + 2 * 2

    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["metadata"]["master_seed"] == 9
    assert all(r["n_trials"] == 5 for r in payload["rows"])
    assert {r["scheme"] for r in payload["rows"]} == {"perfect_csi", "ongrid"}


def test_sweep_rejects_bad_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{\"config\": {\"n_antennas\": 0}}")
    out = run_cli("sweep", "--spec", str(spec_path), "--out",
                  str(tmp_path / "x"))
    assert out.returncode == 2
    assert "error" in json.loads(out.stderr)


@pytest.mark.parametrize("edit", [
    lambda p: p.update(n_trails=3),
    lambda p: p["design"].update(n_trails=3),
    lambda p: p["config"].update(n_trails=3),
], ids=["spec", "design", "config"])
def test_sweep_rejects_an_unknown_key(tmp_path, edit):
    spec_path = _small_spec_file(tmp_path, edit)
    out = run_cli("sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x"))
    assert "'n_trails'" in _error(out)


def test_sweep_rejects_an_ill_typed_value(tmp_path):
    spec_path = _small_spec_file(tmp_path, lambda p: p["config"].update(n_antennas="64"))
    out = run_cli("sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x"))
    assert "invalid experiment spec" in _error(out)


def test_sweep_rejects_a_spec_the_design_cannot_serve(tmp_path):
    # caught when the spec is read, not inside the sweep
    spec_path = _small_spec_file(
        tmp_path, lambda p: p["design"].update(alpha_p_override=1e-6))
    out = run_cli("sweep", "--spec", str(spec_path), "--out", str(tmp_path / "x"))
    assert "coverage slope bound" in _error(out)


def test_sweep_to_a_missing_directory_is_reported(tmp_path):
    out = run_cli("sweep", "--spec", str(_small_spec_file(tmp_path)),
                  "--out", str(tmp_path / "missing" / "x"))
    assert "cannot write output" in _error(out)


def test_sweep_requires_out_prefix():
    out = run_cli("sweep")
    assert out.returncode != 0


def test_full_scale_flag_parses():
    args = build_parser().parse_args(["sweep", "--out", "x", "--full-scale"])
    assert args.full_scale is True
    assert args.spec is None
