"""Golden outputs: the files that `beamtrain design` and `beamtrain pattern`
write for the desk design inputs, and the spec hash and sweep CSV of a small
desk spec, byte for byte as stored under tests/golden/.

The stored files were written by the code before serialization became
field-driven and aux-pair became a batch solver, so any change to the JSON
layout, the spec hash, the beam pattern or a sweep row shows here.  The one
allowed difference: the `aux_pair` rows of the sweep CSV may differ from the
stored ones by at most 1e-9 relative in `mean_rate` and `stderr`, because
the batch aux-pair solver's pseudo-inverse may move the last digits of a
Newton step.  Every other field of every row must match exactly.

Running this file as a script rewrites the stored files from the current
code: `PYTHONPATH=src python tests/test_golden_outputs.py`.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from beamtrain import ExperimentSpec, cli, desk_experiment_spec, run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"
AUX_REL_TOL = 1e-9


def _spec() -> ExperimentSpec:
    # every scheme, two SNR points, 20 trials, a 48 x 4 grid: well under 3 s
    return desk_experiment_spec(axis_values=(5.0, 15.0), n_trials=20,
                                bank_angles=48, bank_rings=4)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def _write_outputs(inputs: Path, out: Path) -> dict:
    """Write the CLI files from the design inputs at `inputs` into `out`;
    returns the text of every golden file."""
    _cli("design", "--inputs", str(inputs), "--out", str(out / "plan.json"))
    _cli("pattern", "--plan", str(out / "plan.json"), "--out", str(out / "pattern.csv"))
    spec = _spec()
    return {
        "plan.json": (out / "plan.json").read_text(),
        "pattern.csv": (out / "pattern.csv").read_text(),
        "spec.json": json.dumps(spec.to_dict(), indent=2) + "\n",
        "spec_hash.txt": spec.spec_hash() + "\n",
        "sweep.csv": run_sweep(spec).to_csv(),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _write_outputs(GOLDEN / "inputs.json", tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ["plan.json", "pattern.csv", "spec.json", "spec_hash.txt"])
def test_file_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


def test_golden_spec_file_loads_to_the_same_spec():
    spec = ExperimentSpec.from_json((GOLDEN / "spec.json").read_text())
    assert spec == _spec()
    assert spec.spec_hash() + "\n" == (GOLDEN / "spec_hash.txt").read_text()


def test_sweep_csv_matches_golden(outputs):
    got = outputs["sweep.csv"].splitlines()
    want = (GOLDEN / "sweep.csv").read_text().splitlines()
    assert len(got) == len(want)
    for line, golden in zip(got, want):
        if line == golden:
            continue
        # only an aux_pair row may differ, and only in its last digits
        a, b = line.split(","), golden.split(",")
        assert a[0] == b[0] == "aux_pair", line
        assert a[:3] + a[5:] == b[:3] + b[5:], line
        for x, y in zip(a[3:5], b[3:5]):
            assert float(x) == pytest.approx(float(y), rel=AUX_REL_TOL, abs=0), line


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    inputs = GOLDEN / "inputs.json"
    inputs.write_text(json.dumps(_spec().design_inputs().to_dict(), indent=2) + "\n")
    for name, text in _write_outputs(inputs, GOLDEN).items():
        (GOLDEN / name).write_text(text)
    sys.exit(0)
