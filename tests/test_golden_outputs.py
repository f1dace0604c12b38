"""Golden outputs: the files that `beamtrain design` and `beamtrain pattern`
write for the desk design inputs, and the spec hash and sweep CSV of a small
desk spec, byte for byte as stored under tests/golden/.

The stored files were written by the code before serialization became
field-driven and aux-pair became a batch solver, so any change to the JSON
layout, the spec hash, the beam pattern or a sweep row shows here.  Every
file, the sweep CSV included, must match byte for byte.

The two `exhaustive` rows (5 and 15 dB) were rewritten when the exhaustive
search moved to its two-number noise law (training.exhaustive_moments),
which draws its noise stream differently and is exact in distribution; every
other stored line is as the earlier code wrote it.

`sweep_overhead.csv` and `sweep_distance.csv` hold a small desk overhead
axis (budgets 1, 2, 4, 8) and distance axis (3, 6, 9 m) of every scheme.
They were written by the code that evaluated the rates once per (axis
point, scheme), before the sweep engine computed each distinct (trial,
estimate) serving gain once per draw key; that change must keep every byte.

`train.json` holds the `beamtrain train` stdout of all six schemes for one
user on the desk plan, and of `ongrid` and `aux_pair` for one user on the
full-scale plan (three pilots).  It was written by the code in which the
single-trial API runs the sweep's synthesis, noise draw and rate pass at
one trial, with one (1, M, K) unit-noise draw.  Every scheme of `train` now
observes through the sweep's observation function, `training._observe`, at
one trial with the call's one generator, and the file kept every byte, so
it pins the single-trial path the CLI takes.

The four sweep and train files were rewritten when the rate pass moved from
one gain_kernel sum per subcarrier to the baby-step giant-step matrix
product of beamsplit.subcarrier_gains.  The factored sum rounds apart from
the direct one, so the last digits of some rates moved: every number stayed
within 1e-12 relative of the earlier file (at most 1.8e-15), and the design,
beam-pattern and spec files kept every byte.

`plan.json` was rewritten when the plan came to store each designed value
once: the pilot count `K`, `p1`, `ending_directions`, `alpha_t_interval`
and `alpha_slope_min` are computed from the other fields and the inputs,
so the file lost those five keys, and a plan file that holds them is
rejected.  Every value it kept is byte for byte the same, and so are the
beam pattern, the sweep files and `train.json`.

`sweep_overhead.csv`, `sweep_distance.csv` and `train.json` were rewritten
when the pilot observations came to be built from giant and baby phase
steps over the subcarriers (training._pilot_pass) and from each user's
element path lengths: the factored exponentials round apart from the direct
ones, and only the `aux_pair` values, which read the observed magnitudes
through a Newton solve, moved, by at most 5.8e-14 relative.  Every other
byte of every file stayed.  `sweep.csv` was not rewritten: its `aux_pair`
rows moved by at most 1.8e-14, inside the 1e-9 relative tolerance its test
then allowed those rows for the Newton solve's last digits.

`sweep.csv`, `sweep_overhead.csv`, `sweep_distance.csv` and `train.json`
were rewritten when aux-pair came to intersect its two gain ellipses in
closed form (two circles in scaled coordinates, the root of lower alpha)
in place of the damped Newton loop: only the `aux_pair` rows and the
`aux_pair` train outputs moved, because the closed form takes the lower-alpha
root where Newton took the root on a fixed side of the pair and stalled at
alpha = 0 when that root was negative.  The closed form does not amplify
rounding, so the sweep CSV is now checked byte for byte like the others.

`sweep.csv`, `sweep_overhead.csv`, `sweep_distance.csv` and `train.json`
were rewritten when the rate pass and the pilot pass came to build their
giant and baby steps from three exponentials per phase and products of
them (beamsplit.phase_steps) in place of one exponential per step: the
products round apart from the direct exponentials, so the last digits of
some rates, standard errors and aux-pair estimates moved, by at most
9.4e-14 relative.  No pick, count or other byte changed, and the design,
beam-pattern and spec files kept every byte.

`train.json` was rewritten when `cli.TRAIN_SCHEMES` came to be
`training.ALL_SCHEMES` without `perfect_csi`, in the sweep's scheme order:
its desk entries moved from the CLI's old order (ongrid, aux_pair,
match_filter, exhaustive, nearfield_rainbow, farfield_rainbow) to that one.
Only the key order changed: every entry's value is byte for byte the same,
the file loads to the same JSON object, and every other file kept every
byte.

Running this file as a script rewrites the stored files from the current
code: `PYTHONPATH=src python tests/test_golden_outputs.py`.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from beamtrain import (ExperimentSpec, cli, design, desk_experiment_spec,
                       fullscale_experiment_spec, run_sweep)
from beamtrain.cli import TRAIN_SCHEMES

GOLDEN = Path(__file__).resolve().parent / "golden"


def _spec() -> ExperimentSpec:
    # every scheme, two SNR points, 20 trials, a 48 x 4 grid: well under 3 s
    return desk_experiment_spec(axis_values=(5.0, 15.0), n_trials=20,
                                bank_angles=48, bank_rings=4)


def _axis_specs() -> dict:
    """Golden file name -> a small spec on the overhead or the distance axis."""
    small = dict(n_trials=20, bank_angles=48, bank_rings=4)
    return {
        "sweep_overhead.csv": desk_experiment_spec(
            sweep_axis="overhead", axis_values=(1.0, 2.0, 4.0, 8.0), **small),
        "sweep_distance.csv": desk_experiment_spec(
            sweep_axis="distance_m", axis_values=(3.0, 6.0, 9.0), **small),
    }


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def _train_outputs() -> str:
    """train.json: parsed `beamtrain train` stdout per (plan, scheme), one
    user per plan at 10 dB and seed 7."""
    calls = {
        "desk": (desk_experiment_spec(), TRAIN_SCHEMES, ("--theta=0.3", "--distance=5")),
        "fullscale": (fullscale_experiment_spec(), ("ongrid", "aux_pair"),
                      ("--theta=0.25", "--distance=60")),
    }
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (spec, schemes, user) in calls.items():
            plan = Path(tmp) / f"{name}_plan.json"
            design(spec.design_inputs()).to_json(plan)
            for scheme in schemes:
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    assert cli.main(["train", f"--plan={plan}", f"--scheme={scheme}", *user,
                                     "--snr-db=10", "--seed=7"]) == 0
                outputs[f"{name} {scheme}"] = json.loads(text.getvalue())
    return json.dumps(outputs, indent=2) + "\n"


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
        **{name: run_sweep(axis).to_csv() for name, axis in _axis_specs().items()},
        "train.json": _train_outputs(),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _write_outputs(GOLDEN / "inputs.json", tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ["plan.json", "pattern.csv", "spec.json", "spec_hash.txt",
                                  "sweep_overhead.csv", "sweep_distance.csv", "train.json"])
def test_file_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


def test_golden_spec_file_loads_to_the_same_spec():
    spec = ExperimentSpec.from_json((GOLDEN / "spec.json").read_text())
    assert spec == _spec()
    assert spec.spec_hash() + "\n" == (GOLDEN / "spec_hash.txt").read_text()


def test_sweep_csv_matches_golden(outputs):
    assert outputs["sweep.csv"] == (GOLDEN / "sweep.csv").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    inputs = GOLDEN / "inputs.json"
    inputs.write_text(json.dumps(_spec().design_inputs().to_dict(), indent=2) + "\n")
    for name, text in _write_outputs(inputs, GOLDEN).items():
        (GOLDEN / name).write_text(text)
    sys.exit(0)
