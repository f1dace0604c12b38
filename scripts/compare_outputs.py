"""Check that two git revisions write the same sweep and train outputs.

    python3 scripts/compare_outputs.py PARENT CHANGE

Each revision is exported with `bench_pairs.export` into its own temporary
directory (`git stash create` names a commit of uncommitted tracked
changes).  In each tree a child process, with that tree's `src/` and
`perfbench/` on its path and one BLAS thread, writes these items:

- `to_csv()` of every sweep spec the perfbench sweep workloads
  (desk_snr_sweep, fullscale_grid, fullscale_distance) build at seeds 0-3
- `to_csv()` of the default desk spec, of the desk overhead axis (budgets
  1, 2, 4, 8) and distance axis (3, 6, 9 m) at 60 trials, and of the
  fullscale_distance schemes at 10, 40 and 160 m over 60 trials (several
  blocks of users per key, partial last blocks, three keys on one
  workspace), and of the desk SNR axis at 15, 5, 10 dB and distance axis
  at 9, 3, 6 m over 20 trials (unsorted values: rows in the values' order,
  distance draws keyed by index), and of each of these six its `to_json()`
  without the `run` key (the wall-clock facts of the run): the JSON rows
  show each value's Python type, which the CSV does not
- `to_csv()` of the full-scale match filter on the overhead axis (budgets 1,
  2, 3) at 20 trials: the one full-scale path where a pilot budget below K
  reads the bank
- the stdout of every `beamtrain train` call of the cli_train workload at
  seeds 0-9, one item per seed
- "cli errors": the stderr and exit code of `cli.main` for each invocation of
  CLI_ERRORS, a failure the library reports (a missing plan, an unknown key
  in design inputs, a design below the coverage slope bound, bad train
  flags, a spec with repeated schemes, a sweep into a missing directory, a
  one-subcarrier rainbow plan), run in a directory of their input files by
  relative paths, so no message names a temporary directory
- the beam-pattern CSV, `dump_beam_pattern`, the delay-table CSV,
  `fixed_td_network(plan).to_csv()`, the plan JSON, `to_json()`, the plan
  `summary()`, and the plan's derived values as JSON (`K`, `p1`,
  `pM`, `ending_directions`, `alpha_t_interval`, `alpha_slope_min`,
  `alpha_slope`) of the desk, full-scale and config-A plans (config A: 128
  antennas, 10 GHz carrier, 2 GHz band, 512 subcarriers, 5-200 m, gamma 1);
  the derived values are read by name, so a plan that stores one and a plan
  that computes it give the same item
- the JSON, `json.dumps(to_dict(), indent=2)`, and `spec_hash()` of the
  default desk and full-scale specs
- each plan and spec JSON read back through `from_dict` and written again
- the raw kernel arrays, one row per line (kernel_items): the bank
  signatures of the desk plan on its 192 x 8 grid and of the full-scale
  plan on the fullscale_grid 32 x 2 grid, the `band_powers` of the desk
  codebook for 40 users drawn from seed 0, the complex pilot-pass
  observations of the fullscale_distance families for 4 users drawn from
  seed 0, and the noisy magnitudes of the desk pilot families, so a kernel
  change shows its largest relative change even where no pick moves

Each item is reported as identical, or with the count of changed lines and
the largest relative change of a number on them ("inf" where a changed line
differs in more than its numbers).  A number's change is relative to the
largest magnitude of its column in the item: the numbers under one JSON key,
or in one comma-separated field, as a CSV column.  A changed item also
names the schemes of its changed records: the rows of a CSV whose header
has a `scheme` column, the rows of a "JSON without run" item, and the JSON
records, one per call, of a `cli_train` item.  The exit status is 1 when any item
differs, 0 when every item is byte-identical.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import export

SWEEP_WORKLOADS = ("desk_snr_sweep", "fullscale_grid", "fullscale_distance")
SWEEP_SEEDS = range(4)
CLI_SEEDS = range(10)
PLAN_VALUES = ("K", "p1", "pM", "ending_directions", "alpha_t_interval", "alpha_slope_min",
               "alpha_slope")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAIN_ARGS = ("train", "--plan=plan.json", "--theta=0.2", "--distance=4")
CLI_ERRORS = (
    ("train", "--plan=missing.json", "--theta=0.2", "--distance=4"),
    ("design", "--inputs=inputs-unknown-key.json"),
    ("design", "--inputs=inputs-below-slope-bound.json"),
    (*TRAIN_ARGS, "--bank-angles=0"),
    (*TRAIN_ARGS, "--snr-db=nan"),
    (*TRAIN_ARGS, "--snr-db=4000"),
    ("train", "--plan=plan.json", "--theta=1.5", "--distance=4"),
    ("train", "--plan=plan.json", "--theta=0.2", "--distance=inf"),
    (*TRAIN_ARGS, "--seed=-1"),
    ("sweep", "--spec=spec-repeated-schemes.json", "--out=x"),
    ("sweep", "--trials=2", "--out=missing/x"),
    ("train", "--plan=plan-one-subcarrier.json", "--scheme=farfield_rainbow", "--theta=0.2",
     "--distance=4"),
)

EXIT_LINE = re.compile(r"^exit .*$", re.M)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
JSON_KEY = re.compile(r'^\s*"([^"]*)":')


def _columns(line: str) -> list:
    """(column, x) of the numbers x of a line, the column (key, field, j):
    the line's JSON key or None, the comma-separated field of the number and
    its count in that field."""
    key = JSON_KEY.match(line)
    return [((key and key.group(1), f, j), float(x)) for f, field in enumerate(line.split(","))
            for j, x in enumerate(NUMBER.findall(field))]


def _column_scales(*texts: str) -> dict:
    """Largest finite magnitude of each column (_columns) over the texts."""
    scales = {}
    for text in texts:
        for line in text.splitlines():
            for col, x in _columns(line):
                if math.isfinite(x):
                    scales[col] = max(scales.get(col, 0.0), abs(x))
    return scales


def _relative_change(a: str, b: str, scales: dict) -> float:
    """Largest change between the numbers of two lines relative to the
    largest magnitude of each number's column, scales (_column_scales) of
    texts that hold both lines; inf when the lines differ in anything but
    their numbers, or a changed number is not finite.  A column scale keeps
    a value near zero from reading a rounding-size move as a large change."""
    if NUMBER.split(a) != NUMBER.split(b):
        return math.inf
    worst = 0.0
    for (col, x), (_, y) in zip(_columns(a), _columns(b)):
        if x != y:
            worst = max(worst, abs(x - y) / scales[col] if math.isfinite(x - y) else math.inf)
    return worst


def _records(text: str) -> tuple:
    """(head, records) of an item's text, each record a (scheme, text) pair:
    the header line and the rows of a CSV whose header has a `scheme`
    column; "json" and the `rows` of a JSON object, or the JSON records of
    the CLI's stdout, one per call between its `exit N` lines; (None, [])
    for any other text."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if "scheme" in header:
        col = header.index("scheme")
        return lines[0], [(line.split(",")[col], line) for line in lines[1:]
                          if line.count(",") >= col]
    try:
        records = [json.loads(chunk) for chunk in EXIT_LINE.split(text) if chunk.strip()]
    except json.JSONDecodeError:
        return None, []
    if len(records) == 1 and isinstance(records[0], dict) and "rows" in records[0]:
        records = records[0]["rows"]
    if not records or not all(isinstance(r, dict) and "scheme" in r for r in records):
        return None, []
    return "json", [(r["scheme"], json.dumps(r, sort_keys=True)) for r in records]


def _changed_schemes(parent: str, change: str) -> list:
    """Sorted schemes of the records (_records) that differ between two
    texts (either side's, and records only one side has), when both have
    the same head; empty for any other text."""
    (head, a), (other, b) = _records(parent), _records(change)
    if head is None or head != other:
        return []
    changed = [r for x, y in zip(a, b) if x != y for r in (x, y)] + a[len(b):] + b[len(a):]
    return sorted({scheme for scheme, _ in changed})


def summarize(parent: str, change: str) -> dict:
    """Changed lines of one item's text, the largest relative change on
    them, each number's change relative to its column's largest magnitude in
    either text, and the schemes of its changed records (_changed_schemes);
    a line only one side has counts as changed, by inf."""
    a, b, scales = parent.splitlines(), change.splitlines(), _column_scales(parent, change)
    changes = [_relative_change(x, y, scales) for x, y in zip(a, b) if x != y]
    changes += [math.inf] * abs(len(a) - len(b))
    return {"identical": parent == change, "lines": max(len(a), len(b)),
            "changed_lines": len(changes), "max_rel_change": max(changes, default=0.0),
            "schemes": _changed_schemes(parent, change)}


def report_line(name: str, summary: dict) -> str:
    if summary["identical"]:
        return f"identical  {name}"
    schemes = f", schemes {' '.join(summary['schemes'])}" if summary["schemes"] else ""
    return (f"CHANGED    {name}: {summary['changed_lines']} of {summary['lines']} lines, "
            f"largest relative change {summary['max_rel_change']:.3g}{schemes}")


def _rows_text(array) -> str:
    """One line per row of the array's last axis, each number by repr, so
    equal bits give equal text."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in array.reshape(-1, array.shape[-1]).tolist())


def _pilot_families(plan, spec) -> dict:
    """Probe family -> probes of the pilot schemes of the spec's scheme table
    (plan, near and far), in that order."""
    from beamtrain.training import scheme_table

    table = scheme_table(plan, (), spec.bank_angles, spec.bank_rings)
    return {table[name].family: table[name].probes
            for name in ("ongrid", "nearfield_rainbow", "farfield_rainbow")}


def kernel_items(desk_plan, fullscale_plan) -> dict:
    """Text of the raw kernel arrays: the bank signatures (K M lines of G)
    of the desk plan on its 192 x 8 grid and of the full-scale plan on the
    fullscale_grid 32 x 2 grid, the grids the scheme table builds; the
    band_powers (40 lines of G) of the desk codebook for 40 users drawn
    from np.random.default_rng(0) as the sweep draws them; the complex
    _pilot_pass observations (4 M lines of 14) of the fullscale_distance
    families, the default full-scale spec's plan, near and far beams side by
    side, for 4 users drawn from np.random.default_rng(0); and the noisy
    magnitudes (40 M lines of K + 9) of the default desk spec's three pilot
    families at 10 dB for the band_powers users, each family's noise drawn
    from np.random.default_rng of its sweep stream tag."""
    from beamtrain import build_match_filter_bank, harness
    from beamtrain.arrays import element_distances
    from beamtrain.training import _observe, _pilot_pass, band_powers, noise_power, scheme_table

    items, grids = {}, {}
    for name, plan, angles, rings in (("desk", desk_plan, 192, 8),
                                      ("full-scale", fullscale_plan, 32, 2)):
        grids[name] = grid = scheme_table(plan, (), angles, rings)["exhaustive"].probes
        items[f"{name} bank signatures {angles} x {rings}"] = _rows_text(
            build_match_filter_bank(plan, grid).signatures)
    cfg = desk_plan.cfg
    users = harness._draw_users(cfg, np.random.default_rng(0), 40)
    lengths = element_distances(cfg, users["theta"][:, None], users["r"][:, None])
    items["desk band_powers 192 x 8, 40 users"] = _rows_text(
        band_powers(grids["desk"], users["beta_c"], lengths))
    families = _pilot_families(desk_plan, harness.desk_experiment_spec())
    draws = _observe(cfg, families, users["beta_c"], lengths,
                     lambda family: np.random.default_rng(harness._STREAMS[family]))
    sigma = np.sqrt(noise_power(cfg, users["beta_c"], 10.0))[:, None, None]
    items["desk noisy magnitudes plan, near, far, 40 users at 10 dB"] = _rows_text(
        np.concatenate([draws[family](sigma) for family in families], axis=2))
    cfg = fullscale_plan.cfg
    users = harness._draw_users(cfg, np.random.default_rng(0), 4)
    lengths = element_distances(cfg, users["theta"][:, None], users["r"][:, None])
    families = _pilot_families(fullscale_plan, harness.fullscale_experiment_spec())
    items["full-scale pilot pass plan, near, far, 4 users"] = _rows_text(np.concatenate(
        list(_pilot_pass(cfg, families, users["beta_c"], lengths).values()), axis=2))
    return items


def cli_error_items() -> dict:
    """"cli errors": the stderr, then an `exit N` line, of cli.main for each
    invocation of CLI_ERRORS, run in the current directory after writing the
    files they read there: the desk plan, that plan with one subcarrier (a
    design needs two), desk design inputs with an unknown key and with an
    alpha_p_override below the coverage slope bound, and a desk spec whose
    schemes repeat."""
    from beamtrain import DesignInputs, cli, design, harness

    spec = harness.desk_experiment_spec()
    inputs = spec.design_inputs().to_dict()
    plan = design(spec.design_inputs()).to_dict()
    two = dataclasses.replace(harness.desk_config(), n_subcarriers=2)
    one_subcarrier = design(DesignInputs(two, gamma=0.5)).to_dict()
    one_subcarrier["config"]["n_subcarriers"] = 1
    for name, payload in (("plan", plan), ("plan-one-subcarrier", one_subcarrier),
                          ("inputs-unknown-key", {**inputs, "n_trails": 3}),
                          ("inputs-below-slope-bound", {**inputs, "alpha_p_override": 1e-6}),
                          ("spec-repeated-schemes",
                           {**spec.to_dict(), "schemes": ["ongrid", "ongrid"]})):
        Path(f"{name}.json").write_text(json.dumps(payload))
    err = io.StringIO()
    for argv in CLI_ERRORS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        print(f"exit {code}", file=err)
    return {"cli errors": err.getvalue()}


def named_specs() -> dict:
    """Name -> spec of each sweep written with its JSON: the default desk
    spec, the desk overhead and distance axes, the fullscale_distance
    workload's schemes at 10, 40 and 160 m over 60 trials, whose three
    draw keys share one workspace, whose pilot pass runs 15 blocks of users
    a key, and whose magnitudes and rate pass end in a partial block, and
    desk SNR and distance axes in unsorted order, whose rows follow the
    values' order and whose distance draws are keyed by index, not value."""
    import workloads
    from beamtrain import harness

    desk = harness.desk_experiment_spec
    return {
        "desk default spec": desk(),
        "desk overhead 1, 2, 4, 8 at 60 trials": desk(
            sweep_axis="overhead", axis_values=(1.0, 2.0, 4.0, 8.0), n_trials=60),
        "desk distance 3, 6, 9 m at 60 trials": desk(
            sweep_axis="distance_m", axis_values=(3.0, 6.0, 9.0), n_trials=60),
        "full-scale distance 10, 40, 160 m at 60 trials": workloads.sweep_spec(
            "fullscale_distance", 0, {"n_trials": 60}),
        "desk SNR 15, 5, 10 dB at 20 trials": desk(axis_values=(15.0, 5.0, 10.0), n_trials=20),
        "desk distance 9, 3, 6 m at 20 trials": desk(
            sweep_axis="distance_m", axis_values=(9.0, 3.0, 6.0), n_trials=20),
    }


def dump(out: str) -> None:
    """Write every item's text of the tree on the path, as JSON, to out."""
    import workloads
    from beamtrain import SystemConfig, DesignInputs, cli, design, fixed_td_network, harness

    items = {}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name in SWEEP_WORKLOADS:
            for seed in SWEEP_SEEDS:
                for spec in workloads.SweepWorkload(name, seed, False, tmp).specs:
                    items[f"{name} master_seed {spec.master_seed}"] = (
                        harness.run_sweep(spec).to_csv())
        for name, spec in named_specs().items():
            result = harness.run_sweep(spec)
            items[name] = result.to_csv()
            summary = json.loads(result.to_json())
            del summary["run"]
            items[f"{name} JSON without run"] = json.dumps(summary, indent=2)
        items["fullscale match_filter overhead 1, 2, 3 at 20 trials"] = harness.run_sweep(
            harness.fullscale_experiment_spec(
                schemes=("match_filter",), sweep_axis="overhead",
                axis_values=(1.0, 2.0, 3.0), n_trials=20)).to_csv()
        for seed in CLI_SEEDS:
            work = workloads.CliWorkload("cli_train", seed, False, tmp)
            text = io.StringIO()
            for _, argv in work.calls:
                with contextlib.redirect_stdout(text):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                print(f"exit {code}", file=text)
            items[f"cli_train seed {seed}"] = text.getvalue()
            work.close()
        errors_dir, cwd = Path(tmp, "cli-errors"), os.getcwd()
        errors_dir.mkdir()
        os.chdir(errors_dir)
        try:
            items.update(cli_error_items())
        finally:
            os.chdir(cwd)
    config_a = SystemConfig(n_antennas=128, carrier_freq=10e9, bandwidth=2e9,
                            n_subcarriers=512, distance_range=(5.0, 200.0))
    plans = {}
    desk = harness.desk_experiment_spec
    for name, inputs in (("desk", desk().design_inputs()),
                         ("full-scale", harness.fullscale_experiment_spec().design_inputs()),
                         ("config-A", DesignInputs(cfg=config_a, gamma=1.0))):
        plan = design(inputs)
        items[f"{name} beam pattern"] = harness.dump_beam_pattern(plan)[1]
        items[f"{name} delay table"] = fixed_td_network(plan).to_csv()
        items[f"{name} plan JSON"] = text = plan.to_json()
        items[f"{name} plan JSON read back"] = type(plan).from_dict(json.loads(text)).to_json()
        items[f"{name} plan summary"] = plan.summary()
        items[f"{name} plan derived values"] = json.dumps(
            {key: getattr(plan, key) for key in PLAN_VALUES}, indent=2)
        plans[name] = plan
    items.update(kernel_items(plans["desk"], plans["full-scale"]))
    for name, spec in (("desk", desk()), ("full-scale", harness.fullscale_experiment_spec())):
        items[f"{name} spec JSON"] = text = json.dumps(spec.to_dict(), indent=2)
        items[f"{name} spec hash"] = spec.spec_hash()
        again = type(spec).from_dict(json.loads(text))
        items[f"{name} spec JSON read back"] = json.dumps(again.to_dict(), indent=2)
        items[f"{name} spec hash read back"] = again.spec_hash()
    Path(out).write_text(json.dumps(items))


def outputs_of(tree: Path, out: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV},
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    subprocess.run([sys.executable, __file__, "--dump", str(out)], cwd=tree, env=env,
                   check=True)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="git revision of the parent")
    parser.add_argument("change", nargs="?", help="git revision of the change")
    parser.add_argument("--dump", help=argparse.SUPPRESS)  # the child's mode
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if args.parent is None or args.change is None:
        parser.error("give PARENT and CHANGE")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        outputs = {}
        for tree, rev in (("parent", args.parent), ("change", args.change)):
            (Path(tmp) / tree).mkdir()
            commit = export(rev, Path(tmp) / tree)
            print(f"{tree} {rev} = {commit}")
            outputs[tree] = outputs_of(Path(tmp) / tree, Path(tmp) / f"{tree}.json")
    parent, change = outputs["parent"], outputs["change"]
    if parent.keys() != change.keys():
        sys.exit("compare_outputs: the trees wrote different items")
    summaries = {name: summarize(parent[name], change[name]) for name in parent}
    for name, summary in summaries.items():
        print(report_line(name, summary))
    same = sum(s["identical"] for s in summaries.values())
    print(f"{same} of {len(summaries)} items identical")
    return 0 if same == len(summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
