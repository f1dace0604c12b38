"""scripts/compare_outputs.py: the per-item comparison summary."""
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _script():
    sys.path.insert(0, str(ROOT / "scripts"))  # it imports bench_pairs
    try:
        spec = importlib.util.spec_from_file_location("compare_outputs",
                                                      ROOT / "scripts" / "compare_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return module


COMPARE = _script()
CSV = "scheme,axis,axis_value,mean_rate\nongrid,snr_db,5.0,2.5\naux_pair,snr_db,5.0,1e-05\n"


def test_identical_text_is_reported_identical():
    summary = COMPARE.summarize(CSV, CSV)
    assert summary == {"identical": True, "lines": 3, "changed_lines": 0,
                       "max_rel_change": 0.0, "schemes": []}
    assert COMPARE.report_line("desk", summary) == "identical  desk"


def test_changed_numbers_give_the_largest_relative_change():
    change = CSV.replace("2.5", "2.0").replace("1e-05", "1.01e-05")
    summary = COMPARE.summarize(CSV, change)
    assert not summary["identical"] and summary["changed_lines"] == 2
    assert math.isclose(summary["max_rel_change"], 0.2)
    assert summary["schemes"] == ["aux_pair", "ongrid"]
    assert COMPARE.report_line("desk", summary) == (
        "CHANGED    desk: 2 of 3 lines, largest relative change 0.2, schemes aux_pair ongrid")


def test_a_change_beyond_the_numbers_or_the_line_count_is_infinite():
    renamed = COMPARE.summarize(CSV, CSV.replace("ongrid", "offgrid"))
    assert renamed["changed_lines"] == 1 and renamed["max_rel_change"] == math.inf
    longer = COMPARE.summarize(CSV, CSV + "exit 2\n")
    assert longer["changed_lines"] == 1 and longer["lines"] == 4
    assert longer["max_rel_change"] == math.inf
    # a difference only in the final newline still counts
    assert not COMPARE.summarize(CSV, CSV.rstrip("\n"))["identical"]


def test_a_changed_csv_names_the_schemes_of_its_changed_rows():
    only_aux = COMPARE.summarize(CSV, CSV.replace("1e-05", "2e-05"))
    assert only_aux["schemes"] == ["aux_pair"]
    assert COMPARE.report_line("desk", only_aux).endswith(", schemes aux_pair")
    # a row only one side has counts, and so does either side of a changed row
    extra = COMPARE.summarize(CSV, CSV + "match_filter,snr_db,5.0,3.0\n")
    assert extra["schemes"] == ["match_filter"]
    assert COMPARE.summarize(CSV, CSV.replace("ongrid", "offgrid"))["schemes"] == [
        "offgrid", "ongrid"]
    # text without a scheme column, or with a changed header, names none
    text = COMPARE.summarize("exit 0\nvalue 1\n", "exit 0\nvalue 2\n")
    assert text["schemes"] == [] and not COMPARE.report_line("cli", text).count("schemes")
    header = COMPARE.summarize(CSV, CSV.replace("mean_rate", "rate"))
    assert header["schemes"] == []


def test_cli_records_and_json_rows_name_the_schemes_of_their_changed_records():
    def call(scheme, theta):
        return json.dumps({"theta": theta, "scheme": scheme, "rate": 1.5}, indent=2)

    # the cli_train stdout: one JSON record per call, each followed by its exit line
    calls = (("ongrid", 0.1), ("match_filter", 0.2))
    stdout = "".join(f"{call(scheme, theta)}\nexit 0\n" for scheme, theta in calls)
    moved = COMPARE.summarize(stdout, stdout.replace("0.2", "0.25"))
    assert moved["schemes"] == ["match_filter"]
    assert COMPARE.report_line("cli_train seed 0", moved).endswith(", schemes match_filter")
    # a call only one side has counts
    extra = COMPARE.summarize(stdout, stdout + call("aux_pair", 0.3) + "\nexit 0\n")
    assert extra["schemes"] == ["aux_pair"]
    # a "JSON without run" item: the rows of one JSON object
    rows = {"metadata": {"n_trials": 2},
            "rows": [{"scheme": "ongrid", "mean_rate": 2.5},
                     {"scheme": "aux_pair", "mean_rate": 1.0}]}
    text = json.dumps(rows, indent=2)
    assert COMPARE.summarize(text, text.replace("1.0", "1.25"))["schemes"] == ["aux_pair"]
    # JSON that holds no scheme records names none
    plan = json.dumps({"K": 3, "p1": 1}, indent=2)
    assert COMPARE.summarize(plan, plan.replace("3", "4"))["schemes"] == []


def test_a_value_near_zero_is_scaled_by_its_column():
    # an aux-pair theta near zero that moved by a rounding-size 1.8e-18 is
    # measured against the other calls' angles, not its own magnitude
    def call(scheme, theta):
        return json.dumps({"theta": theta, "scheme": scheme}, indent=2) + "\nexit 0\n"

    parent = call("ongrid", 0.5) + call("aux_pair", 0.0010155)
    change = call("ongrid", 0.5) + call("aux_pair", 0.0010155 + 1.8e-18)
    moved = COMPARE.summarize(parent, change)
    assert moved["changed_lines"] == 1 and moved["schemes"] == ["aux_pair"]
    assert 0 < moved["max_rel_change"] < 1e-17
    # a CSV column sets the scale of its own numbers: mean_rate's 2.5, not
    # axis_value's 5.0 or the number's own 1e-05
    rate = COMPARE.summarize(CSV, CSV.replace("1e-05", "2e-05"))
    assert math.isclose(rate["max_rel_change"], 1e-05 / 2.5)
    # a value that turns infinite still reads as infinite
    assert COMPARE.summarize(CSV, CSV.replace("2.5", "inf"))["max_rel_change"] == math.inf


def test_kernel_items_write_the_raw_arrays_one_row_per_line(desk_plan):
    # the bank signatures, codebook powers, pilot-pass observations and
    # noisy magnitudes a kernel change moves: one line per row, every number
    # by repr, so the text reads back bit for bit
    from beamtrain import build_match_filter_bank, design, harness
    from beamtrain.arrays import element_distances
    from beamtrain.harness import fullscale_experiment_spec
    from beamtrain.training import _pilot_pass, scheme_table

    fullscale = design(fullscale_experiment_spec().design_inputs())
    items = COMPARE.kernel_items(desk_plan, fullscale)
    assert list(items) == ["desk bank signatures 192 x 8", "full-scale bank signatures 32 x 2",
                           "desk band_powers 192 x 8, 40 users",
                           "desk noisy magnitudes plan, near, far, 40 users at 10 dB",
                           "full-scale pilot pass plan, near, far, 4 users"]
    m_desk, m_full = desk_plan.cfg.n_subcarriers, fullscale.cfg.n_subcarriers
    shapes = [(desk_plan.K * m_desk, 192 * 8), (fullscale.K * m_full, 32 * 2), (40, 192 * 8),
              (40 * m_desk, desk_plan.K + 8 + 1), (4 * m_full, fullscale.K + 10 + 1)]
    for text, (n_lines, n_fields) in zip(items.values(), shapes):
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == n_lines
        assert {len(line.split(",")) for line in lines} == {n_fields}
    grid = scheme_table(fullscale, (), 32, 2)["exhaustive"].probes
    sig = build_match_filter_bank(fullscale, grid).signatures
    read = np.array([[float(x) for x in line.split(",")]
                     for line in items["full-scale bank signatures 32 x 2"].splitlines()])
    assert np.array_equal(read, sig.reshape(-1, len(grid)))
    cfg = fullscale.cfg
    users = harness._draw_users(cfg, np.random.default_rng(0), 4)
    lengths = element_distances(cfg, users["theta"][:, None], users["r"][:, None])
    families = COMPARE._pilot_families(fullscale, fullscale_experiment_spec())
    assert [len(p) for p in families.values()] == [fullscale.K, 10, 1]
    obs = np.concatenate(list(_pilot_pass(cfg, families, users["beta_c"], lengths).values()), 2)
    read = np.array([[complex(x) for x in line.split(",")]
                     for line in items["full-scale pilot pass plan, near, far, 4 users"]
                     .splitlines()])
    assert np.array_equal(read, obs.reshape(-1, obs.shape[-1]))


def test_named_specs_include_the_full_scale_distance_sweep():
    # the sweeps written with their JSON include the fullscale_distance
    # workload's schemes at its three distances over 60 trials
    sys.path.insert(0, str(ROOT / "perfbench"))  # named_specs imports workloads
    try:
        import workloads

        specs = COMPARE.named_specs()
        bench = workloads.sweep_spec("fullscale_distance", 0, {"n_trials": 20})
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    assert list(specs) == ["desk default spec", "desk overhead 1, 2, 4, 8 at 60 trials",
                           "desk distance 3, 6, 9 m at 60 trials",
                           "full-scale distance 10, 40, 160 m at 60 trials",
                           "desk SNR 15, 5, 10 dB at 20 trials",
                           "desk distance 9, 3, 6 m at 20 trials"]
    spec = specs["full-scale distance 10, 40, 160 m at 60 trials"]
    assert spec.schemes == bench.schemes and spec.cfg == bench.cfg
    assert spec.sweep_axis == "distance_m" and spec.axis_values == (10.0, 40.0, 160.0)
    assert spec.n_trials == 60
    # unsorted values pin the row order and the draw keys by index
    for name, axis, values in (("desk SNR 15, 5, 10 dB at 20 trials", "snr_db",
                                (15.0, 5.0, 10.0)),
                               ("desk distance 9, 3, 6 m at 20 trials", "distance_m",
                                (9.0, 3.0, 6.0))):
        spec = specs[name]
        assert spec.cfg == specs["desk default spec"].cfg
        assert (spec.sweep_axis, spec.axis_values, spec.n_trials) == (axis, values, 20)


def test_cli_errors_record_one_json_error_and_exit_2_per_call(tmp_path, monkeypatch):
    # every invocation fails the way the library reports it, and the files
    # it reads are named by relative paths, so no message names a directory
    monkeypatch.chdir(tmp_path)
    items = COMPARE.cli_error_items()
    assert list(items) == ["cli errors"]
    lines = items["cli errors"].splitlines()
    assert len(lines) == 2 * len(COMPARE.CLI_ERRORS)
    assert lines[1::2] == ["exit 2"] * len(COMPARE.CLI_ERRORS)
    for line in lines[::2]:
        error = json.loads(line)
        assert isinstance(error, dict) and list(error) == ["error"]
    assert str(tmp_path) not in items["cli errors"]
