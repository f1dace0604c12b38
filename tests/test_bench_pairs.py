"""scripts/bench_pairs.py: seed lists and the pair summary of a BENCH file."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_lists_and_pair_specs():
    bench = _script()
    assert bench.seeds_of("21-24") == [21, 22, 23, 24]
    assert bench.seeds_of("3,7-8") == [3, 7, 8]
    assert bench.parse_pair("desk_snr_sweep:21-22") == ("desk_snr_sweep", [21, 22], 0)
    assert bench.parse_pair("fullscale_grid:5:trace") == ("fullscale_grid", [5], 1)


def test_summary_reproduces_the_stored_bench_7_layout():
    # BENCH_7.json holds ten desk_snr_sweep pairs summarized in this layout;
    # its quartiles were taken before the values were rounded to 4 places
    stored = json.loads((ROOT / "BENCH_7.json").read_text())
    wall = stored["pairs"]["desk_snr_sweep"]["metrics"]["wall_s"]
    summary = _script().summarize(wall["parent"], wall["change"])
    assert summary.keys() == wall.keys()
    for name, value in wall.items():
        assert summary[name] == pytest.approx(value, abs=1e-4), name


def test_summary_of_one_pair_has_no_quartiles():
    summary = _script().summarize([2.0], [1.5])
    assert summary["change_lower_in"] == 1 and summary["pairs"] == 1
    assert summary["change_vs_parent_median"] == -0.25
    assert "parent_quartiles" not in summary


def test_unscaled_lines_of_the_stored_bench_34_runs_parse_and_summarize():
    # BENCH_34.json kept each untraced run's unscaled line but no summary of it
    bench = _script()
    stored = json.loads((ROOT / "BENCH_34.json").read_text())
    for workload, pairs in stored["pairs"].items():
        runs = {tree: [r for r in stored["runs"] if r["workload"] == workload
                       and r["tree"] == tree and not r["trace"]] for tree in ("parent", "change")}
        summary = bench.unscaled_summary(runs)
        assert list(summary) == list(bench.UNSCALED_NAMES)
        for name, figures in summary.items():
            assert figures["pairs"] == len(pairs["seeds"]), (workload, name)
            assert figures["parent"] == [round(bench.unscaled_figures(r["unscaled"])[name], 4)
                                         for r in runs["parent"]]
    first = bench.unscaled_figures(stored["runs"][0]["unscaled"])
    assert first == {"wall_s": 0.0371301, "call_p50_ms": 2.11981, "call_p90_ms": 3.32764,
                     "speed_scale": 1.421}


def test_an_unscaled_line_that_does_not_parse_is_an_error():
    with pytest.raises(ValueError, match="not an unscaled timing line"):
        _script().unscaled_figures(None)
