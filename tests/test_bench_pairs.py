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
