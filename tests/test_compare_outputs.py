"""scripts/compare_outputs.py: the per-item comparison summary."""
import importlib.util
import math
import sys
from pathlib import Path

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
                       "max_rel_change": 0.0}
    assert COMPARE.report_line("desk", summary) == "identical  desk"


def test_changed_numbers_give_the_largest_relative_change():
    change = CSV.replace("2.5", "2.0").replace("1e-05", "1.01e-05")
    summary = COMPARE.summarize(CSV, change)
    assert not summary["identical"] and summary["changed_lines"] == 2
    assert math.isclose(summary["max_rel_change"], 0.2)
    assert COMPARE.report_line("desk", summary) == (
        "CHANGED    desk: 2 of 3 lines, largest relative change 0.2")


def test_a_change_beyond_the_numbers_or_the_line_count_is_infinite():
    renamed = COMPARE.summarize(CSV, CSV.replace("ongrid", "offgrid"))
    assert renamed["changed_lines"] == 1 and renamed["max_rel_change"] == math.inf
    longer = COMPARE.summarize(CSV, CSV + "exit 2\n")
    assert longer["changed_lines"] == 1 and longer["lines"] == 4
    assert longer["max_rel_change"] == math.inf
    # a difference only in the final newline still counts
    assert not COMPARE.summarize(CSV, CSV.rstrip("\n"))["identical"]
