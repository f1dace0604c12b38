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
