"""Self-tests of the benchmark: the output check counts corrupted output as
failed, and a tiny run of every workload emits exactly the metrics that
BENCHMARK.json names.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEY = ("ongrid", 15.0)


def _op(rate, stderr=0.05, theta=None, alpha=None, op_id=0, key=KEY):
    return {"id": op_id, "key": key, "rate": rate, "stderr": stderr,
            "snr_db": 15.0, "theta": theta, "alpha": alpha}


def _failed(ops, ref=None):
    flags, _ = check.check(ops, ref)
    return flags


def test_good_row_passes():
    assert _failed([_op(4.0)], {KEY: (4.0, 0.05, 1)}) == [False]


@pytest.mark.parametrize("rate", [math.nan, math.inf, -0.1, check.rate_cap(15.0) + 1e-6])
def test_rate_outside_its_range_fails(rate):
    assert _failed([_op(rate)]) == [True]


def test_rate_at_the_cap_passes():
    assert _failed([_op(check.rate_cap(15.0), stderr=0.0)]) == [False]


@pytest.mark.parametrize("theta, alpha", [(1.2, 0.1), (-1.01, 0.1), (0.3, -1e-3),
                                          (math.nan, 0.1)])
def test_estimate_outside_its_range_fails(theta, alpha):
    assert _failed([_op(4.0, theta=theta, alpha=alpha)]) == [True]


def test_mean_rate_ten_se_below_reference_fails():
    ref = {KEY: (4.0, 0.05, 1)}
    assert _failed([_op(4.0 - 10 * 0.05)], ref) == [True]
    # within 4 combined standard errors, or better than the reference: passes
    assert _failed([_op(4.0 - 0.05)], ref) == [False]
    assert _failed([_op(4.0 + 0.5)], ref) == [False]


def test_pooled_calls_below_reference_fail_together():
    rates = [3.0, 3.1, 2.9, 3.0]
    ops = [_op(r, stderr=0.0, op_id=i) for i, r in enumerate(rates)]
    assert _failed(ops, {KEY: (4.0, 0.02, 4)}) == [True] * 4
    assert _failed(ops, {KEY: (3.0, 0.02, 4)}) == [False] * 4


def test_reference_row_not_produced_counts_as_failed():
    other = ("aux_pair", 15.0)
    flags = _failed([_op(4.0)], {KEY: (4.0, 0.05, 1), other: (4.0, 0.05, 1)})
    assert flags == [False, True]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_stored_reference_matches_benchmark_sizes(name):
    sizes = workloads.sizes_for(name, tiny=False)
    rows = check.load_reference(name, 0, sizes)
    assert rows and all(n >= 1 for _, _, n in rows.values())
    # a seed with no stored rows falls back to a stored seed
    assert check.load_reference(name, 10**9 + 7, sizes).keys() == rows.keys()


def test_recorder_wraps_every_namespace_and_restores():
    import beamtrain
    import spans
    from beamtrain import cli, harness, training

    original = training.build_match_filter_bank
    cfg = harness.desk_config()
    user = beamtrain.PolarLocation.from_angle_distance(0.2, 5.0)
    recorder = spans.Recorder()
    recorder.install()
    try:
        wrapped = training.build_match_filter_bank
        assert wrapped is not original
        assert harness.build_match_filter_bank is cli.build_match_filter_bank is wrapped
        assert beamtrain.build_match_filter_bank is wrapped
        recorder.pass_index = 0
        harness.rate_metric(cfg, user, user, 10.0)
    finally:
        recorder.uninstall()
    for module in (beamtrain, cli, harness, training):
        assert module.build_match_filter_bank is original
    metrics = spans.pass_metrics(recorder.spans, 0)
    assert metrics["beamsplit.gain_kernel_calls"] == cfg.n_subcarriers
    assert metrics["beamsplit.gain_kernel_exps"] == cfg.n_subcarriers * cfg.n_antennas
    assert 0 < metrics["beamsplit.gain_kernel.rate_s"] <= metrics["harness.rate_metric_s"]
    assert set(metrics) | {"trace.overhead_frac"} == set(spans.PER_LAYER)


def test_call_latencies_are_medians_scaled_to_reference_speed():
    import run

    # (wall, [(call id, latency)], ops)
    passes = [(1.0, [(0, 0.010), (1, 0.200)], []),
              (2.0, [(0, 0.020), (1, 0.600)], [])]
    assert run.call_latencies(passes) == pytest.approx([15.0, 400.0])
    assert run.call_latencies(passes, scale=0.5) == pytest.approx([7.5, 200.0])


def test_speed_scale_is_reference_over_median_kernel_time():
    import speed

    probe = speed.Probe()
    probe.after(2.1 * speed.EVERY_S)
    assert len(probe.times) == 4
    assert probe.scale() == pytest.approx(speed.REFERENCE_S / statistics.median(probe.times))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    for m in declared:
        assert f"  {m['name']} " in proc.stdout  # the human-readable line


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "desk_snr_sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
