"""Experiment harness: sweep engine, serialization, reference patterns."""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from beamtrain import (
    ExperimentSpec,
    FixedTdNetwork,
    PolarLocation,
    SweepResult,
    SystemConfig,
    TrainingEstimate,
    design,
    desk_config,
    desk_experiment_spec,
    dump_beam_pattern,
    fixed_td_network,
    fullscale_config,
    fullscale_experiment_spec,
    rate_metric,
    run_sweep,
)
from beamtrain.arrays import PolarCodebook, los_rows
from beamtrain.beamsplit import gain_kernel
from beamtrain.harness import (
    _draw_users,
    _Engine,
    _rng,
    _serving_gains,
    _PATTERN_COLUMNS,
    _SWEEP_COLUMNS,
    _synthesize,
    read_csv,
    write_csv,
)
from beamtrain.training import (
    _CHUNK_ENTRIES,
    FAR_RINGS,
    TX_POWER,
    pilot_beamformers,
    rainbow_probes,
)

from conftest import sweep_rate


def _tiny_spec(**overrides):
    base = dict(
        cfg=desk_config(),
        gamma=0.5,
        schemes=("perfect_csi", "ongrid", "nearfield_rainbow", "farfield_rainbow"),
        sweep_axis="snr_db",
        axis_values=(10.0, 20.0),
        n_trials=10,
        master_seed=7,
        bank_angles=16,
        bank_rings=4,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# configs and specs -----------------------------------------------------------

def test_reference_configs():
    desk = desk_config()
    assert (desk.n_antennas, desk.n_subcarriers) == (64, 256)
    assert desk.carrier_freq == 30e9 and desk.bandwidth == 5e9
    assert desk.distance_range == (2.0, 10.0)
    full = fullscale_config()
    assert (full.n_antennas, full.n_subcarriers) == (256, 1024)
    assert full.distance_range == (5.0, 200.0)


def test_default_experiment_specs():
    d = desk_experiment_spec()
    assert d.gamma == 0.5 and d.sweep_axis == "snr_db"
    f = fullscale_experiment_spec()
    assert f.gamma == 0.95 and f.k_override == 3


@pytest.mark.parametrize(
    "overrides",
    [
        dict(sweep_axis="power"),
        dict(n_trials=1),
        dict(schemes=("ongrid", "magic")),
        dict(schemes=()),
        dict(axis_values=()),
        dict(sweep_axis="overhead", axis_values=(0.0, 2.0)),
        dict(sweep_axis="distance_m", axis_values=(-1.0,)),
        dict(bank_rings=0),
        dict(cfg=dataclasses.replace(desk_config(), antenna_spacing=4e-3)),
        # caught here, not mid-run in the design or the rainbow sweep
        dict(cfg=dataclasses.replace(desk_config(), bandwidth=0.0)),
        dict(cfg=dataclasses.replace(desk_config(), n_subcarriers=1),
             schemes=("perfect_csi", "nearfield_rainbow")),
        dict(cfg=dataclasses.replace(desk_config(), n_subcarriers=1),
             schemes=("perfect_csi", "farfield_rainbow")),
        # the design itself fails: the override breaks the coverage slope bound
        dict(alpha_p_override=1e-6),
    ],
)
def test_spec_validation(overrides):
    with pytest.raises(ValueError):
        _tiny_spec(**overrides)


def test_spec_hash_and_round_trip():
    a = _tiny_spec()
    b = ExperimentSpec.from_dict(json.loads(json.dumps(a.to_dict())))
    assert a.spec_hash() == b.spec_hash()
    assert b.axis_values == a.axis_values
    assert a.spec_hash() != _tiny_spec(master_seed=8).spec_hash()


# user draws ------------------------------------------------------------------

def test_draw_users_respects_geometry():
    cfg = desk_config()
    users = _draw_users(cfg, _rng(3, 0), 500)
    assert np.all(users["theta"] >= cfg.angle_range[0])
    assert np.all(users["theta"] <= cfg.angle_range[1])
    assert np.all((users["r"] >= 2.0) & (users["r"] <= 10.0))
    assert np.allclose(users["alpha"], (1 - users["theta"] ** 2) / (2 * users["r"]))
    fixed = _draw_users(cfg, _rng(3, 0), 50, r_fixed=4.0)
    assert np.all(fixed["r"] == 4.0)
    again = _draw_users(cfg, _rng(3, 0), 500)
    assert np.array_equal(users["theta"], again["theta"])


# sweep engine ----------------------------------------------------------------

def test_sweep_rows_schema_and_order():
    spec = _tiny_spec()
    result = run_sweep(spec)
    assert len(result.rows) == len(spec.schemes) * len(spec.axis_values)
    for row in result.rows:
        assert set(row) == {"scheme", "axis", "axis_value", "mean_rate",
                            "stderr", "pilots_used", "n_trials"}
        assert row["axis"] == "snr_db"
        assert row["n_trials"] == 10
    # axis-major ordering, schemes in spec order inside each point
    assert [r["axis_value"] for r in result.rows[:4]] == [10.0] * 4
    assert [r["scheme"] for r in result.rows[:4]] == list(spec.schemes)
    assert result.metadata["spec_hash"] == spec.spec_hash()
    assert result.metadata["plan_K"] >= 1


def test_perfect_rows_hit_the_ceiling():
    result = run_sweep(_tiny_spec())
    for snr_db in (10.0, 20.0):
        row = next(r for r in result.rows
                   if r["scheme"] == "perfect_csi" and r["axis_value"] == snr_db)
        assert row["mean_rate"] == pytest.approx(math.log2(1 + 10 ** (snr_db / 10)))
        assert row["stderr"] <= 1e-12
        assert row["pilots_used"] == 0
    # no scheme can beat the perfect-CSI ceiling
    for row in result.rows:
        snr = 10 ** (row["axis_value"] / 10)
        assert row["mean_rate"] <= math.log2(1 + snr) + 1e-9


def test_pilot_accounting():
    spec = _tiny_spec()
    result = run_sweep(spec)
    used = {r["scheme"]: r["pilots_used"] for r in result.rows}
    assert used["farfield_rainbow"] == 1
    assert used["nearfield_rainbow"] == spec.bank_rings
    assert used["ongrid"] == result.metadata["plan_K"]


def test_sweep_is_deterministic():
    a = run_sweep(_tiny_spec())
    b = run_sweep(_tiny_spec())
    assert a.rows == b.rows


def test_sweep_json_rows_and_metadata_are_byte_stable():
    # the wall-clock time sits under "run"; the rest depends on the spec only
    a, b = (json.loads(run_sweep(_tiny_spec()).to_json()) for _ in range(2))
    assert "created" in a["run"] and "created" not in a["metadata"]
    assert (json.dumps([a["metadata"], a["rows"]])
            == json.dumps([b["metadata"], b["rows"]]))


def test_overhead_rows_report_the_pilots_spent():
    spec = desk_experiment_spec(
        schemes=("exhaustive", "nearfield_rainbow", "ongrid"),
        sweep_axis="overhead", axis_values=(1.0, 2.0), n_trials=4,
        bank_angles=12, bank_rings=3,
    )
    result = run_sweep(spec)
    used = {(r["scheme"], r["axis_value"]): r["pilots_used"] for r in result.rows}
    k = result.metadata["plan_K"]
    for budget in (1, 2):
        assert used[("exhaustive", budget)] == budget
        assert used[("nearfield_rainbow", budget)] == budget
        assert used[("ongrid", budget)] == min(budget, k)


def test_sweep_csv_and_json_round_trip(tmp_path):
    result = run_sweep(_tiny_spec())
    text = result.to_csv(tmp_path / "rows.csv")
    back = SweepResult.from_csv((tmp_path / "rows.csv").read_text())
    assert back.to_csv() == text
    assert back.rows == result.rows
    payload = json.loads(result.to_json(tmp_path / "rows.json"))
    assert payload["rows"] == result.rows
    assert payload["metadata"]["master_seed"] == 7
    with pytest.raises(ValueError):
        SweepResult.from_csv("not,a,real,header\n1,2,3,4\n")
    # every row must have the header's field count
    lines = text.splitlines()
    for bad in (lines[2].rsplit(",", 1)[0], lines[2] + ",7"):
        broken = "\n".join(lines[:2] + [bad] + lines[3:]) + "\n"
        with pytest.raises(ValueError, match="line 3"):
            SweepResult.from_csv(broken)


def test_csv_readers_take_text_so_a_comma_in_the_path_is_harmless(tmp_path, desk_plan):
    run_dir = tmp_path / "run,1"
    run_dir.mkdir()
    result = run_sweep(_tiny_spec())
    rows_path = run_dir / "rows.csv"
    result.to_csv(rows_path)
    assert SweepResult.from_csv(rows_path.read_text()).rows == result.rows
    with pytest.raises(ValueError):  # a path is text like any other
        SweepResult.from_csv(str(rows_path))
    net = fixed_td_network(desk_plan)
    delays_path = run_dir / "delays.csv"
    net.to_csv(delays_path)
    back = FixedTdNetwork.from_csv(delays_path.read_text())
    assert np.array_equal(back.delays, net.delays)
    assert back.selection_bits == net.selection_bits


def test_overhead_axis_past_every_pilot_count_reproduces_the_snr_axis():
    # One loop serves both axes: with a budget covering every scheme's full
    # pilot count, an overhead point is the SNR-axis point at the same SNR.
    base = dict(n_trials=30, master_seed=9, bank_angles=24, bank_rings=4)
    snr_rows = run_sweep(desk_experiment_spec(axis_values=(15.0,), **base)).rows
    budget = 24.0 * 4
    over_rows = run_sweep(desk_experiment_spec(
        sweep_axis="overhead", axis_values=(budget, 10 * budget), snr_db=15.0, **base,
    )).rows
    fields = ("scheme", "mean_rate", "stderr", "pilots_used", "n_trials")
    want = [tuple(r[f] for f in fields) for r in snr_rows]
    assert len(want) == 7
    for value in (budget, 10 * budget):
        got = [tuple(r[f] for f in fields) for r in over_rows if r["axis_value"] == value]
        assert got == want


def test_distance_axis_redraws_users_per_point():
    spec = _tiny_spec(sweep_axis="distance_m", axis_values=(3.0, 8.0),
                      schemes=("perfect_csi", "ongrid"), n_trials=8)
    result = run_sweep(spec)
    assert len(result.rows) == 4
    near_rate = sweep_rate(result, "ongrid", 3.0)
    far_rate = sweep_rate(result, "ongrid", 8.0)
    assert near_rate != far_rate
    assert sweep_rate(result, "perfect_csi", 3.0) == sweep_rate(
        result, "perfect_csi", 8.0
    )


def _peak_bytes(spec) -> int:
    tracemalloc.start()
    try:
        run_sweep(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distance_axis_frees_each_points_draws_before_the_next():
    # Each distance point redraws; holding the last point's draws while the
    # next are made raised the 3-point peak to 1.31 x the 1-point peak.
    base = dict(sweep_axis="distance_m", n_trials=20,
                schemes=("perfect_csi", "ongrid", "nearfield_rainbow", "farfield_rainbow"))
    one = _peak_bytes(desk_experiment_spec(axis_values=(3.0,), **base))
    three = _peak_bytes(desk_experiment_spec(axis_values=(3.0, 6.0, 9.0), **base))
    assert three <= 1.1 * one


def test_overhead_axis_clamps_at_the_plan_size():
    spec = _tiny_spec(sweep_axis="overhead", axis_values=(1.0, 4.0),
                      schemes=("ongrid", "nearfield_rainbow"), n_trials=40)
    result = run_sweep(spec)
    k = result.metadata["plan_K"]
    if k == 1:  # budgets past the plan change nothing
        assert sweep_rate(result, "ongrid", 1.0) == sweep_rate(result, "ongrid", 4.0)
    # more rings help the near-field sweep
    assert sweep_rate(result, "nearfield_rainbow", 4.0) > sweep_rate(
        result, "nearfield_rainbow", 1.0
    )


def test_row_stderr_formula():
    engine = _Engine(_tiny_spec(schemes=("perfect_csi",)))
    rates = np.random.default_rng(0).uniform(1.0, 5.0, 37)
    row = engine._row("perfect_csi", 10.0, rates, 0)
    assert row["mean_rate"] == pytest.approx(rates.mean(), rel=1e-12)
    assert row["stderr"] == pytest.approx(
        rates.std(ddof=1) / math.sqrt(37), rel=1e-12
    )
    single = engine._row("perfect_csi", 10.0, [2.0], 0)
    assert single["stderr"] == 0.0


def test_stderr_shrinks_like_root_n():
    # quadrupling the trials should roughly halve the standard error for
    # schemes whose per-trial rates are well-behaved
    kwargs = dict(schemes=("exhaustive", "match_filter"), axis_values=(15.0,),
                  bank_angles=96, bank_rings=6)
    small = run_sweep(_tiny_spec(n_trials=100, master_seed=21, **kwargs))
    large = run_sweep(_tiny_spec(n_trials=400, master_seed=22, **kwargs))
    for scheme in ("exhaustive", "match_filter"):
        se_small = next(r["stderr"] for r in small.rows if r["scheme"] == scheme)
        se_large = next(r["stderr"] for r in large.rows if r["scheme"] == scheme)
        assert 1.6 <= se_small / se_large <= 2.4, scheme


def test_rates_rise_with_snr(desk_sweep):
    for scheme in ("perfect_csi", "exhaustive", "match_filter", "ongrid",
                   "aux_pair", "nearfield_rainbow", "farfield_rainbow"):
        assert sweep_rate(desk_sweep, scheme, 20.0) > sweep_rate(
            desk_sweep, scheme, 5.0
        ), scheme


# rate metric -----------------------------------------------------------------

@pytest.mark.parametrize("n_trials", [1, 7])
def test_serving_gains_equal_a_per_subcarrier_kernel_loop(n_trials):
    # 63 antennas and 1100 subcarriers: the last chunk is a short one
    cfg = SystemConfig(n_antennas=63, carrier_freq=30e9, bandwidth=5e9,
                       n_subcarriers=1100, distance_range=(2.0, 10.0))
    assert cfg.n_subcarriers % (_CHUNK_ENTRIES // (n_trials * cfg.n_antennas)) != 0
    rng = np.random.default_rng(n_trials)
    theta0, theta_hat = rng.uniform(-0.8, 0.8, (2, n_trials))
    alpha0, alpha_hat = rng.uniform(0.0, 0.2, (2, n_trials))
    want = np.empty((n_trials, cfg.n_subcarriers))
    for i, f in enumerate(cfg.subcarrier_freqs()):
        k = cfg.wavenumber(f)
        want[:, i] = gain_kernel(cfg, k * (theta0 - theta_hat), k * (alpha0 - alpha_hat))
    got = _serving_gains(cfg, theta0, alpha0, theta_hat, alpha_hat)
    assert np.array_equal(got, want)


def _synthesis_inputs(n_trials):
    spec = desk_experiment_spec(bank_angles=16, bank_rings=4)
    cfg = spec.cfg
    plan = design(spec.design_inputs())
    rings = np.linspace(cfg.alpha_min, cfg.alpha_max, spec.bank_rings)
    families = [
        [plan.params(k) for k in range(1, plan.K + 1)],
        rainbow_probes(cfg, rings),
        rainbow_probes(cfg, FAR_RINGS),
    ]
    codebook = PolarCodebook(cfg, spec.bank_angles, spec.bank_rings)
    return cfg, families, codebook, _draw_users(cfg, _rng(5, 0), n_trials)


@pytest.mark.parametrize("with_codebook", [False, True])
def test_synthesized_observations_equal_per_subcarrier_products(with_codebook):
    cfg, families, codebook, users = _synthesis_inputs(9)
    signals, moments = _synthesize(cfg, families, codebook if with_codebook else None,
                                   users, np.random.default_rng(0))
    assert (moments is not None) == with_codebook
    for sig, params in zip(signals, families):
        want = np.empty_like(sig)
        for i, f in enumerate(cfg.subcarrier_freqs()):
            h = los_rows(cfg, users["theta"], users["r"], users["beta_c"], f)
            want[:, i] = math.sqrt(TX_POWER) * (h @ pilot_beamformers(cfg, params, f))
        assert np.array_equal(sig, want)


def test_exhaustive_moments_do_not_depend_on_the_families_alongside():
    cfg, families, codebook, users = _synthesis_inputs(9)
    _, alone = _synthesize(cfg, [], codebook, users, np.random.default_rng(4))
    _, shared = _synthesize(cfg, families, codebook, users, np.random.default_rng(4))
    for a, b in zip(alone, shared):
        assert np.array_equal(a, b)


def test_rate_metric_penalizes_mismatch(desk_cfg):
    loc = PolarLocation.from_angle_distance(0.2, 5.0)
    snr = 10**1.5
    on_target = rate_metric(desk_cfg, loc, loc, snr)
    off = PolarLocation(loc.theta + 0.05, loc.alpha)
    assert on_target == pytest.approx(math.log2(1 + snr), rel=1e-12)
    assert rate_metric(desk_cfg, loc, off, snr) < on_target
    est = TrainingEstimate(theta=loc.theta, alpha=loc.alpha, scheme="x",
                           selected=None, pilots_used=1)
    assert rate_metric(desk_cfg, loc, est, snr) == on_target


# beam pattern dump -----------------------------------------------------------

def test_beam_pattern_rows(desk_plan):
    rows, text = dump_beam_pattern(desk_plan)
    cfg = desk_plan.cfg
    assert 0 < len(rows) <= cfg.n_subcarriers * desk_plan.K
    seen = set()
    for r in rows:
        key = (r["pilot"], r["subcarrier"])
        assert key not in seen
        seen.add(key)
        assert 1 <= r["pilot"] <= desk_plan.K
        assert -1.0 <= r["theta"] <= 1.0
        if r["regime"] == "near":
            assert r["alpha"] > 0
            want_r = (1 - r["theta"] ** 2) / (2 * r["alpha"])
            assert r["distance_m"] == pytest.approx(want_r, rel=1e-12)
        else:
            assert r["alpha"] <= 0
            assert math.isinf(r["distance_m"])
    assert text.splitlines()[0] == "pilot,subcarrier,freq_hz,theta,alpha,distance_m,regime"


def test_beam_pattern_csv_round_trip(tmp_path, desk_plan):
    rows, text = dump_beam_pattern(desk_plan, out=tmp_path / "pattern.csv")
    assert (tmp_path / "pattern.csv").read_text() == text
    back = read_csv(_PATTERN_COLUMNS, (tmp_path / "pattern.csv").read_text())
    assert write_csv(_PATTERN_COLUMNS, back) == text
    assert back == rows
    lines = text.splitlines()
    for bad in (lines[1].rsplit(",", 1)[0], lines[1] + ",near"):
        with pytest.raises(ValueError, match="line 2"):
            read_csv(_PATTERN_COLUMNS, "\n".join([lines[0], bad] + lines[2:]))
    with pytest.raises(ValueError):  # a pattern is not a sweep
        read_csv(_SWEEP_COLUMNS, text)
