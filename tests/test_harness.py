"""Experiment harness: sweep engine, serialization, reference patterns."""
import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from beamtrain import (
    DesignInputs,
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
from beamtrain import beamsplit, harness, training
from beamtrain.arrays import element_distances, los_rows
from beamtrain.beamsplit import TdPsParams, gain_kernel, subcarrier_gains
from beamtrain.harness import (
    _STREAM_USERS,
    _draw_users,
    _Engine,
    _rng,
    _PATTERN_COLUMNS,
    _SWEEP_COLUMNS,
    read_csv,
    write_csv,
)
from beamtrain.training import (
    FAR_RINGS,
    TX_POWER,
    _observe,
    build_match_filter_bank,
    pilot_beamformers,
    rainbow_probes,
)

from conftest import polar_grid, sweep_rate


def _tiny_spec(config=(), cfg=None, alpha_min=None, alpha_max=None, alpha_p_override=None,
               k_override=None, **overrides):
    """A small desk spec; config holds SystemConfig fields to replace in cfg,
    by default the desk config."""
    cfg = dataclasses.replace(desk_config() if cfg is None else cfg, **dict(config))
    base = dict(
        design=DesignInputs(cfg, gamma=0.5, alpha_min=alpha_min, alpha_max=alpha_max,
                            alpha_p_override=alpha_p_override, k_override=k_override),
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
    assert d.design.gamma == 0.5 and d.sweep_axis == "snr_db"
    f = fullscale_experiment_spec()
    assert f.design.gamma == 0.95 and f.design.k_override == 3


def _holds_bool(value) -> bool:
    """Whether a field value, or an entry of a tuple one, is a bool."""
    return any(isinstance(x, bool) for x in (value if isinstance(value, tuple) else (value,)))


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
        # non-finite values would write nan/inf rows or fail mid-run
        dict(axis_values=(10.0, math.nan)),
        dict(axis_values=(math.inf,)),
        dict(axis_values=(-math.inf,)),
        dict(snr_db=math.nan),
        dict(snr_db=math.inf),
        dict(sweep_axis="distance_m", axis_values=(3.0, math.nan)),
        dict(sweep_axis="overhead", axis_values=(1.0, math.inf)),
        # a non-finite config field is named, not left to fail in the design
        # or mid-run
        dict(config=dict(carrier_freq=math.nan)),
        dict(config=dict(bandwidth=math.nan)),
        dict(config=dict(distance_range=(2.0, math.inf))),
        # a JSON true is no number: it would construct, as 1, and write back
        # as true
        dict(snr_db=True),
        dict(axis_values=(True, 10.0)),
        dict(config=dict(distance_range=(True, 200.0))),
        # integer fields are integers: 4.0 or True would construct, then
        # fail inside NumPy mid-run (k_override=True would design K = True)
        dict(n_trials=4.0),
        dict(n_trials=True),
        dict(master_seed=1.5),
        dict(master_seed=-1),
        dict(master_seed=True),
        dict(bank_angles=16.0),
        dict(bank_rings=4.0),
        dict(bank_rings=True),
        dict(k_override=3.0),
        dict(k_override=True),
        dict(k_override=0),
        # a budget of 4.9 would run budget 4 a second time
        dict(sweep_axis="overhead", axis_values=(4.0, 4.9)),
        # a repeated scheme or axis value writes rows that repeat, or on the
        # distance axis, where each index draws its own users, disagree
        dict(schemes=("ongrid", "ongrid")),
        dict(axis_values=(5.0, 5.0)),
        dict(sweep_axis="overhead", axis_values=(2.0, 2.0)),
        dict(sweep_axis="distance_m", axis_values=(5.0, 5.0)),
        # finite in dB, but the linear SNR overflows or rounds to 0, which
        # failed mid-run, after the design
        dict(axis_values=(10.0, 4000.0)),
        dict(axis_values=(-4000.0,)),
        dict(sweep_axis="distance_m", axis_values=(3.0,), snr_db=-4000.0),
        # a non-finite design bound or override is named, not left to
        # overflow or fail on NaN inside the design
        dict(alpha_min=math.nan),
        dict(alpha_max=math.inf),
        dict(alpha_max=math.nan),
        dict(alpha_p_override=math.inf),
        dict(alpha_p_override=math.nan),
        # finite, but the pilot count it asks for is not
        dict(alpha_max=1e300),
    ],
)
def test_spec_validation(overrides):
    with pytest.raises(ValueError) as err:
        _tiny_spec(**overrides)
    named = [*dict(overrides.get("config", ())),
             *(name for name in ("alpha_min", "alpha_max", "alpha_p_override")
               if not math.isfinite(overrides.get(name, 0.0))),
             *(name for name in ("snr_db", "axis_values") if _holds_bool(overrides.get(name)))]
    for name in named:
        assert f"{name} must be finite" in str(err.value)


def test_numpy_integer_fields_are_stored_as_python_ints():
    spec = _tiny_spec(k_override=np.int64(2), n_trials=np.int64(4), master_seed=np.int32(0),
                      bank_angles=np.int64(16), bank_rings=np.int16(4))
    for value in (spec.design.k_override, spec.n_trials, spec.master_seed, spec.bank_angles,
                  spec.bank_rings):
        assert type(value) is int
    # so the spec writes JSON and hashes
    assert ExperimentSpec.from_json(spec.to_json()).spec_hash() == spec.spec_hash()


def test_spec_hash_and_round_trip():
    a = _tiny_spec()
    b = ExperimentSpec.from_dict(json.loads(json.dumps(a.to_dict())))
    assert a.spec_hash() == b.spec_hash()
    assert b.axis_values == a.axis_values
    assert a.spec_hash() != _tiny_spec(master_seed=8).spec_hash()


def test_a_spec_without_design_reads_with_the_design_defaults():
    data = _tiny_spec().to_dict()
    del data["design"]
    spec = ExperimentSpec.from_dict(data)
    assert spec.design == DesignInputs(desk_config())
    assert spec.schemes == _tiny_spec().schemes


@pytest.mark.parametrize("nested", ["design", "inputs"])
def test_a_nested_config_is_rejected(nested):
    # a nested record shares its outer record's config; a second one would
    # be ambiguous
    record = _tiny_spec() if nested == "design" else design(_tiny_spec().design)
    data = record.to_dict()
    data[nested]["config"] = data["config"]
    with pytest.raises(ValueError, match="DesignInputs: unknown key\\(s\\) 'config'"):
        type(record).from_dict(data)


@pytest.mark.parametrize("kind, key, inside", [
    ("inputs", "gamma", "{"),
    ("plan", "alpha_p", "{"),
    ("spec", "n_trials", "{"),
    ("spec", "gamma", '"design": {'),
    ("spec", "n_antennas", '"config": {'),
    ("plan", "n_antennas", '"config": {'),
])
def test_a_repeated_key_is_rejected(kind, key, inside):
    # JSON readers would keep the last value of a repeated key, so a file
    # could say two things and be read as one of them
    spec = _tiny_spec()
    record = {"inputs": spec.design, "plan": design(spec.design), "spec": spec}[kind]
    text = record.to_json().replace(inside, f'{inside}"{key}": 3, ', 1)
    assert text.count(f'"{key}"') == 2
    with pytest.raises(ValueError, match=f"repeated key\\(s\\) '{key}'"):
        type(record).from_json(text)


@pytest.mark.parametrize("nested", ["design", "inputs"])
def test_a_nested_record_that_is_not_an_object_is_rejected(nested):
    record = _tiny_spec() if nested == "design" else design(_tiny_spec().design)
    data = {**record.to_dict(), nested: 5}
    with pytest.raises(ValueError, match="DesignInputs must be a JSON object"):
        type(record).from_json(json.dumps(data))


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
    # the wall-clock time and the stage times sit under "run"; the rest
    # depends on the spec only
    spec, runs = _tiny_spec(), []
    for _ in range(2):
        start = time.perf_counter()
        result = run_sweep(spec)
        runs.append((json.loads(result.to_json()), time.perf_counter() - start))
    (a, _), (b, _) = runs
    assert "created" in a["run"] and "created" not in a["metadata"]
    assert (json.dumps([a["metadata"], a["rows"]])
            == json.dumps([b["metadata"], b["rows"]]))
    for summary, wall in runs:
        stages = summary["run"]["stage_s"]
        assert "stage_s" not in summary["metadata"]
        assert set(stages) == {"design", "observe", "magnitudes", "estimate", "rate"}
        assert set(stages["estimate"]) == set(spec.schemes) - {"perfect_csi"}
        times = [stages[k] for k in stages if k != "estimate"] + [*stages["estimate"].values()]
        assert all(s > 0 for s in times) and sum(times) <= wall


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


def test_sweep_result_reads_back_equal_from_json():
    # rows is typed list, so JSON's list stays a list, not a tuple
    result = run_sweep(desk_experiment_spec(axis_values=(0.0, 10.0), n_trials=6))
    back = SweepResult.from_json(result.to_json())
    assert back == result
    assert type(back.rows) is list


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


@pytest.mark.parametrize("axis, values, keys", [
    ("snr_db", (10.0, 20.0), [((), None, [(10.0, 10.0, math.inf), (20.0, 20.0, math.inf)])]),
    ("overhead", (1.0, 2.0, 8.0), [((), None, [(1.0, 12.0, 1), (2.0, 12.0, 2), (8.0, 12.0, 8)])]),
    ("distance_m", (3.0, 6.0), [((0,), 3.0, [(3.0, 12.0, math.inf)]),
                                ((1,), 6.0, [(6.0, 12.0, math.inf)])]),
])
def test_key_table_maps_each_axis_value_to_its_draw(monkeypatch, axis, values, keys):
    # the SNR and overhead axes share one draw, key (), the budgets running
    # at spec.snr_db; the distance axis draws once per point, keyed by index
    spec = _tiny_spec(sweep_axis=axis, axis_values=values, snr_db=12.0,
                      schemes=("perfect_csi", "ongrid"), n_trials=4)
    engine = _Engine(spec)
    assert engine._keys() == keys
    budgets = [budget for _, _, points in engine._keys() for _, _, budget in points]
    assert all(type(b) is int for b in budgets if b != math.inf)
    calls = []

    def observe(*args):
        calls.append(args)
        return training._observe(*args)

    monkeypatch.setattr(harness, "_observe", observe)
    rows = engine.run().rows
    assert len(calls) == len(keys)
    assert [(r["scheme"], r["axis_value"]) for r in rows] == [
        (scheme, value) for value in values for scheme in spec.schemes]


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
    # one rate has no standard error; the spec's n_trials >= 2 keeps the
    # engine from asking for one
    with pytest.warns(RuntimeWarning):
        single = engine._row("perfect_csi", 10.0, [2.0], 0)
    assert math.isnan(single["stderr"])


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
    # 63 antennas and 1100 subcarriers: the baby-step count b = ceil(sqrt M)
    # does not divide M, so the last giant step is a short one
    cfg = SystemConfig(n_antennas=63, carrier_freq=30e9, bandwidth=5e9,
                       n_subcarriers=1100, distance_range=(2.0, 10.0))
    assert cfg.n_subcarriers % (math.isqrt(cfg.n_subcarriers - 1) + 1) != 0
    rng = np.random.default_rng(n_trials)
    theta0, theta_hat = rng.uniform(-0.8, 0.8, (2, n_trials))
    alpha0, alpha_hat = rng.uniform(0.0, 0.2, (2, n_trials))
    want = np.empty((n_trials, cfg.n_subcarriers))
    for i, f in enumerate(cfg.subcarrier_freqs()):
        k = cfg.wavenumber(f)
        want[:, i] = gain_kernel(cfg, k * (theta0 - theta_hat), k * (alpha0 - alpha_hat))
    got = subcarrier_gains(cfg, theta0 - theta_hat, alpha0 - alpha_hat)
    # the factored sum rounds apart from the per-subcarrier kernel
    assert np.max(np.abs(got - want)) <= 1e-12


def _recording_engine(spec):
    """An engine whose scheme table also records, in call order, every
    (scheme, theta, alpha) estimate it hands to the rate pass."""
    engine = _Engine(spec)
    calls = []
    for name, scheme in engine.table.items():
        if scheme.estimate is not None:
            def estimate(obs, budget, name=name, inner=scheme.estimate):
                record = inner(obs, budget)
                calls.append((name, record.theta, record.alpha))
                return record
            engine.table[name] = scheme._replace(estimate=estimate)
    return engine, calls


def _small_desk_spec(**overrides):
    return desk_experiment_spec(n_trials=20, bank_angles=48, bank_rings=4, **overrides)


def test_sweep_rows_equal_a_per_row_rate_reference():
    # The reference is the rate pass as it was before the engine evaluated
    # each distinct (trial, estimate) once per draw key: one subcarrier_gains
    # call per (point, scheme) over all its trials.
    spec = _small_desk_spec(axis_values=(5.0, 10.0, 20.0))
    engine, calls = _recording_engine(spec)
    result = engine.run()
    users = _draw_users(spec.cfg, _rng(spec.master_seed, _STREAM_USERS), spec.n_trials)
    estimates = iter(calls)
    for row in result.rows:
        snr = 10 ** (row["axis_value"] / 10)
        if row["scheme"] == "perfect_csi":
            rates = np.full(spec.n_trials, math.log2(1.0 + snr))
        else:
            name, theta, alpha = next(estimates)
            assert name == row["scheme"]
            gains = subcarrier_gains(spec.cfg, users["theta"] - theta, users["alpha"] - alpha)
            rates = np.mean(np.log2(1.0 + snr * gains**2), axis=1)
        want = engine._row(row["scheme"], row["axis_value"], rates, row["pilots_used"])
        assert row == want  # floats compared with ==: bit for bit
    assert next(estimates, None) is None


@pytest.mark.parametrize("axis, values", [
    ("snr_db", (5.0, 10.0, 20.0)),
    ("overhead", (1.0, 2.0, 8.0)),
    ("distance_m", (3.0, 6.0)),
])
def test_rate_pass_evaluates_each_distinct_estimate_once(monkeypatch, axis, values):
    spec = _small_desk_spec(sweep_axis=axis, axis_values=values)
    engine, calls = _recording_engine(spec)
    rows = []

    def counting(cfg, dtheta, dalpha):
        rows.append(len(dtheta))
        return subcarrier_gains(cfg, dtheta, dalpha)

    monkeypatch.setattr(harness, "subcarrier_gains", counting)
    engine.run()
    # the SNR and overhead axes share one draw key, the distance axis has one
    # per point
    keys = len(values) if axis == "distance_m" else 1
    per_key = len(calls) // keys
    distinct = sum(
        len({(i, theta[i], alpha[i])
             for _, theta, alpha in calls[j * per_key:(j + 1) * per_key]
             for i in range(spec.n_trials)})
        for j in range(keys))
    assert sum(rows) == distinct < len(calls) * spec.n_trials


def _synthesis_inputs(n_trials):
    spec = desk_experiment_spec(bank_angles=16, bank_rings=4)
    cfg = spec.cfg
    plan = design(spec.design_inputs())
    rings = np.linspace(cfg.alpha_min, cfg.alpha_max, spec.bank_rings)
    families = {
        "plan": plan.params(np.arange(1, plan.K + 1)),
        "near": rainbow_probes(cfg, rings),
        "far": rainbow_probes(cfg, FAR_RINGS),
    }
    codebook = polar_grid(cfg, spec.bank_angles, spec.bank_rings)
    users = _draw_users(cfg, _rng(5, 0), n_trials)
    return cfg, families, codebook, users, _lengths(cfg, users)


def _lengths(cfg, users):
    """The users' element path lengths (T, N_t), as the sweep engine takes them."""
    return element_distances(cfg, users["theta"][:, None], users["r"][:, None])


def _subcarrier_products(cfg, users, params):
    """The oracle of the pilot pass: sqrt(P_t) los_rows @ pilot_beamformers
    on each subcarrier, (T, M, K)."""
    want = np.empty((len(users["r"]), cfg.n_subcarriers, len(params)), dtype=complex)
    for i, f in enumerate(cfg.subcarrier_freqs()):
        h = los_rows(cfg, users["theta"], users["r"], users["beta_c"], f)
        want[:, i] = math.sqrt(TX_POWER) * (h @ pilot_beamformers(cfg, params, f))
    return want


def _within_rounding(cfg, users, got, want):
    """|got - want| <= 1e-9 sqrt(N_t) beta_c per user: the giant and baby
    steps round apart from the per-subcarrier exponentials."""
    bound = 1e-9 * math.sqrt(cfg.n_antennas) * users["beta_c"][:, None, None]
    return bool(np.all(np.abs(got - want) <= bound))


@pytest.mark.parametrize("with_codebook", [False, True])
def test_synthesized_observations_equal_per_subcarrier_products(with_codebook):
    # noiseless, each pilot family's observations are the magnitudes of the
    # per-subcarrier products, whether or not the codebook is observed alongside
    cfg, pilots, codebook, users, lengths = _synthesis_inputs(9)
    families = {**pilots, "codebook": codebook} if with_codebook else pilots
    observed = _observe(cfg, families, users["beta_c"], lengths,
                        lambda _: np.random.default_rng(0))
    assert ("codebook" in observed) == with_codebook
    for name, params in pilots.items():
        want = np.abs(_subcarrier_products(cfg, users, params))
        assert _within_rounding(cfg, users, observed[name](np.zeros((9, 1, 1))), want)


@pytest.mark.parametrize("n_subcarriers", [1, 2, 16, 17, 1000])
@pytest.mark.parametrize("n_beams", [1, 14])
@pytest.mark.parametrize("n_trials", [1, 200])
def test_pilot_pass_at_the_edges_of_the_split(monkeypatch, n_subcarriers, n_beams, n_trials):
    # b = ceil(sqrt M) from M alone: one step (M = 1), two baby steps, a
    # square M = b^2 = 16, M = b^2 + 1 = 17 with a last giant step of one
    # subcarrier, and M = 1000; every case within rounding of the
    # per-subcarrier products, and bit for bit the same at any block budget
    cfg = SystemConfig(n_antennas=8, n_subcarriers=n_subcarriers, distance_range=(2.0, 10.0))
    assert len(beamsplit.wavenumber_steps(cfg)[1]) == math.ceil(math.sqrt(n_subcarriers))
    rng = np.random.default_rng(n_subcarriers + n_beams)
    params = TdPsParams(*rng.uniform(-1.0, 1.0, (2, n_beams)),
                        *rng.uniform(0.0, 0.2, (2, n_beams)))
    users = _draw_users(cfg, _rng(n_trials, 0), n_trials)

    def observed():
        return _observe(cfg, {"pilots": params}, users["beta_c"], _lengths(cfg, users),
                        lambda _: np.random.default_rng(0))["pilots"](np.zeros((n_trials, 1, 1)))

    got = observed()
    want = np.abs(_subcarrier_products(cfg, users, params))
    assert got.shape == (n_trials, n_subcarriers, n_beams)
    assert _within_rounding(cfg, users, got, want)
    for budget in (1 << 8, 1 << 22):
        monkeypatch.setattr(beamsplit, "_CHUNK_ENTRIES", budget)
        assert np.array_equal(observed(), got)


@pytest.mark.parametrize("n_trials", [1, 9])
def test_pilot_families_are_contiguous_and_independent_of_the_families_beside(n_trials):
    # each family comes back as its own C-contiguous (T, M, K) array, bit for
    # bit the same whether it is observed alone or beside the other families
    cfg, families, _, users, lengths = _synthesis_inputs(n_trials)
    shared = training._pilot_pass(cfg, families, users["beta_c"], lengths)
    assert list(shared) == list(families)
    for name, params in families.items():
        alone = training._pilot_pass(cfg, {name: params}, users["beta_c"], lengths)[name]
        for obs in (shared[name], alone):
            assert obs.shape == (n_trials, cfg.n_subcarriers, len(params))
            assert obs.flags.c_contiguous
        assert np.array_equal(alone, shared[name]), name


def test_pilot_pass_peak_memory_stays_near_its_output():
    # full scale, 200 users, one beam: the user steps are made one block of
    # users at a time and each row's sums go into buffers made once, so the
    # traced peak stays within 5x the observations; a table of b T N_t user
    # steps held for the whole pass would exceed it
    cfg = fullscale_config()
    users = _draw_users(cfg, _rng(3, 0), 200)
    lengths = _lengths(cfg, users)
    tracemalloc.start()
    try:
        out = training._pilot_pass(cfg, {"far": rainbow_probes(cfg, FAR_RINGS)},
                                   users["beta_c"], lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["far"].shape == (200, cfg.n_subcarriers, 1)
    assert peak <= 5 * out["far"].nbytes


def test_gains_and_pilot_pass_are_bit_for_bit_at_every_block_budget(monkeypatch):
    # subcarrier_gains and _pilot_pass fill tables made once per call, block
    # by block; at 2^8 entries (a row or user a block), the default (60 rows
    # in 25, 25 and 10; 40 users in 32 and 8) and 2^22 (one block) every
    # output bit is the same
    cfg, families, _, users, lengths = _synthesis_inputs(40)
    rng = np.random.default_rng(2)
    dtheta, dalpha = rng.uniform(-0.2, 0.2, 60), rng.uniform(-0.05, 0.05, 60)

    def outputs():
        observed = training._pilot_pass(cfg, families, users["beta_c"], lengths)
        return [subcarrier_gains(cfg, dtheta, dalpha).tobytes(),
                *(x.tobytes() for x in observed.values())]

    want = outputs()
    for budget in (1 << 8, 1 << 22):
        monkeypatch.setattr(beamsplit, "_CHUNK_ENTRIES", budget)
        assert outputs() == want, budget


def test_distance_sweep_makes_the_beam_steps_once_and_rewrites_one_workspace(monkeypatch):
    # the engine keeps one workspace for the sweep: over three distance
    # points (three draw keys) the pilot pass makes its beam steps, the one
    # phase_steps call without output tables, once, and keys 2 and 3 write
    # their observations into key 1's arrays
    spec = desk_experiment_spec(
        sweep_axis="distance_m", axis_values=(3.0, 6.0, 9.0), n_trials=6,
        schemes=("perfect_csi", "ongrid", "nearfield_rainbow", "farfield_rainbow"))
    steps, pilot_pass, fresh, passes = training.phase_steps, training._pilot_pass, [], []
    monkeypatch.setattr(training, "phase_steps",
                        lambda cfg, x, out=None: fresh.append(out is None) or steps(cfg, x, out))
    monkeypatch.setattr(training, "_pilot_pass",
                        lambda *args: passes.append(pilot_pass(*args)) or passes[-1])
    run_sweep(spec)
    assert fresh.count(True) == 1 and fresh.count(False) == 3
    assert len(passes) == 3 and list(passes[0]) == ["plan", "near", "far"]
    first = {name: obs.__array_interface__["data"][0] for name, obs in passes[0].items()}
    for later in passes[1:]:
        assert {name: obs.__array_interface__["data"][0] for name, obs in later.items()} == first


@pytest.mark.parametrize("n_trials", [1, 9, 200])
def test_magnitudes_are_the_noisy_sums_bit_for_bit(monkeypatch, n_trials):
    # each point's magnitudes, made one block of users at a time from the
    # noise's two planes, are bit for bit |x + sigma (re + 1j im)| over the
    # pilot pass, at the default block budget and at 2^8 and 2^22 entries
    cfg, families, _, users, lengths = _synthesis_inputs(n_trials)
    seeds = {name: i for i, name in enumerate(families)}
    pilots = training._pilot_pass(cfg, families, users["beta_c"], lengths)
    sg = np.sqrt(training.noise_power(cfg, users["beta_c"], 10.0))[:, None, None]
    for budget in (beamsplit._CHUNK_ENTRIES, 1 << 8, 1 << 22):
        monkeypatch.setattr(beamsplit, "_CHUNK_ENTRIES", budget)
        observed = _observe(cfg, families, users["beta_c"], lengths,
                            lambda name: np.random.default_rng(seeds[name]))
        for name, x in pilots.items():
            re, im = training._unit_noise(np.random.default_rng(seeds[name]), x.shape)
            want = np.abs(x + sg * (re + 1j * im))
            assert observed[name](sg).tobytes() == want.tobytes(), (name, budget)


def test_observe_and_magnitudes_peak_memory_stay_near_the_magnitudes():
    # full scale, 200 users, the far rainbow's one beam, magnitudes at one
    # sigma.  The noise is drawn straight into two float planes and the
    # magnitudes go through a complex scratch of one block of users, so no
    # (T, M, K) complex temporary is made.  Traced peaks over the magnitudes'
    # bytes: _observe 4.0x (5.0x with one complex noise array and its draw
    # temporary), the magnitudes call 1.7x (3.0x with one complex sum)
    cfg = fullscale_config()
    users = _draw_users(cfg, _rng(3, 0), 200)
    lengths = _lengths(cfg, users)
    sg = np.sqrt(training.noise_power(cfg, users["beta_c"], 10.0))[:, None, None]
    tracemalloc.start()
    try:
        draws = _observe(cfg, {"far": rainbow_probes(cfg, FAR_RINGS)}, users["beta_c"],
                         lengths, lambda _: np.random.default_rng(0))
        observe_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        mags = draws["far"](sg)
        magnitudes_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert mags.shape == (200, cfg.n_subcarriers, 1)
    assert observe_peak <= 4.5 * mags.nbytes
    assert magnitudes_peak <= 2.3 * mags.nbytes


def test_exhaustive_moments_do_not_depend_on_the_families_alongside():
    # the codebook's powers at noise stds 0, 0.5 and 2 (A, then the moments
    # B and C through them) are the same with the pilot families alongside
    cfg, families, codebook, users, lengths = _synthesis_inputs(9)
    alone, shared = (_observe(cfg, fams, users["beta_c"], lengths,
                              lambda _: np.random.default_rng(4))["codebook"]
                     for fams in ({"codebook": codebook}, {**families, "codebook": codebook}))
    for sg in (0.0, 0.5, 2.0):
        assert np.array_equal(alone(np.full((9, 1, 1), sg)), shared(np.full((9, 1, 1), sg)))


def test_one_block_budget_reaches_every_loop(monkeypatch):
    # beamsplit.blocks is the one block rule: its budget changes how many
    # chirp-z transforms and codebook matrix products the grid kernels run,
    # and no output bit
    spec = desk_experiment_spec(axis_values=(10.0, 20.0), n_trials=12, bank_angles=48,
                                bank_rings=4)
    plan = design(spec.design)
    grid = polar_grid(plan.cfg, 48, 4, plan.inputs.alpha_bounds)
    rng = np.random.default_rng(3)
    dtheta, dalpha = rng.uniform(-0.2, 0.2, 40), rng.uniform(-0.05, 0.05, 40)
    chirp_z, powers, calls = training._chirp_z, training._powers, []
    monkeypatch.setattr(training, "_chirp_z", lambda *args: calls.append(1) or chirp_z(*args))
    # the product path builds its step matrix once a call
    monkeypatch.setattr(training, "_powers", lambda *args: calls.append(1) or powers(*args))

    def outputs():
        calls.clear()
        return (run_sweep(spec).to_csv(), build_match_filter_bank(plan, grid).signatures,
                subcarrier_gains(plan.cfg, dtheta, dalpha), len(calls))

    csv, signatures, gains, n_calls = outputs()
    for budget in (1 << 8, 1 << 22):
        monkeypatch.setattr(beamsplit, "_CHUNK_ENTRIES", budget)
        got = outputs()
        assert got[0] == csv
        assert np.array_equal(got[1], signatures) and np.array_equal(got[2], gains)
        assert got[3] != n_calls


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
