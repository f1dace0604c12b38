"""Training simulation and the six location estimators."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from beamtrain import (
    DesignInputs,
    PolarCodebook,
    PolarLocation,
    SystemConfig,
    TrainingEstimate,
    angle_beamwidth,
    aux_pair_train,
    build_match_filter_bank,
    design,
    distance_beamwidth,
    exhaustive_polar_train,
    farfield_rainbow_train,
    los_channel,
    match_filter_train,
    nearfield_rainbow_train,
    ongrid_train,
    rainbow_sweep_params,
)
from beamtrain import beamsplit, training
from beamtrain.arrays import approx_steering, element_distances, los_rows, path_loss
from beamtrain.beamsplit import TdPsParams, ellipse_coefficients, gain_kernel
from beamtrain.config import curvature_law
from beamtrain.harness import (
    _STREAM_USERS,
    _draw_users,
    _Engine,
    _rng,
    desk_config,
    desk_experiment_spec,
    fullscale_config,
    fullscale_experiment_spec,
    rate_metric,
    run_sweep,
)
from beamtrain.training import (
    FAR_RINGS,
    TX_POWER,
    MatchFilterBank,
    _observe,
    _unit_noise,
    aux_pair_estimate,
    band_powers,
    band_quadrature,
    codeword_powers,
    exhaustive_moments,
    exhaustive_estimate,
    match_filter_estimate,
    noise_power,
    observe_params,
    pilot_beamformers,
    rainbow_probes,
    scheme_table,
)

from conftest import (codeword_order_powers, grid_locations, observe_plan, polar_grid,
                      quadratic_channel)

NOISELESS = float("inf")


def _focus_user(plan, m, k):
    focus = plan.focus(m, k)
    return focus, PolarLocation(focus.theta, focus.alpha)


def _quad_channel(cfg, loc):
    """Channel whose phase profile matches the estimators' beam model."""
    return quadratic_channel(cfg, loc)


# observations ---------------------------------------------------------------

def test_noise_power_calibration(desk_cfg):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    snr = 10.0
    sigma2 = noise_power(desk_cfg, chan.beta_c, snr)
    assert sigma2 == pytest.approx(desk_cfg.n_antennas * chan.beta_c**2 / snr)
    assert noise_power(desk_cfg, chan.beta_c, NOISELESS) == 0.0
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            noise_power(desk_cfg, chan.beta_c, bad)


def test_observe_plan_shape_and_order(desk_cfg, desk_plan):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    obs = observe_plan(chan, desk_plan, 100.0, 3)
    assert obs.shape == (desk_cfg.n_subcarriers, desk_plan.K)
    # the noise is drawn over the whole (1, M, K) grid, so column 1 matches
    # the single-pilot draw only when K = 1, as in the desk plan
    single = observe_params(desk_cfg, chan, desk_plan.params(1), 100.0, 3)
    assert np.array_equal(obs[:, 0], single[:, 0])


@pytest.mark.parametrize("plan_name", ["desk_plan", "main_plan"])
def test_observe_plan_is_the_sweep_simulator_at_one_trial(plan_name, request):
    # one user's observations: bit for bit the sweep engine's _observe over
    # the user's element path lengths, and within 1e-9 sqrt(N_t) beta_c of
    # the engine's los_rows times the pilot beams on each subcarrier, then
    # one unit-noise draw of the whole (1, M, K) grid from the call's
    # generator (the full-scale plan has K = 3)
    plan = request.getfixturevalue(plan_name)
    cfg, snr, seed = plan.cfg, 10.0, 8
    loc = PolarLocation.from_angle_distance(-0.35, sum(cfg.distance_range) / 3)
    chan = los_channel(cfg, loc)
    users = {"theta": np.array([loc.theta]), "r": np.array([loc.distance]),
             "beta_c": np.array([chan.beta_c])}
    probes = plan.params(np.arange(1, plan.K + 1))
    sigma = np.sqrt(noise_power(cfg, users["beta_c"], snr))[:, None, None]
    got = observe_plan(chan, plan, snr, seed)
    lengths = element_distances(cfg, users["theta"][:, None], users["r"][:, None])
    engine = _observe(cfg, {"plan": probes}, users["beta_c"], lengths,
                      lambda _: np.random.default_rng(seed))["plan"](sigma)
    assert np.array_equal(got, engine[0])
    sig = np.stack([math.sqrt(TX_POWER)
                    * (los_rows(cfg, users["theta"], users["r"], users["beta_c"], f)
                       @ pilot_beamformers(cfg, probes, f))
                    for f in cfg.subcarrier_freqs()], axis=1)
    re, im = _unit_noise(np.random.default_rng(seed), sig.shape)
    want = np.abs(sig + sigma * (re + 1j * im))
    assert np.max(np.abs(got - want[0])) <= 1e-9 * math.sqrt(cfg.n_antennas) * chan.beta_c


@pytest.mark.parametrize("shape", [(1,), (3, 5), (2, 7, 3), (20, 64, 14)])
def test_unit_noise_is_the_complex_quotient_bit_for_bit(shape):
    # the real parts of all entries are drawn first, then the imaginary, each
    # into its own contiguous float plane
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        got = _unit_noise(np.random.default_rng(seed), shape)
        want = (x + 1j * y) / math.sqrt(2)
        assert got.shape == (2, *shape) and got.dtype == float
        assert got[0].flags.c_contiguous and got[1].flags.c_contiguous
        assert got[0].tobytes() == want.real.tobytes()
        assert got[1].tobytes() == want.imag.tobytes()


def test_noiseless_magnitude_is_scaled_array_gain(desk_cfg, desk_plan):
    m = 100
    _, user = _focus_user(desk_plan, m, 1)
    chan = _quad_channel(desk_cfg, user)
    obs = observe_plan(chan, desk_plan, NOISELESS, None)
    beta_m = (desk_cfg.carrier_freq / desk_cfg.subcarrier_freq(m)) * chan.beta_c
    want = math.sqrt(desk_cfg.n_antennas) * beta_m
    assert obs[m - 1, 0] == pytest.approx(want, rel=1e-9)


def test_observation_determinism(desk_cfg, desk_plan):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(-0.3, 7.0))
    a = observe_plan(chan, desk_plan, 50.0, 11)
    b = observe_plan(chan, desk_plan, 50.0, 11)
    c = observe_plan(chan, desk_plan, 50.0, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_estimate_validation_and_dict():
    with pytest.raises(ValueError):
        TrainingEstimate(theta=1.5, alpha=0.0, scheme="x", selected=None, pilots_used=1)
    with pytest.raises(ValueError):
        TrainingEstimate(theta=0.0, alpha=-0.1, scheme="x", selected=None, pilots_used=1)
    est = TrainingEstimate(theta=0.2, alpha=0.05, scheme="ongrid",
                           selected=(3, 1), pilots_used=2)
    d = est.to_dict()
    assert d["selected"] == [3, 1]
    assert d["fallback"] is False
    assert (est.theta, est.alpha) == (0.2, 0.05)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_estimate_rejects_a_non_finite_alpha(alpha):
    # PolarLocation's rule: a NaN alpha would make rate_metric return NaN
    with pytest.raises(ValueError, match="alpha must be finite"):
        TrainingEstimate(0.1, alpha, "x", None, 1)


# on-grid --------------------------------------------------------------------

def test_ongrid_recovers_exact_focus(desk_cfg, desk_plan):
    focus, user = _focus_user(desk_plan, 100, 1)
    obs = observe_plan(_quad_channel(desk_cfg, user), desk_plan, NOISELESS, None)
    est = ongrid_train(obs, desk_plan)
    assert est.selected == (100, 1)
    assert est.theta == focus.theta
    assert est.alpha == focus.alpha


def test_ongrid_tie_breaks_to_first_beam(main_plan):
    M, K = main_plan.cfg.n_subcarriers, main_plan.K
    obs = np.ones((M, K))
    est = ongrid_train(obs, main_plan)
    assert est.selected == (1, 1)


def test_ongrid_accuracy_under_noise(main_cfg, main_plan):
    # 100 seeded trials at 15 dB: estimate lands inside one beamwidth of
    # the user in at least 95 of them
    user = PolarLocation.from_angle_distance(0.3, 20.0)
    chan = los_channel(main_cfg, user)
    snr = 10**1.5
    w_th = angle_beamwidth(main_cfg, main_cfg.carrier_freq)
    w_al = distance_beamwidth(main_cfg, main_cfg.carrier_freq)
    hits = 0
    for i in range(100):
        obs = observe_plan(chan, main_plan, snr, np.random.default_rng((2024, i)))
        est = ongrid_train(obs, main_plan)
        if abs(est.theta - user.theta) <= w_th and abs(est.alpha - user.alpha) <= w_al:
            hits += 1
    assert hits >= 95


# aux pair -------------------------------------------------------------------

def test_aux_exact_focus_needs_no_iteration(main_cfg, main_plan):
    focus, user = _focus_user(main_plan, 300, 2)
    obs = observe_plan(_quad_channel(main_cfg, user), main_plan, NOISELESS, None)
    est = aux_pair_train(obs, main_plan)
    assert not est.fallback
    assert est.theta == pytest.approx(focus.theta, abs=1e-9)
    assert est.alpha == pytest.approx(focus.alpha, abs=1e-9)


def test_aux_beats_quantization_at_the_midpoint(main_cfg, main_plan):
    f1 = main_plan.focus(300, 2)
    f2 = main_plan.focus(301, 2)
    user = PolarLocation(0.5 * (f1.theta + f2.theta), 0.5 * (f1.alpha + f2.alpha))
    obs = observe_plan(_quad_channel(main_cfg, user), main_plan, NOISELESS, None)
    base = ongrid_train(obs, main_plan)
    est = aux_pair_train(obs, main_plan)
    base_err = math.hypot(base.theta - user.theta, base.alpha - user.alpha)
    aux_err = math.hypot(est.theta - user.theta, est.alpha - user.alpha)
    assert not est.fallback
    assert aux_err < 0.5 * base_err


# aux-pair pairs the pick at the top subcarrier with the one below it and
# reads that neighbour's weak sidelobe gain through the near-peak ellipse
# model, which moves the estimate away from a full-scale user past the pick
_AUX_PAST_THE_BAND_EDGE = pytest.mark.xfail(
    strict=True, reason="aux-pair refines past the band edge toward the weak neighbour")


@pytest.mark.parametrize("plan_name, theta, train", [
    pytest.param(plan, theta, train, marks=_AUX_PAST_THE_BAND_EDGE
                 if (plan, theta, train) == ("main_plan", -0.85, aux_pair_train) else ())
    for plan in ("desk_plan", "main_plan") for theta in (-0.86, -0.85, 0.85, 0.86)
    for train in (ongrid_train, aux_pair_train)])
def test_ongrid_and_aux_serve_the_lobe_a_served_user_lit(plan_name, theta, train, request):
    # pilot 1's top subcarrier ends at theta = +1, outside the served range;
    # its sibling lobe near -0.84 is inside, and a user there lights it.
    # The wrong lobe gave +1 (on-grid) or about +0.08 (aux-pair).
    plan = request.getfixturevalue(plan_name)
    cfg = plan.cfg
    for r in np.linspace(*cfg.distance_range, 7)[1:-1]:
        user = PolarLocation.from_angle_distance(theta, r)
        est = train(observe_plan(los_channel(cfg, user), plan, NOISELESS, None), plan)
        gain = beamsplit.subcarrier_gains(cfg, np.array([user.theta - est.theta]),
                                          np.array([user.alpha - est.alpha]))
        assert abs(est.theta - theta) < 0.01, r
        assert gain.mean() >= 0.5, r


def test_aux_falls_back_without_a_neighbor():
    # a design needs two subcarriers; an observation of only the first one
    # leaves the picked beam without a neighbor
    cfg = SystemConfig(16, 30e9, 1e9, 2, distance_range=(2.0, 10.0))
    plan = design(DesignInputs(cfg=cfg))
    chan = los_channel(cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    obs = observe_plan(chan, plan, 100.0, 0)
    one = obs[:1]
    est = aux_pair_train(one, plan)
    assert est.fallback
    assert est.scheme == "aux_pair"
    base = ongrid_train(one, plan)
    assert (est.theta, est.alpha) == (base.theta, base.alpha)


def test_aux_batch_gives_each_trial_its_one_trial_answer():
    # 200 desk users at -10 dB: the batch mixes solved, clamped and
    # fallback trials, and each gets what the T = 1 wrapper gives it
    spec = desk_experiment_spec(schemes=("aux_pair",), n_trials=200)
    engine = _Engine(spec)
    users = _draw_users(spec.cfg, _rng(spec.master_seed, _STREAM_USERS), spec.n_trials)
    sigma = np.sqrt(noise_power(spec.cfg, users["beta_c"], 0.1))[:, None, None]
    mags = engine._draw(users, ())["plan"](sigma)
    batch = aux_pair_estimate(mags, engine.plan)
    assert batch.fallback.any() and batch.clamped.any() and not batch.fallback.all()
    for i, trial in enumerate(mags):
        est = aux_pair_train(trial, engine.plan)
        assert (est.theta, est.alpha, est.fallback, est.clamped) == (
            batch.theta[i], batch.alpha[i], batch.fallback[i], batch.clamped[i])
        assert est.selected == tuple(batch.pick[i] + 1)


def test_aux_beats_ongrid_rate_at_high_snr(main_cfg):
    # 200 users at 20 dB, full-scale geometry
    spec = fullscale_experiment_spec(
        sweep_axis="snr_db", axis_values=(20.0,), n_trials=200,
        schemes=("ongrid", "aux_pair"),
    )
    rates = {r["scheme"]: r["mean_rate"] for r in run_sweep(spec).rows}
    assert rates["aux_pair"] >= rates["ongrid"]


def test_aux_does_not_amplify_rounding_in_the_magnitudes():
    # 400 desk users at 15 dB; a Newton solve moved an estimate by 8.3e-9
    spec = desk_experiment_spec(schemes=("aux_pair",), n_trials=400)
    engine = _Engine(spec)
    users = _draw_users(spec.cfg, _rng(spec.master_seed, _STREAM_USERS), spec.n_trials)
    sigma = np.sqrt(noise_power(spec.cfg, users["beta_c"], 10**1.5))[:, None, None]
    mags = engine._draw(users, ())["plan"](sigma)
    before = aux_pair_estimate(mags, engine.plan)
    after = aux_pair_estimate(mags * (1 + 1e-13), engine.plan)
    assert np.abs(after.theta - before.theta).max() <= 1e-12
    assert np.abs(after.alpha - before.alpha).max() <= 1e-12


def _pair_model(plan, m):
    """The aux-pair model of subcarriers m and m + 1 (0-based) of pilot 1:
    their foci's thetas and alphas (2,) and a function from two gains to
    magnitudes (1, M, K), lit only there, at which the estimator reads them."""
    cfg = plan.cfg
    focus = plan.focus(np.array([m + 1, m + 2]), 1)
    t, a = np.asarray(focus.theta), np.asarray(focus.alpha)
    f = cfg.subcarrier_freqs()[[m, m + 1]]
    beta = (cfg.carrier_freq / f) * path_loss(cfg, curvature_law(t[0], a[0]), cfg.carrier_freq)

    def mags(gain):
        out = np.zeros((1, cfg.n_subcarriers, plan.K))
        out[0, [m, m + 1], 0] = gain * math.sqrt(TX_POWER * cfg.n_antennas) * beta
        return out
    return t, a, ellipse_coefficients(cfg, f), mags


def test_aux_recovers_the_lower_alpha_root_of_its_own_gain_model(desk_plan):
    m = 120
    t, a, (s1, s2), mags = _pair_model(desk_plan, m)
    # a user 30% of the way from focus m to focus m + 1, half the pair's
    # alpha spacing below the line through them
    user = np.array([t[0] + 0.3 * (t[1] - t[0]),
                     a[0] + 0.3 * (a[1] - a[0]) - 0.5 * abs(a[1] - a[0])])
    # its mirror image across that line, in the coordinates where both gain
    # ellipses are circles, sees the same two gains
    scale = np.array([math.sqrt(s1[0] / s2[0]), 1.0])
    centers = np.stack([t, a], axis=1) * scale
    axis = (centers[1] - centers[0]) / np.linalg.norm(centers[1] - centers[0])
    v = user * scale - centers[0]
    mirror = (centers[0] + 2 * (v @ axis) * axis - v) / scale
    assert mirror[1] > user[1]
    for theta, alpha in (user, mirror):
        est = aux_pair_estimate(mags(1 - s1 * (theta - t) ** 2 - s2 * (alpha - a) ** 2),
                                desk_plan)
        assert not est.fallback[0] and not est.clamped[0]
        assert tuple(est.pick[0]) == (m, 0)
        assert abs(est.theta[0] - user[0]) <= 1e-12
        assert abs(est.alpha[0] - user[1]) <= 1e-12


def test_aux_takes_the_foot_of_two_circles_that_do_not_meet(desk_plan):
    # two equal tiny gain deficits: the circles lie far apart, and the foot
    # on the line through the foci is their midpoint
    t, a, _, mags = _pair_model(desk_plan, 120)
    est = aux_pair_estimate(mags(np.full(2, 1 - 1e-9)), desk_plan)
    assert not est.fallback[0]
    assert est.theta[0] == pytest.approx(t.mean(), abs=1e-12)
    assert est.alpha[0] == pytest.approx(a.mean(), abs=1e-12)


# match filter ---------------------------------------------------------------

def _bank_grid(plan, angles, rings):
    """The scheme table's bank grid: rings over the design's alpha band."""
    return polar_grid(plan.cfg, angles, rings, plan.inputs.alpha_bounds)


def _bank(plan, angles, rings):
    return build_match_filter_bank(plan, _bank_grid(plan, angles, rings))


def test_bank_layout_and_signature_recompute(desk_cfg, desk_plan):
    bank = _bank(desk_plan, 7, 3)
    M, K = desk_cfg.n_subcarriers, desk_plan.K
    assert bank.signatures.shape == (K, M, 21)
    assert len(bank) == 21
    # recompute one stored signature entry from first principles
    g_idx, m, k = 13, 57, 1
    loc = grid_locations(bank.grid)[g_idx]
    params = desk_plan.params(k)
    f = desk_cfg.subcarrier_freq(m)
    km, kc = desk_cfg.wavenumber(f), desk_cfg.wavenumber(desk_cfg.carrier_freq)
    nd = desk_cfg.element_indices() * desk_cfg.spacing
    phase = (km * loc.theta - km * params.theta_t - kc * params.theta_p) * nd
    phase = phase - (km * loc.alpha - km * params.alpha_t - kc * params.alpha_p) * nd**2
    want = abs(np.exp(1j * phase).sum()) / desk_cfg.n_antennas
    assert bank.signatures[k - 1, m - 1, g_idx] == pytest.approx(want, abs=1e-12)


def test_single_point_bank_at_a_focus_peaks_at_one(desk_cfg, desk_plan):
    focus, _ = _focus_user(desk_plan, 100, 1)
    bank = build_match_filter_bank(
        desk_plan, PolarCodebook(desk_cfg, [focus.theta], [focus.alpha]))
    sig = bank.signatures[:, :, 0]  # (K, M)
    assert sig[0, 99] == pytest.approx(1.0, abs=1e-9)
    assert sig.max() == pytest.approx(1.0, abs=1e-9)


def test_match_filter_recovers_bank_grid_point(desk_cfg, desk_plan):
    bank = _bank(desk_plan, 9, 4)
    target = grid_locations(bank.grid)[17]
    obs = observe_plan(_quad_channel(desk_cfg, target), desk_plan, NOISELESS, None)
    est = match_filter_train(obs, bank)
    assert est.selected == 17
    assert (est.theta, est.alpha) == (target.theta, target.alpha)
    assert est.pilots_used == desk_plan.K


def test_match_filter_swapped_signatures_swap_the_winner(desk_cfg, desk_plan):
    bank = _bank(desk_plan, 9, 4)
    target = grid_locations(bank.grid)[17]
    obs = observe_plan(_quad_channel(desk_cfg, target), desk_plan, NOISELESS, None)
    swapped = bank.signatures.copy()
    swapped[:, :, [17, 23]] = swapped[:, :, [23, 17]]
    bank2 = MatchFilterBank(signatures=swapped, grid=bank.grid)
    assert match_filter_train(obs, bank2).selected == 23


def test_match_filter_picks_equal_a_unit_copy_reference_at_every_budget(desk_cfg):
    # dividing the correlations by the signature norms picks what correlating
    # with a unit-normalized copy of the bank picks, on a three-pilot plan
    plan = design(DesignInputs(cfg=desk_cfg, gamma=0.5, k_override=3))
    bank = _bank(plan, 48, 4)
    rng = np.random.default_rng(2)
    mags = np.stack([
        observe_plan(los_channel(desk_cfg, PolarLocation.from_angle_distance(t, r)),
                     plan, 3.0, i)
        for i, (t, r) in enumerate(zip(rng.uniform(-0.85, 0.85, 40),
                                       rng.uniform(2.0, 10.0, 40)))])
    for budget in (1, 2, 3, None):
        # subcarrier-major, as the observation rows
        sig = bank.signatures[:budget].transpose(2, 1, 0).reshape(len(bank), -1)
        unit = sig / np.linalg.norm(sig, axis=1, keepdims=True)
        flat = mags[..., :budget].reshape(len(mags), -1)
        flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        want = np.argmax(flat @ unit.T, axis=1)
        assert np.array_equal(match_filter_estimate(mags, bank, budget).pick, want), budget


# train each scheme named on the command line over the desk plan for one user,
# printing one JSON record per call
_TRAIN_CALLS = """
import json, sys
from beamtrain import PolarLocation, design, los_channel
from beamtrain.harness import desk_experiment_spec
from beamtrain.training import scheme_table, train
plan = design(desk_experiment_spec().design_inputs())
loc = PolarLocation.from_angle_distance(0.3, 4.0)
channel = los_channel(plan.cfg, loc)
for scheme in sys.argv[1:]:
    row = scheme_table(plan, (scheme,), 96, 8)[scheme]
    print(json.dumps(train(row, scheme, plan.cfg, channel, 10 ** 1.5, 3).to_dict()))
"""


def test_train_calls_in_one_process_each_give_their_single_call_output():
    # observe_params observes in a fresh workspace per call, so a process
    # that trains on-grid, both rainbows and on-grid again gives each call
    # the output of that call alone in a fresh process; arrays kept across
    # calls by family name would serve one scheme's beams to the next
    schemes = ("ongrid", "nearfield_rainbow", "farfield_rainbow", "ongrid")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def calls(*names):
        out = subprocess.run([sys.executable, "-c", _TRAIN_CALLS, *names], env=env,
                             capture_output=True, text=True, check=True).stdout
        return [json.loads(line) for line in out.splitlines()]

    together = calls(*schemes)
    alone = {scheme: calls(scheme)[0] for scheme in set(schemes)}
    assert [record["scheme"] for record in together] == list(schemes)
    assert together == [alone[scheme] for scheme in schemes]
    assert len({json.dumps(alone[scheme]) for scheme in alone}) == 3


def test_match_filter_signature_norms_are_made_once_per_budget(desk_cfg, monkeypatch):
    # the sweep runs the estimator at every SNR point over one bank: each
    # budget's signature norms are made at its first call and kept, and the
    # picks are bit for bit those of a fresh bank
    plan = design(DesignInputs(cfg=desk_cfg, gamma=0.5, k_override=3))
    bank = _bank(plan, 48, 4)
    mags = np.random.default_rng(1).random((5, desk_cfg.n_subcarriers, plan.K))
    einsum, calls = np.einsum, []
    monkeypatch.setattr(np, "einsum",
                        lambda *args, **kw: calls.append(args[0]) or einsum(*args, **kw))
    picks = {budget: [match_filter_estimate(mags, bank, budget).pick for _ in range(4)]
             for budget in (1, 2, None)}
    assert calls.count("ig,ig->g") == 3
    monkeypatch.undo()
    for budget, got in picks.items():
        fresh = MatchFilterBank(bank.signatures, bank.grid)
        want = match_filter_estimate(mags, fresh, budget).pick
        assert all(np.array_equal(pick, want) for pick in got), budget


def test_match_filter_budget_reads_the_bank_without_a_copy(desk_cfg):
    # the signatures are pilot-major, so a budget below K is a view: the
    # estimate's peak allocation stays far below one pilot's signatures
    plan = design(DesignInputs(cfg=desk_cfg, gamma=0.5, k_override=3))
    bank = _bank(plan, 96, 8)
    mags = np.random.default_rng(0).random((2, desk_cfg.n_subcarriers, plan.K))
    for budget in (1, 2):
        tracemalloc.start()
        try:
            match_filter_estimate(mags, bank, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bank.signatures.nbytes / plan.K / 8, budget


def test_match_filter_zero_observation_takes_first_index(desk_cfg, desk_plan):
    bank = _bank(desk_plan, 3, 2)
    M, K = desk_cfg.n_subcarriers, desk_plan.K
    obs = np.zeros((M, K))
    assert match_filter_train(obs, bank).selected == 0


# grid kernels against their oracles -----------------------------------------

def _kernel_slices(plan, thetas, alphas, freqs):
    """gain_kernel at every (subcarrier, pilot, ring, angle), the oracle of
    the chirp-z bank."""
    cfg = plan.cfg
    kc = cfg.wavenumber(cfg.carrier_freq)
    out = np.empty((len(freqs), plan.K, len(alphas), len(thetas)))
    for i, f in enumerate(freqs):
        km = cfg.wavenumber(f)
        for k in range(plan.K):
            p = plan.params(k + 1)
            x = km * np.asarray(thetas) - km * p.theta_t - kc * p.theta_p
            y = km * np.asarray(alphas)[:, None] - km * p.alpha_t - kc * p.alpha_p
            out[i, k] = gain_kernel(cfg, x, y)
    return out


def _odd_plan():
    cfg = SystemConfig(63, 30e9, 5e9, 48, distance_range=(2.0, 10.0))
    return design(DesignInputs(cfg=cfg, gamma=0.5))


@pytest.mark.parametrize(
    "case",
    ["one_point", "odd_antennas", "custom_three_angles", "desk"],
)
def test_bank_matches_gain_kernel(case, desk_plan):
    plan = _odd_plan() if case == "odd_antennas" else desk_plan
    grid = {
        "one_point": lambda: _bank_grid(plan, 1, 1),
        "odd_antennas": lambda: _bank_grid(plan, 17, 3),
        "custom_three_angles": lambda: PolarCodebook(
            plan.cfg, [-0.31, -0.12, 0.07], [0.05, 0.2]),
        "desk": lambda: _bank_grid(plan, 40, 4),
    }[case]()
    bank = build_match_filter_bank(plan, grid)
    cfg = plan.cfg
    want = _kernel_slices(plan, grid.thetas, grid.rings, cfg.subcarrier_freqs())
    got = bank.signatures.reshape(plan.K, cfg.n_subcarriers, len(grid.thetas), -1)
    assert np.max(np.abs(got - want.transpose(1, 0, 3, 2))) < 1e-10


def _random_pilots(cfg, n_pilots, seed):
    """n_pilots random delay-phase pilots on cfg: what the bank reads of a plan."""
    rng = np.random.default_rng(seed)
    fields = np.concatenate([rng.uniform(-1.0, 1.0, (2, n_pilots)),
                             rng.uniform(0.0, 0.2, (2, n_pilots))])
    return SimpleNamespace(cfg=cfg, K=n_pilots,
                           params=lambda k: TdPsParams(*fields[:, np.asarray(k) - 1]))


@pytest.mark.parametrize("n_pilots", [1, 3])
@pytest.mark.parametrize("n_subcarriers", [2, 16, 17, 200])
def test_bank_at_the_edges_of_the_split(n_subcarriers, n_pilots, monkeypatch):
    # b = ceil(sqrt M): two baby steps of one giant step (M = 2), a square
    # M = b^2 = 16, M = b^2 + 1 = 17 with a last giant step of one subcarrier,
    # and M = 200, which b = 15 does not divide; within rounding of the gain
    # kernel, and bit for bit the same at any block budget: a few subcarriers
    # a block, b + 1 a block (so block edges fall in the middle of giant
    # steps), or every subcarrier in one block
    cfg = SystemConfig(n_antennas=7 + n_pilots, n_subcarriers=n_subcarriers,
                       distance_range=(2.0, 10.0))
    plan = _random_pilots(cfg, n_pilots, n_subcarriers)
    grid = polar_grid(cfg, 5, 3)
    got = build_match_filter_bank(plan, grid).signatures
    want = _kernel_slices(plan, grid.thetas, grid.rings, cfg.subcarrier_freqs())
    assert got.shape == (n_pilots, n_subcarriers, len(grid))
    assert np.max(np.abs(got.reshape(n_pilots, n_subcarriers, 5, 3)
                         - want.transpose(1, 0, 3, 2))) < 1e-10
    b = len(beamsplit.wavenumber_steps(cfg)[1])
    n_fft = len(training._grid_phases(grid)[1])
    per_subcarrier = n_pilots * len(grid.rings) * (3 * cfg.n_antennas + 2 * n_fft)
    for budget in (1 << 8, (b + 1) * per_subcarrier, 1 << 22):
        monkeypatch.setattr(beamsplit, "_CHUNK_ENTRIES", budget)
        assert np.array_equal(build_match_filter_bank(plan, grid).signatures, got), budget


def test_bank_slice_at_full_scale_matches_gain_kernel(main_plan):
    # the full-scale bank over a reduced grid, at the band edges and on both
    # sides of the first giant step: subcarriers 1, b, b + 1 and M
    cfg = main_plan.cfg
    b = len(beamsplit.wavenumber_steps(cfg)[1])
    grid = _bank_grid(main_plan, 256, 4)
    m = np.array([1, b, b + 1, cfg.n_subcarriers])
    got = build_match_filter_bank(main_plan, grid).signatures[:, m - 1]
    want = _kernel_slices(main_plan, grid.thetas, grid.rings, cfg.subcarrier_freq(m))
    got = got.reshape(main_plan.K, len(m), 256, 4)
    assert np.max(np.abs(got - want.transpose(1, 0, 3, 2))) < 1e-10


def test_bank_rejects_a_signature_count_off_its_grid(desk_plan):
    grid = polar_grid(desk_plan.cfg, 3, 2)
    sig = np.zeros((desk_plan.K, desk_plan.cfg.n_subcarriers, len(grid) + 1))
    with pytest.raises(ValueError, match="one signature per grid point"):
        MatchFilterBank(sig, grid)


def test_bank_rejects_a_nonuniform_theta_grid(desk_plan):
    # the grid constructor holds the check, before any bank work
    with pytest.raises(ValueError, match="uniform"):
        PolarCodebook(desk_plan.cfg, [0.0, 0.1, 0.3], [0.1])


@pytest.mark.parametrize("rings", [3, 1])
def test_codeword_responses_match_the_steering_contraction(rings):
    # the chirp-z powers against |h conj(b)^T|^2 with every codeword built by
    # approx_steering, on an odd array
    cfg = SystemConfig(63, 30e9, 5e9, 8, distance_range=(2.0, 10.0))
    book = polar_grid(cfg, 4, rings)
    freqs = cfg.subcarrier_freqs()[2:5]
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 5, 63)) + 1j * rng.standard_normal((3, 5, 63))
    thetas = np.array([loc.theta for loc in grid_locations(book)])
    alphas = np.array([loc.alpha for loc in grid_locations(book)])
    got = codeword_order_powers(book, h, freqs)
    assert got.shape == (3, 5, len(book))
    for i, f in enumerate(freqs):
        want = np.abs(h[i] @ approx_steering(cfg, (thetas, alphas), f).conj().T) ** 2
        assert np.max(np.abs(got[i] - want)) < 1e-10 * np.max(want)


def test_budgeted_exhaustive_spans_the_angle_range(desk_cfg):
    book = polar_grid(desk_cfg, 24, 3)
    g = len(book)

    def searched(budget):
        # a one-hot power at codeword i wins only where i is searched
        idx = exhaustive_estimate(np.eye(g), book, budget).pick
        return np.flatnonzero(idx == np.arange(g))

    lo, hi = desk_cfg.angle_range
    for budget in (2, 5, 11):
        picked = searched(budget)
        thetas = [grid_locations(book)[i].theta for i in picked]
        assert len(picked) == budget
        assert min(thetas) == pytest.approx(lo) and max(thetas) == pytest.approx(hi)
    for budget in (None, g, g + 7):
        assert np.array_equal(searched(budget), np.arange(g))


# exhaustive -----------------------------------------------------------------

def test_exhaustive_recovers_codebook_point(desk_cfg):
    book = polar_grid(desk_cfg, 8, 2)
    target = grid_locations(book)[11]
    chan = los_channel(desk_cfg, target)
    est = exhaustive_polar_train(chan, book, NOISELESS, 0)
    assert est.selected == 11
    assert (est.theta, est.alpha) == (target.theta, target.alpha)
    assert est.pilots_used == len(book)


def test_exhaustive_is_seed_deterministic(desk_cfg):
    book = polar_grid(desk_cfg, 8, 2)
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.1, 6.0))
    a = exhaustive_polar_train(chan, book, 10.0, 5)
    b = exhaustive_polar_train(chan, book, 10.0, 5)
    assert a.selected == b.selected


# band quadrature of the codebook powers --------------------------------------

QUADRATURE_CONFIGS = {
    "desk": desk_config(),
    "full scale": fullscale_config(),
    "65 antennas": SystemConfig(n_antennas=65, n_subcarriers=256, distance_range=(2.0, 10.0)),
    "2 GHz band": SystemConfig(n_antennas=64, n_subcarriers=256, bandwidth=2e9,
                               distance_range=(2.0, 10.0)),
    "128 x 512, 3-40 m": SystemConfig(n_antennas=128, n_subcarriers=512,
                                      distance_range=(3.0, 40.0)),
}


def _user_rows(cfg, n_users, seed=3):
    """rows(f) of n_users drawn as the sweep draws them, the oracle's
    los_rows, and the users' (beta_c, element path lengths) that
    band_powers takes."""
    users = _draw_users(cfg, _rng(seed, 0), n_users)
    lengths = element_distances(cfg, users["theta"][:, None], users["r"][:, None])
    return (lambda f: los_rows(cfg, users["theta"], users["r"], users["beta_c"], f[:, None]),
            (users["beta_c"], lengths))


def _subcarrier_powers(book, n_users, rows):
    """The oracle: codeword_powers summed over every subcarrier at unit
    weight, in codeword order."""
    freqs = book.cfg.subcarrier_freqs()
    return codeword_powers(book, n_users, rows, freqs, np.ones(len(freqs)))


@pytest.mark.parametrize("name", list(QUADRATURE_CONFIGS))
def test_band_quadrature_powers_equal_the_subcarrier_sum(name):
    # within 1e-12 of each user's peak, with the same pick for every user
    cfg = QUADRATURE_CONFIGS[name]
    book = polar_grid(cfg, 40, 3)
    rows, users = _user_rows(cfg, 8)
    nodes, weights = band_quadrature(cfg, float(book.rings.max()),
                                     float(np.abs(book.thetas).max()))
    assert len(nodes) < cfg.n_subcarriers and (weights > 0).all()
    got, want = band_powers(book, *users), _subcarrier_powers(book, 8, rows)
    assert np.max(np.abs(got - want) / want.max(axis=1, keepdims=True)) < 1e-12
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


# theta_max = 1 under each config's name, then 0.5 and sin 60 degrees
@pytest.mark.parametrize("name, theta_max",
                         [(name, t) for t in (1.0, 0.5, math.sin(math.pi / 3))
                          for name in QUADRATURE_CONFIGS],
                         ids=list(QUADRATURE_CONFIGS)
                         + [f"{name}-theta {t}" for t in ("0.5", "sin 60")
                            for name in QUADRATURE_CONFIGS])
def test_band_quadrature_residual_bound_holds_on_a_fine_grid(name, theta_max):
    # K(x) = sum_m (f_c / f_m)^2 e^{j k_m x} against the nodes' weighted sum
    # on 20001 points of [-X, X], X = D (1 + theta_max) + (D / 2)^2 alpha_max,
    # four times finer than the rule's own check
    cfg = QUADRATURE_CONFIGS[name]
    nodes, weights = band_quadrature(cfg, cfg.alpha_max, theta_max)
    freqs = cfg.subcarrier_freqs()
    aperture = (cfg.n_antennas - 1) * cfg.spacing
    reach = aperture * (1 + theta_max) + (aperture / 2) ** 2 * cfg.alpha_max
    x = np.linspace(-reach, reach, 20001)
    k_c = cfg.wavenumber(cfg.carrier_freq)

    def kernel(f, w):
        return np.exp(1j * np.multiply.outer(x, cfg.wavenumber(f) - k_c)) @ w

    amp = (cfg.carrier_freq / freqs) ** 2
    residual = kernel(freqs, amp) - kernel(nodes, weights * (cfg.carrier_freq / nodes) ** 2)
    assert np.max(np.abs(residual)) <= 1e-13 * amp.sum()


@pytest.mark.parametrize("spec, n_nodes", [(desk_experiment_spec(), 39),
                                            (fullscale_experiment_spec(), 87)],
                         ids=["desk", "full scale"])
def test_band_quadrature_node_counts_of_the_default_grids(spec, n_nodes):
    # the least J whose residual passes, over the reach of the default
    # codebook's largest |theta| (sin 60 degrees) and ring
    plan = design(spec.design)
    grid = scheme_table(plan, (), spec.bank_angles, spec.bank_rings)["exhaustive"].probes
    nodes, weights = band_quadrature(plan.cfg, float(grid.rings.max()),
                                     float(np.abs(grid.thetas).max()))
    assert len(nodes) == len(weights) == n_nodes


def test_band_quadrature_with_few_subcarriers_is_the_exact_sum():
    # J would reach M: the subcarriers with unit weights, and powers bit for
    # bit those of the per-subcarrier pass; one subcarrier is such a config
    cfg = SystemConfig(63, 30e9, 5e9, 24, distance_range=(2.0, 10.0))
    book = polar_grid(cfg, 16, 3)
    nodes, weights = band_quadrature(cfg, float(book.rings.max()),
                                     float(np.abs(book.thetas).max()))
    assert np.array_equal(nodes, cfg.subcarrier_freqs()) and np.array_equal(weights, np.ones(24))
    rows, users = _user_rows(cfg, 5)
    assert np.array_equal(band_powers(book, *users), _subcarrier_powers(book, 5, rows))
    one = SystemConfig(63, 30e9, 5e9, 1, distance_range=(2.0, 10.0))
    assert np.array_equal(band_quadrature(one, 0.25, 1.0)[0], one.subcarrier_freqs())


def test_band_powers_are_never_negative(monkeypatch):
    # drawn users' powers are >= 0; and where the weighted sum falls below 0
    # (here every weight negated) the power is clipped to 0, so the noise
    # law's sqrt(A) stays finite
    cfg = desk_config()
    book = polar_grid(cfg, 48, 4)
    _, users = _user_rows(cfg, 40)
    assert (band_powers(book, *users) >= 0).all()
    nodes, weights = band_quadrature(cfg, float(book.rings.max()),
                                     float(np.abs(book.thetas).max()))
    monkeypatch.setattr(training, "band_quadrature",
                        lambda cfg, alpha_max, theta_max: (nodes, -weights))
    clipped = band_powers(book, *users)
    assert np.array_equal(clipped, np.zeros_like(clipped))
    a, b, c = exhaustive_moments(clipped, cfg.n_subcarriers, np.random.default_rng(0))
    assert np.isfinite(b).all()


def test_band_powers_peak_memory_stays_near_its_output():
    # the desk grid at T = 40, on the product path: the weighted powers are
    # added in place into one ring-major total, and the product's sums and
    # squares are buffers made once a call, so the traced peak stays within
    # 6x the powers; per-node copies around the product would exceed it
    cfg = desk_config()
    book = polar_grid(cfg, 192, 8)
    _, users = _user_rows(cfg, 40)
    band_powers(book, *users)  # the band quadrature is cached before the trace
    tracemalloc.start()
    try:
        out = band_powers(book, *users)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (40, len(book))
    assert peak <= 6 * out.nbytes


# rainbow sweeps -------------------------------------------------------------

def test_rainbow_sweep_spans_the_visible_range(desk_cfg):
    params = rainbow_sweep_params(desk_cfg)
    f1 = desk_cfg.subcarrier_freq(1)
    fM = desk_cfg.subcarrier_freq(desk_cfg.n_subcarriers)
    g1 = desk_cfg.carrier_freq / f1
    gM = desk_cfg.carrier_freq / fM
    assert params.theta_t + g1 * params.theta_p == pytest.approx(1.0, abs=1e-9)
    assert params.theta_t + gM * params.theta_p == pytest.approx(-1.0, abs=1e-9)


def test_rainbow_rejects_zero_bandwidth():
    cfg = SystemConfig(16, 30e9, 0.0, 4, distance_range=(2.0, 10.0))
    with pytest.raises(ValueError):
        rainbow_sweep_params(cfg)


def test_far_rainbow_rejects_one_subcarrier():
    cfg = SystemConfig(16, 30e9, 1e9, 1, distance_range=(2.0, 10.0))
    channel = los_channel(cfg, PolarLocation.from_angle_distance(0.2, 4.0))
    with pytest.raises(ValueError, match="need n_subcarriers >= 2"):
        farfield_rainbow_train(channel, cfg, NOISELESS, 0)


def test_near_rainbow_estimates_ring_and_angle(desk_cfg):
    rings = np.linspace(desk_cfg.alpha_min, desk_cfg.alpha_max, 8)
    user = PolarLocation(0.25, float(rings[5]))
    chan = _quad_channel(desk_cfg, user)
    est = nearfield_rainbow_train(chan, desk_cfg, 8, NOISELESS, 0)
    assert est.pilots_used == 8
    assert est.alpha in rings
    assert abs(est.theta - user.theta) <= 1.5 * angle_beamwidth(desk_cfg,
                                                                desk_cfg.carrier_freq)
    assert abs(est.alpha - user.alpha) <= (rings[1] - rings[0]) / 2 + 1e-12


def test_near_rainbow_needs_a_ring(desk_cfg):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.1, 5.0))
    with pytest.raises(ValueError):
        nearfield_rainbow_train(chan, desk_cfg, 0, 10.0, 0)


def test_far_rainbow_always_reports_zero_curvature(desk_cfg):
    user = PolarLocation.from_angle_distance(-0.4, 4000.0)
    chan = los_channel(desk_cfg, user)
    est = farfield_rainbow_train(chan, desk_cfg, NOISELESS, 0)
    assert est.alpha == 0.0
    assert est.pilots_used == 1
    assert abs(est.theta - user.theta) <= 1.5 * angle_beamwidth(desk_cfg,
                                                                desk_cfg.carrier_freq)


# serving and consistency ----------------------------------------------------

def test_perfect_estimate_reaches_the_rate_ceiling(desk_cfg):
    loc = PolarLocation.from_angle_distance(0.2, 6.0)
    est = TrainingEstimate(theta=loc.theta, alpha=loc.alpha, scheme="perfect_csi",
                           selected=None, pilots_used=0)
    snr = 10**2
    assert rate_metric(desk_cfg, loc, est, snr) == pytest.approx(
        math.log2(1 + snr), rel=1e-12
    )


def test_noiseless_consistency_at_a_focus(desk_cfg, desk_plan):
    # every grid-aware estimator lands on an exactly-focused user
    focus, user = _focus_user(desk_plan, 100, 1)
    chan = _quad_channel(desk_cfg, user)
    obs = observe_plan(chan, desk_plan, NOISELESS, None)

    for est in (
        ongrid_train(obs, desk_plan),
        aux_pair_train(obs, desk_plan),
        match_filter_train(
            obs,
            build_match_filter_bank(desk_plan, PolarCodebook(
                desk_cfg,
                [focus.theta - 0.02, focus.theta, focus.theta + 0.02],
                [0.8 * focus.alpha, focus.alpha, 1.2 * focus.alpha],
            )),
        ),
    ):
        assert abs(est.theta - user.theta) < 1e-6, est.scheme
        assert abs(est.alpha - user.alpha) < 1e-6, est.scheme


def _check_records(engine, scheme, obs, singles):
    """The scheme table row's batch record over the stacked observations
    equals, trial by trial, the single-trial estimates: theta, alpha, pick
    (as the selected pair or index), clamped, fallback and pilots used."""
    row = engine.table[scheme]
    batch = row.estimate(np.stack(obs), row.pilots)
    assert set(batch._fields) == {"theta", "alpha", "pick", "clamped", "fallback"}
    assert all(len(field) == len(singles) for field in batch), scheme
    for i, est in enumerate(singles):
        pick = batch.pick[i]
        assert est.scheme == scheme
        assert est.selected == (tuple(pick + 1) if pick.ndim else pick), (scheme, i)
        assert (est.theta, est.alpha, est.clamped, est.fallback, est.pilots_used) == (
            batch.theta[i], batch.alpha[i], batch.clamped[i], batch.fallback[i],
            row.pilots), (scheme, i)


def test_single_trial_api_matches_the_sweep_engine(desk_cfg):
    # Same magnitudes (or, for exhaustive, the same noise draws) into the
    # single-trial estimators and into the sweep engine's scheme table give
    # the same record, trial by trial.
    spec = desk_experiment_spec(bank_angles=24, bank_rings=3)
    engine = _Engine(spec)
    plan, snr = engine.plan, 10.0
    bank = _bank(plan, spec.bank_angles, spec.bank_rings)  # the engine's
    codebook = engine.table["exhaustive"].probes
    rng = np.random.default_rng(4)
    locs = [PolarLocation.from_angle_distance(t, r)
            for t, r in zip(rng.uniform(-0.85, 0.85, 12), rng.uniform(2.0, 10.0, 12))]
    channels = [los_channel(desk_cfg, loc) for loc in locs]

    def check_plan_schemes(mags):
        _check_records(engine, "ongrid", mags, [ongrid_train(o, plan) for o in mags])
        _check_records(engine, "aux_pair", mags, [aux_pair_train(o, plan) for o in mags])
        _check_records(engine, "match_filter", mags,
                       [match_filter_train(o, bank) for o in mags])

    check_plan_schemes([observe_plan(ch, plan, snr, i) for i, ch in enumerate(channels)])
    # the 200 users of test_aux_batch_gives_each_trial_its_one_trial_answer
    # at -10 dB, whose aux-pair trials mix fallback and clamped ones
    users = _draw_users(spec.cfg, _rng(spec.master_seed, _STREAM_USERS), spec.n_trials)
    sigma = np.sqrt(noise_power(spec.cfg, users["beta_c"], 0.1))[:, None, None]
    low = engine._draw(users, ())["plan"](sigma)
    flags = aux_pair_estimate(low, plan)
    assert flags.fallback.any() and flags.clamped.any() and not flags.fallback.all()
    check_plan_schemes(low)

    rings = np.linspace(desk_cfg.alpha_min, desk_cfg.alpha_max, spec.bank_rings)
    for scheme, probes, train in (
        ("nearfield_rainbow", rainbow_probes(desk_cfg, rings),
         lambda ch, i: nearfield_rainbow_train(ch, desk_cfg, spec.bank_rings, snr, i)),
        ("farfield_rainbow", rainbow_probes(desk_cfg, FAR_RINGS),
         lambda ch, i: farfield_rainbow_train(ch, desk_cfg, snr, i)),
    ):
        mags = [observe_params(desk_cfg, ch, probes, snr, i)
                for i, ch in enumerate(channels)]
        _check_records(engine, scheme, mags, [train(ch, i) for i, ch in enumerate(channels)])

    # one user per moment draw: the engine and the single-trial path both sum
    # the noiseless powers over the same quadrature nodes, then draw the
    # noise law's Re(w), Im(w) and Gamma in that order from the same seed
    singles, powers = [], []
    for i, (loc, ch) in enumerate(zip(locs, channels)):
        users = {"theta": np.array([loc.theta]), "r": np.array([loc.distance]),
                 "beta_c": np.array([ch.beta_c])}
        lengths = element_distances(desk_cfg, users["theta"][:, None], users["r"][:, None])
        observe = _observe(desk_cfg, {"codebook": codebook}, users["beta_c"], lengths,
                           lambda _: np.random.default_rng(i))["codebook"]
        sigma = np.sqrt(noise_power(desk_cfg, users["beta_c"], snr))[:, None, None]
        powers.append(observe(sigma)[0])
        singles.append(exhaustive_polar_train(ch, codebook, snr, i))
    _check_records(engine, "exhaustive", powers, singles)


def test_every_grid_of_the_scheme_table_spans_the_design_band(desk_cfg):
    # a spec that narrows the design's alpha band narrows the rings of the
    # one polar grid: the match-filter bank's, the exhaustive codebook's and
    # the near-field rainbow's
    spec = desk_experiment_spec(
        design=DesignInputs(desk_cfg, gamma=0.5, alpha_min=0.08, alpha_max=0.2),
        bank_angles=16, bank_rings=4)
    plan = design(spec.design_inputs())
    rings = np.linspace(0.08, 0.2, 4)
    table = scheme_table(plan, spec.schemes, spec.bank_angles, spec.bank_rings)
    assert np.array_equal(table["exhaustive"].probes.rings, rings)
    assert np.array_equal(table["nearfield_rainbow"].probes.alpha_t, rings)
    assert len(table["nearfield_rainbow"].probes) == len(rings)
    rng = np.random.default_rng(0)
    for scheme, shape in (("match_filter", (40, desk_cfg.n_subcarriers, plan.K)),
                          ("exhaustive", (40, 64)),
                          ("nearfield_rainbow", (40, desk_cfg.n_subcarriers, 4))):
        estimate = table[scheme].estimate(rng.random(shape), None)
        assert np.isin(estimate.alpha, rings).all(), scheme
