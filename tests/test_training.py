"""Training simulation and the six location estimators."""
import math

import numpy as np
import pytest

from beamtrain import (
    DesignInputs,
    ObservationGrid,
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
    observe_plan,
    ongrid_train,
    rainbow_sweep_params,
)
from beamtrain.arrays import _uniform_samples, approx_steering
from beamtrain.beamsplit import gain_kernel
from beamtrain.harness import (
    _STREAM_PROPOSED,
    _STREAM_USERS,
    _draw_users,
    _Engine,
    _rng,
    _sigma,
    _synthesize,
    desk_experiment_spec,
    fullscale_experiment_spec,
    rate_metric,
    run_sweep,
)
from beamtrain.training import (
    FAR_RINGS,
    MatchFilterBank,
    _bank_slices,
    aux_pair_estimate,
    codeword_responses,
    exhaustive_estimate,
    noise_power,
    observe_params,
    rainbow_probes,
)

NOISELESS = float("inf")


def _focus_user(plan, m, k):
    focus = plan.focus(m, k)
    return focus, PolarLocation(focus.theta, focus.alpha)


def _quad_channel(cfg, loc):
    """Channel whose phase profile matches the estimators' beam model."""
    return los_channel(cfg, loc, steering="quadratic")


# observations ---------------------------------------------------------------

def test_observation_grid_validation():
    with pytest.raises(ValueError):
        ObservationGrid(magnitudes=np.ones(4), snr=10.0)
    with pytest.raises(ValueError):
        ObservationGrid(magnitudes=-np.ones((4, 2)), snr=10.0)


def test_noise_power_calibration(desk_cfg):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    snr = 10.0
    sigma2 = noise_power(desk_cfg, chan, snr)
    assert sigma2 == pytest.approx(desk_cfg.n_antennas * chan.beta_c**2 / snr)
    assert noise_power(desk_cfg, chan, NOISELESS) == 0.0
    with pytest.raises(ValueError):
        noise_power(desk_cfg, chan, 0.0)


def test_observe_plan_shape_and_order(desk_cfg, desk_plan):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    obs = observe_plan(chan, desk_plan, 100.0, 3)
    assert obs.magnitudes.shape == (desk_cfg.n_subcarriers, desk_plan.K)
    assert obs.seed == 3
    # pilot columns drawn in order: column k matches the single-pilot draw
    single = observe_params(desk_cfg, chan, [desk_plan.params(1)], 100.0, 3)
    assert np.array_equal(obs.magnitudes[:, 0], single.magnitudes[:, 0])


def test_noiseless_magnitude_is_scaled_array_gain(desk_cfg, desk_plan):
    focus, user = _focus_user(desk_plan, 100, 1)
    chan = _quad_channel(desk_cfg, user)
    obs = observe_plan(chan, desk_plan, NOISELESS, None)
    m = focus.subcarrier
    want = math.sqrt(desk_cfg.n_antennas) * chan.path_gains[m - 1]
    assert obs.magnitudes[m - 1, 0] == pytest.approx(want, rel=1e-9)


def test_observation_determinism(desk_cfg, desk_plan):
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(-0.3, 7.0))
    a = observe_plan(chan, desk_plan, 50.0, 11)
    b = observe_plan(chan, desk_plan, 50.0, 11)
    c = observe_plan(chan, desk_plan, 50.0, np.random.default_rng(11))
    assert np.array_equal(a.magnitudes, b.magnitudes)
    assert np.array_equal(a.magnitudes, c.magnitudes)


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
    assert est.location == PolarLocation(0.2, 0.05)


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
    obs = ObservationGrid(magnitudes=np.ones((M, K)), snr=1.0)
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


def test_aux_falls_back_without_a_neighbor():
    cfg = SystemConfig(16, 30e9, 1e9, 1, distance_range=(2.0, 10.0))
    plan = design(DesignInputs(cfg=cfg))
    chan = los_channel(cfg, PolarLocation.from_angle_distance(0.2, 5.0))
    est = aux_pair_train(observe_plan(chan, plan, 100.0, 0), plan)
    assert est.fallback
    assert est.scheme == "aux_pair"
    base = ongrid_train(observe_plan(chan, plan, 100.0, 0), plan)
    assert (est.theta, est.alpha) == (base.theta, base.alpha)


def test_aux_batch_gives_each_trial_its_one_trial_answer():
    # 200 desk users at -10 dB: the batch mixes converged, clamped and
    # fallback trials, and each gets what the T = 1 wrapper gives it
    spec = desk_experiment_spec(schemes=("aux_pair",), n_trials=200)
    engine = _Engine(spec)
    users = _draw_users(spec.cfg, _rng(spec.master_seed, _STREAM_USERS), spec.n_trials)
    sigma = _sigma(spec.cfg, users, 0.1)[:, None, None]
    mags = engine._draw(users, ())[_STREAM_PROPOSED](sigma)
    theta, alpha, fallback, clamped, flat = aux_pair_estimate(mags, engine.plan)
    assert fallback.any() and clamped.any() and not fallback.all()
    for i, trial in enumerate(mags):
        est = aux_pair_train(ObservationGrid(magnitudes=trial, snr=0.1), engine.plan)
        m, k = est.selected
        assert (est.theta, est.alpha, est.fallback, est.clamped) == (
            theta[i], alpha[i], fallback[i], clamped[i])
        assert (m - 1) * engine.plan.K + k - 1 == flat[i]


def test_aux_beats_ongrid_rate_at_high_snr(main_cfg):
    # 200 users at 20 dB, full-scale geometry
    spec = fullscale_experiment_spec(
        sweep_axis="snr_db", axis_values=(20.0,), n_trials=200,
        schemes=("ongrid", "aux_pair"),
    )
    rates = {r["scheme"]: r["mean_rate"] for r in run_sweep(spec).rows}
    assert rates["aux_pair"] >= rates["ongrid"]


# match filter ---------------------------------------------------------------

def test_bank_layout_and_signature_recompute(desk_cfg, desk_plan):
    bank = build_match_filter_bank(desk_plan, 7, 3)
    M, K = desk_cfg.n_subcarriers, desk_plan.K
    assert bank.signatures.shape == (21, M * K)
    assert len(bank) == 21
    # recompute one stored signature entry from first principles
    g_idx, m, k = 13, 57, 1
    loc = bank.locations[g_idx]
    params = desk_plan.params(k)
    f = desk_cfg.subcarrier_freq(m)
    km, kc = desk_cfg.wavenumber(f), desk_cfg.wavenumber(desk_cfg.carrier_freq)
    nd = desk_cfg.element_indices() * desk_cfg.spacing
    phase = (km * loc.theta - km * params.theta_t - kc * params.theta_p) * nd
    phase = phase - (km * loc.alpha - km * params.alpha_t - kc * params.alpha_p) * nd**2
    want = abs(np.exp(1j * phase).sum()) / desk_cfg.n_antennas
    assert bank.signatures[g_idx, (m - 1) * K + (k - 1)] == pytest.approx(want, abs=1e-12)


def test_single_point_bank_at_a_focus_peaks_at_one(desk_cfg, desk_plan):
    focus, _ = _focus_user(desk_plan, 100, 1)
    bank = build_match_filter_bank(
        desk_plan, 1, 1, theta_grid=[focus.theta], alpha_grid=[focus.alpha]
    )
    sig = bank.signatures[0].reshape(desk_cfg.n_subcarriers, desk_plan.K)
    assert sig[99, 0] == pytest.approx(1.0, abs=1e-9)
    assert sig.max() == pytest.approx(1.0, abs=1e-9)


def test_match_filter_recovers_bank_grid_point(desk_cfg, desk_plan):
    bank = build_match_filter_bank(desk_plan, 9, 4)
    target = bank.locations[17]
    obs = observe_plan(_quad_channel(desk_cfg, target), desk_plan, NOISELESS, None)
    est = match_filter_train(obs, bank)
    assert est.selected == 17
    assert (est.theta, est.alpha) == (target.theta, target.alpha)
    assert est.pilots_used == desk_plan.K


def test_match_filter_swapped_signatures_swap_the_winner(desk_cfg, desk_plan):
    bank = build_match_filter_bank(desk_plan, 9, 4)
    target = bank.locations[17]
    obs = observe_plan(_quad_channel(desk_cfg, target), desk_plan, NOISELESS, None)
    swapped = bank.signatures.copy()
    swapped[[17, 23]] = swapped[[23, 17]]
    bank2 = MatchFilterBank(signatures=swapped, locations=bank.locations,
                            plan=desk_plan)
    assert match_filter_train(obs, bank2).selected == 23


def test_match_filter_zero_observation_takes_first_index(desk_cfg, desk_plan):
    bank = build_match_filter_bank(desk_plan, 3, 2)
    M, K = desk_cfg.n_subcarriers, desk_plan.K
    obs = ObservationGrid(magnitudes=np.zeros((M, K)), snr=1.0)
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
    plan, kwargs = {
        "one_point": (desk_plan, dict(angle_samples=1, distance_samples=1)),
        "odd_antennas": (_odd_plan(), dict(angle_samples=17, distance_samples=3)),
        "custom_three_angles": (desk_plan, dict(
            angle_samples=0, distance_samples=0, theta_grid=[-0.31, -0.12, 0.07],
            alpha_grid=[0.05, 0.2])),
        "desk": (desk_plan, dict(angle_samples=40, distance_samples=4)),
    }[case]
    bank = build_match_filter_bank(plan, **kwargs)
    thetas = sorted({loc.theta for loc in bank.locations})
    alphas = sorted({loc.alpha for loc in bank.locations})
    cfg = plan.cfg
    want = _kernel_slices(plan, thetas, alphas, cfg.subcarrier_freqs())
    got = bank.signatures.reshape(len(thetas), len(alphas), cfg.n_subcarriers, plan.K)
    assert np.max(np.abs(got - want.transpose(3, 2, 0, 1))) < 1e-10


def test_bank_slice_at_full_scale_matches_gain_kernel(main_plan):
    # one subcarrier at each band edge of the 1024 x 10 full-scale bank
    cfg = main_plan.cfg
    thetas = _uniform_samples(*cfg.angle_range, 1024)
    alphas = _uniform_samples(*main_plan.inputs.alpha_bounds, 10)
    freqs = cfg.subcarrier_freq(np.array([1, cfg.n_subcarriers]))
    params = [main_plan.params(k) for k in range(1, main_plan.K + 1)]
    got = _bank_slices(cfg, params, thetas, alphas, freqs)
    want = _kernel_slices(main_plan, thetas, alphas, freqs)
    assert got.shape == (2, main_plan.K, 10, 1024)
    assert np.max(np.abs(got - want)) < 1e-10


def test_bank_rejects_a_nonuniform_theta_grid(desk_plan):
    with pytest.raises(ValueError, match="uniform"):
        build_match_filter_bank(desk_plan, 0, 0, theta_grid=[0.0, 0.1, 0.3],
                                alpha_grid=[0.1])


@pytest.mark.parametrize("rings", [3, 1])
def test_codeword_responses_match_the_steering_contraction(rings):
    # the factored contraction against h conj(b)^T with every codeword built
    # by approx_steering, on an odd array
    cfg = SystemConfig(63, 30e9, 5e9, 8, distance_range=(2.0, 10.0))
    book = PolarCodebook(cfg, 4, rings)
    freqs = cfg.subcarrier_freqs()[2:5]
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 5, 63)) + 1j * rng.standard_normal((3, 5, 63))
    thetas = np.array([loc.theta for loc in book.locations])
    alphas = np.array([loc.alpha for loc in book.locations])
    got = codeword_responses(book, h, freqs)
    assert got.shape == (3, 5, len(book))
    for i, f in enumerate(freqs):
        want = h[i] @ approx_steering(cfg, (thetas, alphas), f).conj().T
        assert np.max(np.abs(got[i] - want)) < 1e-10


def test_budgeted_exhaustive_spans_the_angle_range(desk_cfg):
    book = PolarCodebook(desk_cfg, 24, 3)
    g = len(book)

    def searched(budget):
        # a one-hot power at codeword i wins only where i is searched
        idx = exhaustive_estimate(np.eye(g), book, budget)[2]
        return np.flatnonzero(idx == np.arange(g))

    lo, hi = desk_cfg.angle_range
    for budget in (2, 5, 11):
        picked = searched(budget)
        thetas = [book.locations[i].theta for i in picked]
        assert len(picked) == budget
        assert min(thetas) == pytest.approx(lo) and max(thetas) == pytest.approx(hi)
    for budget in (None, g, g + 7):
        assert np.array_equal(searched(budget), np.arange(g))


# exhaustive -----------------------------------------------------------------

def test_exhaustive_recovers_codebook_point(desk_cfg):
    book = PolarCodebook(desk_cfg, 8, 2)
    target = book.locations[11]
    chan = _quad_channel(desk_cfg, target)
    est = exhaustive_polar_train(chan, book, NOISELESS, 0)
    assert est.selected == 11
    assert (est.theta, est.alpha) == (target.theta, target.alpha)
    assert est.pilots_used == len(book)


def test_exhaustive_is_seed_deterministic(desk_cfg):
    book = PolarCodebook(desk_cfg, 8, 2)
    chan = los_channel(desk_cfg, PolarLocation.from_angle_distance(0.1, 6.0))
    a = exhaustive_polar_train(chan, book, 10.0, 5)
    b = exhaustive_polar_train(chan, book, 10.0, 5)
    assert a.selected == b.selected


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
            build_match_filter_bank(
                desk_plan, 0, 0,
                theta_grid=[focus.theta - 0.02, focus.theta, focus.theta + 0.02],
                alpha_grid=[0.8 * focus.alpha, focus.alpha, 1.2 * focus.alpha],
            ),
        ),
    ):
        assert abs(est.theta - user.theta) < 1e-6, est.scheme
        assert abs(est.alpha - user.alpha) < 1e-6, est.scheme


def test_single_trial_api_matches_the_sweep_engine(desk_cfg):
    # Same magnitudes (or, for exhaustive, the same noise draws) into the
    # single-trial estimators and into the sweep engine's scheme table give
    # the same estimate, trial by trial.
    spec = desk_experiment_spec(bank_angles=24, bank_rings=3)
    engine = _Engine(spec)
    plan, snr = engine.plan, 10.0
    rng = np.random.default_rng(4)
    locs = [PolarLocation.from_angle_distance(t, r)
            for t, r in zip(rng.uniform(-0.85, 0.85, 12), rng.uniform(2.0, 10.0, 12))]
    channels = [los_channel(desk_cfg, loc) for loc in locs]

    def check(scheme, singles, obs):
        row = engine.table[scheme]
        th, al = row.estimate(np.stack(obs), row.pilots)
        assert [(e.theta, e.alpha) for e in singles] == list(zip(th, al)), scheme

    plan_obs = [observe_plan(ch, plan, snr, i) for i, ch in enumerate(channels)]
    plan_mags = [o.magnitudes for o in plan_obs]
    check("ongrid", [ongrid_train(o, plan) for o in plan_obs], plan_mags)
    check("aux_pair", [aux_pair_train(o, plan) for o in plan_obs], plan_mags)
    check("match_filter", [match_filter_train(o, engine.bank) for o in plan_obs],
          plan_mags)

    rings = np.linspace(desk_cfg.alpha_min, desk_cfg.alpha_max, spec.bank_rings)
    for scheme, probes, train in (
        ("nearfield_rainbow", rainbow_probes(desk_cfg, rings),
         lambda ch, i: nearfield_rainbow_train(ch, desk_cfg, spec.bank_rings, snr, i)),
        ("farfield_rainbow", rainbow_probes(desk_cfg, FAR_RINGS),
         lambda ch, i: farfield_rainbow_train(ch, desk_cfg, snr, i)),
    ):
        mags = [observe_params(desk_cfg, ch, probes, snr, i).magnitudes
                for i, ch in enumerate(channels)]
        check(scheme, [train(ch, i) for i, ch in enumerate(channels)], mags)

    # one user per moment draw: the engine's unit noise (1, G) per subcarrier
    # consumes the same normals as the single-trial complex noise
    singles, powers = [], []
    for i, (loc, ch) in enumerate(zip(locs, channels)):
        users = {"theta": np.array([loc.theta]), "r": np.array([loc.distance]),
                 "beta_c": np.array([ch.beta_c])}
        _, (a, b, c) = _synthesize(desk_cfg, [], engine.codebook, users,
                                   np.random.default_rng(i))
        s1 = _sigma(desk_cfg, users, snr)[:, None]
        powers.append((a + 2 * s1 * b + s1 * s1 * c)[0])
        singles.append(exhaustive_polar_train(ch, engine.codebook, snr, i))
    check("exhaustive", singles, powers)
