"""Pilot parameter design: sweep budget, annulus interleaving, delay table."""
import dataclasses
import json
import math

import numpy as np
import pytest

from beamtrain import (
    DesignInputs,
    FixedTdNetwork,
    PilotPlan,
    SystemConfig,
    design,
    design_angle_params,
    first_intercept,
    fixed_td_network,
    td_vector,
)
from beamtrain.design import (
    alpha_t_range,
    angle_coverage,
    design_distance_params,
    distance_slope_bound,
    pilot_count,
    round_half_away,
    staggered_endings,
    staggered_intercepts,
    starting_period_integer,
)
from beamtrain.beamsplit import InfeasibleFocusError
from beamtrain.harness import desk_experiment_spec, fullscale_experiment_spec

DERIVED = ("K", "p1", "ending_directions", "alpha_t_interval", "alpha_slope_min")


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.4) == 2
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.0) == 0


def test_gamma_validation(config_a):
    with pytest.raises(ValueError):
        DesignInputs(cfg=config_a, gamma=0.0)
    with pytest.raises(ValueError):
        DesignInputs(cfg=config_a, gamma=1.5)
    # a JSON true lies in (0, 1] as 1, but is no number
    with pytest.raises(ValueError, match="gamma must be finite"):
        DesignInputs(cfg=config_a, gamma=True)


def test_alpha_bounds_default_to_config(config_a):
    inputs = DesignInputs(cfg=config_a)
    assert inputs.alpha_bounds == (config_a.alpha_min, config_a.alpha_max)
    override = DesignInputs(cfg=config_a, alpha_min=0.01, alpha_max=0.05)
    assert override.alpha_bounds == (0.01, 0.05)
    with pytest.raises(ValueError):
        DesignInputs(cfg=config_a, alpha_min=0.05, alpha_max=0.01)


def test_angle_budget_split(config_a):
    inputs = DesignInputs(cfg=config_a, gamma=1.0)
    theta_p, p_m = design_angle_params(inputs)
    budget = (
        2 * 0.88 * config_a.f_lower * config_a.n_subcarriers
        / (config_a.n_antennas * config_a.bandwidth)
    )
    assert 0.0 <= theta_p < 2.0
    assert theta_p + 2 * p_m == pytest.approx(budget, rel=1e-12)


def test_first_intercept_puts_top_focus_at_the_ending(plan_a_base):
    cfg = plan_a_base.cfg
    focus = plan_a_base.focus(cfg.n_subcarriers, 1)
    assert focus.theta == pytest.approx(1.0, abs=1e-12)


def test_staggered_endings(plan_a):
    assert plan_a.ending_directions == pytest.approx(
        tuple(1.0 - 2.0 * (k - 1) / plan_a.K for k in range(1, plan_a.K + 1))
    )
    cfg = plan_a.cfg
    for k in range(1, plan_a.K + 1):
        focus = plan_a.focus(cfg.n_subcarriers, k)
        assert focus.theta == pytest.approx(plan_a.ending_directions[k - 1], abs=1e-9)


def test_starting_period_integer_rounding(plan_a_base):
    cfg = plan_a_base.cfg
    p1 = starting_period_integer(cfg, plan_a_base.theta_t_list[0], plan_a_base.theta_p)
    assert p1 == plan_a_base.p1
    val = (-plan_a_base.theta_t_list[0] * cfg.f_lower / cfg.carrier_freq
           - plan_a_base.theta_p) / 2.0
    assert p1 == round_half_away(val)


def test_distance_slope_reaches_the_bound(config_a):
    inputs = DesignInputs(cfg=config_a)
    alpha_p, q, alpha_t, interval = design_distance_params(inputs)
    bound = distance_slope_bound(config_a, *inputs.alpha_bounds)
    d = config_a.spacing
    assert alpha_p + 2 * q / d == pytest.approx(bound, rel=1e-12)
    assert 0.0 <= alpha_p < 2.0 / d
    lo, hi = interval
    assert lo <= alpha_t <= hi
    assert alpha_t == pytest.approx(0.5 * (lo + hi))


def test_alpha_p_override_checked_against_bound(config_a):
    with pytest.raises(ValueError, match="coverage slope bound"):
        design(DesignInputs(cfg=config_a, alpha_p_override=0.1))


@pytest.mark.parametrize("name", ["desk", "config_a", "fullscale"])
@pytest.mark.parametrize("raise_alpha_p", [False, True])
def test_derived_values_are_the_designs_own(name, raise_alpha_p, config_a):
    # each derived value equals the design's intermediate value exactly, on
    # the designed plan and on its JSON read back; raise_alpha_p overrides
    # alpha_p with 0.5 above the designed one, which config A's reference
    # override (0.5) is, and which keeps every slope above its bound
    inputs = {"desk": desk_experiment_spec().design_inputs(),
              "config_a": DesignInputs(cfg=config_a),
              "fullscale": fullscale_experiment_spec().design_inputs()}[name]
    cfg = inputs.cfg
    if raise_alpha_p:
        inputs = dataclasses.replace(
            inputs, alpha_p_override=design_distance_params(inputs)[0] + 0.5)
    theta_p, p_m = design_angle_params(inputs)
    p1 = starting_period_integer(cfg, first_intercept(cfg, theta_p, p_m), theta_p)
    alpha_p, q, alpha_t, interval = design_distance_params(inputs)
    K = pilot_count(inputs, theta_p, p1, p_m, alpha_p, q)
    plan = design(inputs)
    for got in (plan, PilotPlan.from_json(plan.to_json())):
        assert got.K == K and got.p1 == p1
        assert got.ending_directions == staggered_endings(K)
        assert got.alpha_t_interval == interval == alpha_t_range(
            cfg, *inputs.alpha_bounds, alpha_p + 2 * q / cfg.spacing)
        assert got.alpha_slope_min == distance_slope_bound(cfg, *inputs.alpha_bounds)
        assert (got.alpha_p, got.alpha_t) == (alpha_p, alpha_t)


@pytest.mark.parametrize("plan_name", ["desk_plan", "main_plan"])
def test_plan_below_the_coverage_slope_bound_is_rejected(plan_name, request):
    # the bound comes from the plan's own inputs: a file cannot restate it
    data = request.getfixturevalue(plan_name).to_dict()
    data["alpha_p"] = 0
    with pytest.raises(ValueError, match="below the coverage slope bound"):
        PilotPlan.from_dict(data)


def test_plan_with_a_nonpositive_angle_sweep_slope_is_rejected(plan_a):
    # theta_p + 2 pM <= 0 would sweep the angle the wrong way, or not at all
    data = plan_a.to_dict()
    data["pM"] = math.floor(-plan_a.theta_p / 2)
    with pytest.raises(ValueError, match="angle sweep slope must be positive"):
        PilotPlan.from_json(json.dumps(data))


def test_plan_alpha_t_outside_its_interval_is_rejected(plan_a):
    lo, hi = plan_a.alpha_t_interval
    for alpha_t in (lo, hi):
        PilotPlan.from_dict({**plan_a.to_dict(), "alpha_t": alpha_t})
    for alpha_t in (lo - 1e-6, hi + 1e-6):
        with pytest.raises(ValueError, match="alpha_t .* lies outside"):
            PilotPlan.from_dict({**plan_a.to_dict(), "alpha_t": alpha_t})


@pytest.mark.parametrize("key", DERIVED)
def test_plan_rejects_a_derived_key(key, main_plan):
    # a plan file written before these values were derived is rejected,
    # not read with values that may contradict the plan
    value = getattr(main_plan, key)
    data = {**main_plan.to_dict(), key: list(value) if isinstance(value, tuple) else value}
    with pytest.raises(ValueError, match=f"unknown key\\(s\\) '{key}'"):
        PilotPlan.from_dict(data)


def test_plan_stores_only_the_designed_values():
    assert [f.name for f in dataclasses.fields(PilotPlan)] == [
        "inputs", "theta_p", "theta_t_list", "alpha_p", "alpha_t", "pM", "q"]


def test_band_edge_annuli_cover_the_served_range(plan_a, plan_a_base):
    # the f_L annulus must reach past alpha_max and the f_H annulus past
    # alpha_min; at the critical slope both touch the bounds exactly
    for plan, exact in ((plan_a, False), (plan_a_base, True)):
        cfg = plan.cfg
        amin, amax = plan.inputs.alpha_bounds
        slope = plan.alpha_slope
        low_band = plan.alpha_t + (cfg.carrier_freq / cfg.f_lower) * slope
        high_band = plan.alpha_t + (cfg.carrier_freq / cfg.f_upper) * slope
        assert low_band >= amax - 1e-9
        assert high_band <= amin + 1e-9
        if exact:
            assert low_band == pytest.approx(amax, abs=1e-9)
            assert high_band == pytest.approx(amin, abs=1e-9)


def test_pilot_count_override_is_a_floor(config_a):
    inputs = DesignInputs(cfg=config_a, k_override=5)
    plan = design(inputs)
    assert plan.K == 5
    assert len(plan.theta_t_list) == 5


def test_pilot_count_rejects_nonpositive_sweep_slope(config_a):
    with pytest.raises(ValueError):
        pilot_count(DesignInputs(cfg=config_a), theta_p=0.0, p1=0, p_m=0, alpha_p=0.5, q=0)


def test_pilot_count_covers_the_angle_range():
    # the desk geometry at 128 subcarriers sweeps a span S = 1.61 per pilot:
    # the distance term alone gives one pilot, which leaves theta in
    # (0.43, 0.87) unlit, so the angle term ceil(2 / S) = 2 sets K
    inputs = desk_experiment_spec().design_inputs()
    cfg = dataclasses.replace(inputs.cfg, n_subcarriers=128)
    plan = design(dataclasses.replace(inputs, cfg=cfg))
    span, n_angle = angle_coverage(cfg, plan.theta_p, plan.pM)
    assert span == pytest.approx(1.6117, abs=1e-4) and n_angle == 2
    assert plan.K >= 2 and plan.K * span >= 2
    assert "2 pilot(s) cover [-1, 1]" in plan.summary()


def test_reference_plans_need_one_pilot_for_angle(config_a, desk_plan, main_plan):
    # the angle term leaves the reference designs' pilot counts as they were
    for plan in (design(DesignInputs(cfg=config_a)), desk_plan, main_plan):
        assert angle_coverage(plan.cfg, plan.theta_p, plan.pM)[1] == 1


def test_design_is_deterministic(config_a):
    a = design(DesignInputs(cfg=config_a, gamma=1.0))
    b = design(DesignInputs(cfg=config_a, gamma=1.0))
    assert a == b


def test_plan_params_expose_shared_and_per_pilot_values(plan_a):
    for k in range(1, plan_a.K + 1):
        params = plan_a.params(k)
        assert params.theta_t == plan_a.theta_t_list[k - 1]
        assert params.theta_p == plan_a.theta_p
        assert params.alpha_t == plan_a.alpha_t
        assert params.alpha_p == plan_a.alpha_p
        assert len(params) == 1
    # an array of pilots is one parameter set, one entry per pilot
    pilots = plan_a.params(np.arange(1, plan_a.K + 1))
    assert len(pilots) == plan_a.K
    assert np.array_equal(pilots.theta_t, plan_a.theta_t_list)


def _reference_focus(plan, m, k):
    """Focus of one beam, written out per beam: p the largest integer with
    theta <= 1 (a 1e-9 slack in the floor), and a beam whose theta falls
    below -1 clamped to the nearer boundary of its lobe and the next one.
    Returns (theta, alpha, p, clamped) and theta before the clamp."""
    cfg, f = plan.cfg, plan.cfg.subcarrier_freq(m)
    theta_t, g = plan.theta_t_list[k - 1], cfg.carrier_freq / f
    p = math.floor(((1.0 - theta_t) * (f / cfg.carrier_freq) - plan.theta_p) / 2.0 + 1e-9)
    theta = theta_t + g * (plan.theta_p + 2 * p)
    alpha = plan.alpha_t + g * (plan.alpha_p + 2 * plan.q / cfg.spacing)
    raw, clamped = theta, theta < -1.0 - 1e-9
    if clamped:
        hi = theta_t + g * (plan.theta_p + 2 * (p + 1))
        p, theta = (p + 1, 1.0) if abs(hi - 1.0) < abs(theta + 1.0) else (p, -1.0)
    return (min(max(theta, -1.0), 1.0), alpha, p, clamped), raw


@pytest.mark.parametrize("plan_name", ["desk_plan", "main_plan", "plan_a_base"])
def test_array_focus_is_the_per_beam_rule(plan_name, request):
    # one call over every (pilot, subcarrier) beam equals the per-beam rule
    # bit for bit; without clamp it raises exactly when a beam is infeasible
    plan = request.getfixturevalue(plan_name)
    k, m = np.meshgrid(np.arange(1, plan.K + 1), np.arange(1, plan.cfg.n_subcarriers + 1),
                       indexing="ij")
    focus = plan.focus(m, k, clamp=True)
    want = [_reference_focus(plan, mm, kk)[0] for kk, mm in zip(k.ravel(), m.ravel())]
    for got, column in zip((focus.theta, focus.alpha, focus.p, focus.clamped), zip(*want)):
        assert got.shape == m.shape
        assert np.array_equal(got.ravel(), np.array(column))
    assert focus.clamped.any() and not focus.clamped.all()
    with pytest.raises(InfeasibleFocusError):
        plan.focus(m, k)
    for row in range(plan.K):
        if focus.clamped[row].any():
            with pytest.raises(InfeasibleFocusError):
                plan.focus(m[row], k[row])
        else:
            assert np.array_equal(plan.focus(m[row], k[row]).theta, focus.theta[row])
    # a scalar call gives numbers, and raises today's message when infeasible
    (bad_k, bad_m), (good_k, good_m) = (np.argwhere(focus.clamped)[0] + 1,
                                        np.argwhere(~focus.clamped)[0] + 1)
    single = plan.focus(int(good_m), int(good_k))
    assert (type(single.theta), type(single.alpha), type(single.p), type(single.clamped)) == (
        float, float, int, bool)
    raw, f = _reference_focus(plan, bad_m, bad_k)[1], plan.cfg.subcarrier_freq(bad_m)
    with pytest.raises(InfeasibleFocusError) as err:
        plan.focus(int(bad_m), int(bad_k))
    assert str(err.value) == f"focus theta {raw:.4f} outside [-1, 1] at f = {f:.4e} Hz"


def test_plan_json_round_trip(plan_a):
    text = plan_a.to_json()
    again = PilotPlan.from_json(text)
    assert again.to_dict() == plan_a.to_dict()
    focus_a = plan_a.focus(100, 2)
    focus_b = again.focus(100, 2)
    assert (focus_a.theta, focus_a.alpha) == (focus_b.theta, focus_b.alpha)


def test_design_inputs_json_round_trip(config_a):
    inputs = DesignInputs(cfg=config_a, gamma=0.8, k_override=2)
    again = DesignInputs.from_json(json.dumps(inputs.to_dict()))
    assert again == inputs


def test_plan_summary_mentions_the_counts(plan_a):
    text = plan_a.summary()
    assert f"{plan_a.K} pilot(s)" in text
    assert str(plan_a.cfg.n_subcarriers) in text


def test_plan_validation_rejects_a_pilot_count_key(plan_a):
    # the pilot count is the number of delay intercepts: a "K" that could
    # contradict it is an unknown key, and an empty list is no plan
    data = plan_a.to_dict()
    data["theta_t_list"] = data["theta_t_list"][:1]
    with pytest.raises(ValueError, match="unknown key\\(s\\) 'K'"):
        PilotPlan.from_dict({**data, "K": plan_a.K})
    assert PilotPlan.from_dict(data).K == 1
    with pytest.raises(ValueError, match="at least one delay intercept"):
        PilotPlan.from_dict({**data, "theta_t_list": []})


def test_plan_validation_rejects_an_intercept_off_the_ending_rule(main_plan, plan_a):
    # an intercept edited by 0.3 would end pilot 1's sweep elsewhere than
    # its ending direction 1.0: its top subcarrier would focus at -0.546
    data = main_plan.to_dict()
    data["theta_t_list"][0] += 0.3
    with pytest.raises(ValueError, match="theta_t .* of pilot 1 does not end its sweep at 1.0"):
        PilotPlan.from_dict(data)
    # each designed intercept is the rule's, so designed plans read back
    for plan in (main_plan, plan_a):
        assert plan.theta_t_list == staggered_intercepts(plan.cfg, plan.theta_p, plan.pM,
                                                         plan.K)
        assert PilotPlan.from_dict(plan.to_dict()) == plan


def test_delay_table_shape_and_selector_bits(main_plan, desk_plan):
    net = fixed_td_network(main_plan)
    assert net.delays.shape == (main_plan.cfg.n_antennas, main_plan.K)
    assert net.n_pilots == main_plan.K
    assert net.selection_bits == math.ceil(math.log2(main_plan.K))
    single = fixed_td_network(desk_plan)
    assert desk_plan.K == 1 and single.selection_bits == 0


def test_delay_table_rebuilds_identical_phases(main_plan):
    cfg = main_plan.cfg
    net = fixed_td_network(main_plan)
    for k in range(main_plan.K):
        for f in (cfg.f_lower, cfg.carrier_freq, cfg.f_upper):
            rebuilt = np.exp(-2j * np.pi * f * net.delays[:, k])
            rebuilt = rebuilt / math.sqrt(cfg.n_antennas)
            direct = td_vector(cfg, main_plan.theta_t_list[k], main_plan.alpha_t, f)
            dev = np.abs(np.angle(rebuilt * np.conj(direct)))
            assert dev.max() <= 1e-12


def test_delay_table_csv_round_trip(main_plan):
    net = fixed_td_network(main_plan)
    again = FixedTdNetwork.from_csv(net.to_csv())
    assert np.array_equal(again.delays, net.delays)
    assert again.selection_bits == net.selection_bits
    with pytest.raises(ValueError):
        FixedTdNetwork.from_csv("")


def test_design_rejects_a_spacing_the_focus_prediction_cannot_serve(desk_cfg):
    # at 4 mm the predicted foci of the desk design gain 0.006-0.015, not 1
    odd = dataclasses.replace(desk_cfg, antenna_spacing=4e-3)
    with pytest.raises(ValueError, match="half-wavelength spacing"):
        DesignInputs(cfg=odd, gamma=0.5)
    # the default spacing, given explicitly, is the same design
    same = dataclasses.replace(desk_cfg, antenna_spacing=desk_cfg.spacing)
    assert design(DesignInputs(cfg=same, gamma=0.5)).K == design(
        DesignInputs(cfg=desk_cfg, gamma=0.5)).K


def test_design_inputs_reject_zero_bandwidth(desk_cfg):
    # without bandwidth the angle budget divides by zero inside the design
    flat = dataclasses.replace(desk_cfg, bandwidth=0.0)
    with pytest.raises(ValueError, match="beam split needs bandwidth"):
        DesignInputs(cfg=flat, gamma=0.5)


def test_design_inputs_reject_one_subcarrier(desk_cfg):
    # one subcarrier occupies neither band edge, from which the pilot count
    # is sized: the desk geometry would get 101 pilots for 64 elements
    single = dataclasses.replace(desk_cfg, n_subcarriers=1)
    with pytest.raises(ValueError, match="need n_subcarriers >= 2"):
        DesignInputs(cfg=single, gamma=0.5)
    assert design(DesignInputs(cfg=dataclasses.replace(desk_cfg, n_subcarriers=2))).K >= 1
