"""Gain kernel geometry: periodicity, widths, Fresnel envelope, focus law."""
import math

import numpy as np
import pytest

from beamtrain import (
    InfeasibleFocusError,
    PolarLocation,
    SystemConfig,
    TdPsParams,
    angle_beamwidth,
    approx_steering,
    combined_beamformer,
    dirichlet_sinc,
    distance_beamwidth,
    ellipse_coefficients,
    fresnel_envelope,
    fresnel_integrals,
    gain_kernel,
    predicted_focus,
    ps_vector,
    td_vector,
    tdps_gain,
)
from beamtrain.beamsplit import (
    FRESNEL_3DB,
    _powers,
    element_delays,
    phase_steps,
    subcarrier_gains,
    wavenumber_steps,
)
from beamtrain.config import SPEED_OF_LIGHT


@pytest.fixture()
def cfg():
    return SystemConfig(64, 30e9, 5e9, 16, distance_range=(2.0, 10.0))


def _bisect(fn, lo, hi, iters=200):
    sign_lo = fn(lo) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_component_vectors_have_unit_element_magnitude(cfg):
    td = td_vector(cfg, 0.3, 0.05, 29e9)
    ps = ps_vector(cfg, -0.2, 0.01)
    assert np.allclose(np.abs(td), 1 / math.sqrt(cfg.n_antennas))
    assert np.allclose(np.abs(ps), 1 / math.sqrt(cfg.n_antennas))


def test_zero_parameters_give_uniform_vectors(cfg):
    n = cfg.n_antennas
    assert np.allclose(td_vector(cfg, 0.0, 0.0, 29e9), 1 / math.sqrt(n))
    assert np.allclose(ps_vector(cfg, 0.0, 0.0), 1 / math.sqrt(n))


def test_combined_beamformer_unit_norm(cfg):
    params = TdPsParams(theta_t=0.4, theta_p=0.7, alpha_t=0.02, alpha_p=0.1)
    w = combined_beamformer(cfg, params, 31e9)
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
    # elementwise product of the parts, rescaled to unit norm
    parts = td_vector(cfg, 0.4, 0.02, 31e9) * ps_vector(cfg, 0.7, 0.1)
    assert np.allclose(w, parts * math.sqrt(cfg.n_antennas), atol=1e-14)


def test_element_delays_formula(cfg):
    tau = element_delays(cfg, 0.5, 0.03)
    nd = cfg.element_indices() * cfg.spacing
    assert np.allclose(tau, (nd * 0.5 - nd * nd * 0.03) / 299792458.0, atol=1e-24)


def test_gain_kernel_peak_and_symmetry(cfg):
    assert gain_kernel(cfg, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(7)
    x = rng.uniform(-50, 50, 20)
    y = rng.uniform(-2000, 2000, 20)
    assert np.allclose(gain_kernel(cfg, x, y), gain_kernel(cfg, -x, -y), atol=1e-12)


def test_gain_kernel_periodicity(cfg):
    rng = np.random.default_rng(11)
    d = cfg.spacing
    x = rng.uniform(-np.pi / d, np.pi / d, 20)
    y = rng.uniform(-np.pi / d**2, np.pi / d**2, 20)
    base = gain_kernel(cfg, x, y)
    for p in (-2, -1, 1, 2):
        for q in (-2, -1, 1, 2):
            shifted = gain_kernel(cfg, x - 2 * np.pi * p / d, y - 2 * np.pi * q / d**2)
            assert np.max(np.abs(shifted - base)) <= 1e-9


def test_even_array_keeps_the_periodicity(cfg):
    # half-integer element offsets shift only a common phase per period
    even = SystemConfig(62, 30e9, 5e9, 16, distance_range=(2.0, 10.0))
    d = even.spacing
    x = np.linspace(-np.pi / d, np.pi / d, 17)
    y = np.linspace(-np.pi / d**2, np.pi / d**2, 17)
    base = gain_kernel(even, x, y)
    assert np.max(np.abs(gain_kernel(even, x - 2 * np.pi / d, y) - base)) <= 1e-9
    assert np.max(np.abs(gain_kernel(even, x, y - 2 * np.pi / d**2) - base)) <= 1e-9


def test_kernel_slice_matches_dirichlet_form(cfg):
    d = cfg.spacing
    x = np.linspace(-0.8 * np.pi / d, 0.8 * np.pi / d, 101)
    slice_gain = gain_kernel(cfg, x, np.zeros_like(x))
    closed = np.abs(dirichlet_sinc(cfg.n_antennas, x * d / np.pi))
    assert np.max(np.abs(slice_gain - closed)) < 1e-12


def test_dirichlet_sinc_continuous_at_periods():
    for n in (5, 8):
        at_zero = dirichlet_sinc(n, 0.0)
        near = dirichlet_sinc(n, 1e-13)
        assert at_zero == pytest.approx(1.0)
        assert near == pytest.approx(1.0, abs=1e-9)


def test_tdps_gain_equals_beamformer_gain(cfg):
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = TdPsParams(
            theta_t=rng.uniform(-2, 2),
            theta_p=rng.uniform(0, 2),
            alpha_t=rng.uniform(-1, 1),
            alpha_p=rng.uniform(0, 1),
        )
        loc = PolarLocation(rng.uniform(-0.8, 0.8), rng.uniform(0.0, 0.25))
        f = rng.uniform(cfg.f_lower, cfg.f_upper)
        w = combined_beamformer(cfg, params, f)
        assert tdps_gain(cfg, params, loc, f) == pytest.approx(
            abs(w @ approx_steering(cfg, loc, f)), abs=1e-12
        )


def test_predicted_focus_tracks_the_closed_form(cfg):
    params = TdPsParams(theta_t=-16.0, theta_p=1.3, alpha_t=-1.0, alpha_p=1.2)
    f = 29.5e9
    focus = predicted_focus(cfg, params, f, q=0)
    g = cfg.carrier_freq / f
    assert focus.theta == pytest.approx(params.theta_t + g * (params.theta_p + 2 * focus.p))
    assert focus.alpha == pytest.approx(params.alpha_t + g * params.alpha_p)
    assert -1.0 <= focus.theta <= 1.0
    # p maximal: the next period integer would overshoot theta = 1
    over = params.theta_t + g * (params.theta_p + 2 * (focus.p + 1))
    assert over > 1.0


def test_a_focus_a_rounding_error_past_plus_one_stays_on_its_lobe(cfg):
    # theta_t + theta_p + 2 p = 1 + 1e-13 at the carrier: the period integer
    # p = 1 lands a rounding error past theta = 1, which the 1e-9 slack of
    # the floor keeps at +1; p = 0 would move the beam to the far lobe at -1
    params = TdPsParams(theta_t=-1.3 + 1e-13, theta_p=0.3)
    focus = predicted_focus(cfg, params, cfg.carrier_freq)
    assert (focus.p, focus.theta, focus.clamped) == (1, 1.0, False)
    beams = predicted_focus(cfg, params, np.full(3, cfg.carrier_freq))
    assert np.array_equal(beams.p, [1, 1, 1]) and np.array_equal(beams.theta, [1.0] * 3)


def test_served_focus_takes_the_sibling_lobe_inside_the_served_range(cfg):
    # above the carrier the lobes lie 2 g < 2 apart, so two can be visible
    f = cfg.f_upper
    g = cfg.carrier_freq / f
    params = TdPsParams(theta_t=0.0, theta_p=np.array([0.99, 0.95, 0.8]) / g)
    plain = predicted_focus(cfg, params, f)
    served = predicted_focus(cfg, params, f, served=True)
    assert np.array_equal(plain.p, [0, 0, 0])
    # 0.99 - 2 g = -0.856 is inside +-0.866, 0.95 - 2 g = -0.896 is not, and
    # 0.8 is itself inside
    assert np.array_equal(served.p, [-1, 0, 0])
    assert served.theta[0] == pytest.approx(0.99 - 2 * g)
    assert np.array_equal(served.theta[1:], plain.theta[1:])
    assert np.array_equal(served.alpha, plain.alpha) and not served.clamped.any()


def test_predicted_focus_infeasible_band(cfg):
    # sweep slope so steep that some frequencies land between visible periods
    params = TdPsParams(theta_t=-40.0, theta_p=1.9, alpha_t=0.0, alpha_p=0.0)
    feasible, infeasible = 0, 0
    for m in range(1, cfg.n_subcarriers + 1):
        f = cfg.subcarrier_freq(m)
        try:
            predicted_focus(cfg, params, f)
            feasible += 1
        except InfeasibleFocusError:
            clamped = predicted_focus(cfg, params, f, clamp=True)
            assert clamped.clamped
            assert clamped.theta in (-1.0, 1.0)
            infeasible += 1
    assert feasible + infeasible == cfg.n_subcarriers
    assert infeasible > 0


def test_focus_marks_the_local_gain_peak(cfg):
    params = TdPsParams(theta_t=-16.876, theta_p=1.36, alpha_t=-1.05, alpha_p=1.19)
    f = cfg.subcarrier_freq(5)
    focus = predicted_focus(cfg, params, f)
    at_focus = tdps_gain(cfg, params, (focus.theta, focus.alpha), f)
    w_th = angle_beamwidth(cfg, f)
    w_al = distance_beamwidth(cfg, f)
    assert at_focus == pytest.approx(1.0, abs=1e-9)
    for dth, dal in ((w_th, 0), (-w_th, 0), (0, w_al), (0, -w_al)):
        nearby = tdps_gain(cfg, params, (focus.theta + dth, focus.alpha + dal), f)
        assert nearby < at_focus


def test_fresnel_integrals_convention():
    c0, s0 = fresnel_integrals(0.0)
    assert c0 == 0.0 and s0 == 0.0
    c, s = fresnel_integrals(50.0)
    assert c == pytest.approx(0.5, abs=1e-2)
    assert s == pytest.approx(0.5, abs=1e-2)


def test_fresnel_envelope_limits_and_root():
    assert fresnel_envelope(0.0) == 1.0
    assert fresnel_envelope(1e-10) == 1.0
    root = _bisect(lambda b: fresnel_envelope(b) - 1 / math.sqrt(2), 1e-3, 2.0)
    assert root == pytest.approx(FRESNEL_3DB, abs=1e-3)
    # decreasing through the 3 dB point
    assert fresnel_envelope(1.0) > 1 / math.sqrt(2) > fresnel_envelope(1.6)


def test_distance_gain_matches_kernel(cfg):
    f = cfg.f_upper
    w_al = distance_beamwidth(cfg, f)
    dal = np.linspace(1e-9, 2 * w_al, 41)
    # the Fresnel envelope at beta = N_t d sqrt(|dalpha| f / c)
    env = fresnel_envelope(cfg.n_antennas * cfg.spacing * np.sqrt(dal * f / SPEED_OF_LIGHT))
    ker = gain_kernel(cfg, np.zeros_like(dal), cfg.wavenumber(f) * dal)
    assert np.max(np.abs(env - ker)) <= 0.02


@pytest.mark.parametrize("f_key", ["f_lower", "carrier_freq", "f_upper"])
def test_beamwidths_match_measured_kernel(cfg, f_key):
    f = getattr(cfg, f_key)
    k = cfg.wavenumber(f)
    target = 1 / math.sqrt(2)
    pred_th = angle_beamwidth(cfg, f)
    w_th = _bisect(lambda t: gain_kernel(cfg, k * t, 0.0) - target, 1e-9, 2 * pred_th)
    assert abs(w_th - pred_th) / w_th <= 0.02
    pred_al = distance_beamwidth(cfg, f)
    w_al = _bisect(lambda a: gain_kernel(cfg, 0.0, k * a) - target, 1e-12, 2.5 * pred_al)
    assert abs(w_al - pred_al) / w_al <= 0.05


def _kernel_loop(cfg, dtheta, dalpha):
    """The serving gains one gain_kernel call per subcarrier."""
    k = cfg.wavenumber(cfg.subcarrier_freqs())
    return np.stack([gain_kernel(cfg, km * dtheta, km * dalpha) for km in k], axis=-1)


@pytest.mark.parametrize("n_antennas, n_subcarriers, bandwidth", [
    (64, 256, 5e9),    # desk: b = 16 divides M
    (256, 1024, 5e9),  # full scale: b = 32 divides M
    (63, 1100, 5e9),   # odd N_t; b = 34 does not divide M
    (64, 1023, 5e9),   # b = 32 does not divide M
    (64, 1, 5e9),      # one subcarrier: b = 1
    (64, 100, 0.0),    # no bandwidth: every k_m is k_c
    (1, 100, 5e9),     # one antenna: every gain is 1
])
def test_subcarrier_gains_equal_a_per_subcarrier_kernel_loop(n_antennas, n_subcarriers,
                                                             bandwidth):
    cfg = SystemConfig(n_antennas, 30e9, bandwidth, n_subcarriers, distance_range=(2.0, 10.0))
    rng = np.random.default_rng(n_antennas + n_subcarriers)
    # sweep-sized mismatches, the far lobe (dtheta near +-2), and none
    dtheta = np.r_[rng.uniform(-0.1, 0.1, 6), 1.9999, -1.998, 0.0]
    dalpha = np.r_[rng.uniform(-0.05, 0.05, 6), 0.01, 0.0, 0.0]
    got = subcarrier_gains(cfg, dtheta, dalpha)
    assert got.shape == (len(dtheta), n_subcarriers)
    assert np.max(np.abs(got - _kernel_loop(cfg, dtheta, dalpha))) <= 1e-12
    assert np.all(got[-1] == 1.0)


@pytest.mark.parametrize("n_subcarriers", [1, 2, 3, 16, 17, 32, 33])
@pytest.mark.parametrize("bandwidth", [5e9, 0.0])  # 0: dk = 0, every k_m is k_c
def test_phase_steps_equal_the_direct_exponentials(n_subcarriers, bandwidth):
    cfg = SystemConfig(8, 30e9, bandwidth, n_subcarriers, distance_range=(2.0, 10.0))
    giant, baby = wavenumber_steps(cfg)
    rng = np.random.default_rng(n_subcarriers)
    x = rng.uniform(-1.0, 1.0, (3, 4, cfg.n_antennas))  # up to k x ~ 680 rad
    x[0, 0] = 0.0
    # up to k x = 1e5 rad, k L for paths near 160 m
    far = rng.uniform(-1.0, 1.0, (2, cfg.n_antennas)) * 1e5 / giant[-1]
    for phases, far_out in ((x, False), (far, True)):
        got_giant, got_baby = phase_steps(cfg, phases)
        assert got_giant.shape == phases.shape[:-1] + (len(giant), cfg.n_antennas)
        assert got_baby.shape == phases.shape[:-1] + (len(baby), cfg.n_antennas)
        want_giant = np.exp(1j * giant[:, None] * phases[..., None, :])
        want_baby = np.exp(1j * baby[:, None] * phases[..., None, :])
        # float64 holds a phase near 1e5 rad to its spacing, 1.5e-11, so far
        # out the direct exponential is itself only that close to the truth
        bound = 1e-12 + far_out * 4 * np.finfo(float).eps * np.abs(giant[-1] * phases)
        assert np.all(np.abs(got_giant - want_giant) <= bound[..., None, :])
        assert np.all(np.abs(got_baby - want_baby) <= bound[..., None, :])
        if not far_out:  # exactly 1 where x = 0
            assert np.all(got_giant[0, 0] == 1.0) and np.all(got_baby[0, 0] == 1.0)


def test_phase_steps_into_tables_are_views_of_them_bit_for_bit():
    # given a pair of tables of B rows, a block of B phase rows and a partial
    # last block of fewer are written into the tables' first rows, and the
    # returned views equal the fresh tables bit for bit
    cfg = SystemConfig(16, 30e9, 5e9, 33, distance_range=(2.0, 10.0))
    a, b = (len(steps) for steps in wavenumber_steps(cfg))
    tables = [np.full((4, n, cfg.n_antennas), np.nan, dtype=complex) for n in (a, b)]
    x = np.random.default_rng(7).uniform(-1.0, 1.0, (6, cfg.n_antennas))
    for block in (x[:4], x[4:]):
        got = phase_steps(cfg, block, tables)
        for view, table, fresh in zip(got, tables, phase_steps(cfg, block)):
            # the view starts at the table's first row
            assert view.__array_interface__["data"][0] == table.__array_interface__["data"][0]
            assert view.shape == fresh.shape and view.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("n_antennas", [64, 256])
@pytest.mark.parametrize("n_angles", [32, 192])
def test_powers_equal_the_direct_exponentials_at_codebook_sizes(n_angles, n_antennas):
    # the matrix e^{-j k d dtheta n a} (A, N_t) of codeword_powers' product,
    # at the band's edges and center, from N_t exponentials by doubling;
    # phases reach about 1400 rad at 256 elements, so the bound of
    # test_phase_steps_equal_the_direct_exponentials applies
    cfg = SystemConfig(n_antennas, 30e9, 5e9, 16, distance_range=(2.0, 10.0))
    lo, hi = cfg.angle_range
    k = cfg.wavenumber(cfg.subcarrier_freqs()[[0, 8, -1]])[:, None]
    base = -k * cfg.spacing * (hi - lo) / (n_angles - 1) * np.arange(n_antennas)  # (3, N_t)
    got = _powers(np.exp(1j * base), n_angles)
    assert got.shape == (3, n_angles, n_antennas)
    phase = base[:, None, :] * np.arange(n_angles)[:, None]
    bound = 1e-12 + 4 * np.finfo(float).eps * np.abs(phase)
    assert np.all(np.abs(got - np.exp(1j * phase)) <= bound)
    assert np.all(got[:, 0] == 1.0)


def test_subcarrier_gains_of_a_row_do_not_depend_on_its_block():
    # desk scale runs 25 rows a block: 150 rows span six blocks, and the
    # reversed order gives every row other neighbours
    cfg = SystemConfig(64, 30e9, 5e9, 256, distance_range=(2.0, 10.0))
    rng = np.random.default_rng(5)
    dtheta, dalpha = rng.uniform(-0.2, 0.2, 150), rng.uniform(-0.1, 0.1, 150)
    block = subcarrier_gains(cfg, dtheta, dalpha)
    assert np.array_equal(subcarrier_gains(cfg, dtheta[::-1], dalpha[::-1])[::-1], block)
    for i in range(0, 150, 7):
        assert np.array_equal(subcarrier_gains(cfg, dtheta[i:i + 1], dalpha[i:i + 1])[0],
                              block[i])


def test_ellipse_coefficients_taylor_expand_the_kernel(cfg):
    f = cfg.carrier_freq
    k = cfg.wavenumber(f)
    s1, s2 = ellipse_coefficients(cfg, f)
    assert s1 > 0 and s2 > 0
    dth = 0.1 * angle_beamwidth(cfg, f)
    dal = 0.1 * distance_beamwidth(cfg, f)
    g_th = gain_kernel(cfg, k * dth, 0.0)
    g_al = gain_kernel(cfg, 0.0, k * dal)
    assert g_th == pytest.approx(1.0 - s1 * dth**2, abs=2e-5)
    assert g_al == pytest.approx(1.0 - s2 * dal**2, abs=2e-5)


def test_ellipse_model_near_half_power_at_the_angle_width(cfg):
    # the quadratic model evaluated one angle half-width out sits near 1/sqrt(2)
    f = cfg.carrier_freq
    s1, _ = ellipse_coefficients(cfg, f)
    value = 1.0 - s1 * angle_beamwidth(cfg, f) ** 2
    assert value == pytest.approx(1 / math.sqrt(2), abs=0.05)
