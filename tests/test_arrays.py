"""Steering vectors, line-of-sight channels, and the polar codebook."""
import math

import numpy as np
import pytest

from beamtrain import (
    PolarCodebook,
    PolarLocation,
    SystemConfig,
    approx_steering,
    los_channel,
)
from beamtrain.arrays import channel_rows, element_distances, los_rows, path_loss

from conftest import codeword_order_powers, grid_locations, polar_grid, quadratic_channel


@pytest.fixture()
def cfg():
    return SystemConfig(64, 30e9, 5e9, 16, distance_range=(2.0, 10.0))


# The exact (spherical-wave) steering of a user is its line-of-sight channel
# row over sqrt(N_t) beta_f e^{-j k r}, los_rows' phase reference.

def _exact_steering(cfg, loc, f):
    h = los_rows(cfg, loc.theta, loc.distance, 1.0, f) * (f / cfg.carrier_freq)
    return h * np.exp(1j * cfg.wavenumber(f) * loc.distance) / math.sqrt(cfg.n_antennas)


def test_exact_steering_unit_norm_and_element_magnitude(cfg):
    loc = PolarLocation.from_angle_distance(0.4, 5.0)
    a = _exact_steering(cfg, loc, 29e9)
    assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(np.abs(a), 1 / math.sqrt(cfg.n_antennas))


def test_exact_steering_phase_from_element_distances(cfg):
    loc = PolarLocation.from_angle_distance(-0.25, 3.0)
    f = 31e9
    a = _exact_steering(cfg, loc, f)
    rn = element_distances(cfg, loc.theta, loc.distance)
    want = np.exp(-1j * cfg.wavenumber(f) * (rn - loc.distance))
    want = want / math.sqrt(cfg.n_antennas)
    assert np.allclose(a, want, atol=1e-14)


def test_approx_steering_far_field_limit(cfg):
    loc = PolarLocation(0.35, 0.0)
    f = 30e9
    b = approx_steering(cfg, loc, f)
    nd = cfg.element_indices() * cfg.spacing
    planar = np.exp(1j * cfg.wavenumber(f) * nd * 0.35) / math.sqrt(cfg.n_antennas)
    assert np.allclose(b, planar, atol=1e-14)


def test_steering_models_agree_at_long_range(cfg):
    loc = PolarLocation.from_angle_distance(0.2, 1000.0)
    a = _exact_steering(cfg, loc, 30e9)
    b = approx_steering(cfg, loc, 30e9)
    # quadratic-in-aperture expansion: residual phase shrinks as 1/r^2
    phase_err = np.abs(np.angle(a * np.conj(b) * math.sqrt(cfg.n_antennas) ** 2))
    assert phase_err.max() < 1e-3


def test_path_loss_is_wavelength_over_sphere_area(cfg):
    assert path_loss(cfg, 5.0, 30e9) == pytest.approx(
        (299792458.0 / 30e9) / (4 * np.pi * 5.0), rel=1e-12
    )


def test_los_channel_norms_and_gain_ratio(cfg):
    loc = PolarLocation.from_angle_distance(0.1, 4.0)
    chan = los_channel(cfg, loc)
    freqs = cfg.subcarrier_freqs()
    rows = channel_rows(cfg, chan.beta_c, chan.lengths, freqs)
    assert np.array_equal(rows, los_rows(cfg, loc.theta, loc.distance, chan.beta_c, freqs))
    norms = np.linalg.norm(rows, axis=1)
    # per-subcarrier amplitude scales inversely with frequency
    want = math.sqrt(cfg.n_antennas) * (cfg.carrier_freq / freqs) * chan.beta_c
    assert np.allclose(norms, want, rtol=1e-10)
    assert chan.beta_c == pytest.approx(path_loss(cfg, 4.0, cfg.carrier_freq))


def test_los_channel_needs_a_finite_distance(cfg):
    # alpha = 0 reads as an infinite distance, as does an explicit inf
    # (beamtrain train --distance inf)
    for r in (None, math.inf):
        with pytest.raises(ValueError, match="needs a finite distance"):
            los_channel(cfg, PolarLocation(0.2, 0.0), r)


def test_los_channel_quadratic_matches_its_steering_model(cfg):
    loc = PolarLocation.from_angle_distance(0.3, 3.0)
    chan = quadratic_channel(cfg, loc)
    for f in cfg.subcarrier_freqs():
        b = approx_steering(cfg, loc, f)
        g = abs(np.vdot(b, channel_rows(cfg, chan.beta_c, chan.lengths, f)))
        beta = (cfg.carrier_freq / f) * chan.beta_c
        assert g == pytest.approx(math.sqrt(cfg.n_antennas) * beta, rel=1e-10)


def test_codebook_grid_layout(cfg):
    book = polar_grid(cfg, 5, 3)
    assert len(book) == 15
    points = grid_locations(book)
    thetas = sorted({loc.theta for loc in points})
    assert thetas == pytest.approx(list(np.linspace(*cfg.angle_range, 5)))
    # angle-major ordering: first three entries share the first angle
    assert len({loc.theta for loc in points[:3]}) == 1
    alphas = [loc.alpha for loc in points[:3]]
    assert alphas == pytest.approx(list(np.linspace(cfg.alpha_min, cfg.alpha_max, 3)))


def test_codebook_rejects_an_empty_axis(cfg):
    with pytest.raises(ValueError, match="one angle and one ring"):
        PolarCodebook(cfg, [], [0.1])
    with pytest.raises(ValueError, match="one angle and one ring"):
        PolarCodebook(cfg, [0.0], [])


@pytest.mark.parametrize("thetas, rings", [([0.5, 1.5], [0.1]), ([math.nan], [0.1]),
                                           ([0.0], [-0.1]), ([0.0], [math.nan])])
def test_codebook_rejects_a_point_off_the_polar_domain(cfg, thetas, rings):
    with pytest.raises(ValueError, match="theta in"):
        PolarCodebook(cfg, thetas, rings)


def test_codebook_single_samples_centered(cfg):
    book = polar_grid(cfg, 1, 1)
    assert len(book) == 1
    loc = grid_locations(book)[0]
    assert loc.theta == pytest.approx(0.5 * sum(cfg.angle_range))
    assert loc.alpha == pytest.approx(0.5 * (cfg.alpha_min + cfg.alpha_max))


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (4, 1)])
def test_codebook_factors_are_approximate_steering(cfg, shape):
    # the codebook's angle x ring factoring, summed by the chirp-z kernel, gives
    # |h^T conj(b)|^2 of the codeword b at (thetas[a], rings[r]), in the
    # codebook's angle-major order
    book = polar_grid(cfg, *shape)
    freqs = cfg.subcarrier_freqs()[[0, 5]]
    rng = np.random.default_rng(1)
    rows = (2, 3, cfg.n_antennas)
    h = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    got = codeword_order_powers(book, h, freqs)
    assert got.shape == (2, 3, len(book))
    thetas = np.array([loc.theta for loc in grid_locations(book)])
    alphas = np.array([loc.alpha for loc in grid_locations(book)])
    for i, f in enumerate(freqs):
        want = np.abs(h[i] @ approx_steering(cfg, (thetas, alphas), f).conj().T) ** 2
        assert np.max(np.abs(got[i] - want)) < 1e-10 * np.max(want)


def test_codeword_is_approximate_steering(cfg):
    # the batched form over (theta, alpha) arrays gives each location's
    # steering vector, bit for bit
    book = polar_grid(cfg, 4, 2)
    f = cfg.subcarrier_freq(7)
    thetas = np.array([loc.theta for loc in grid_locations(book)])
    alphas = np.array([loc.alpha for loc in grid_locations(book)])
    grid = approx_steering(cfg, (thetas, alphas), f)
    assert grid.shape == (len(book), cfg.n_antennas)
    for row, loc in zip(grid, grid_locations(book)):
        assert np.array_equal(row, approx_steering(cfg, loc, f))
