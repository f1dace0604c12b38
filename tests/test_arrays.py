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
from beamtrain.arrays import element_distances, los_rows, path_loss


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
    norms = np.linalg.norm(chan.per_subcarrier, axis=1)
    want = math.sqrt(cfg.n_antennas) * chan.path_gains
    assert np.allclose(norms, want, rtol=1e-10)
    # per-subcarrier amplitude scales inversely with frequency
    assert np.allclose(chan.path_gains, (cfg.carrier_freq / freqs) * chan.beta_c,
                       rtol=1e-12)
    assert chan.beta_c == pytest.approx(path_loss(cfg, 4.0, cfg.carrier_freq))
    assert chan.n_subcarriers == cfg.n_subcarriers


def test_los_channel_quadratic_matches_its_steering_model(cfg):
    loc = PolarLocation.from_angle_distance(0.3, 3.0)
    chan = los_channel(cfg, loc, steering="quadratic")
    for i, f in enumerate(cfg.subcarrier_freqs()):
        b = approx_steering(cfg, loc, f)
        g = abs(np.vdot(b, chan.per_subcarrier[i]))
        assert g == pytest.approx(math.sqrt(cfg.n_antennas) * chan.path_gains[i],
                                  rel=1e-10)


def test_los_channel_rejects_unknown_steering(cfg):
    loc = PolarLocation.from_angle_distance(0.0, 5.0)
    with pytest.raises(ValueError):
        los_channel(cfg, loc, steering="cubic")


def test_codebook_grid_layout(cfg):
    book = PolarCodebook(cfg, 5, 3)
    assert len(book) == 15
    thetas = sorted({loc.theta for loc in book.locations})
    assert thetas == pytest.approx(list(np.linspace(*cfg.angle_range, 5)))
    # angle-major ordering: first three entries share the first angle
    assert len({loc.theta for loc in book.locations[:3]}) == 1
    alphas = [loc.alpha for loc in book.locations[:3]]
    assert alphas == pytest.approx(list(np.linspace(cfg.alpha_min, cfg.alpha_max, 3)))


def test_codebook_single_samples_centered(cfg):
    book = PolarCodebook(cfg, 1, 1)
    assert len(book) == 1
    loc = book.locations[0]
    assert loc.theta == pytest.approx(0.5 * sum(cfg.angle_range))
    assert loc.alpha == pytest.approx(0.5 * (cfg.alpha_min + cfg.alpha_max))


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (4, 1)])
def test_codebook_factors_are_approximate_steering(cfg, shape):
    # ang[a] * ring[r] is the codeword at (thetas[a], rings[r]), in the
    # codebook's angle-major order
    book = PolarCodebook(cfg, *shape)
    freqs = cfg.subcarrier_freqs()[[0, 5]]
    ang, ring = book.factors(freqs)
    assert ang.shape == (2, shape[0], cfg.n_antennas)
    assert ring.shape == (2, shape[1], cfg.n_antennas)
    grid = (ang[:, :, None, :] * ring[:, None]).reshape(2, -1, cfg.n_antennas)
    thetas = np.array([loc.theta for loc in book.locations])
    alphas = np.array([loc.alpha for loc in book.locations])
    for i, f in enumerate(freqs):
        want = approx_steering(cfg, (thetas, alphas), f)
        assert np.max(np.abs(grid[i] - want)) < 1e-10


def test_codeword_is_approximate_steering(cfg):
    # the batched form over (theta, alpha) arrays gives each location's
    # steering vector, bit for bit
    book = PolarCodebook(cfg, 4, 2)
    f = cfg.subcarrier_freq(7)
    thetas = np.array([loc.theta for loc in book.locations])
    alphas = np.array([loc.alpha for loc in book.locations])
    grid = approx_steering(cfg, (thetas, alphas), f)
    assert grid.shape == (len(book), cfg.n_antennas)
    for row, loc in zip(grid, book.locations):
        assert np.array_equal(row, approx_steering(cfg, loc, f))
