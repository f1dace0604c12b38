"""The exhaustive search's two-number noise law and its power kernel.

The law replaces the per-subcarrier noise sum with one complex normal and one
gamma per codeword; it is exact in distribution, so it is checked against the
direct sum by moments and by a two-sample Kolmogorov-Smirnov test.  The
kernel, by the chirp-z and by the matrix product, is checked against the
codeword contraction built from approx_steering.
"""
import numpy as np
import pytest
from scipy.stats import ks_2samp

from beamtrain import SystemConfig
from beamtrain.arrays import approx_steering
from beamtrain.harness import desk_config, fullscale_config
from beamtrain import training
from beamtrain.training import exhaustive_moments

from conftest import codeword_order_powers, grid_locations, polar_grid

DRAWS = 200_000


def _direct_powers(p, sigma, rng):
    """sum_m |p_m + sigma z_m|^2 per draw, z ~ CN(0, I_M) drawn per subcarrier."""
    z = (rng.standard_normal((DRAWS, len(p))) + 1j * rng.standard_normal((DRAWS, len(p))))
    y = p + sigma * z / np.sqrt(2)
    return np.sum(y.real * y.real + y.imag * y.imag, axis=1)


@pytest.mark.parametrize("m", [8, 1])
@pytest.mark.parametrize("sigma", [0.3, 2.0])
def test_law_matches_the_direct_noise_sum(m, sigma):
    rng = np.random.default_rng(m)
    p = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    a_true = float(np.sum(np.abs(p) ** 2))
    direct = _direct_powers(p, sigma, np.random.default_rng(10 + m))
    a, b, c = exhaustive_moments(np.full(DRAWS, a_true), m, np.random.default_rng(20 + m))
    law = a + 2 * sigma * b + sigma * sigma * c

    # E = A + M sigma^2 and Var = 2 sigma^2 A + M sigma^4 for both samples
    mean = a_true + m * sigma**2
    var = 2 * sigma**2 * a_true + m * sigma**4
    for sample in (direct, law):
        assert abs(sample.mean() - mean) < 5 * np.sqrt(var / DRAWS)
        assert sample.var() == pytest.approx(var, rel=0.03)
    assert ks_2samp(direct, law).pvalue > 0.01


def test_law_draws_no_gamma_noise_on_one_subcarrier():
    # Gamma(0, 1) is 0: one subcarrier's power is |p + sigma w|^2 exactly
    a, b, c = exhaustive_moments(np.array([[2.0, 0.5]]), 1, np.random.default_rng(3))
    x = np.random.default_rng(3).standard_normal((2, 1, 2)) / np.sqrt(2)
    assert np.array_equal(c, x[0] ** 2 + x[1] ** 2)
    assert np.array_equal(b, np.sqrt(a) * x[0])


def _contraction(cfg, book, h, f):
    thetas = np.array([loc.theta for loc in grid_locations(book)])
    alphas = np.array([loc.alpha for loc in grid_locations(book)])
    return np.abs(h @ approx_steering(cfg, (thetas, alphas), f).conj().T) ** 2


GRIDS = {
    "desk": (desk_config(), 192, 8),  # the dense desk codebook
    "one-angle": (desk_config(), 1, 4),  # one angle: a step of 0
    "one-ring": (desk_config(), 24, 1),
    "63-antennas": (SystemConfig(63, 30e9, 5e9, 8, distance_range=(2.0, 10.0)), 17, 3),
    "fullscale": (fullscale_config(), 1024, 10),
}


# each grid on the chirp-z, then on the matrix product, whatever _by_product
# would pick
@pytest.mark.parametrize("cfg, angles, rings, by_product",
                         [grid + (False,) for grid in GRIDS.values()]
                         + [grid + (True,) for grid in GRIDS.values()],
                         ids=list(GRIDS) + [f"{name}-product" for name in GRIDS])
def test_chirp_z_powers_match_the_steering_contraction(cfg, angles, rings, by_product,
                                                       monkeypatch):
    monkeypatch.setattr(training, "_by_product", lambda grid, n_rows: by_product)
    book = polar_grid(cfg, angles, rings)
    freqs = cfg.subcarrier_freqs()[[0, cfg.n_subcarriers // 2, -1]]
    rng = np.random.default_rng(angles)
    rows = (len(freqs), 4, cfg.n_antennas)
    h = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    got = codeword_order_powers(book, h, freqs)
    assert got.shape == (len(freqs), 4, len(book))
    for i, f in enumerate(freqs):
        want = _contraction(cfg, book, h[i], f)
        assert np.max(np.abs(got[i] - want)) < 1e-10 * np.max(want)


@pytest.mark.parametrize("cfg, angles, rings, trials, by_product", [
    (desk_config(), 192, 8, 40, True),  # the desk sweep
    (fullscale_config(), 32, 2, 20, True),  # the fullscale_grid benchmark
    (fullscale_config(), 1024, 10, 200, False),  # the full-scale default sweep
    (desk_config(), 96, 8, 1, False),  # one CLI exhaustive call
], ids=["desk", "fullscale-grid", "fullscale-default", "single-trial"])
def test_the_product_sums_the_small_grids_and_the_chirp_z_the_rest(
        cfg, angles, rings, trials, by_product):
    assert training._by_product(polar_grid(cfg, angles, rings), trials) == by_product
