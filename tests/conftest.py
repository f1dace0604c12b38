"""Shared fixtures: reference configurations, designed plans, one
desk-scale Monte-Carlo sweep reused by the ordering tests, a synthetic
channel with quadratic steering, and one observation of a plan's pilots."""
import numpy as np
import pytest

from beamtrain import Channel, DesignInputs, PolarCodebook, PolarLocation, SystemConfig, design
from beamtrain.arrays import _uniform_samples, path_loss
from beamtrain.training import codeword_powers, observe_params
from beamtrain.harness import (
    desk_config,
    desk_experiment_spec,
    fullscale_config,
    run_sweep,
)


@pytest.fixture(scope="session")
def config_a() -> SystemConfig:
    """128 antennas, 10 GHz carrier, 2 GHz band, 512 subcarriers, 5-200 m."""
    return SystemConfig(
        n_antennas=128,
        carrier_freq=10e9,
        bandwidth=2e9,
        n_subcarriers=512,
        distance_range=(5.0, 200.0),
    )


@pytest.fixture(scope="session")
def plan_a_base(config_a):
    return design(DesignInputs(cfg=config_a, gamma=1.0))


@pytest.fixture(scope="session")
def plan_a(config_a):
    """Config-A plan with the curvature phase-slope pinned at 0.5."""
    return design(DesignInputs(cfg=config_a, gamma=1.0, alpha_p_override=0.5))


@pytest.fixture(scope="session")
def main_cfg() -> SystemConfig:
    return fullscale_config()


@pytest.fixture(scope="session")
def main_plan(main_cfg):
    return design(DesignInputs(cfg=main_cfg, gamma=0.95, k_override=3))


@pytest.fixture(scope="session")
def desk_cfg() -> SystemConfig:
    return desk_config()


@pytest.fixture(scope="session")
def desk_plan():
    return design(desk_experiment_spec().design_inputs())


@pytest.fixture(scope="session")
def desk_sweep():
    """200-trial SNR sweep at 5/15/20 dB, all schemes, desk geometry."""
    spec = desk_experiment_spec(
        sweep_axis="snr_db", axis_values=(5.0, 15.0, 20.0), n_trials=200
    )
    return run_sweep(spec)


def sweep_rate(result, scheme: str, value: float) -> float:
    """Mean rate of one (scheme, axis value) row."""
    for row in result.rows:
        if row["scheme"] == scheme and row["axis_value"] == value:
            return row["mean_rate"]
    raise KeyError((scheme, value))


def quadratic_channel(cfg, loc) -> Channel:
    """Line-of-sight channel whose steering is the quadratic (Fresnel)
    expansion the beamformers and estimators are built on, not the exact
    spherical wavefront of los_channel: path lengths r - polar_phase(theta,
    alpha), a self-consistent synthetic scenario in which a user at a beam's
    focus sees that beam's full gain."""
    r = loc.distance
    return Channel(path_loss(cfg, r, cfg.carrier_freq), r - cfg.polar_phase(loc.theta, loc.alpha))


def polar_grid(cfg, angles: int, rings: int, band=None) -> PolarCodebook:
    """Uniform polar grid as the scheme table builds it: `angles` angles over
    the served range times `rings` rings over band, by default the config's
    [alpha_min, alpha_max]."""
    band = (cfg.alpha_min, cfg.alpha_max) if band is None else band
    return PolarCodebook(cfg, _uniform_samples(*cfg.angle_range, angles),
                         _uniform_samples(*band, rings))


def codeword_order_powers(book, h, freqs) -> np.ndarray:
    """codeword_powers of channel rows h (C, T, N_t) at each frequency of
    freqs (C,) alone, at unit weight: (C, T, G), in codeword order."""
    return np.stack([codeword_powers(book, h.shape[1], lambda f, i=i: h[i:i + 1],
                                     freqs[i:i + 1], np.ones(1)) for i in range(len(freqs))])


def grid_locations(grid) -> list:
    """The points of a polar grid (or of a bank's grid) in grid order:
    angle-major, then ring."""
    return [PolarLocation(float(t), float(a)) for t in grid.thetas for a in grid.rings]


def observe_plan(channel, plan, snr, rng) -> np.ndarray:
    """Magnitudes (M, K) of all K pilots of the plan, columns in pilot order."""
    return observe_params(plan.cfg, channel, plan.params(np.arange(1, plan.K + 1)), snr, rng)
