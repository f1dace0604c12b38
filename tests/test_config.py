"""System geometry, subcarrier grid, and polar-coordinate conversions."""
import dataclasses
import math

import numpy as np
import pytest

from beamtrain import SPEED_OF_LIGHT, PolarLocation, SystemConfig
from beamtrain.harness import desk_experiment_spec


def test_default_spacing_is_half_carrier_wavelength():
    cfg = SystemConfig(64, 30e9, 5e9, 16)
    assert cfg.spacing == pytest.approx(SPEED_OF_LIGHT / (2 * 30e9), rel=1e-15)


def test_explicit_spacing_respected():
    cfg = SystemConfig(64, 30e9, 5e9, 16, antenna_spacing=7e-3)
    assert cfg.spacing == 7e-3


def test_element_indices_odd_count():
    cfg = SystemConfig(5, 30e9, 1e9, 4)
    assert np.array_equal(cfg.element_indices(), [-2, -1, 0, 1, 2])


def test_element_indices_even_count():
    cfg = SystemConfig(4, 30e9, 1e9, 4)
    assert np.array_equal(cfg.element_indices(), [-1.5, -0.5, 0.5, 1.5])


def test_element_indices_centered():
    for n in (1, 2, 63, 64):
        idx = SystemConfig(n, 30e9, 1e9, 4).element_indices()
        assert len(idx) == n
        assert idx.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(idx) == 1.0)


def test_polar_phase_broadcasts_its_parameters_over_a_trailing_element_axis():
    cfg = SystemConfig(4, 30e9, 1e9, 4, antenna_spacing=0.5)
    u = np.array([-0.75, -0.25, 0.25, 0.75])
    assert np.array_equal(cfg.polar_phase(0.2, 0.1), 0.2 * u - 0.1 * (u * u))
    theta, alpha = np.array([[0.1], [-0.3], [0.5]]), np.array([0.0, 0.2])
    got = cfg.polar_phase(theta, alpha)
    assert got.shape == (3, 2, 4)
    assert np.array_equal(got[2, 1], 0.5 * u - 0.2 * (u * u))


def test_band_edges():
    cfg = SystemConfig(64, 30e9, 5e9, 16)
    assert cfg.f_lower == 27.5e9
    assert cfg.f_upper == 32.5e9


def test_subcarrier_grid_symmetric_about_carrier():
    cfg = SystemConfig(64, 30e9, 5e9, 256)
    freqs = cfg.subcarrier_freqs()
    assert len(freqs) == 256
    step = cfg.bandwidth / cfg.n_subcarriers
    assert np.allclose(np.diff(freqs), step)
    assert freqs.mean() == pytest.approx(cfg.carrier_freq, rel=1e-12)
    assert freqs[0] == pytest.approx(cfg.carrier_freq - step * (256 - 1) / 2)
    assert freqs[-1] == pytest.approx(cfg.carrier_freq + step * (256 - 1) / 2)


def test_single_subcarrier_sits_at_carrier():
    cfg = SystemConfig(64, 30e9, 5e9, 1)
    assert cfg.subcarrier_freq(1) == pytest.approx(30e9)


def test_subcarrier_index_bounds():
    cfg = SystemConfig(64, 30e9, 5e9, 16)
    with pytest.raises(ValueError):
        cfg.subcarrier_freq(0)
    with pytest.raises(ValueError):
        cfg.subcarrier_freq(17)
    # vectorized indices work
    assert np.allclose(cfg.subcarrier_freq(np.array([1, 16])),
                       [cfg.subcarrier_freqs()[0], cfg.subcarrier_freqs()[-1]])


def test_alpha_bounds_from_distance_range():
    cfg = SystemConfig(64, 30e9, 5e9, 16, distance_range=(2.0, 10.0))
    assert cfg.alpha_min == pytest.approx(1 / 20.0)
    assert cfg.alpha_max == pytest.approx(1 / 4.0)


def test_wavenumber():
    cfg = SystemConfig(64, 30e9, 5e9, 16)
    assert cfg.wavenumber(30e9) == pytest.approx(2 * np.pi * 30e9 / SPEED_OF_LIGHT)


def test_default_angle_range_symmetric():
    cfg = SystemConfig(64, 30e9, 5e9, 16)
    lo, hi = cfg.angle_range
    assert lo == pytest.approx(-math.sin(math.pi / 3))
    assert hi == pytest.approx(math.sin(math.pi / 3))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_antennas=0),
        dict(n_subcarriers=0),
        dict(carrier_freq=-1e9),
        dict(bandwidth=70e9),  # subcarriers would go nonpositive
        dict(angle_range=(0.5, 0.5)),
        dict(angle_range=(-1.5, 0.5)),
        dict(distance_range=(10.0, 2.0)),
        dict(distance_range=(0.0, 2.0)),
        dict(antenna_spacing=0.0),
        # non-finite fields are rejected by name, before any comparison
        dict(carrier_freq=math.nan),
        dict(carrier_freq=math.inf),
        dict(bandwidth=math.nan),
        dict(bandwidth=math.inf),
        dict(angle_range=(math.nan, 0.5)),
        dict(angle_range=(-0.5, math.inf)),
        dict(distance_range=(2.0, math.inf)),
        dict(distance_range=(math.nan, 10.0)),
        dict(antenna_spacing=math.nan),
        dict(antenna_spacing=math.inf),
        # counts are integers: 64.5 would build 65 elements and True one
        dict(n_antennas=64.0),
        dict(n_antennas=64.5),
        dict(n_antennas=True),
        dict(n_subcarriers=16.0),
        dict(n_subcarriers=True),
        # a JSON true is no number: (true, 200) read as a 1-200 m range
        dict(distance_range=(True, 200.0)),
        dict(angle_range=(-0.5, True)),
        dict(carrier_freq=True),
        dict(antenna_spacing=True),
    ],
)
def test_config_validation(kwargs):
    base = dict(n_antennas=64, carrier_freq=30e9, bandwidth=5e9, n_subcarriers=16)
    base.update(kwargs)
    with pytest.raises(ValueError) as err:
        SystemConfig(**base)
    for name, value in kwargs.items():
        entries = value if isinstance(value, tuple) else (value,)
        holds_bool = name not in ("n_antennas", "n_subcarriers") and any(
            isinstance(x, bool) for x in entries)
        if holds_bool or not np.all(np.isfinite(value)):
            assert f"{name} must be finite" in str(err.value)


def test_numpy_integer_counts_are_accepted():
    cfg = SystemConfig(np.int64(64), 30e9, 5e9, np.int32(16))
    assert len(cfg.element_indices()) == 64 and len(cfg.subcarrier_freqs()) == 16
    # stored as Python ints, so the config and any spec holding it write JSON
    assert SystemConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("field", ["angle_range", "theta_t_list", "axis_values"])
def test_a_list_in_a_tuple_field_is_stored_as_a_tuple(desk_plan, field):
    # raised "TypeError: must be real number, not list", naming neither the
    # field nor the value, where a file read gives a tuple
    record = {"angle_range": desk_plan.cfg, "theta_t_list": desk_plan,
              "axis_values": desk_experiment_spec()}[field]
    value = getattr(record, field)
    again = dataclasses.replace(record, **{field: list(value)})
    assert getattr(again, field) == value and isinstance(getattr(again, field), tuple)
    assert again == record and hash(again) == hash(record)
    assert type(record).from_json(again.to_json()) == again
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(record, **{field: [math.nan, *value[1:]]})


def test_config_json_round_trip():
    cfg = SystemConfig(64, 30e9, 5e9, 256, distance_range=(2.0, 10.0))
    again = SystemConfig.from_json(cfg.to_json())
    assert again == cfg


def test_polar_location_from_angle_distance():
    loc = PolarLocation.from_angle_distance(0.6, 10.0)
    assert loc.theta == 0.6
    assert loc.alpha == pytest.approx((1 - 0.36) / 20.0)
    assert loc.distance == pytest.approx(10.0)


def test_polar_location_from_physical_angle():
    loc = PolarLocation.from_physical(30.0, 8.0)
    assert loc.theta == pytest.approx(0.5)
    assert loc.distance == pytest.approx(8.0)


def test_polar_location_infinite_distance():
    assert PolarLocation(0.3, 0.0).distance == math.inf
    assert PolarLocation.from_angle_distance(0.3, math.inf).alpha == 0.0


def test_polar_location_validation():
    with pytest.raises(ValueError):
        PolarLocation(1.2, 0.0)
    with pytest.raises(ValueError):
        PolarLocation(0.0, -1e-3)
    with pytest.raises(ValueError):
        PolarLocation.from_angle_distance(0.0, 0.0)
    # a non-finite curvature would give a NaN rate
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PolarLocation(0.2, alpha)
    with pytest.raises(ValueError):
        PolarLocation.from_angle_distance(0.2, math.nan)
