"""System geometry and user locations for a wideband ULA link.

The array is a uniform linear array whose elements are indexed symmetrically
about the midpoint (integers -N..N for an odd count 2N + 1, half-integers for
an even count), critically spaced at half the carrier wavelength unless
overridden.  Subcarriers are centered on the carrier.  User positions
are kept in polar coordinates (theta, alpha) where theta = sin(physical angle)
and alpha = (1 - theta^2) / (2 r) is the distance-ring curvature; alpha = 0 is
the far-field limit.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

SIN_60 = math.sin(math.pi / 3)


@dataclass(frozen=True)
class SystemConfig:
    """Static link parameters.

    Attributes
    ----------
    n_antennas : element count N_t
    carrier_freq : center frequency f_c in Hz
    bandwidth : total bandwidth B in Hz
    n_subcarriers : subcarrier count M
    antenna_spacing : element pitch d in meters; None means c / (2 f_c)
    angle_range : served sine-angle interval, subset of [-1, 1]
    distance_range : served distance interval (r_min, r_max) in meters
    """

    n_antennas: int = 256
    carrier_freq: float = 30e9
    bandwidth: float = 5e9
    n_subcarriers: int = 1024
    antenna_spacing: float | None = None
    angle_range: tuple[float, float] = (-SIN_60, SIN_60)
    distance_range: tuple[float, float] = (5.0, 200.0)

    def __post_init__(self):
        for name in ("carrier_freq", "bandwidth", "angle_range", "distance_range",
                     "antenna_spacing"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple)
                           else () if value is None else (value,))):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.carrier_freq <= 0 or self.bandwidth < 0:
            raise ValueError("carrier_freq must be positive and bandwidth nonnegative")
        if self.bandwidth >= 2 * self.carrier_freq:
            raise ValueError("bandwidth must leave all subcarriers positive")
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        lo, hi = self.angle_range
        if not (-1.0 <= lo < hi <= 1.0):
            raise ValueError("angle_range must be an increasing subset of [-1, 1]")
        rmin, rmax = self.distance_range
        if not (0 < rmin < rmax):
            raise ValueError("distance_range must satisfy 0 < r_min < r_max")
        if self.antenna_spacing is not None and self.antenna_spacing <= 0:
            raise ValueError("antenna_spacing must be positive")

    @property
    def spacing(self) -> float:
        if self.antenna_spacing is not None:
            return self.antenna_spacing
        return SPEED_OF_LIGHT / (2 * self.carrier_freq)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def aperture(self) -> float:
        return self.n_antennas * self.spacing

    @property
    def f_lower(self) -> float:
        return self.carrier_freq - self.bandwidth / 2

    @property
    def f_upper(self) -> float:
        return self.carrier_freq + self.bandwidth / 2

    @property
    def alpha_min(self) -> float:
        return 1.0 / (2 * self.distance_range[1])

    @property
    def alpha_max(self) -> float:
        return 1.0 / (2 * self.distance_range[0])

    def element_indices(self) -> np.ndarray:
        """Symmetric element offsets centered on the array midpoint.

        Exactly ``n_antennas`` values: integers -N..N for an odd count
        2N + 1, half-integers (e.g. -1.5, -0.5, 0.5, 1.5) for an even count.
        """
        return np.arange(self.n_antennas) - (self.n_antennas - 1) / 2

    def subcarrier_freq(self, m) -> float | np.ndarray:
        """Frequency of subcarrier m (1-based), f_c + (B/M)(m - 1 - (M-1)/2)."""
        m = np.asarray(m)
        if np.any(m < 1) or np.any(m > self.n_subcarriers):
            raise ValueError("subcarrier index out of range")
        f = self.carrier_freq + (self.bandwidth / self.n_subcarriers) * (
            m - 1 - (self.n_subcarriers - 1) / 2
        )
        return float(f) if f.ndim == 0 else f

    def subcarrier_freqs(self) -> np.ndarray:
        return self.subcarrier_freq(np.arange(1, self.n_subcarriers + 1))

    def wavenumber(self, f) -> float | np.ndarray:
        return 2 * np.pi * np.asarray(f) / SPEED_OF_LIGHT

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        return cls(**fields_from_dict(cls, data))

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        write_text(path, text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        """Parse JSON text with keys mirroring field names (read files with
        Path.read_text)."""
        return cls.from_dict(json.loads(text))


def fields_to_dict(obj, omit=()) -> dict:
    """JSON-ready dict of the fields of dataclass obj, in field order: cfg
    under "config" as its own dict, a nested record as its dict without
    "config" (it shares the outer one), tuples as lists.  Fields named in
    omit are left out."""
    out = {}
    for f in dataclasses.fields(obj):
        if f.name in omit:
            continue
        value = getattr(obj, f.name)
        if f.name == "cfg":
            out["config"] = value.to_dict()
        elif dataclasses.is_dataclass(value):
            out[f.name] = fields_to_dict(value, omit=("cfg",))
        else:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def fields_from_dict(cls, data: dict, omit=()) -> dict:
    """Keyword arguments of dataclass cls from a dict in the layout of
    fields_to_dict: "config" gives cfg and lists give tuples; a nested
    record stays a dict for the caller.  Raises ValueError naming every key
    that is not a field of cls (fields in omit included) and every field
    without a default that is missing."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object")
    fields = {("config" if f.name == "cfg" else f.name): f
              for f in dataclasses.fields(cls) if f.name not in omit}
    unknown = sorted(set(data) - set(fields))
    missing = [key for key, f in fields.items() if key not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    problems = [f"{what} key(s) {', '.join(map(repr, keys))}"
                for what, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ValueError(f"{cls.__name__}: " + "; ".join(problems))
    return {fields[key].name: SystemConfig.from_dict(value) if key == "config"
            else tuple(value) if isinstance(value, list) else value
            for key, value in data.items()}


def write_text(path, text: str) -> None:
    """Write text to path; writers take an optional path, None writes nothing."""
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)


@dataclass(frozen=True)
class PolarLocation:
    """A point in the array's polar coordinates.

    theta is the sine of the physical angle, in [-1, 1]; alpha >= 0 is the
    curvature (1 - theta^2) / (2 r), zero in the far-field limit.
    """

    theta: float
    alpha: float

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [-1, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @classmethod
    def from_angle_distance(cls, theta: float, r: float) -> "PolarLocation":
        """Build from sine-angle and distance in meters (r = inf allowed)."""
        if r <= 0:
            raise ValueError("distance must be positive")
        alpha = 0.0 if math.isinf(r) else (1.0 - theta**2) / (2.0 * r)
        return cls(theta=theta, alpha=alpha)

    @classmethod
    def from_physical(cls, angle_deg: float, r: float) -> "PolarLocation":
        return cls.from_angle_distance(math.sin(math.radians(angle_deg)), r)

    @property
    def distance(self) -> float:
        """Distance in meters; inf when alpha == 0."""
        if self.alpha == 0.0:
            return math.inf
        return (1.0 - self.theta**2) / (2.0 * self.alpha)
