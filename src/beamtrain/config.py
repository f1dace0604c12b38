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
import functools
import json
import math
import numbers
import typing
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

SIN_60 = math.sin(math.pi / 3)

# field metadata of a nested record that a JSON object may leave out, to be
# read with its defaults
DEFAULTS_IF_MISSING = {"defaults_if_missing": True}


class Record:
    """A dataclass written and read in the one JSON layout of fields_to_dict
    and fields_from_dict.  Writers take an optional path, readers text."""

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**fields_from_dict(cls, data))

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        write_text(path, text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str):
        """Parse JSON text (read files with Path.read_text).  Raises
        ValueError on a key repeated in one object."""
        return cls.from_dict(json.loads(text, object_pairs_hook=_unique_keys))


def _unique_keys(pairs: list) -> dict:
    """The dict of a JSON object's (key, value) pairs; raises ValueError
    naming the keys that repeat, which json.loads would read as the last."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError("repeated key(s) " + ", ".join(repr(k) for k in out if keys.count(k) > 1))
    return out


@dataclass(frozen=True)
class SystemConfig(Record):
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
        check_finite(self, "carrier_freq", "bandwidth", "angle_range", "distance_range",
                     "antenna_spacing")
        for name in ("n_antennas", "n_subcarriers"):
            check_integer(self, name, 1)
        if self.carrier_freq <= 0 or self.bandwidth < 0:
            raise ValueError("carrier_freq must be positive and bandwidth nonnegative")
        if self.bandwidth >= 2 * self.carrier_freq:
            raise ValueError("bandwidth must leave all subcarriers positive")
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

    def polar_phase(self, theta, alpha) -> np.ndarray:
        """Quadratic (Fresnel) phase u theta - u^2 alpha, u = n d, of every
        element: theta and alpha broadcast, plus a trailing N_t axis.  Times a
        wavenumber, the phase of every steering vector, pilot beam, grid
        codeword and gain kernel of the package."""
        u = self.element_indices() * self.spacing
        return np.multiply.outer(theta, u) - np.multiply.outer(alpha, u * u)

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


def check_finite(record, *names: str) -> None:
    """Reject any field among names of record that holds a non-finite
    number or a bool (JSON true reads as one): a tuple entry by entry; None
    passes.  A list is stored as a tuple, as a file read gives it, so the
    record equals and hashes like the one read back."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, list):
            value = tuple(value)
            object.__setattr__(record, name, value)
        entries = value if isinstance(value, tuple) else () if value is None else (value,)
        if any(isinstance(x, bool) for x in entries) or not all(map(math.isfinite, entries)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_integer(record, name: str, least: int | None, label: str | None = None) -> None:
    """Reject field `name` of the frozen dataclass record unless it is an
    integer >= least (any integer when least is None), and store it as a
    Python int (JSON writes Python ints only).  NumPy integers are Integral;
    bools are not counts.  The error names the field as label, by default
    its name."""
    value, label = getattr(record, name), label or name
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{label} must be an integer{bound}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{label} must be >= {least}, got {value!r}")
    object.__setattr__(record, name, int(value))


@functools.cache
def _layout(cls) -> tuple:
    """Whether record class cls has a config (a field cfg, or a nested record
    that has one), and (name, nested Record class or None, required, typed
    list) of each other field, resolved once per class."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        record = kind if isinstance(kind, type) and issubclass(kind, Record) else None
        required = (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
                    and "defaults_if_missing" not in f.metadata)
        if f.name != "cfg":
            fields.append((f.name, record, required, kind is list))
    has_config = "cfg" in cls.__dataclass_fields__ or any(
        record is not None and _layout(record)[0] for _, record, *_ in fields)
    return has_config, tuple(fields)


def fields_to_dict(obj, nested: bool = False) -> dict:
    """JSON-ready dict of the fields of record obj, in field order after its
    config, obj.cfg, under "config"; a nested record as its dict without
    "config" (it shares the outer one); tuples as lists."""
    has_config, fields = _layout(type(obj))
    out = {"config": fields_to_dict(obj.cfg)} if has_config and not nested else {}
    for name, record, *_ in fields:
        value = getattr(obj, name)
        if record is not None:
            value = fields_to_dict(value, nested=True)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def fields_from_dict(cls, data: dict, config: SystemConfig | None = None) -> dict:
    """Keyword arguments of record class cls from a dict in the layout of
    fields_to_dict: "config" gives the config and lists give tuples, except
    in a field typed list, which keeps its list.  A nested record is read
    with the outer config handed down as config, so its dict holds no
    "config"; one marked DEFAULTS_IF_MISSING that is missing reads with its
    defaults.  Raises ValueError naming every key that is not a field of cls
    and every field without a default that is missing."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object")
    has_config, fields = _layout(cls)
    top = has_config and config is None
    expected = {"config": True} if top else {}
    expected.update((name, required) for name, _, required, _ in fields)
    unknown = sorted(set(data) - set(expected))
    missing = [key for key, required in expected.items() if required and key not in data]
    problems = [f"{what} key(s) {', '.join(map(repr, keys))}"
                for what, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ValueError(f"{cls.__name__}: " + "; ".join(problems))
    if top:
        config = SystemConfig.from_dict(data["config"])
    kwargs = {"cfg": config} if "cfg" in cls.__dataclass_fields__ else {}
    for name, record, _, listed in fields:
        if record is not None:
            kwargs[name] = record(**fields_from_dict(record, data.get(name, {}), config))
        elif name in data:
            value = data[name]
            kwargs[name] = tuple(value) if isinstance(value, list) and not listed else value
    return kwargs


def write_text(path, text: str) -> None:
    """Write text to path; writers take an optional path, None writes nothing."""
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)


def curvature_law(theta, x):
    """(1 - theta^2) / (2 x): the curvature alpha at distance x, or the
    distance at curvature x (the law is its own inverse)."""
    return (1.0 - theta**2) / (2.0 * x)


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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha!r}")

    @classmethod
    def from_angle_distance(cls, theta: float, r: float) -> "PolarLocation":
        """Build from sine-angle and distance in meters (r = inf allowed)."""
        if not r > 0:  # also NaN
            raise ValueError("distance must be positive")
        alpha = 0.0 if math.isinf(r) else curvature_law(theta, r)
        return cls(theta=theta, alpha=alpha)

    @classmethod
    def from_physical(cls, angle_deg: float, r: float) -> "PolarLocation":
        return cls.from_angle_distance(math.sin(math.radians(angle_deg)), r)

    @property
    def distance(self) -> float:
        """Distance in meters; inf when alpha == 0."""
        if self.alpha == 0.0:
            return math.inf
        return curvature_law(self.theta, self.alpha)
