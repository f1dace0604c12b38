"""Pilot parameter design for distance-annulus beam sweeping.

Given the system geometry and a served polar region, choose the delay and
phase-shifter parameters so that every pilot's beams sweep the angle range
exactly, land on interleaved distance annuli, and the pilot set jointly
covers the region at the 3 dB level.  The angle parameters come first (they
set the sweep rate), then the distance slope, then the pilot count needed to
close the inter-annulus gaps and to cover the angle range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, Record, SystemConfig, check_finite, check_integer, write_text
from .beamsplit import (
    FRESNEL_3DB,
    DIRICHLET_3DB,
    BeamFocus,
    TdPsParams,
    element_delays,
    predicted_focus,
)


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class DesignInputs(Record):
    """Inputs to the pilot design.

    gamma in (0, 1] trades angle sampling density against sweep speed
    (1 = critical 3 dB spacing).  alpha_min/alpha_max default to the config's
    served distance range.  k_override forces at least that many pilots;
    alpha_p_override substitutes the phase-shifter curvature (must still meet
    the coverage slope bound).  The config must have positive bandwidth and
    keep half-wavelength antenna spacing: the focus prediction's lobe periods
    2 p and 2 q / d assume it.  It must have at least two subcarriers: the
    pilot count is sized from the band edges, which one subcarrier does not
    occupy.
    """

    cfg: SystemConfig
    gamma: float = 1.0
    alpha_min: float | None = None
    alpha_max: float | None = None
    k_override: int | None = None
    alpha_p_override: float | None = None

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        check_finite(self, "gamma", "alpha_min", "alpha_max", "alpha_p_override")
        lo, hi = self.alpha_bounds
        if not 0 <= lo < hi:
            raise ValueError("need 0 <= alpha_min < alpha_max")
        if self.k_override is not None:
            check_integer(self, "k_override", 1)
        if self.cfg.n_subcarriers < 2:
            raise ValueError(
                "the pilots sweep their beams across subcarriers: need n_subcarriers >= 2"
            )
        if self.cfg.bandwidth <= 0:
            raise ValueError(
                "beam split needs bandwidth: the pilots sweep their beams across "
                "the band, so bandwidth must be positive"
            )
        d = self.cfg.antenna_spacing
        half_wave = SPEED_OF_LIGHT / (2 * self.cfg.carrier_freq)
        if d is not None and not math.isclose(d, half_wave, rel_tol=1e-12):
            raise ValueError(
                f"antenna_spacing {d!r} m is not supported: the design and focus "
                f"prediction assume half-wavelength spacing c / (2 f_c) = {half_wave!r} m"
            )

    @property
    def alpha_bounds(self) -> tuple[float, float]:
        lo = self.cfg.alpha_min if self.alpha_min is None else self.alpha_min
        hi = self.cfg.alpha_max if self.alpha_max is None else self.alpha_max
        return lo, hi


def design_angle_params(inputs: DesignInputs) -> tuple[float, int]:
    """Angle sweep parameters (theta_p, p_M).

    The sweep-rate budget 1.76 gamma f_L M / (N_t B) splits into the period
    integer p_M at the top subcarrier and the fractional phase-shifter part
    theta_p = budget - 2 p_M.
    """
    cfg = inputs.cfg
    budget = (
        2 * DIRICHLET_3DB * inputs.gamma * cfg.f_lower * cfg.n_subcarriers
        / (cfg.n_antennas * cfg.bandwidth)
    )
    p_m = math.floor(budget / 2)
    theta_p = budget - 2 * p_m
    return theta_p, p_m


def first_intercept(cfg: SystemConfig, theta_p: float, p_m: int, ending: float = 1.0) -> float:
    """Delay parameter theta_t putting the top subcarrier's focus at `ending`."""
    f_top = cfg.subcarrier_freq(cfg.n_subcarriers)
    return ending - (cfg.carrier_freq / f_top) * (theta_p + 2 * p_m)


def starting_period_integer(cfg: SystemConfig, theta_t: float, theta_p: float) -> int:
    """Period integer p_1 at the low band edge, nearest-integer rule."""
    val = (-theta_t * cfg.f_lower / cfg.carrier_freq - theta_p) / 2.0
    return round_half_away(val)


def distance_slope_bound(cfg: SystemConfig, alpha_min: float, alpha_max: float) -> float:
    """Minimum curvature-sweep slope (alpha_p + 2 q / d) covering the range."""
    span = cfg.carrier_freq / cfg.f_lower - cfg.carrier_freq / cfg.f_upper
    return (alpha_max - alpha_min) / span


def alpha_t_range(cfg: SystemConfig, alpha_min: float, alpha_max: float, slope: float):
    """Interval (lo, hi) of alpha_t keeping the band-edge annuli of a distance
    sweep of this slope in [alpha_min, alpha_max]; hi is clamped to >= lo."""
    lo = alpha_max - (cfg.carrier_freq / cfg.f_lower) * slope
    hi = alpha_min - (cfg.carrier_freq / cfg.f_upper) * slope
    return lo, max(hi, lo)


def design_distance_params(inputs: DesignInputs) -> tuple[float, int, float, tuple[float, float]]:
    """Distance sweep parameters (alpha_p, q, alpha_t, alpha_t interval).

    The slope alpha_p + 2 q / d reaches distance_slope_bound (an
    alpha_p_override replaces alpha_p, and the plan checks the bound);
    alpha_t is the midpoint of alpha_t_range.
    """
    cfg = inputs.cfg
    amin, amax = inputs.alpha_bounds
    bound = distance_slope_bound(cfg, amin, amax)
    d = cfg.spacing
    q = math.floor(bound * d / 2)
    alpha_p = bound - 2 * q / d if inputs.alpha_p_override is None else inputs.alpha_p_override
    lo, hi = alpha_t_range(cfg, amin, amax, alpha_p + 2 * q / d)
    return alpha_p, q, 0.5 * (lo + hi), (lo, hi)


def angle_coverage(cfg: SystemConfig, theta_p: float, p_m: int) -> tuple[float, int]:
    """Angle span S = (theta_p + 2 p_M)(f_c / f_1 - f_c / f_M) that one
    pilot's beams sweep across the band, and the ceil(2 / S) pilots whose
    sweeps, staggered by 2 / K, cover [-1, 1]."""
    f_c = cfg.carrier_freq
    span = (theta_p + 2 * p_m) * (
        f_c / cfg.subcarrier_freq(1) - f_c / cfg.subcarrier_freq(cfg.n_subcarriers))
    return span, math.ceil(2.0 / span - 1e-9)


def pilot_count(inputs: DesignInputs, theta_p: float, p1: int, p_m: int, alpha_p: float,
                q: int) -> int:
    """Pilots needed to cover the served region, floored at any override: the
    larger of the distance term, which lets interleaved annuli close the 3 dB
    distance gaps,
    K = ceil(slope N_t^2 c f_H / (4 (theta_p + 2 p1) b^2 f_c^2)),
    and the angle term of angle_coverage."""
    cfg = inputs.cfg
    if theta_p + 2 * p1 <= 0:
        raise ValueError("angle sweep slope must be positive")
    slope = alpha_p + 2 * q / cfg.spacing
    val = (
        slope * cfg.n_antennas**2 * SPEED_OF_LIGHT * cfg.f_upper
        / (4 * (theta_p + 2 * p1) * FRESNEL_3DB**2 * cfg.carrier_freq**2)
    )
    if not math.isfinite(val):
        raise ValueError(f"the distance term of the pilot count is not finite: {val!r}")
    k = math.ceil(val - 1e-9)
    return max(inputs.k_override or 1, k, angle_coverage(cfg, theta_p, p_m)[1])


def staggered_endings(n_pilots: int) -> tuple[float, ...]:
    """Ending directions 1 - 2(k - 1) / K of pilots k = 1..K: the top
    subcarrier's focus of each pilot, staggered by 2 / K."""
    return tuple(1.0 - 2.0 * (k - 1) / n_pilots for k in range(1, n_pilots + 1))


def staggered_intercepts(cfg: SystemConfig, theta_p: float, p_m: int, n_pilots: int
                         ) -> tuple[float, ...]:
    """Delay intercepts theta_t of pilots k = 1..K, each ending its top
    subcarrier's focus at its staggered ending direction."""
    return tuple(first_intercept(cfg, theta_p, p_m, end) for end in staggered_endings(n_pilots))


@dataclass(frozen=True)
class PilotPlan(Record):
    """Complete parameter set for one training sweep.

    theta_t_list has one delay intercept per pilot; theta_p, alpha_p, alpha_t,
    q and pM are shared.  K, p1, ending_directions, alpha_t_interval and
    alpha_slope_min follow from these and the inputs, and are not stored.
    Each intercept must end its pilot at its ending direction
    (staggered_intercepts, within 1e-9).
    """

    inputs: DesignInputs
    theta_p: float
    theta_t_list: tuple[float, ...]
    alpha_p: float
    alpha_t: float
    pM: int
    q: int

    def __post_init__(self):
        if not self.theta_t_list:
            raise ValueError("a plan needs at least one delay intercept")
        if not 0 < self.theta_p + 2 * self.pM:
            raise ValueError("angle sweep slope must be positive")
        want = staggered_intercepts(self.cfg, self.theta_p, self.pM, self.K)
        for k, (got, end, exp) in enumerate(zip(self.theta_t_list, self.ending_directions, want),
                                            start=1):
            if abs(got - exp) > 1e-9:
                raise ValueError(f"theta_t {got!r} of pilot {k} does not end its sweep at "
                                 f"{end!r}: the ending rule gives {exp!r}")
        if self.alpha_slope + 1e-9 < self.alpha_slope_min:
            raise ValueError(f"distance slope {self.alpha_slope!r} is below the coverage "
                             f"slope bound {self.alpha_slope_min!r} of the served range")
        lo, hi = self.alpha_t_interval
        if not lo - 1e-9 <= self.alpha_t <= hi + 1e-9:
            raise ValueError(f"alpha_t {self.alpha_t!r} lies outside [{lo!r}, {hi!r}]")

    @property
    def cfg(self) -> SystemConfig:
        return self.inputs.cfg

    @property
    def K(self) -> int:
        return len(self.theta_t_list)

    @property
    def p1(self) -> int:
        return starting_period_integer(self.cfg, self.theta_t_list[0], self.theta_p)

    @property
    def ending_directions(self) -> tuple[float, ...]:
        return staggered_endings(self.K)

    @property
    def alpha_slope(self) -> float:
        return self.alpha_p + 2 * self.q / self.cfg.spacing

    @property
    def alpha_slope_min(self) -> float:
        return distance_slope_bound(self.cfg, *self.inputs.alpha_bounds)

    @property
    def alpha_t_interval(self) -> tuple[float, float]:
        return alpha_t_range(self.cfg, *self.inputs.alpha_bounds, self.alpha_slope)

    def params(self, k) -> TdPsParams:
        """Beamformer parameters of pilot k (1-based), or of an array of
        pilots: one TdPsParams whose theta_t has k's shape."""
        theta_t = np.asarray(self.theta_t_list)[np.asarray(k) - 1]
        return TdPsParams(
            theta_t=float(theta_t) if theta_t.ndim == 0 else theta_t,
            theta_p=self.theta_p,
            alpha_t=self.alpha_t,
            alpha_p=self.alpha_p,
        )

    def focus(self, m, k, clamp: bool = False, served: bool = False) -> BeamFocus:
        """Predicted focus of subcarrier m (1-based) of pilot k; arrays of m
        and k broadcast to one focus per beam.  served=True takes the lobe
        inside the served angle range where the beam has one there."""
        f = self.cfg.subcarrier_freq(m)
        return predicted_focus(self.cfg, self.params(k), f, q=self.q, clamp=clamp,
                               served=served)

    @classmethod
    def from_json(cls, text: str) -> "PilotPlan":
        """Parse JSON text (read files with Path.read_text).  Defined on this
        class, not only on Record: perfbench/spans.py wraps it here."""
        return super().from_json(text)

    def summary(self) -> str:
        cfg = self.cfg
        amin, amax = self.inputs.alpha_bounds
        span, n_angle = angle_coverage(cfg, self.theta_p, self.pM)
        lines = [
            f"pilot plan: {self.K} pilot(s), {cfg.n_subcarriers} subcarriers, "
            f"{cfg.n_antennas} antennas",
            f"  band {cfg.f_lower / 1e9:.3f}-{cfg.f_upper / 1e9:.3f} GHz "
            f"(carrier {cfg.carrier_freq / 1e9:.3f} GHz)",
            f"  angle sweep: theta_p = {self.theta_p:.6f}, p1 = {self.p1}, "
            f"pM = {self.pM}",
            f"  angle coverage: span {span:.6f} per pilot, {n_angle} pilot(s) cover [-1, 1]",
            f"  distance sweep: alpha_p = {self.alpha_p:.6f}, q = {self.q}, "
            f"alpha_t = {self.alpha_t:.6f} (slope {self.alpha_slope:.6f} >= "
            f"{self.alpha_slope_min:.6f})",
            f"  served alpha range [{amin:.6f}, {amax:.6f}] 1/m",
        ]
        for k, (tt, end) in enumerate(zip(self.theta_t_list, self.ending_directions), 1):
            lines.append(f"  pilot {k}: theta_t = {tt:.6f}, ending direction {end:+.6f}")
        return "\n".join(lines)


def design(inputs: DesignInputs) -> PilotPlan:
    """Run the full design: angle params, distance params, pilot count,
    per-pilot delay intercepts."""
    cfg = inputs.cfg
    theta_p, p_m = design_angle_params(inputs)
    p1 = starting_period_integer(cfg, first_intercept(cfg, theta_p, p_m), theta_p)
    alpha_p, q, alpha_t, _ = design_distance_params(inputs)
    K = pilot_count(inputs, theta_p, p1, p_m, alpha_p, q)
    return PilotPlan(inputs=inputs, theta_p=theta_p,
                     theta_t_list=staggered_intercepts(cfg, theta_p, p_m, K), alpha_p=alpha_p,
                     alpha_t=alpha_t, pM=p_m, q=q)


@dataclass(frozen=True)
class FixedTdNetwork:
    """Hardware view of the plan's delay network.

    delays has shape (N_t, K): per-element delays in seconds for each pilot,
    rows ordered by element index -N..N.  A selector of ceil(log2 K) bits
    switches between the K columns; the phase shifters stay fixed.
    """

    delays: np.ndarray

    @property
    def n_pilots(self) -> int:
        return self.delays.shape[1]

    @property
    def selection_bits(self) -> int:
        """ceil(log2 K), 0 for one pilot."""
        return (self.n_pilots - 1).bit_length()

    def to_csv(self, path=None) -> str:
        """Rows = antennas, columns = pilots, 17 significant digits."""
        lines = [
            ",".join(f"{v:.16e}" for v in row) for row in self.delays
        ]
        text = "\n".join(lines) + "\n"
        write_text(path, text)
        return text

    @classmethod
    def from_csv(cls, text: str) -> "FixedTdNetwork":
        """Parse CSV text as written by to_csv (read files with Path.read_text)."""
        rows = [
            [float(v) for v in line.split(",")]
            for line in text.strip().splitlines()
        ]
        if not rows:
            raise ValueError("no delay rows")
        return cls(delays=np.array(rows, dtype=float))


def fixed_td_network(plan: PilotPlan) -> FixedTdNetwork:
    """Materialize the per-element delay table (N_t, K) of every pilot of the plan."""
    return FixedTdNetwork(delays=element_delays(plan.cfg, np.array(plan.theta_t_list),
                                                plan.alpha_t).T)
