"""Pilot parameter design for distance-annulus beam sweeping.

Given the system geometry and a served polar region, choose the delay and
phase-shifter parameters so that every pilot's beams sweep the angle range
exactly, land on interleaved distance annuli, and the pilot set jointly
covers the region at the 3 dB level.  The angle parameters come first (they
set the sweep rate), then the distance slope, then the pilot count needed to
close the inter-annulus gaps.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import (SPEED_OF_LIGHT, SystemConfig, fields_from_dict, fields_to_dict,
                     write_text)
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
class DesignInputs:
    """Inputs to the pilot design.

    gamma in (0, 1] trades angle sampling density against sweep speed
    (1 = critical 3 dB spacing).  alpha_min/alpha_max default to the config's
    served distance range.  k_override forces at least that many pilots;
    alpha_p_override substitutes the phase-shifter curvature (must still meet
    the coverage slope bound).  The config must have positive bandwidth and
    keep half-wavelength antenna spacing: the focus prediction's lobe periods
    2 p and 2 q / d assume it.
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
        lo, hi = self.alpha_bounds
        if not 0 <= lo < hi:
            raise ValueError("need 0 <= alpha_min < alpha_max")
        if self.k_override is not None and self.k_override < 1:
            raise ValueError("k_override must be >= 1")
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

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DesignInputs":
        return cls(**fields_from_dict(cls, data))

    @classmethod
    def from_json(cls, text: str) -> "DesignInputs":
        """Parse JSON text (read files with Path.read_text)."""
        return cls.from_dict(json.loads(text))


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


def design_distance_params(inputs: DesignInputs) -> tuple[float, int, float, tuple[float, float]]:
    """Distance sweep parameters (alpha_p, q, alpha_t, alpha_t interval).

    The slope alpha_p + 2 q / d must reach distance_slope_bound; alpha_t is
    the midpoint of the interval keeping the band-edge annuli inside
    [alpha_min, alpha_max].
    """
    cfg = inputs.cfg
    amin, amax = inputs.alpha_bounds
    bound = distance_slope_bound(cfg, amin, amax)
    d = cfg.spacing
    q = math.floor(bound * d / 2)
    alpha_p = bound - 2 * q / d
    if inputs.alpha_p_override is not None:
        alpha_p = inputs.alpha_p_override
        if alpha_p + 2 * q / d < bound - 1e-9:
            raise ValueError("alpha_p override breaks the coverage slope bound")
    slope = alpha_p + 2 * q / d
    lo = amax - (cfg.carrier_freq / cfg.f_lower) * slope
    hi = amin - (cfg.carrier_freq / cfg.f_upper) * slope
    if hi < lo - 1e-9:
        raise ValueError("empty alpha_t interval; slope too small")
    hi = max(hi, lo)
    alpha_t = 0.5 * (lo + hi)
    return alpha_p, q, alpha_t, (lo, hi)


def pilot_count(inputs: DesignInputs, theta_p: float, p1: int, alpha_p: float, q: int) -> int:
    """Pilots needed so interleaved annuli close the 3 dB distance gaps:
    K = ceil(slope N_t^2 c f_H / (4 (theta_p + 2 p1) b^2 f_c^2)), floored at
    any override."""
    cfg = inputs.cfg
    if theta_p + 2 * p1 <= 0:
        raise ValueError("angle sweep slope must be positive")
    slope = alpha_p + 2 * q / cfg.spacing
    val = (
        slope * cfg.n_antennas**2 * SPEED_OF_LIGHT * cfg.f_upper
        / (4 * (theta_p + 2 * p1) * FRESNEL_3DB**2 * cfg.carrier_freq**2)
    )
    k = math.ceil(val - 1e-9)
    return max(inputs.k_override or 1, k)


def intercepts_for_pilots(cfg: SystemConfig, theta_p: float, p_m: int, n_pilots: int) -> list[float]:
    """Delay parameters theta_t^k staggering the ending directions
    1 - 2(k - 1) / K across pilots."""
    return [
        first_intercept(cfg, theta_p, p_m, ending=1.0 - 2.0 * (k - 1) / n_pilots)
        for k in range(1, n_pilots + 1)
    ]


@dataclass(frozen=True)
class PilotPlan:
    """Complete parameter set for one training sweep.

    theta_t_list has one delay intercept per pilot; theta_p, alpha_p, alpha_t,
    q are shared.  ending_directions are the designed top-subcarrier foci.
    """

    cfg: SystemConfig
    inputs: DesignInputs
    theta_p: float
    theta_t_list: tuple[float, ...]
    alpha_p: float
    alpha_t: float
    alpha_t_interval: tuple[float, float]
    p1: int
    pM: int
    q: int
    K: int
    ending_directions: tuple[float, ...]
    alpha_slope_min: float

    def __post_init__(self):
        if not 0 < self.theta_p + 2 * self.pM:
            raise ValueError("angle sweep slope must be positive")
        if self.K != len(self.theta_t_list):
            raise ValueError("K must match the number of delay intercepts")
        if self.alpha_slope + 1e-9 < self.alpha_slope_min:
            raise ValueError("distance slope below the coverage bound")

    @property
    def alpha_slope(self) -> float:
        return self.alpha_p + 2 * self.q / self.cfg.spacing

    def params(self, k: int) -> TdPsParams:
        """Beamformer parameters of pilot k (1-based)."""
        return TdPsParams(
            theta_t=self.theta_t_list[k - 1],
            theta_p=self.theta_p,
            alpha_t=self.alpha_t,
            alpha_p=self.alpha_p,
        )

    def focus(self, m: int, k: int, clamp: bool = False) -> BeamFocus:
        """Predicted focus of subcarrier m (1-based) of pilot k."""
        f = self.cfg.subcarrier_freq(m)
        return predicted_focus(self.cfg, self.params(k), f, q=self.q,
                               subcarrier=m, clamp=clamp)

    def to_dict(self) -> dict:
        return fields_to_dict(self)

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        write_text(path, text + "\n")
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "PilotPlan":
        kwargs = fields_from_dict(cls, data)
        # the inputs share the plan's config
        kwargs["inputs"] = DesignInputs.from_dict(
            {**kwargs["inputs"], "config": data["config"]})
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "PilotPlan":
        """Parse JSON text (read files with Path.read_text)."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        cfg = self.cfg
        amin, amax = self.inputs.alpha_bounds
        lines = [
            f"pilot plan: {self.K} pilot(s), {cfg.n_subcarriers} subcarriers, "
            f"{cfg.n_antennas} antennas",
            f"  band {cfg.f_lower / 1e9:.3f}-{cfg.f_upper / 1e9:.3f} GHz "
            f"(carrier {cfg.carrier_freq / 1e9:.3f} GHz)",
            f"  angle sweep: theta_p = {self.theta_p:.6f}, p1 = {self.p1}, "
            f"pM = {self.pM}",
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
    theta_t1 = first_intercept(cfg, theta_p, p_m)
    p1 = starting_period_integer(cfg, theta_t1, theta_p)
    alpha_p, q, alpha_t, interval = design_distance_params(inputs)
    K = pilot_count(inputs, theta_p, p1, alpha_p, q)
    endings = tuple(1.0 - 2.0 * (k - 1) / K for k in range(1, K + 1))
    theta_ts = tuple(intercepts_for_pilots(cfg, theta_p, p_m, K))
    amin, amax = inputs.alpha_bounds
    return PilotPlan(
        cfg=cfg,
        inputs=inputs,
        theta_p=theta_p,
        theta_t_list=theta_ts,
        alpha_p=alpha_p,
        alpha_t=alpha_t,
        alpha_t_interval=interval,
        p1=p1,
        pM=p_m,
        q=q,
        K=K,
        ending_directions=endings,
        alpha_slope_min=distance_slope_bound(cfg, amin, amax),
    )


@dataclass(frozen=True)
class FixedTdNetwork:
    """Hardware view of the plan's delay network.

    delays has shape (N_t, K): per-element delays in seconds for each pilot,
    rows ordered by element index -N..N.  A selector of ceil(log2 K) bits
    switches between the K columns; the phase shifters stay fixed.
    """

    delays: np.ndarray
    selection_bits: int

    @property
    def n_pilots(self) -> int:
        return self.delays.shape[1]

    def to_csv(self, path=None) -> str:
        """Rows = antennas, columns = pilots, 17 significant digits."""
        lines = [
            ",".join(f"{v:.16e}" for v in row) for row in np.atleast_2d(self.delays)
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
        delays = np.array(rows, dtype=float)
        k = delays.shape[1]
        return cls(delays=delays, selection_bits=max(0, math.ceil(math.log2(k))) if k > 1 else 0)


def fixed_td_network(plan: PilotPlan) -> FixedTdNetwork:
    """Materialize the per-element delay table for every pilot of the plan."""
    cols = [
        element_delays(plan.cfg, plan.theta_t_list[k], plan.alpha_t)
        for k in range(plan.K)
    ]
    delays = np.stack(cols, axis=1)
    bits = math.ceil(math.log2(plan.K)) if plan.K > 1 else 0
    return FixedTdNetwork(delays=delays, selection_bits=bits)
