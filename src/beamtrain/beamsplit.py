"""Delay-phase beamformers and the frequency-dependent gain geometry.

A pilot beam combines a true-time-delay vector (frequency-proportional phase,
parameters theta_t / alpha_t) with a phase-shifter vector (carrier-locked
phase, parameters theta_p / alpha_p).  Across subcarriers the combined beam's
focus slides along a trajectory in the polar domain; the closed forms here
predict that trajectory, its 3 dB widths, and a local ellipse model of the
gain surface used by the refinement estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fresnel as _fresnel_cs

from .config import SPEED_OF_LIGHT, PolarLocation, SystemConfig

# 3 dB point of the Fresnel envelope |C(b) + j S(b)| / b, root of F = 1/sqrt(2)
FRESNEL_3DB = 1.318

# 3 dB point of the Dirichlet kernel in normalized angle, root of sinc-like width
DIRICHLET_3DB = 0.88


class InfeasibleFocusError(ValueError):
    """No period integer lands the beam focus inside theta in [-1, 1]."""


@dataclass(frozen=True)
class TdPsParams:
    """Design parameters of one delay-phase pilot beam.

    theta_t, alpha_t steer the delay network (phase scales with frequency);
    theta_p, alpha_p steer the phase shifters (phase locked to the carrier).
    """

    theta_t: float
    theta_p: float
    alpha_t: float = 0.0
    alpha_p: float = 0.0


@dataclass(frozen=True)
class BeamFocus:
    """Predicted focus of one beam: subcarrier, polar point, period integers."""

    theta: float
    alpha: float
    p: int
    q: int
    subcarrier: int | None = None
    clamped: bool = False

    @property
    def distance(self) -> float:
        if self.alpha <= 0:
            return math.inf
        return (1.0 - self.theta**2) / (2.0 * self.alpha)


def element_delays(cfg: SystemConfig, theta_t: float, alpha_t: float) -> np.ndarray:
    """Per-element delays tau_n = (n d theta_t - n^2 d^2 alpha_t) / c."""
    nd = cfg.element_indices() * cfg.spacing
    return (nd * theta_t - nd * nd * alpha_t) / SPEED_OF_LIGHT


def td_vector(cfg: SystemConfig, theta_t: float, alpha_t: float, f: float) -> np.ndarray:
    """Delay-network response at frequency f: element n is
    (1/sqrt(N_t)) e^{-j k (n d theta_t - n^2 d^2 alpha_t)}, k = 2 pi f / c."""
    # phases computed via the delays so hardware rebuilds are bit-identical
    phase = -2 * np.pi * f * element_delays(cfg, theta_t, alpha_t)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


def ps_vector(cfg: SystemConfig, theta_p: float, alpha_p: float) -> np.ndarray:
    """Phase-shifter response, carrier-locked: element n is
    (1/sqrt(N_t)) e^{-j k_c (n d theta_p - n^2 d^2 alpha_p)}."""
    nd = cfg.element_indices() * cfg.spacing
    phase = -cfg.wavenumber(cfg.carrier_freq) * (nd * theta_p - nd * nd * alpha_p)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


def combined_beamformer(cfg: SystemConfig, params: TdPsParams, f: float) -> np.ndarray:
    """Unit-norm elementwise product of the delay and phase-shift vectors."""
    w = td_vector(cfg, params.theta_t, params.alpha_t, f) * ps_vector(
        cfg, params.theta_p, params.alpha_p
    )
    return w * np.sqrt(cfg.n_antennas)


def gain_kernel(cfg: SystemConfig, x, y):
    """Array gain kernel G(x, y) = |sum_n e^{j (n d x - n^2 d^2 y)}| / N_t.

    x is in rad/m, y in rad/m^2.  Periodic with period 2 pi / d in x and
    2 pi / d^2 in y; even under joint sign flip.  Broadcasts over x, y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nd = cfg.element_indices() * cfg.spacing
    phase = np.multiply.outer(x, nd) - np.multiply.outer(y, nd * nd)
    out = np.abs(np.exp(1j * phase).sum(axis=-1)) / cfg.n_antennas
    return float(out) if out.ndim == 0 else out


def tdps_gain(cfg: SystemConfig, params: TdPsParams, loc, f):
    """Array gain of the combined delay-phase beam, via the kernel identity:
    G(k theta - k theta_t - k_c theta_p, k alpha - k alpha_t - k_c alpha_p).

    loc may be a PolarLocation or a (theta, alpha) array pair; f may be an
    array.  Equals |w^T b| exactly.
    """
    theta, alpha = (loc.theta, loc.alpha) if isinstance(loc, PolarLocation) else loc
    k = cfg.wavenumber(np.asarray(f, dtype=float))
    kc = cfg.wavenumber(cfg.carrier_freq)
    x = k * np.asarray(theta) - k * params.theta_t - kc * params.theta_p
    y = k * np.asarray(alpha) - k * params.alpha_t - kc * params.alpha_p
    return gain_kernel(cfg, x, y)


def _period_integer(cfg: SystemConfig, params: TdPsParams, f: float) -> int:
    """Largest integer p with focus theta <= 1 at frequency f."""
    ub = ((1.0 - params.theta_t) * (f / cfg.carrier_freq) - params.theta_p) / 2.0
    return math.floor(ub + 1e-9)


def predicted_focus(
    cfg: SystemConfig,
    params: TdPsParams,
    f: float,
    q: int = 0,
    subcarrier: int | None = None,
    clamp: bool = False,
) -> BeamFocus:
    """Closed-form focus of the beam at frequency f.

    theta_f = theta_t + (f_c / f)(theta_p + 2 p), with p the largest integer
    keeping theta_f <= 1; alpha_f = alpha_t + (f_c / f)(alpha_p + 2 q / d).
    Raises InfeasibleFocusError when no integer lands theta_f in [-1, 1]
    (transition subcarriers whose mainlobe peak is outside visible space);
    with clamp=True returns the boundary point flagged clamped instead.
    """
    g = cfg.carrier_freq / f
    p = _period_integer(cfg, params, f)
    theta = params.theta_t + g * (params.theta_p + 2 * p)
    alpha = params.alpha_t + g * (params.alpha_p + 2 * q / cfg.spacing)
    clamped = False
    if theta < -1.0 - 1e-9:
        if not clamp:
            raise InfeasibleFocusError(
                f"focus theta {theta:.4f} outside [-1, 1] at f = {f:.4e} Hz"
            )
        # nearer boundary: candidate p gives theta < -1, p + 1 gives theta > 1
        hi = params.theta_t + g * (params.theta_p + 2 * (p + 1))
        if abs(hi - 1.0) < abs(theta + 1.0):
            p, theta = p + 1, 1.0
        else:
            theta = -1.0
        clamped = True
    theta = min(max(theta, -1.0), 1.0)
    return BeamFocus(theta=float(theta), alpha=float(alpha), p=p, q=q,
                     subcarrier=subcarrier, clamped=clamped)


def dirichlet_sinc(n_t: int, x):
    """Normalized Dirichlet kernel sin(N_t pi x / 2) / (N_t sin(pi x / 2)),
    continuously extended at the period points."""
    x = np.asarray(x, dtype=float)
    s = np.sin(np.pi * x / 2)
    near = np.abs(s) < 1e-12
    safe = np.where(near, 1.0, s)
    out = np.sin(n_t * np.pi * x / 2) / (n_t * safe)
    lim = np.cos(n_t * np.pi * x / 2) / np.cos(np.pi * x / 2)
    out = np.where(near, lim, out)
    return float(out) if out.ndim == 0 else out


def fresnel_integrals(x):
    """Fresnel integrals (C(x), S(x)) with the sin/cos(pi t^2 / 2) convention."""
    s, c = _fresnel_cs(np.asarray(x, dtype=float))
    return c, s


def fresnel_envelope(beta):
    """F(beta) = |C(beta) + j S(beta)| / beta, the distance-mismatch gain
    envelope; F -> 1 as beta -> 0."""
    beta = np.asarray(beta, dtype=float)
    small = beta < 1e-8
    safe = np.where(small, 1.0, beta)
    c, s = fresnel_integrals(safe)
    out = np.hypot(c, s) / safe
    out = np.where(small, 1.0, out)
    return float(out) if out.ndim == 0 else out


def angle_beamwidth(cfg: SystemConfig, f: float) -> float:
    """3 dB half-width in theta at frequency f: 0.88 f_c / (N_t f)."""
    return DIRICHLET_3DB * cfg.carrier_freq / (cfg.n_antennas * f)


def distance_beamwidth(cfg: SystemConfig, f: float) -> float:
    """3 dB half-width in alpha at frequency f: 4 b^2 f_c^2 / (N_t^2 c f)."""
    return (
        4 * FRESNEL_3DB**2 * cfg.carrier_freq**2
        / (cfg.n_antennas**2 * SPEED_OF_LIGHT * f)
    )


def ellipse_coefficients(cfg: SystemConfig, f):
    """Quadratic coefficients (sigma1, sigma2) of the near-peak gain model
    gain ~= 1 - sigma1 (theta - theta_f)^2 - sigma2 (alpha - alpha_f)^2 at
    the frequency f, a number or an array."""
    sigma1 = (cfg.n_antennas**2 * np.pi**2 * f**2) / (24 * cfg.carrier_freq**2)
    lam = SPEED_OF_LIGHT / f
    sigma2 = (np.pi**2 * cfg.n_antennas**4 * cfg.spacing**4) / (90 * lam**2)
    return sigma1, sigma2
