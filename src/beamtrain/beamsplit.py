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
from functools import lru_cache

import numpy as np

from .config import SPEED_OF_LIGHT, PolarLocation, SystemConfig, curvature_law

# 3 dB point of the Fresnel envelope |C(b) + j S(b)| / b, root of F = 1/sqrt(2)
FRESNEL_3DB = 1.318

# 3 dB point of the Dirichlet kernel in normalized angle, root of sinc-like width
DIRICHLET_3DB = 0.88

# a block of blocks() keeps its largest temporary near this many complex entries (1 MB)
_CHUNK_ENTRIES = 1 << 16


def blocks(n: int, entries_per_item: int) -> list:
    """Slices of range(n), each of at least one item and about _CHUNK_ENTRIES
    temporary entries: the block rule of every loop that bounds them.  An
    item's temporaries are all the arrays its loop makes or fills per item,
    tables, phases and sums alike, counted in entries of any dtype."""
    step = max(1, _CHUNK_ENTRIES // max(1, entries_per_item))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


class InfeasibleFocusError(ValueError):
    """No period integer lands the beam focus inside theta in [-1, 1]."""


@dataclass(frozen=True)
class TdPsParams:
    """Design parameters of a set of delay-phase pilot beams.

    theta_t, alpha_t steer the delay network (phase scales with frequency);
    theta_p, alpha_p steer the phase shifters (phase locked to the carrier).
    Each field is a number or an array; they broadcast to one entry per
    beam, and len() is the beam count (1 for numbers).
    """

    theta_t: float | np.ndarray
    theta_p: float | np.ndarray
    alpha_t: float | np.ndarray = 0.0
    alpha_p: float | np.ndarray = 0.0

    def __len__(self) -> int:
        return np.broadcast(self.theta_t, self.theta_p, self.alpha_t, self.alpha_p).size


@dataclass(frozen=True)
class BeamFocus:
    """Predicted focus of one beam, or arrays of them: polar point, angle
    period integer p, and whether the focus was clamped into [-1, 1]."""

    theta: float | np.ndarray
    alpha: float | np.ndarray
    p: int | np.ndarray
    clamped: bool | np.ndarray = False

    @property
    def distance(self) -> float | np.ndarray:
        """(1 - theta^2) / (2 alpha), inf where alpha <= 0."""
        with np.errstate(divide="ignore"):
            alpha = np.asarray(self.alpha)
            r = np.where(alpha > 0, curvature_law(self.theta, alpha), math.inf)
        return float(r) if r.ndim == 0 else r


def element_delays(cfg: SystemConfig, theta_t: float, alpha_t: float) -> np.ndarray:
    """Per-element delays (n d theta_t - n^2 d^2 alpha_t) / c; theta_t, alpha_t broadcast."""
    return cfg.polar_phase(theta_t, alpha_t) / SPEED_OF_LIGHT


def td_vector(cfg: SystemConfig, theta_t: float, alpha_t: float, f: float) -> np.ndarray:
    """Delay-network response at frequency f: element n is
    (1/sqrt(N_t)) e^{-j k (n d theta_t - n^2 d^2 alpha_t)}, k = 2 pi f / c."""
    # phases computed via the delays so hardware rebuilds are bit-identical
    phase = -2 * np.pi * f * element_delays(cfg, theta_t, alpha_t)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


def ps_vector(cfg: SystemConfig, theta_p: float, alpha_p: float) -> np.ndarray:
    """Phase-shifter response, carrier-locked: element n is
    (1/sqrt(N_t)) e^{-j k_c (n d theta_p - n^2 d^2 alpha_p)}."""
    phase = -cfg.wavenumber(cfg.carrier_freq) * cfg.polar_phase(theta_p, alpha_p)
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
    out = np.abs(np.exp(1j * cfg.polar_phase(x, y)).sum(axis=-1)) / cfg.n_antennas
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=8)
def wavenumber_steps(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Giant and baby steps of the wavenumbers k_m = k_1 + (m - 1) dk: with
    m - 1 = a b + s and b = ceil(sqrt M), fixed by M alone, k_m = giant[a] +
    baby[s], giant[a] = k_{ab+1} and baby[s] = s dk, so a sum of e^{j k_m x}
    over the band is a product of a = ceil(M / b) giant and b baby steps per
    x (Rabiner, Schafer & Rader 1969), which phase_steps makes from three
    exponentials per x.  The arrays are cached and read-only."""
    m = cfg.n_subcarriers
    b = math.isqrt(m - 1) + 1
    giant = cfg.wavenumber(cfg.subcarrier_freqs()[::b])
    baby = cfg.wavenumber(cfg.bandwidth / m) * np.arange(b)
    giant.flags.writeable = baby.flags.writeable = False
    return giant, baby


def _powers(base: np.ndarray, n: int, out=None) -> np.ndarray:
    """base^i for i < n on a new second-to-last axis, in out if given: 1,
    then each slice [s, 2s) is the slice [0, s) times base^s, base^2s its square."""
    if out is None:
        out = np.empty(base.shape[:-1] + (n,) + base.shape[-1:], dtype=complex)
    out[..., 0, :] = 1.0
    s, step = 1, base
    while s < n:
        np.multiply(out[..., :min(s, n - s), :], step[..., None, :],
                    out=out[..., s:min(2 * s, n), :])
        s, step = 2 * s, step * step
    return out


def phase_steps(cfg: SystemConfig, x, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Giant steps e^{j k_{ab+1} x} (..., a, N) and baby steps e^{j s dk x}
    (..., b, N) of wavenumber_steps at the phases x (..., N): e^{j k_1 x}
    times the powers of e^{j b dk x}, and the powers of e^{j dk x}, filled
    by doubling: three exponentials per entry of x, not a + b; an entry
    depends on its own x alone, and is exactly 1 where x = 0; written into
    the first len(x) rows of out, tables (B, a, N) and (B, b, N), if given.
    The one maker of band phase tables, for subcarrier_gains,
    training._pilot_pass and training.build_match_filter_bank."""
    giant, baby = wavenumber_steps(cfg)
    dk = baby[1] if len(baby) > 1 else 0.0
    giant_out, baby_out = (None, None) if out is None else (t[:len(x)] for t in out)
    steps = _powers(np.exp(1j * (len(baby) * dk) * x), len(giant), giant_out)
    steps *= np.exp(1j * giant[0] * x)[..., None, :]
    return steps, _powers(np.exp(1j * dk * x), len(baby), baby_out)


def subcarrier_gains(cfg: SystemConfig, dtheta: np.ndarray, dalpha: np.ndarray) -> np.ndarray:
    """Gains (R, M) G(k_m dtheta, k_m dalpha) of R polar mismatches, arrays
    of R, over the M subcarriers: the serving gain of the rate pass, with
    gain_kernel its oracle.

    A row's M sums over n of e^{j k_m phi_n}, phi_n = n d dtheta -
    (n d)^2 dalpha, are one matrix product of the giant steps
    e^{j k_{ab+1} phi_n} and the baby steps e^{j s dk phi_n} of phase_steps:
    3 N_t exponentials per row.  Rows run in blocks of N_t (a + b + 4) + a b
    temporary entries a row (step tables, phases, exponentials, sums): 3
    rows at full scale, whose tables, made once per call, stay in a core's
    L2 cache.  A row's gains do not depend on the rows beside it.
    """
    m, n_t = cfg.n_subcarriers, cfg.n_antennas
    a, b = (len(steps) for steps in wavenumber_steps(cfg))
    out, rows = np.empty((len(dtheta), m)), blocks(len(dtheta), n_t * (a + b + 4) + a * b)
    size = rows[0].stop if rows else 0
    *steps, sums = (np.empty((size, *s), dtype=complex) for s in ((a, n_t), (b, n_t), (a, b)))
    for block in rows:
        giant, baby = phase_steps(cfg, cfg.polar_phase(dtheta[block], dalpha[block]), steps)
        np.matmul(giant, np.swapaxes(baby, 1, 2), out=sums[:len(giant)])
        out[block] = np.abs(sums[:len(giant)].reshape(len(giant), -1)[:, :m]) / n_t
    return out


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


def predicted_focus(
    cfg: SystemConfig,
    params: TdPsParams,
    f,
    q: int = 0,
    clamp: bool = False,
    served: bool = False,
) -> BeamFocus:
    """Closed-form focus of the beams at frequencies f.

    theta_f = theta_t + (f_c / f)(theta_p + 2 p), with p the largest integer
    keeping theta_f <= 1; alpha_f = alpha_t + (f_c / f)(alpha_p + 2 q / d).
    f and the fields of params broadcast to one focus per beam; numbers give
    a focus of numbers.  Raises InfeasibleFocusError when no integer lands
    some beam's theta_f in [-1, 1] (transition subcarriers whose mainlobe
    peak is outside visible space); with clamp=True such a beam gets the
    nearer boundary point, flagged clamped, instead.

    A beam lights every visible lobe, 2 f_c / f apart in theta.  With
    served=True a beam whose focus lies above cfg.angle_range takes its
    sibling lobe p - 1 when that one lies inside the range: the lobe a
    served user lit.  Above the range, p + 1 is not visible.
    """
    f = np.asarray(f, dtype=float)
    g = cfg.carrier_freq / f

    def lobe(p):
        return params.theta_t + g * (params.theta_p + 2 * p)

    p = np.floor(((1.0 - params.theta_t) * (f / cfg.carrier_freq) - params.theta_p) / 2.0
                 + 1e-9)
    if served:
        bottom, top = cfg.angle_range
        sibling = lobe(p - 1)
        p = p - ((lobe(p) > top) & (sibling >= bottom) & (sibling <= top))
    theta, alpha, f = np.broadcast_arrays(
        lobe(p), params.alpha_t + g * (params.alpha_p + 2 * q / cfg.spacing), f)
    clamped = theta < -1.0 - 1e-9
    if not clamp and clamped.any():
        bad = np.argmax(clamped)
        raise InfeasibleFocusError(
            f"focus theta {theta.flat[bad]:.4f} outside [-1, 1] at f = {f.flat[bad]:.4e} Hz")
    # nearer boundary: candidate p gives theta < -1, p + 1 gives theta > 1
    hi = lobe(p + 1)
    up = clamped & (np.abs(hi - 1.0) < np.abs(theta + 1.0))
    p = (p + up).astype(int)
    theta = np.where(up, 1.0, np.minimum(np.maximum(theta, -1.0), 1.0))
    if theta.ndim == 0:
        return BeamFocus(float(theta), float(alpha), int(p), bool(clamped))
    return BeamFocus(theta, alpha, p, clamped)


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
    """Fresnel integrals (C(x), S(x)) with the sin/cos(pi t^2 / 2) convention.
    SciPy is imported here, its one use, so importing the package skips it."""
    from scipy.special import fresnel

    s, c = fresnel(np.asarray(x, dtype=float))
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
