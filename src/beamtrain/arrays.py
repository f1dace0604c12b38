"""Steering vectors, wideband channels, and the polar-domain codebook.

Channels use the exact per-element spherical distances; approximate
steering keeps the quadratic (Fresnel) expansion in the element coordinate,
which is the model every codebook and beamformer in this package is built
on.  Steering vectors are unit-norm complex arrays of length n_antennas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, PolarLocation, SystemConfig


def element_distances(cfg: SystemConfig, theta: float, r: float) -> np.ndarray:
    """Exact distance from each element to the point at (theta, r).

    r^(n) = sqrt(r^2 + n^2 d^2 - 2 r theta n d) for n = -N..N.
    """
    nd = cfg.element_indices() * cfg.spacing
    return np.sqrt(r * r + nd * nd - 2 * r * theta * nd)


def approx_steering(cfg: SystemConfig, loc, f: float) -> np.ndarray:
    """Quadratic-expansion steering vector at frequency f.

    Element n carries phase k (n d theta - n^2 d^2 alpha).  Unit norm.  loc
    may be a PolarLocation or a (theta, alpha) pair of arrays; the result has
    the arrays' shape plus a trailing N_t axis.  It is the model of every
    codebook, beamformer and grid search in the package, and the tests check
    the codebook's powers and the rate kernel against it.
    """
    theta, alpha = (loc.theta, loc.alpha) if isinstance(loc, PolarLocation) else loc
    phase = cfg.wavenumber(f) * cfg.polar_phase(theta, alpha)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


@dataclass(frozen=True)
class Channel:
    """One user's line-of-sight channel: center path gain beta_c, which
    anchors noise calibration, and path lengths (N_t,) from the elements.
    Its rows are channel_rows(cfg, beta_c, lengths, f)."""

    beta_c: float
    lengths: np.ndarray


def path_loss(cfg: SystemConfig, r: float, f: float) -> float:
    """Free-space amplitude gain lambda_f / (4 pi r) at frequency f."""
    return SPEED_OF_LIGHT / f / (4 * np.pi * r)


def channel_rows(cfg: SystemConfig, beta_c, lengths, f) -> np.ndarray:
    """Channel rows beta_f e^{-j k_f L_n}, beta_f = (f_c / f) beta_c, of
    users at path lengths L_n from the elements.  beta_c (...), lengths
    (..., N_t) and the frequencies f broadcast against each other, and the
    result gains a trailing N_t axis.  Every channel of the package is
    built here: los_rows, _observe's pilot pass and codebook nodes."""
    beta = np.asarray((cfg.carrier_freq / f) * beta_c)[..., None]
    k = np.asarray(cfg.wavenumber(f))[..., None]
    return beta * np.exp(-1j * k * lengths)


def los_rows(cfg: SystemConfig, theta, r, beta_c, f) -> np.ndarray:
    """Exact line-of-sight channel rows sqrt(N_t) beta_f e^{-j k_f r^(n)}:
    channel_rows over the element_distances of users at (theta, r)."""
    rn = element_distances(cfg, np.asarray(theta)[..., None], np.asarray(r)[..., None])
    return channel_rows(cfg, beta_c, rn, f)


def los_channel(cfg: SystemConfig, loc: PolarLocation, r: float | None = None) -> Channel:
    """Line-of-sight channel h_m = sqrt(N_t) beta_m e^{-j k_m r} a_m(theta, r)
    with the exact (spherical) steering a_m: the element_distances of loc.
    r defaults to loc.distance, which is inf wherever alpha = 0, so an
    endfire user (theta = +-1) needs its distance given.

    beta_m = (f_c / f_m) beta_c with beta_c = lambda_c / (4 pi r).
    """
    r = loc.distance if r is None else r
    if not np.isfinite(r):
        raise ValueError("line-of-sight channel needs a finite distance")
    beta_c = path_loss(cfg, r, cfg.carrier_freq)
    return Channel(beta_c, element_distances(cfg, loc.theta, r))


class PolarCodebook:
    """Polar-domain grid of (theta, alpha) locations: a uniform angle axis
    times a ring axis.

    Every angle carries the same alpha rings; grid points run angle-major,
    then ring, so point g is (thetas[g // R], rings[g % R]) with R rings.
    The codeword of a point on subcarrier m is its approximate steering
    vector, approx_steering.  The exhaustive codebook's codeword_powers and
    the match-filter bank sum each ring over the angle axis by a chirp-z
    transform (the codebook also by a matrix product of one angle step's
    powers), without codewords, so the angles must be uniform.
    """

    def __init__(self, cfg: SystemConfig, thetas, rings):
        self.cfg = cfg
        self.thetas = np.asarray(thetas, dtype=float)
        self.rings = np.asarray(rings, dtype=float)
        if len(self.thetas) == 0 or len(self.rings) == 0:
            raise ValueError("a polar grid needs at least one angle and one ring")
        if not (np.all(np.abs(self.thetas) <= 1.0) and np.all(self.rings >= 0.0)):
            raise ValueError("grid points need theta in [-1, 1] and alpha >= 0")
        self.step = _uniform_step(self.thetas)

    def __len__(self) -> int:
        return len(self.thetas) * len(self.rings)


def _uniform_samples(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform samples of [lo, hi]; a single sample sits at the center.
    Grid axes and rainbow rings all use these."""
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n)


def _uniform_step(thetas: np.ndarray) -> float:
    """Step of a uniform angle axis (0 for a single angle)."""
    if len(thetas) < 2:
        return 0.0
    step = (thetas[-1] - thetas[0]) / (len(thetas) - 1)
    # An angle off the uniform grid by delta moves the kernel by up to
    # k u_max delta, about 400 delta at full scale: 1e-13 keeps that inside
    # the 1e-10 of the oracle tests and still passes linspace rounding.
    if np.max(np.abs(np.diff(thetas) - step)) > 1e-13:
        raise ValueError(
            "the angle axis must be uniform: the grid searches sum over it "
            "in one fixed angle step"
        )
    return step
