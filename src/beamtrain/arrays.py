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
    the factored codebook and the rate kernel against it.
    """
    theta, alpha = (loc.theta, loc.alpha) if isinstance(loc, PolarLocation) else loc
    theta = np.asarray(theta)[..., None]
    alpha = np.asarray(alpha)[..., None]
    nd = cfg.element_indices() * cfg.spacing
    phase = cfg.wavenumber(f) * (nd * theta - nd * nd * alpha)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


@dataclass(frozen=True)
class Channel:
    """Per-subcarrier channel vectors plus the gain bookkeeping used for SNR.

    per_subcarrier has shape (M, N_t); row m-1 is h_m.  path_gains holds the
    per-subcarrier magnitude beta_m = (f_c / f_m) beta_c; beta_c anchors noise
    calibration at the center frequency.
    """

    per_subcarrier: np.ndarray
    path_gains: np.ndarray
    beta_c: float
    location: PolarLocation | None = None

    def __post_init__(self):
        if self.per_subcarrier.ndim != 2:
            raise ValueError("per_subcarrier must be (M, N_t)")
        if len(self.path_gains) != self.per_subcarrier.shape[0]:
            raise ValueError("path_gains length must match subcarrier count")

    @property
    def n_subcarriers(self) -> int:
        return self.per_subcarrier.shape[0]


def path_loss(cfg: SystemConfig, r: float, f: float) -> float:
    """Free-space amplitude gain lambda_f / (4 pi r) at frequency f."""
    return SPEED_OF_LIGHT / f / (4 * np.pi * r)


def los_rows(cfg: SystemConfig, theta, r, beta_c, f) -> np.ndarray:
    """Exact line-of-sight channel rows sqrt(N_t) beta_f e^{-j k_f r^(n)},
    beta_f = (f_c / f) beta_c.

    theta, r and beta_c describe one user or a batch of users and f is one
    frequency or an array of them; they broadcast against each other and the
    result gains a trailing N_t axis.  los_channel and the sweep engine both
    build their channels here.
    """
    rn = element_distances(cfg, np.asarray(theta)[..., None], np.asarray(r)[..., None])
    beta = np.asarray((cfg.carrier_freq / f) * beta_c)[..., None]
    k = np.asarray(cfg.wavenumber(f))[..., None]
    # sqrt(Nt) * a_m collapses the 1/sqrt(Nt) normalization; the phase
    # reference folds e^{-j k r} and the element profile into exp(-j k rn).
    return beta * np.exp(-1j * k * rn)


def los_channel(cfg: SystemConfig, loc: PolarLocation, steering: str = "exact") -> Channel:
    """Line-of-sight channel h_m = sqrt(N_t) beta_m e^{-j k_m r} a_m(theta, r).

    beta_m = (f_c / f_m) beta_c with beta_c = lambda_c / (4 pi r).  steering
    picks the wavefront model of a_m: "exact" (spherical, the default) or
    "quadratic" (the same expansion the beamformers use, handy for
    self-consistent synthetic scenarios).
    """
    if steering not in ("exact", "quadratic"):
        raise ValueError("steering must be 'exact' or 'quadratic'")
    r = loc.distance
    if not np.isfinite(r):
        raise ValueError("line-of-sight channel needs a finite distance")
    freqs = cfg.subcarrier_freqs()
    beta_c = path_loss(cfg, r, cfg.carrier_freq)
    betas = (cfg.carrier_freq / freqs) * beta_c
    if steering == "exact":
        h = los_rows(cfg, loc.theta, r, beta_c, freqs)
    else:
        k = cfg.wavenumber(freqs)[:, None]
        nd = cfg.element_indices() * cfg.spacing
        profile = nd * loc.theta - nd * nd * loc.alpha
        h = betas[:, None] * np.exp(-1j * k * r) * np.exp(1j * k * profile[None, :])
    return Channel(per_subcarrier=h, path_gains=betas, beta_c=beta_c, location=loc)


class PolarCodebook:
    """Uniform polar-domain grid of (theta, alpha) locations.

    Angles sample the served angle range and every angle carries the same
    alpha rings inside [alpha_min, alpha_max]; locations run angle-major,
    then ring.  The codeword of a location on subcarrier m is its
    approximate steering vector, approx_steering, which factors into an
    angle part and a ring part (see `factors`).
    """

    def __init__(self, cfg: SystemConfig, angle_samples: int, distance_samples: int):
        if angle_samples < 1 or distance_samples < 1:
            raise ValueError("angle_samples and distance_samples must be >= 1")
        self.cfg = cfg
        self.thetas = _uniform_samples(*cfg.angle_range, angle_samples)
        self.rings = _uniform_samples(cfg.alpha_min, cfg.alpha_max, distance_samples)
        self.locations = [PolarLocation(float(t), float(a))
                          for t in self.thetas for a in self.rings]

    def __len__(self) -> int:
        return len(self.locations)

    def factors(self, f):
        """Angle factor (..., A, N_t) and ring factor (..., R, N_t) at the
        frequencies f: approx_steering(thetas[a], rings[r]) = ang[a] * ring[r].
        """
        nd = self.cfg.element_indices() * self.cfg.spacing
        k = np.asarray(self.cfg.wavenumber(f))[..., None, None]
        ang = np.exp(1j * k * (self.thetas[:, None] * nd)) / np.sqrt(self.cfg.n_antennas)
        ring = np.exp(-1j * k * (self.rings[:, None] * (nd * nd)))
        return ang, ring


def _uniform_samples(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform samples of [lo, hi]; a single sample sits at the center.
    Codebook, match-filter bank and rainbow rings all use these axes."""
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n)
