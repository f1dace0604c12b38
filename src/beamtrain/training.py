"""Noisy beam-training simulation and location estimators.

One training run sends the plan's pilots, records per-subcarrier magnitude
observations, and estimates the user's polar location.  Estimators:

- on-grid: strongest beam's predicted focus
- aux-pair: two-beam ellipse-intersection refinement around the on-grid pick
- match-filter: correlate the observation against a signature bank
- exhaustive: sweep a full polar codebook, one pilot per codeword
- near-field rainbow: one frequency sweep per distance ring
- far-field rainbow: a single frequency sweep, distance ignored

Transmit power is fixed at 1; noise variance is calibrated so that
N_t beta_c^2 / sigma^2 equals the requested SNR at the center subcarrier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PolarLocation, SystemConfig, fields_to_dict
from .arrays import Channel, _uniform_samples
from .beamsplit import TdPsParams, ellipse_coefficients
from .design import PilotPlan

TX_POWER = 1.0

# aux-pair Newton solve: residual-norm tolerance and iteration cap
_AUX_TOL = 1e-8
_AUX_MAX_ITER = 50

# The grid kernels run over subcarriers in chunks whose largest temporary
# holds about this many complex entries (1 MB).
_CHUNK_ENTRIES = 1 << 16

# the far-field rainbow is a near-field rainbow with one ring, at alpha = 0
FAR_RINGS = (0.0,)

SCHEME_PERFECT = "perfect_csi"
SCHEME_EXHAUSTIVE = "exhaustive"
SCHEME_MATCH = "match_filter"
SCHEME_ONGRID = "ongrid"
SCHEME_AUX = "aux_pair"
SCHEME_NEAR_RAINBOW = "nearfield_rainbow"
SCHEME_FAR_RAINBOW = "farfield_rainbow"

ALL_SCHEMES = (
    SCHEME_PERFECT,
    SCHEME_EXHAUSTIVE,
    SCHEME_MATCH,
    SCHEME_ONGRID,
    SCHEME_AUX,
    SCHEME_NEAR_RAINBOW,
    SCHEME_FAR_RAINBOW,
)


@dataclass(frozen=True)
class ObservationGrid:
    """Magnitude observations, shape (M, K): subcarriers by pilots."""

    magnitudes: np.ndarray
    snr: float
    seed: int | None = None

    def __post_init__(self):
        if self.magnitudes.ndim != 2:
            raise ValueError("magnitudes must be (M, K)")
        if np.any(self.magnitudes < 0):
            raise ValueError("magnitudes must be nonnegative")


@dataclass(frozen=True)
class TrainingEstimate:
    """Estimated user location plus selection bookkeeping."""

    theta: float
    alpha: float
    scheme: str
    selected: tuple | int | None
    pilots_used: int
    clamped: bool = False
    fallback: bool = False

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("estimate theta must lie in [-1, 1]")
        if self.alpha < 0:
            raise ValueError("estimate alpha must be nonnegative")

    @property
    def location(self) -> PolarLocation:
        return PolarLocation(self.theta, self.alpha)

    def to_dict(self) -> dict:
        return fields_to_dict(self)


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = None if rng is None else int(rng)
    return np.random.default_rng(seed), seed


def noise_power(cfg: SystemConfig, channel: Channel, snr: float) -> float:
    """sigma^2 with N_t beta_c^2 / sigma^2 = snr (linear); 0 when snr = inf."""
    if math.isinf(snr):
        return 0.0
    if snr <= 0:
        raise ValueError("linear snr must be positive")
    return TX_POWER * cfg.n_antennas * channel.beta_c**2 / snr


def _complex_noise(rng: np.random.Generator, sigma2: float, shape) -> np.ndarray:
    if sigma2 == 0.0:
        return np.zeros(shape, dtype=complex)
    s = math.sqrt(sigma2 / 2)
    return s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def pilot_beamformers(cfg: SystemConfig, params_list, f) -> np.ndarray:
    """Delay-phase beamformer of each parameter set at frequency f.

    Element n of column k is e^{-j k_f (n d theta_t - n^2 d^2 alpha_t)
    - j k_c (n d theta_p - n^2 d^2 alpha_p)} / sqrt(N_t).  f may be an array;
    the shape is f.shape + (N_t, len(params_list)).  The pilot simulators of
    the single-trial API and of the sweep engine both use this copy; the
    beamsplit oracles td_vector / ps_vector stay separate on purpose.
    """
    nd = (cfg.element_indices() * cfg.spacing)[:, None]
    k = np.asarray(cfg.wavenumber(f))[..., None, None]
    kc = cfg.wavenumber(cfg.carrier_freq)
    theta_t, theta_p, alpha_t, alpha_p = (
        np.array([getattr(p, name) for p in params_list])
        for name in ("theta_t", "theta_p", "alpha_t", "alpha_p")
    )
    phase = -k * (nd * theta_t - nd * nd * alpha_t)
    phase = phase - kc * (nd * theta_p - nd * nd * alpha_p)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


def observe_params(
    cfg: SystemConfig, channel: Channel, params_list, snr: float, rng
) -> ObservationGrid:
    """Simulate one pilot per parameter set; magnitudes (M, len(params_list)).

    y_{m,k} = sqrt(P_t) h_m^T w_{m,k} + n_{m,k}; columns are drawn in order,
    subcarriers within a column, so a fixed seed is reproducible.
    """
    gen, seed = _as_rng(rng)
    sigma2 = noise_power(cfg, channel, snr)
    freqs = cfg.subcarrier_freqs()
    cols = []
    for params in params_list:
        w = pilot_beamformers(cfg, [params], freqs)[..., 0]
        y = math.sqrt(TX_POWER) * np.sum(channel.per_subcarrier * w, axis=1)
        y = y + _complex_noise(gen, sigma2, y.shape)
        cols.append(np.abs(y))
    return ObservationGrid(magnitudes=np.stack(cols, axis=1), snr=snr, seed=seed)


def observe_plan(channel: Channel, plan: PilotPlan, snr: float, rng) -> ObservationGrid:
    """All K pilots of the plan, columns in pilot order."""
    return observe_params(
        plan.cfg, channel, [plan.params(k) for k in range(1, plan.K + 1)], snr, rng
    )


# Batch estimators take observations with a leading trial axis T and an
# optional pilot budget (the first `budget` pilots, codewords or rings; None
# uses all).  Each returns per-trial theta and alpha arrays first, then the
# 0-based pick the single-trial *_train wrappers (their T = 1 case) report.


def _argmax_rows(obs: np.ndarray, budget) -> np.ndarray:
    """Flat index of each trial's largest entry among the first `budget`
    columns of its trailing axis; ties go to the smaller index."""
    sub = obs[..., :budget]
    return np.argmax(sub.reshape(len(sub), -1), axis=1)


def _pick(locations, idx):
    """(theta, alpha) arrays of the grid points at indices idx."""
    return (np.array([locations[i].theta for i in idx]),
            np.array([locations[i].alpha for i in idx]))


def _foci(plan: PilotPlan, flat: np.ndarray, n_cols: int):
    """Predicted focus, plan.focus(..., clamp=True), of the beam at each
    0-based flat index m * n_cols + k of an array: theta, alpha (which may be
    negative) and the clamped flag, each of flat's shape.  Each distinct
    beam's focus is evaluated once."""
    beams, inverse = np.unique(flat, return_inverse=True)
    foci = [plan.focus(m + 1, k + 1, clamp=True) for m, k in zip(*np.divmod(beams, n_cols))]
    inverse = inverse.reshape(np.shape(flat))
    return (np.array([f.theta for f in foci])[inverse],
            np.array([f.alpha for f in foci])[inverse],
            np.array([f.clamped for f in foci])[inverse])


def ongrid_estimate(mags: np.ndarray, plan: PilotPlan, budget=None):
    """Strongest beam's predicted focus per trial of mags (T, M, K); ties go
    to smaller m, then smaller k.  Returns theta, alpha, clamped and the flat
    (m, k) index over the budgeted (M, K') grid.  Only the picked beams' foci
    are evaluated."""
    flat = _argmax_rows(mags, budget)
    theta, alpha, clamped = _foci(plan, flat, mags[..., :budget].shape[-1])
    return theta, np.maximum(alpha, 0.0), clamped | (alpha < 0), flat


def ongrid_train(obs: ObservationGrid, plan: PilotPlan) -> TrainingEstimate:
    """Strongest beam's predicted focus; ties go to smaller m, then smaller k."""
    theta, alpha, clamped, flat = ongrid_estimate(obs.magnitudes[None], plan)
    m_idx, k_idx = divmod(int(flat[0]), obs.magnitudes.shape[1])
    return TrainingEstimate(
        theta=float(theta[0]),
        alpha=float(alpha[0]),
        scheme=SCHEME_ONGRID,
        selected=(m_idx + 1, k_idx + 1),
        pilots_used=plan.K,
        clamped=bool(clamped[0]),
    )


def aux_pair_estimate(mags: np.ndarray, plan: PilotPlan, budget=None):
    """Refine each trial's on-grid pick by intersecting two gain ellipses.

    Per trial of mags (T, M, K), over the first `budget` pilots: take the
    strongest beam and its stronger in-band neighbor on the same pilot (the
    lower one on a tie), convert both magnitudes to model gains via the
    path gain at the on-grid distance, and Newton-solve the two quadratic
    gain models for (theta, alpha).  A trial falls back to the on-grid
    answer on a zero Jacobian, no convergence, no neighbor or an unusable
    on-grid distance.  Returns theta, alpha, fallback, clamped and the
    on-grid pick's flat (m, k) index.
    """
    cfg = plan.cfg
    theta0, alpha0, clamped0, flat = ongrid_estimate(mags, plan, budget)
    n_cols = mags[..., :budget].shape[-1]
    m_hat, k_hat = np.divmod(flat, n_cols)
    rows, n_sub = np.arange(len(mags)), mags.shape[1]
    col = mags[rows, :, k_hat]  # (T, M): the picked pilot's magnitudes
    lo, hi = np.maximum(m_hat - 1, 0), np.minimum(m_hat + 1, n_sub - 1)
    lower = (m_hat > 0) & ((m_hat == n_sub - 1) | (col[rows, hi] <= col[rows, lo]))
    pair = np.stack([m_hat, np.where(lower, lo, hi)], axis=1)  # (T, 2) subcarriers
    with np.errstate(divide="ignore", invalid="ignore"):
        r_hat = (1.0 - theta0**2) / (2.0 * alpha0)
    fallback = (n_sub == 1) | ~np.isfinite(r_hat) | (r_hat <= 0)
    r_hat = np.where(fallback, 1.0, r_hat)

    t0, a0, _ = _foci(plan, pair * n_cols + k_hat[:, None], n_cols)  # (T, 2) centers
    f = cfg.subcarrier_freqs()[pair]
    beta = (cfg.carrier_freq / f) * (cfg.wavelength / (4 * np.pi * r_hat[:, None]))
    g = col[rows[:, None], pair] / (math.sqrt(TX_POWER * cfg.n_antennas) * beta)
    rhs = 1.0 - np.clip(g, 1e-6, 1.0)
    s1, s2 = ellipse_coefficients(cfg, f)

    # Gain 1 at the peak collapses its ellipse to a point: the system's root
    # is that focus itself, no iteration needed.
    exact = ~fallback & (rhs[:, 0] <= 1e-12)
    # Damped Newton on the two residuals, from the midpoint of the centers.
    # The geometry has two rough spots: the midpoint start sits on the line
    # through both centers, where the Jacobian is rank-deficient
    # (anti-parallel gradients), and noisy gains can leave the ellipses
    # tangent or disjoint so that no exact root exists.  A pseudo-inverse
    # with a loose cutoff handles the first; backtracking on the residual norm
    # handles the second (the Newton direction always descends ||r||^2, so
    # the iterates settle on the least-squares point when the system is
    # inconsistent, and converge quadratically to a root when it is not).
    center = np.stack([t0, a0], axis=2)  # (T, 2, 2): pair member, (theta, alpha)
    weight = np.stack([s1, s2], axis=2)
    x = 0.5 * (center[:, 0] + center[:, 1])  # (T, 2) iterates
    halvings = 0.5 ** np.arange(30)[:, None]  # up to 30 halvings of each step
    live = np.flatnonzero(~fallback & ~exact)
    for _ in range(_AUX_MAX_ITER):
        if not len(live):
            break
        c, w, b = center[live], weight[live], rhs[live]
        d = c - x[live, None]
        r = (w * d**2).sum(2) - b
        norm = np.sqrt((r * r).sum(1))
        jac = -2 * w * d
        zero = ~jac.any(axis=(1, 2))
        step = -(np.linalg.pinv(jac, rtol=1e-6) @ r[:, :, None])[:, :, 0]
        search = (norm >= _AUX_TOL) & ~zero & (np.sqrt((step * step).sum(1)) >= 1e-10)
        fallback[live[(norm >= _AUX_TOL) & zero]] = True
        cand = x[live, None] + step[:, None] * halvings  # (L, 30, 2)
        rc = (w[:, None] * (c[:, None] - cand[:, :, None]) ** 2).sum(3) - b[:, None]
        ok = (search[:, None] & (-1.0 <= cand[..., 0]) & (cand[..., 0] <= 1.0)
              & (cand[..., 1] >= 0.0) & (np.sqrt((rc * rc).sum(2)) < norm[:, None]))
        # a trial with no descent sits on the least-squares stationary point
        # and is done, like one whose residual or step vanished
        moved = ok.any(1)
        live = live[moved]
        x[live] = cand[moved, ok[moved].argmax(1)]
    fallback[live] = True  # no convergence in _AUX_MAX_ITER steps
    th, al = x[:, 0], x[:, 1]

    # The beam pair only resolves the user along its own spacing; project the
    # root into the pair's bounding cell (one spacing of margin) so the barely
    # observable coordinate cannot absorb model error and wander off.
    dt = np.abs(t0[:, 1] - t0[:, 0])
    da = np.abs(a0[:, 1] - a0[:, 0])
    th = np.clip(th, t0.min(axis=1) - dt, t0.max(axis=1) + dt)
    al = np.clip(al, a0.min(axis=1) - da, a0.max(axis=1) + da)
    clamped = (th < -1.0) | (th > 1.0) | (al < 0)
    th = np.where(exact, t0[:, 0], np.clip(th, -1.0, 1.0))
    al = np.maximum(np.where(exact, a0[:, 0], al), 0.0)
    clamped &= ~exact
    return (np.where(fallback, theta0, th), np.where(fallback, alpha0, al), fallback,
            np.where(fallback, clamped0, clamped), flat)


def aux_pair_train(obs: ObservationGrid, plan: PilotPlan) -> TrainingEstimate:
    """Refine the on-grid pick by intersecting two gain ellipses: the T = 1
    case of aux_pair_estimate, flagged fallback when it keeps the on-grid
    answer."""
    theta, alpha, fallback, clamped, flat = aux_pair_estimate(obs.magnitudes[None], plan)
    m_idx, k_idx = divmod(int(flat[0]), obs.magnitudes.shape[1])
    return TrainingEstimate(
        theta=float(theta[0]),
        alpha=float(alpha[0]),
        scheme=SCHEME_AUX,
        selected=(m_idx + 1, k_idx + 1),
        pilots_used=plan.K,
        clamped=bool(clamped[0]),
        fallback=bool(fallback[0]),
    )


@dataclass(frozen=True)
class MatchFilterBank:
    """Noiseless signature per grid point, flattened over (m, k).

    signatures[g] is the plan's noiseless array-gain vector at grid point g,
    laid out subcarrier-major then pilot.  Grid points are ordered angle-major
    then distance, so argmax ties resolve to smaller angle index, then smaller
    ring index.
    """

    signatures: np.ndarray
    locations: tuple
    plan: PilotPlan

    def __post_init__(self):
        if self.signatures.shape[0] != len(self.locations):
            raise ValueError("one signature per grid point required")

    def __len__(self) -> int:
        return len(self.locations)

    def unit_signatures(self, budget=None) -> np.ndarray:
        """Unit-norm signatures over the first `budget` pilots (None: all)."""
        g = len(self)
        sig = self.signatures.reshape(g, -1, self.plan.K)[:, :, :budget].reshape(g, -1)
        norms = np.linalg.norm(sig, axis=1, keepdims=True)
        return sig / np.where(norms == 0, 1.0, norms)


def _subcarrier_chunks(n_subcarriers: int, entries_per_subcarrier: int) -> list:
    """Slices of consecutive subcarriers, each about _CHUNK_ENTRIES entries."""
    step = max(1, _CHUNK_ENTRIES // max(1, entries_per_subcarrier))
    return [slice(i, i + step) for i in range(0, n_subcarriers, step)]


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
            "theta_grid must be uniform: the bank sums over angles with a chirp-z transform"
        )
    return step


def _bank_slices(cfg: SystemConfig, params_list, thetas, alphas, f) -> np.ndarray:
    """gain_kernel of each pilot's beams over the polar grid (thetas uniform)
    at the frequencies f (C,), shape (C, K, R, A).

    At (theta_a, alpha_r) the kernel's arguments are the mismatches
    x_a = k theta_a - k theta_t - k_c theta_p and y_r, likewise in alpha.
    With u_n = (n - c) d, the phase u_n x_a is a per-element part plus
    w n a, w = k d (theta_1 - theta_0), up to a phase common to all n.
    Bluestein's n a = (n^2 + a^2 - (a - n)^2) / 2 turns the element sum over
    the whole angle axis into one convolution with the chirp e^{-j w m^2 / 2},
    done by FFT; phases common to all n drop out of the magnitude.  So each
    ring takes N_t exponentials instead of A N_t.
    """
    n_t, n_a = cfg.n_antennas, len(thetas)
    n_fft = 1 << (n_t + n_a - 2).bit_length()  # power of two >= N_t + A - 1
    lags = np.arange(n_fft)
    lags = np.where(lags < n_a, lags, lags - n_fft)  # 0..A-1, then -(N_t-1)..-1
    n = np.arange(n_t)
    u = cfg.element_indices() * cfg.spacing
    k = cfg.wavenumber(np.asarray(f, dtype=float))[:, None, None, None]
    kc = cfg.wavenumber(cfg.carrier_freq)
    theta_t, theta_p, alpha_t, alpha_p = (
        np.array([getattr(p, name) for p in params_list])[:, None, None]
        for name in ("theta_t", "theta_p", "alpha_t", "alpha_p")
    )
    w = k * cfg.spacing * _uniform_step(thetas)
    x0 = k * (thetas[0] - theta_t) - kc * theta_p
    y = k * (np.asarray(alphas)[:, None] - alpha_t) - kc * alpha_p
    pre = np.exp(1j * (u * x0 - u * u * y + 0.5 * w * n * n))
    chirp = np.fft.fft(np.exp(-0.5j * w * lags * lags))
    conv = np.fft.ifft(np.fft.fft(pre, n_fft) * chirp)
    return np.abs(conv[..., :n_a]) / n_t


def build_match_filter_bank(
    plan: PilotPlan,
    angle_samples: int,
    distance_samples: int,
    theta_grid=None,
    alpha_grid=None,
) -> MatchFilterBank:
    """Signature bank on a uniform polar grid over the served region.

    Custom theta/alpha grids may be supplied (e.g. to place a known focus on
    the grid); defaults are uniform over the config's angle range and the
    design's alpha bounds.  The theta grid must be uniform: the bank sums
    over it with a chirp-z transform (see _bank_slices).
    """
    cfg = plan.cfg
    amin, amax = plan.inputs.alpha_bounds
    thetas = (
        _uniform_samples(cfg.angle_range[0], cfg.angle_range[1], angle_samples)
        if theta_grid is None
        else np.asarray(theta_grid, dtype=float)
    )
    alphas = (
        _uniform_samples(amin, amax, distance_samples)
        if alpha_grid is None
        else np.asarray(alpha_grid, dtype=float)
    )
    if len(thetas) == 0 or len(alphas) == 0:
        raise ValueError("the bank needs at least one angle and one ring")
    _uniform_step(thetas)  # a nonuniform theta grid fails here, before any work
    th = np.repeat(thetas, len(alphas))
    al = np.tile(alphas, len(thetas))
    locs = tuple(PolarLocation(float(t), float(a)) for t, a in zip(th, al))

    freqs = cfg.subcarrier_freqs()
    params_list = [plan.params(k) for k in range(1, plan.K + 1)]
    n_fft = 1 << (cfg.n_antennas + len(thetas) - 2).bit_length()
    sig = np.empty((len(thetas), len(alphas), cfg.n_subcarriers, plan.K))
    for chunk in _subcarrier_chunks(cfg.n_subcarriers, plan.K * len(alphas) * n_fft):
        slices = _bank_slices(cfg, params_list, thetas, alphas, freqs[chunk])
        sig[:, :, chunk, :] = slices.transpose(3, 2, 0, 1)
    return MatchFilterBank(
        signatures=sig.reshape(len(locs), -1), locations=locs, plan=plan
    )


def match_filter_estimate(mags: np.ndarray, bank: MatchFilterBank, budget=None):
    """Grid point whose unit signature best correlates with each trial's
    unit-normalized observation (cosine similarity) over the first `budget`
    pilots; first index wins ties.  Returns theta, alpha, grid index."""
    flat = mags[..., :budget].reshape(len(mags), -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    flat = flat / np.where(norms == 0, 1.0, norms)
    idx = np.argmax(flat @ bank.unit_signatures(budget).T, axis=1)
    return (*_pick(bank.locations, idx), idx)


def match_filter_train(obs: ObservationGrid, bank: MatchFilterBank) -> TrainingEstimate:
    """Pick the grid point whose unit signature best correlates with the
    unit-normalized observation (cosine similarity); first index wins ties."""
    theta, alpha, idx = match_filter_estimate(obs.magnitudes[None], bank)
    return TrainingEstimate(
        theta=float(theta[0]),
        alpha=float(alpha[0]),
        scheme=SCHEME_MATCH,
        selected=int(idx[0]),
        pilots_used=bank.plan.K,
    )


def exhaustive_estimate(powers: np.ndarray, codebook, budget=None):
    """Codeword with the largest received power per trial of powers (T, G).
    A budget below G searches that many codewords evenly strided over the
    codebook order, so they span the whole angle range; ties go to the
    smaller grid index.  Returns theta, alpha, codeword index."""
    g = powers.shape[-1]
    searched = (np.arange(g) if budget is None or budget >= g
                else np.round(_uniform_samples(0, g - 1, budget)).astype(int))
    idx = searched[np.argmax(powers[:, searched], axis=1)]
    return (*_pick(codebook.locations, idx), idx)


def codeword_responses(codebook, h: np.ndarray, f) -> np.ndarray:
    """Noiseless response sqrt(P_t) sum_n h_n conj(b_n) of every codeword b:
    channel rows h (C, T, N_t) at frequencies f (C,) give (C, T, G), columns
    in codeword order.  Through the codebook's factors, each trial's
    (ring, element) products meet the angle factor in one matrix product,
    and no codeword vector is formed."""
    ang, ring = codebook.factors(f)
    x = h[:, :, None, :] * (math.sqrt(TX_POWER) * ring.conj())[:, None]  # (C, T, R, N_t)
    p = ang.conj()[:, None] @ np.swapaxes(x, -1, -2)  # (C, T, A, R)
    return p.reshape(*p.shape[:2], -1)


def _response_entries(codebook, n_trials: int) -> int:
    """Entries of codeword_responses' largest temporary per subcarrier."""
    n_t = codebook.cfg.n_antennas
    n_a, n_r = len(codebook.thetas), len(codebook.rings)
    return max(n_trials * n_a * n_r, n_trials * n_r * n_t, n_a * n_t)


def exhaustive_polar_train(channel: Channel, codebook, snr: float, rng) -> TrainingEstimate:
    """One pilot per codeword; pick the codeword with the largest power summed
    across subcarriers.  Ties go to the smaller grid index."""
    cfg = codebook.cfg
    gen, _ = _as_rng(rng)
    sigma2 = noise_power(cfg, channel, snr)
    freqs = cfg.subcarrier_freqs()
    powers = np.zeros(len(codebook))
    for chunk in _subcarrier_chunks(len(freqs), _response_entries(codebook, 1)):
        h = channel.per_subcarrier[chunk, None, :]
        for y in codeword_responses(codebook, h, freqs[chunk])[:, 0]:
            y = y + _complex_noise(gen, sigma2, y.shape)
            powers += np.abs(y) ** 2
    theta, alpha, idx = exhaustive_estimate(powers[None], codebook)
    return TrainingEstimate(
        theta=float(theta[0]),
        alpha=float(alpha[0]),
        scheme=SCHEME_EXHAUSTIVE,
        selected=int(idx[0]),
        pilots_used=len(codebook),
    )


def rainbow_sweep_params(cfg: SystemConfig) -> TdPsParams:
    """Delay/phase pair whose foci sweep theta from +1 at the lowest
    subcarrier to -1 at the highest, with period integer 0."""
    if cfg.n_subcarriers < 2:
        raise ValueError("the rainbow sweeps the angle across subcarriers: "
                         "need n_subcarriers >= 2")
    f1 = cfg.subcarrier_freq(1)
    fM = cfg.subcarrier_freq(cfg.n_subcarriers)
    span = cfg.carrier_freq / f1 - cfg.carrier_freq / fM
    if span <= 0:
        raise ValueError("sweep needs nonzero bandwidth")
    theta_p = 2.0 / span
    theta_t = 1.0 - (cfg.carrier_freq / f1) * theta_p
    return TdPsParams(theta_t=theta_t, theta_p=theta_p)


def rainbow_probes(cfg: SystemConfig, rings) -> list:
    """One frequency sweep per curvature ring: the sweep parameters with
    alpha_t set to the ring.  The far-field sweep is the single ring 0."""
    base = rainbow_sweep_params(cfg)
    return [TdPsParams(theta_t=base.theta_t, theta_p=base.theta_p, alpha_t=float(a))
            for a in rings]


def rainbow_estimate(mags: np.ndarray, cfg: SystemConfig, rings, budget=None):
    """Strongest (subcarrier, ring) per trial of mags (T, M, S) over the
    first `budget` rings: the sweep's angle at that subcarrier and the ring's
    curvature.  Returns theta, alpha and the 0-based subcarrier and ring."""
    flat = _argmax_rows(mags, budget)
    m_idx, s_idx = np.divmod(flat, mags[..., :budget].shape[-1])
    params = rainbow_sweep_params(cfg)
    g = cfg.carrier_freq / cfg.subcarrier_freqs()[m_idx]
    theta = np.clip(params.theta_t + g * params.theta_p, -1.0, 1.0)
    return theta, np.asarray(rings, dtype=float)[s_idx], m_idx, s_idx


def _rainbow_train(channel: Channel, cfg: SystemConfig, rings, snr, rng, scheme):
    obs = observe_params(cfg, channel, rainbow_probes(cfg, rings), snr, rng)
    theta, alpha, m_idx, s_idx = rainbow_estimate(obs.magnitudes[None], cfg, rings)
    return TrainingEstimate(
        theta=float(theta[0]),
        alpha=float(alpha[0]),
        scheme=scheme,
        selected=(int(m_idx[0]) + 1, int(s_idx[0]) + 1),
        pilots_used=len(rings),
    )


def nearfield_rainbow_train(
    channel: Channel, cfg: SystemConfig, n_rings: int, snr: float, rng
) -> TrainingEstimate:
    """One frequency sweep per distance ring; strongest (subcarrier, ring)
    wins.  Every beam of a ring shares its curvature alpha."""
    if n_rings < 1:
        raise ValueError("need at least one ring")
    rings = _uniform_samples(cfg.alpha_min, cfg.alpha_max, n_rings)
    return _rainbow_train(channel, cfg, rings, snr, rng, SCHEME_NEAR_RAINBOW)


def farfield_rainbow_train(
    channel: Channel, cfg: SystemConfig, snr: float, rng
) -> TrainingEstimate:
    """Single frequency sweep, curvature ignored (alpha estimate is 0)."""
    return _rainbow_train(channel, cfg, FAR_RINGS, snr, rng, SCHEME_FAR_RAINBOW)

