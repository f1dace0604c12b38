"""Noisy beam-training simulation and location estimators.

One training run sends the plan's pilots, records per-subcarrier magnitude
observations, and estimates the user's polar location.  Estimators:

- on-grid: strongest beam's predicted focus
- aux-pair: two-beam ellipse-intersection refinement around the on-grid pick
- match-filter: correlate the observation against a signature bank
- exhaustive: sweep a full polar codebook, one pilot per codeword
- near-field rainbow: one frequency sweep per distance ring
- far-field rainbow: a single frequency sweep, distance ignored

The two grid searches stand on one grid type, arrays.PolarCodebook, and one
chirp-z sum over it with the grid's phases, _grid_phases: the match-filter
bank makes it over its pilot beams through the giant and baby steps of
beamsplit.phase_steps, in one loop over blocks of subcarriers;
codeword_powers squares it over channel rows, or on a small grid takes one
matrix product per frequency, and adds the weighted squares over its
frequencies into one ring-major total.  band_powers, the codebook's powers
summed over the band, is codeword_powers over the nodes of band_quadrature.

scheme_table holds one row per scheme (probe family, probes, estimator,
pilot count); the sweep engine runs its rows over T drawn users and
`train`, the single-trial runner, runs one row at T = 1.

Transmit power is fixed at 1; noise variance is calibrated so that
N_t beta_c^2 / sigma^2 equals the requested SNR at the center subcarrier.
One observation function, _observe, simulates every probe family, pilot
parameter sets and the polar codebook alike, for the sweep engine (T drawn
users) and observe_params, the single-trial observation (T = 1).  Its pilot
families share one pass, _pilot_pass: one row per (user, beam) at a time,
whose sums over the subcarriers are one product of giant and baby steps,
3 T N_t + 4 K N_t exponentials from beamsplit.phase_steps whatever M.  The
noise is drawn into two float planes, and the magnitudes are made from
them one block of users at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .config import PolarLocation, Record, SystemConfig, curvature_law
from .arrays import Channel, PolarCodebook, _uniform_samples, channel_rows, path_loss
from .beamsplit import TdPsParams, _powers, blocks, ellipse_coefficients, phase_steps
from .design import PilotPlan

TX_POWER = 1.0

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
class TrainingEstimate(Record):
    """Estimated user location plus selection bookkeeping."""

    theta: float
    alpha: float
    scheme: str
    selected: tuple | int | None
    pilots_used: int
    clamped: bool = False
    fallback: bool = False

    def __post_init__(self):
        PolarLocation(self.theta, self.alpha)  # the polar-domain rule

    @classmethod
    def from_batch(cls, batch: "BatchEstimate", scheme: str, pilots_used: int):
        """Trial 0 of a batch estimator's record.  A picked pair is selected
        as the 1-based (subcarrier, pilot or ring) pair; a grid index stays
        the 0-based int."""
        pick = batch.pick[0]
        selected = tuple(int(i) + 1 for i in pick) if np.ndim(pick) else int(pick)
        return cls(float(batch.theta[0]), float(batch.alpha[0]), scheme, selected,
                   pilots_used, bool(batch.clamped[0]), bool(batch.fallback[0]))


def linear_snr(snr_db: float) -> float:
    """The linear SNR 10^(snr_db / 10); raises ValueError unless it is
    finite and positive, which it is not above about 3082 dB, nor below
    about -3236 dB, where it rounds to 0."""
    try:
        snr = 10 ** (float(snr_db) / 10)
    except OverflowError:
        snr = math.inf
    if not 0 < snr < math.inf:  # also NaN
        raise ValueError(f"an SNR of {snr_db} dB has no finite, positive linear value")
    return snr


def noise_power(cfg: SystemConfig, beta_c, snr: float):
    """Noise variance sigma^2 = P_t N_t beta_c^2 / snr, so that the linear
    snr holds at the center subcarrier; 0 when snr = inf.  beta_c is the
    center path gain of one user or an array of users'."""
    if not snr > 0:  # also NaN
        raise ValueError("linear snr must be positive")
    if math.isinf(snr):
        return np.zeros_like(beta_c)
    return TX_POWER * cfg.n_antennas * np.square(beta_c) / snr


def _unit_noise(rng, shape, out=None) -> np.ndarray:
    """CN(0, 1) entries as two contiguous float planes (2,) + shape, or out:
    the real parts, then the imaginary, each drawn into its plane and scaled
    there by 1 / sqrt(2): bit for bit the parts of (x + 1j y) / sqrt(2),
    since NumPy divides a complex by a real as the product with its reciprocal."""
    planes = np.empty((2, *shape)) if out is None else out
    for plane in planes:
        rng.standard_normal(out=plane)
        plane *= 1 / math.sqrt(2)
    return planes


def _buffer(work: dict, key, shape, dtype=float) -> np.ndarray:
    """The leading entries of work[key] in this shape; made anew if too small."""
    if key not in work or work[key].size < math.prod(shape):
        work[key] = np.empty(math.prod(shape), dtype)
    return work[key][:math.prod(shape)].reshape(shape)


def _beam_profiles(cfg: SystemConfig, params: TdPsParams):
    """Delay profile polar_phase(theta_t, alpha_t) and phase-shift profile
    polar_phase(theta_p, alpha_p) of the beams of params, (K, N_t) views
    that may repeat a row: the phases of _pilot_pass and
    build_match_filter_bank, through the giant and baby steps."""
    return tuple(np.broadcast_to(cfg.polar_phase(theta, alpha), (len(params), cfg.n_antennas))
                 for theta, alpha in ((params.theta_t, params.alpha_t),
                                      (params.theta_p, params.alpha_p)))


def pilot_beamformers(cfg: SystemConfig, params: TdPsParams, f) -> np.ndarray:
    """Delay-phase beamformer of each beam of params at frequency f.

    Element n of column k is e^{-j k_f (n d theta_t - n^2 d^2 alpha_t)
    - j k_c (n d theta_p - n^2 d^2 alpha_p)} / sqrt(N_t).  f may be an array;
    the shape is f.shape + (N_t, len(params)): the tests' oracle of the giant
    and baby steps of _pilot_pass and build_match_filter_bank, which build no
    beam; the beamsplit oracles td_vector / ps_vector stay separate on purpose.
    """
    delay, shift = _beam_profiles(cfg, params)
    k = np.asarray(cfg.wavenumber(f))[..., None, None]
    phase = -k * delay.T - cfg.wavenumber(cfg.carrier_freq) * shift.T
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


def _pilot_pass(cfg: SystemConfig, pilots: dict, beta_c, lengths, work=None) -> dict:
    """Noiseless observations sqrt(P_t) h_m^T w_{m,k} of each pilot family
    of _observe, one C-contiguous (T, M, K) array per family, in work.

    With m - 1 = a b + s as in phase_steps, the sum over the elements of row
    (user t, beam k) at subcarrier m is sum_n G[a, n] S[s, n]: the giant
    steps G = e^{-j k_{ab+1} L} e^{-j (k_{ab+1} A + k_c B)} sqrt(P_t / N_t)
    and the baby steps S = e^{-j s dk L} e^{-j s dk A}, L the user's element
    path lengths and A, B the _beam_profiles.  The beam steps of every
    family's beams are one table by phase_steps over -A, kept in work; the
    user steps by phase_steps over -L, one block of users at a time
    (blocks), into tables made once per call: (3 T + 4 K) N_t exponentials.
    One row at a time, the two products and the matrix product (a, N_t)
    (N_t, b) go into three buffers made once per call (128, 128 and 16 KB at
    full scale, inside a core's L2), and the first M sums, times the path
    gain beta_c f_c / f_m, into the family's column.  No bit depends on the
    blocks or the beams beside."""
    work = {} if work is None else work
    freqs, (n_trials, n_t) = cfg.subcarrier_freqs(), np.shape(lengths)
    out = {name: _buffer(work, ("observations", name), (n_trials, len(freqs), len(p)), complex)
           for name, p in pilots.items()}
    if not pilots:
        return out
    if (key := ("beam steps", *pilots)) not in work:
        kc = cfg.wavenumber(cfg.carrier_freq)
        profiles = [_beam_profiles(cfg, p) for p in pilots.values()]
        delay, shift = (np.concatenate(x) for x in zip(*profiles))  # (K, N_t)
        beam_giant, _ = work[key] = phase_steps(cfg, -delay)  # (K, a, N_t), (K, b, N_t)
        beam_giant *= (np.exp(-1j * kc * shift) * math.sqrt(TX_POWER / n_t))[:, None]
    beam_giant, beam_baby = work[key]
    ratio = cfg.carrier_freq / freqs  # of the path gain beta_c f_c / f_m, (M,)
    # each beam's (T, M) output column and its steps
    beams = list(zip([obs[..., j] for obs in out.values() for j in range(obs.shape[2])],
                     beam_giant, beam_baby))
    giant, baby = np.empty_like(beam_giant[0]), np.empty_like(beam_baby[0])
    sums = np.empty((len(giant), len(baby)), dtype=complex)
    baby_t, first = baby.T, sums.reshape(-1)[:len(freqs)]
    users_of = blocks(n_trials, n_t * (len(giant) + len(baby)))
    tables = [np.empty((users_of[0].stop, *x.shape), dtype=complex) for x in (giant, baby)]
    for users in users_of:
        for t, user_giant, user_baby in zip(range(n_trials)[users],
                                            *phase_steps(cfg, -lengths[users], tables)):
            gain = ratio * beta_c[t]
            for column, beam_g, beam_b in beams:
                np.multiply(user_giant, beam_g, out=giant)
                np.multiply(user_baby, beam_b, out=baby)
                np.matmul(giant, baby_t, out=sums)
                np.multiply(first, gain, out=column[t])
    return out


def _observe(cfg: SystemConfig, families: dict, beta_c, lengths, rng_of, work=None) -> dict:
    """Noisy observations of every probe family for T users of center path
    gains beta_c (T,) at element path lengths (T, N_t).  families maps a
    family name to its probes: a pilot parameter set (TdPsParams) or a
    PolarCodebook.  Returns family name -> map from the per-user noise std
    (T, 1, 1) to the observations: magnitudes |sqrt(P_t) h_m^T w_{m,k} +
    sigma z| (T, M, K) of pilots, every pilot family in one _pilot_pass
    ((3 T + 4 K) N_t exponentials), or a codebook's noise-law powers (T, G)
    over band_powers, each family's noise drawn from rng_of(name): for
    pilots two float planes, from which the magnitudes are made one block of
    users at a time through a complex scratch, so no (T, M, K) complex
    temporary is made.  The observations, planes and scratch live in work,
    the workspace dict one sweep passes to every call (a fresh one if None),
    and each call rewrites them.  The sweep engine and observe_params (T =
    1, a fresh workspace) observe here.
    """
    work = {} if work is None else work
    books = {name for name, p in families.items() if isinstance(p, PolarCodebook)}
    out = _pilot_pass(cfg, {name: p for name, p in families.items() if name not in books},
                      beta_c, lengths, work)
    out.update({name: band_powers(families[name], beta_c, lengths) for name in books})

    def noisy(name, x):
        if name in books:
            a, b, c = exhaustive_moments(x, cfg.n_subcarriers, rng_of(name))
            return lambda sg: a + 2 * sg[:, :, 0] * b + sg[:, :, 0] * sg[:, :, 0] * c
        re, im = _unit_noise(rng_of(name), x.shape, _buffer(work, ("noise", name), (2, *x.shape)))

        def magnitudes(sg):  # through a complex scratch of one block of users
            mags, users = np.empty(x.shape), blocks(len(x), x[0].size)
            z = _buffer(work, "scratch", (users[0].stop, *x.shape[1:]), complex)
            for t in users:
                zt = z[:t.stop - t.start]
                np.multiply(sg[t], re[t], out=zt.real)
                np.multiply(sg[t], im[t], out=zt.imag)
                zt += x[t]
                np.abs(zt, out=mags[t])
            return mags
        return magnitudes

    return {name: noisy(name, out[name]) for name in families}


def observe_params(cfg: SystemConfig, channel: Channel, probes, snr: float, rng) -> np.ndarray:
    """One training observation of a scheme table row's probes: _observe at
    T = 1 over the channel's beta_c and element path lengths.  Returns the
    magnitudes |sqrt(P_t) h_m^T w_{m,k} + sigma z_{m,k}| (M, len(probes)) of
    a pilot parameter set (TdPsParams), or the codeword powers (G,) of a
    PolarCodebook, whose band quadrature observes the same channel at
    frequencies between the subcarriers.  Every draw comes from the one
    generator np.random.default_rng(rng), so a fixed seed is reproducible,
    and each call observes in a fresh workspace."""
    gen = np.random.default_rng(rng)
    sigma = np.sqrt(noise_power(cfg, channel.beta_c, snr)).reshape(1, 1, 1)
    return _observe(cfg, {None: probes}, np.array([channel.beta_c]), channel.lengths[None],
                    lambda _: gen, work={})[None](sigma)[0]


class BatchEstimate(NamedTuple):
    """The record every batch estimator returns, one entry per trial.

    Batch estimators take observations with a leading trial axis T and an
    optional pilot budget (the first `budget` pilots, codewords or rings;
    None uses all).  The single-trial *_train functions are their T = 1
    case, through TrainingEstimate.from_batch.
    """

    theta: np.ndarray  # (T,)
    alpha: np.ndarray  # (T,), nonnegative
    pick: np.ndarray  # 0-based: grid index (T,), or (subcarrier, pilot or ring) pair (T, 2)
    clamped: np.ndarray  # (T,) bool: the estimate was clipped into the served region
    fallback: np.ndarray  # (T,) bool: aux-pair kept the on-grid answer


def _argmax_rows(obs: np.ndarray, budget) -> np.ndarray:
    """Flat index of each trial's largest entry among the first `budget`
    columns of its trailing axis; ties go to the smaller index."""
    sub = obs[..., :budget]
    return np.argmax(sub.reshape(len(sub), -1), axis=1)


def _grid_pick(grid: PolarCodebook, idx) -> BatchEstimate:
    """Record of the grid points at 0-based indices idx (angle-major, then
    ring); no flags."""
    angle, ring = np.divmod(idx, len(grid.rings))
    return BatchEstimate(grid.thetas[angle], grid.rings[ring], idx,
                         *np.zeros((2, len(idx)), dtype=bool))


def ongrid_estimate(mags: np.ndarray, plan: PilotPlan, budget=None) -> BatchEstimate:
    """Strongest beam's predicted focus per trial of mags (T, M, K), on its
    lobe inside the served range where it has one; ties go to smaller m,
    then smaller k.  The pick is the beam's (m, k) pair.  Only the picked
    beams' foci are evaluated."""
    m, k = np.divmod(_argmax_rows(mags, budget), mags[..., :budget].shape[-1])
    focus = plan.focus(m + 1, k + 1, clamp=True, served=True)
    return BatchEstimate(focus.theta, np.maximum(focus.alpha, 0.0), np.stack([m, k], 1),
                         focus.clamped | (focus.alpha < 0), np.zeros(len(m), dtype=bool))


def ongrid_train(mags: np.ndarray, plan: PilotPlan) -> TrainingEstimate:
    """Strongest beam's predicted focus in mags (M, K); ties go to smaller m, then k."""
    return TrainingEstimate.from_batch(ongrid_estimate(mags[None], plan),
                                       SCHEME_ONGRID, plan.K)


def aux_pair_estimate(mags: np.ndarray, plan: PilotPlan, budget=None) -> BatchEstimate:
    """Refine each trial's on-grid pick by intersecting two gain ellipses.

    Per trial of mags (T, M, K), over the first `budget` pilots: take the
    strongest beam and its stronger in-band neighbor on the same pilot (the
    lower one on a tie), convert both magnitudes to model gains via the
    path gain at the on-grid distance, and intersect the two quadratic gain
    models in (theta, alpha) in closed form, taking the root of lower alpha.
    Both foci are on the lobe inside the served range where the beam has
    one (plan.focus with served=True).  A trial falls back to the on-grid
    answer on no neighbor, a neighbor focus on another lobe than the pick's,
    an unusable on-grid distance or coincident foci.  The pick is the
    on-grid pick's (m, k) pair.
    """
    cfg = plan.cfg
    base = ongrid_estimate(mags, plan, budget)
    theta0, alpha0 = base.theta, base.alpha
    m_hat, k_hat = base.pick.T
    rows, n_sub = np.arange(len(mags)), mags.shape[1]
    col = mags[rows, :, k_hat]  # (T, M): the picked pilot's magnitudes
    lo, hi = np.maximum(m_hat - 1, 0), np.minimum(m_hat + 1, n_sub - 1)
    lower = (m_hat > 0) & ((m_hat == n_sub - 1) | (col[rows, hi] <= col[rows, lo]))
    pair = np.stack([m_hat, np.where(lower, lo, hi)], axis=1)  # (T, 2) subcarriers
    with np.errstate(divide="ignore", invalid="ignore"):
        r_hat = curvature_law(theta0, alpha0)
    fallback = (n_sub == 1) | ~np.isfinite(r_hat) | (r_hat <= 0)
    r_hat = np.where(fallback, 1.0, r_hat)

    centers = plan.focus(pair + 1, k_hat[:, None] + 1, clamp=True, served=True)
    t0, a0 = centers.theta, centers.alpha  # (T, 2)
    fallback |= centers.p[:, 0] != centers.p[:, 1]
    f = cfg.subcarrier_freqs()[pair]
    beta = (cfg.carrier_freq / f) * path_loss(cfg, r_hat[:, None], cfg.carrier_freq)
    g = col[rows[:, None], pair] / (math.sqrt(TX_POWER * cfg.n_antennas) * beta)
    rhs = 1.0 - np.clip(g, 1e-6, 1.0)
    s1, s2 = ellipse_coefficients(cfg, f)

    # Gain 1 at the peak collapses its ellipse to a point: the root is that
    # focus itself.
    exact = ~fallback & (rhs[:, 0] <= 1e-12)
    # sigma1 and sigma2 both scale as f^2, so in the coordinates
    # (theta sqrt(sigma1/sigma2), alpha) both ellipses are circles, of
    # squared radius rhs/sigma2, and the two roots lie on their radical line.
    scale = np.sqrt(s1[:, 0] / s2[:, 0])
    center = np.stack([t0 * scale[:, None], a0], axis=2)  # (T, 2, 2): member, (u, alpha)
    axis = center[:, 1] - center[:, 0]
    dist = np.hypot(axis[:, 0], axis[:, 1])
    fallback |= ~exact & (dist == 0)  # coincident foci
    dist = np.where(dist == 0, 1.0, dist)
    ex, ea = axis[:, 0] / dist, axis[:, 1] / dist
    radius2 = rhs / s2
    along = (dist * dist + radius2[:, 0] - radius2[:, 1]) / (2 * dist)
    # Circles that do not meet give the foot on the centre line.  Of the two
    # roots take the one of lower alpha, the farther user: with users uniform
    # in distance, alpha = (1 - theta^2) / (2 r) has density ~ 1/alpha^2.
    across = np.sqrt(np.maximum(radius2[:, 0] - along * along, 0.0))
    th = (center[:, 0, 0] + along * ex + across * np.where(ex < 0, -ea, ea)) / scale
    al = center[:, 0, 1] + along * ea - across * np.abs(ex)

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
    return BatchEstimate(np.where(fallback, theta0, th), np.where(fallback, alpha0, al),
                         base.pick, np.where(fallback, base.clamped, clamped), fallback)


def aux_pair_train(mags: np.ndarray, plan: PilotPlan) -> TrainingEstimate:
    """Refine the on-grid pick by intersecting two gain ellipses: the T = 1
    case of aux_pair_estimate over mags (M, K), flagged fallback when it
    keeps the on-grid answer."""
    return TrainingEstimate.from_batch(aux_pair_estimate(mags[None], plan),
                                       SCHEME_AUX, plan.K)


@dataclass(frozen=True)
class MatchFilterBank:
    """Noiseless signatures of a plan's K pilots over a polar grid.

    signatures[k, m, g] is pilot k's array gain on subcarrier m at grid point
    g: pilot-major, so K is len(signatures) and the first `budget` pilots
    are a view.  Grid points run angle-major then ring, so argmax ties
    resolve to the smaller angle index, then the smaller ring index.
    """

    signatures: np.ndarray
    grid: PolarCodebook
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.signatures.shape[-1] != len(self.grid):
            raise ValueError("one signature per grid point required")

    def __len__(self) -> int:
        return len(self.grid)

    def norms(self, budget=None) -> np.ndarray:
        """Norms (G,) of the first `budget` pilots' signatures, made once a budget."""
        if budget not in self._norms:
            sig = self.signatures[:budget].reshape(-1, len(self))  # (budget M, G), a view
            self._norms[budget] = np.sqrt(np.einsum("ig,ig->g", sig, sig))
        return self._norms[budget]


def _chirp_z(pre: np.ndarray, kernel: np.ndarray, n_out: int) -> np.ndarray:
    """|sum_n q_n e^{j w n a}| for a < n_out over the last axis, from the
    pre-chirped pre_n = q_n e^{j w n^2 / 2} and the kernel, the FFT of the
    chirp e^{-j w l^2 / 2} at the lags l of _grid_phases.  Bluestein's n a =
    (n^2 + a^2 - (a - n)^2) / 2 makes the sum a convolution with the chirp,
    and e^{j w a^2 / 2} drops out of the magnitude."""
    spectrum = np.fft.fft(pre, kernel.shape[-1])
    spectrum *= kernel
    return np.abs(np.fft.ifft(spectrum)[..., :n_out])


def _grid_phases(grid: PolarCodebook) -> tuple[np.ndarray, np.ndarray]:
    """Phases over k of the grid's chirp-z sum: the ring profiles
    -polar_phase(theta_0, alpha_r) - d dtheta n^2 / 2 (R, N_t), k times which
    plus w n a, w = -k d dtheta, is the pre-chirped phase of sqrt(N_t)
    conj(b_n) at (theta_0 + a dtheta, alpha_r) up to one common to all n; and
    the chirp d dtheta l^2 / 2 at the lags 0..A-1, -(n_fft - A)..-1 of A
    angles, n_fft the least p 2^b >= N_t + A - 1, p = 1, 5, 25 (fast FFTs)."""
    cfg, n_out = grid.cfg, len(grid.thetas)
    n, size = np.arange(cfg.n_antennas), cfg.n_antennas + n_out - 1
    lags = np.arange(min(p << (-(-size // p) - 1).bit_length() for p in (1, 5, 25)))
    lags = np.where(lags < n_out, lags, lags - len(lags))
    rate = 0.5 * cfg.spacing * grid.step
    return -cfg.polar_phase(grid.thetas[0], grid.rings) - rate * n * n, rate * lags * lags


def _by_product(grid: PolarCodebook, n_rows: int) -> bool:
    """Whether codeword_powers sums over the angles by a matrix product, not
    the chirp-z: where N_t A (T R + 24) < 16 T R n_fft log2 n_fft, T = n_rows,
    fitted to crossovers of band_powers (one BLAS thread, 2-vCPU VM): the
    product loses at T R = 8 and wins at 16 for N_t = 64, A = 96 or 192;
    loses at 4 and wins at 8 for N_t = 256, A = 32; at T R = 200, N_t = 256,
    wins at A = 128 and 512 (0.83x, fitted as a tie) and loses by 1.35-1.47x
    at A = 768 and 1024."""
    rows, n_fft = n_rows * len(grid.rings), len(_grid_phases(grid)[1])
    return (grid.cfg.n_antennas * len(grid.thetas) * (rows + 24)
            < 16 * rows * n_fft * math.log2(n_fft))


def codeword_powers(codebook: PolarCodebook, n_rows: int, rows, f, weights) -> np.ndarray:
    """Powers (T, G), in codeword order and clipped at 0, of |sqrt(P_t)
    sum_n h_n conj(b_n)|^2 for every codeword b, summed over frequencies f
    (C,) times weights (C,), h the T = n_rows rows(f[chunk]) (chunk, T, N_t).
    On the path _by_product picks, per frequency the rows h e^{-j k
    polar_phase(theta_0, alpha_r)} (T R, N_t) times e^{-j k d dtheta n a}
    (N_t, A) into two buffers made once, or one _chirp_z per (row, ring)
    pre-chirped by the _grid_phases, a block of rows at a time; each chunk
    of frequencies (blocks) is added in order into one ring-major total."""
    cfg = codebook.cfg
    n, r, n_out = cfg.n_antennas, len(codebook.rings), len(codebook.thetas)
    total = np.zeros((n_rows, r, n_out))
    by_product = _by_product(codebook, n_rows)
    profile, chirp = _grid_phases(codebook)
    per_freq = ((n_rows * r + n_out) * n + n_rows * r * n_out if by_product
                else n_rows * r * len(chirp))
    chunks = blocks(len(f), per_freq)
    size = (chunks[0].stop - chunks[0].start) * n_rows * r * n_out
    work = (np.empty(size, dtype=complex), np.empty(size)) if by_product else None

    def add(mag, w, block):  # squared (C, rows, R, A): scaled, weighted and summed in place
        mag *= TX_POWER / n
        mag *= w[:, None, None, None]
        for power in mag[1:]:
            mag[0] += power
        total[block] += mag[0]

    def product(h, k, w):
        c = len(k)
        pre = h[:, :, None] * np.exp(-1j * k * cfg.polar_phase(codebook.thetas[0],
                                                                codebook.rings))[:, None]
        steps = _powers(np.exp(-1j * cfg.spacing * codebook.step * k[:, 0] * np.arange(n)), n_out)
        sums = np.matmul(pre.reshape(c, n_rows * r, n), np.swapaxes(steps, 1, 2),
                         out=work[0][:c * n_rows * r * n_out].reshape(c, n_rows * r, n_out))
        mag = np.multiply(sums.real, sums.real, out=work[1][:sums.size].reshape(sums.shape))
        mag += np.square(sums.imag, out=sums.imag)
        add(mag.reshape(c, n_rows, r, n_out), w, slice(None))

    def chirp_z(h, k, w):
        # C order keeps each FFT row contiguous whatever the layout of h
        pre = np.multiply(h[:, :, None, :], np.exp(1j * k * profile)[:, None], order="C")
        kernel = np.fft.fft(np.exp(1j * k[:, None] * chirp))
        for block in blocks(n_rows, len(k) * r * len(chirp)):  # small FFT buffers
            mag = _chirp_z(pre[:, block], kernel, n_out)
            mag *= mag
            add(mag, w, block)

    for chunk in chunks:
        (product if by_product else chirp_z)(
            rows(f[chunk]), cfg.wavenumber(f[chunk])[:, None, None], weights[chunk])
    out = np.swapaxes(total, 1, 2).reshape(n_rows, -1)  # codeword order, a copy
    return np.maximum(out, 0.0, out=out)


def build_match_filter_bank(plan: PilotPlan, grid: PolarCodebook) -> MatchFilterBank:
    """Signature bank of the plan's pilots over a polar grid: the array gain
    |a(theta, alpha)^T w_{m,k}| of every pilot beam at every grid point.  With
    m - 1 = a b + s, A, B the _beam_profiles and P, x the _grid_phases,
    _chirp_z sums a row's entries e^{j (k_{ab+1} (A + P) + k_c B)} e^{j s dk
    (A + P)} / N_t under its chirp e^{j k_{ab+1} x} e^{j s dk x}: the giant
    and baby steps of phase_steps over A + P and over x, 3 (K R N_t + n_fft)
    exponentials, then one loop over blocks of subcarriers, sized by their
    giant, baby and product rows and two FFT buffers.  No bit depends on
    the blocks."""
    cfg, n_out = plan.cfg, len(grid.thetas)
    params = plan.params(np.arange(1, plan.K + 1))
    delay, shift = (p[:, None] for p in _beam_profiles(cfg, params))  # (K, 1, N_t)
    profile, chirp = _grid_phases(grid)
    # (a, K, R, N_t) and (b, K, R, N_t) views
    giant_pre, baby_pre = (np.moveaxis(x, 2, 0) for x in phase_steps(cfg, delay + profile))
    giant_pre *= np.exp(1j * cfg.wavenumber(cfg.carrier_freq) * shift) / cfg.n_antennas
    giant_chirp, baby_chirp = phase_steps(cfg, chirp)  # (a, n_fft), (b, n_fft)
    sig = np.empty((plan.K, cfg.n_subcarriers, len(grid)))
    angle_major = sig.reshape(plan.K, cfg.n_subcarriers, n_out, -1)  # a view
    per_subcarrier = plan.K * len(grid.rings) * (3 * cfg.n_antennas + 2 * len(chirp))
    for block in blocks(cfg.n_subcarriers, per_subcarrier):
        a, s = np.divmod(np.arange(block.start, block.stop), len(baby_chirp))
        kernel = np.fft.fft(giant_chirp[a] * baby_chirp[s])[:, None, None]
        mag = _chirp_z(giant_pre[a] * baby_pre[s], kernel, n_out)  # (C, K, R, A)
        angle_major[:, block] = mag.transpose(1, 0, 3, 2)
    return MatchFilterBank(signatures=sig, grid=grid)


def match_filter_estimate(mags: np.ndarray, bank: MatchFilterBank, budget=None
                          ) -> BatchEstimate:
    """Grid point whose signature best correlates with each trial's
    observation over the first `budget` pilots, both unit-normalized (cosine
    similarity); first index wins ties.  The budget's signatures are a view
    of the bank and the correlations are divided by their bank.norms, so the
    bank is not copied.  The pick is the grid index."""
    sig = bank.signatures[:budget].reshape(-1, len(bank))  # (budget M, G), a view
    sig_norms = bank.norms(budget)
    flat = np.swapaxes(mags[..., :budget], 1, 2).reshape(len(mags), -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    flat = flat / np.where(norms == 0, 1.0, norms)
    idx = np.argmax(flat @ sig / np.where(sig_norms == 0, 1.0, sig_norms), axis=1)
    return _grid_pick(bank.grid, idx)


def match_filter_train(mags: np.ndarray, bank: MatchFilterBank) -> TrainingEstimate:
    """Grid point whose signature best correlates with mags (M, K), both
    unit-normalized (cosine similarity); first index wins ties."""
    return TrainingEstimate.from_batch(match_filter_estimate(mags[None], bank),
                                       SCHEME_MATCH, len(bank.signatures))


def exhaustive_estimate(powers: np.ndarray, codebook, budget=None) -> BatchEstimate:
    """Codeword with the largest received power per trial of powers (T, G).
    A budget below G searches that many codewords evenly strided over the
    codebook order, so they span the whole angle range; ties go to the
    smaller grid index.  The pick is the codeword index."""
    g = powers.shape[-1]
    searched = (np.arange(g) if budget is None or budget >= g
                else np.round(_uniform_samples(0, g - 1, budget)).astype(int))
    idx = searched[np.argmax(powers[:, searched], axis=1)]
    return _grid_pick(codebook, idx)


@lru_cache(maxsize=8)
def band_quadrature(cfg: SystemConfig, alpha_max: float, theta_max: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Node frequencies and real weights (J,) that stand in for the M
    subcarriers in a codebook's powers summed over the band.

    With v_n = -r_n + u_n^2 alpha_g - u_n theta_g, a codeword's power summed
    over the band is beta_c^2 sum_{n,n'} K(v_n - v_n'), where K(x) = sum_m
    (f_c / f_m)^2 e^{j k_m x} and |x| <= X = D (1 + theta_max) + (D / 2)^2
    alpha_max, D = (N_t - 1) d, for codewords up to theta_max and alpha_max:
    any user's |r_n - r_n'| <= |u_n - u_n'| <= D (triangle inequality), u_n
    theta_g spreads over D theta_max and u_n^2 alpha_g over (D / 2)^2
    alpha_max.  On |x| <= X, K is band-limited, so J Chebyshev nodes nu_j over
    [f_1, f_M] with weights w_j, fitted by least squares, give K(x) ~ sum_j
    w_j (f_c / nu_j)^2 e^{j k(nu_j) x}; then the summed power is sum_j w_j
    times the codeword power at nu_j (generalized Gaussian quadrature for
    band-limited functions, Xiao, Rokhlin & Yarvin 2001).  J goes from
    ceil((k_M - k_1) X / 4) + 16 up by 8, then bisects the last step, to the
    least count whose largest residual of K on an 8x oversampled grid of
    [0, X] is at most 1e-13 sum_m (f_c / f_m)^2 (K(-x) is conj K(x) on both
    sides); the fit runs on a 2x oversampled grid, and K is built in blocks
    of x.  When J would reach M, the subcarriers with unit weights are
    returned: the exact sum.  Every wavenumber is taken less the band's
    middle one, which keeps the phases small.  The arrays are cached and
    read-only.
    """
    freqs = cfg.subcarrier_freqs()
    k = cfg.wavenumber(freqs)
    k_mid = 0.5 * (k[0] + k[-1])
    amp = np.square(cfg.carrier_freq / freqs)
    aperture = (cfg.n_antennas - 1) * cfg.spacing
    reach = aperture * (1 + theta_max) + (aperture / 2) ** 2 * alpha_max
    width = k[-1] - k[0]

    def kernel(x, wavenumbers, weights):  # sum_j weights_j e^{j (wavenumbers_j - k_mid) x}
        out = np.empty(len(x), dtype=complex)
        for block in blocks(len(x), len(wavenumbers)):
            out[block] = np.exp(1j * np.multiply.outer(x[block], wavenumbers - k_mid)) @ weights
        return out

    fit_x = np.linspace(0.0, reach, math.ceil(2 * width * reach / math.pi) + 2)
    check_x = np.linspace(0.0, reach, math.ceil(8 * width * reach / math.pi) + 2)
    fit_target, check_target = kernel(fit_x, k, amp), kernel(check_x, k, amp)

    def fit(n_nodes):  # Chebyshev nodes and weights, or None where the check fails
        phi = (2 * np.arange(n_nodes, 0, -1) - 1) * np.pi / (2 * n_nodes)
        candidate = 0.5 * (freqs[0] + freqs[-1]) + 0.5 * (freqs[-1] - freqs[0]) * np.cos(phi)
        k_nodes = cfg.wavenumber(candidate)
        basis = np.exp(1j * np.multiply.outer(fit_x, k_nodes - k_mid))
        c = np.linalg.lstsq(np.concatenate([basis.real, basis.imag]),
                            np.concatenate([fit_target.real, fit_target.imag]), rcond=None)[0]
        if np.max(np.abs(check_target - kernel(check_x, k_nodes, c))) <= 1e-13 * amp.sum():
            return candidate, c * np.square(candidate / cfg.carrier_freq)

    n_nodes, rule = math.ceil(width * reach / 4) + 16, None
    while n_nodes < len(freqs) and (rule := fit(n_nodes)) is None:
        n_nodes += 8
    for step in (4, 2, 1) if rule else ():  # bisect the last step of 8
        if (trial := fit(n_nodes - step)) is not None:
            n_nodes, rule = n_nodes - step, trial
    nodes, weights = rule or (freqs, np.ones(len(freqs)))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def band_powers(codebook: PolarCodebook, beta_c, lengths) -> np.ndarray:
    """Noiseless powers (T, G) of every codeword summed over the M
    subcarriers, for T users of center path gains beta_c (T,) at element
    path lengths (T, N_t): codeword_powers of their channel_rows over the
    nodes and weights of band_quadrature for the codebook's largest ring and
    |theta|.  A power that rounds below 0 is clipped to 0, as
    exhaustive_moments takes its square root.  With the subcarriers as nodes
    the sum is exact, bit for bit the per-subcarrier pass."""
    cfg = codebook.cfg
    nodes, weights = band_quadrature(cfg, float(codebook.rings.max()),
                                     float(np.abs(codebook.thetas).max()))
    return codeword_powers(codebook, len(beta_c),
                           lambda f: channel_rows(cfg, beta_c, lengths, f[:, None]),
                           nodes, weights)


def exhaustive_moments(a: np.ndarray, n_subcarriers: int, rng):
    """Moments (A, B, C), power A + 2 sigma B + sigma^2 C, of the exhaustive
    search from its noiseless powers a = A (..., G) over M = n_subcarriers:
    sum_m |p_m + sigma z_m|^2, z ~ CN(0, I_M), equals A + 2 sigma sqrt(A) Re(w)
    + sigma^2 (|w|^2 + Gamma) in distribution, w = p^H z / sqrt(A) ~ CN(0, 1)
    and Gamma ~ Gamma(M - 1, 1) from the rest of z (Cochran's theorem).  Draws
    Re(w), Im(w), then Gamma; none depends on sigma, so SNR points share them."""
    x = rng.standard_normal((2,) + a.shape) / math.sqrt(2)
    gamma = rng.gamma(n_subcarriers - 1.0, size=a.shape)
    return a, np.sqrt(a) * x[0], x[0] * x[0] + x[1] * x[1] + gamma


def exhaustive_polar_train(channel: Channel, codebook, snr: float, rng) -> TrainingEstimate:
    """One pilot per codeword; pick the codeword with the largest power summed
    across subcarriers: the sweep's codebook pass and noise law at T = 1.
    Ties go to the smaller grid index."""
    return train(_exhaustive_row(codebook), SCHEME_EXHAUSTIVE, codebook.cfg, channel, snr, rng)


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


def rainbow_probes(cfg: SystemConfig, rings) -> TdPsParams:
    """One frequency sweep per curvature ring: the sweep parameters with
    alpha_t set to the rings.  The far-field sweep is the single ring 0."""
    base = rainbow_sweep_params(cfg)
    return TdPsParams(base.theta_t, base.theta_p, alpha_t=np.asarray(rings, dtype=float))


def rainbow_estimate(mags: np.ndarray, cfg: SystemConfig, rings, budget=None
                     ) -> BatchEstimate:
    """Strongest (subcarrier, ring) per trial of mags (T, M, S) over the
    first `budget` rings: the sweep's angle at that subcarrier and the ring's
    curvature.  The pick is the (subcarrier, ring) pair."""
    flat = _argmax_rows(mags, budget)
    m_idx, s_idx = np.divmod(flat, mags[..., :budget].shape[-1])
    params = rainbow_sweep_params(cfg)
    g = cfg.carrier_freq / cfg.subcarrier_freqs()[m_idx]
    theta = np.clip(params.theta_t + g * params.theta_p, -1.0, 1.0)
    return BatchEstimate(theta, np.asarray(rings, dtype=float)[s_idx],
                         np.stack([m_idx, s_idx], 1), *np.zeros((2, len(flat)), dtype=bool))


def nearfield_rainbow_train(
    channel: Channel, cfg: SystemConfig, n_rings: int, snr: float, rng
) -> TrainingEstimate:
    """One frequency sweep per distance ring; strongest (subcarrier, ring)
    wins.  Every beam of a ring shares its curvature alpha.  With no plan,
    the rings span the config's [alpha_min, alpha_max], not a design's band
    as in scheme_table."""
    if n_rings < 1:
        raise ValueError("need at least one ring")
    rings = _uniform_samples(cfg.alpha_min, cfg.alpha_max, n_rings)
    return train(_rainbow_row("near", cfg, rings), SCHEME_NEAR_RAINBOW, cfg, channel, snr, rng)


def farfield_rainbow_train(
    channel: Channel, cfg: SystemConfig, snr: float, rng
) -> TrainingEstimate:
    """Single frequency sweep, curvature ignored (alpha estimate is 0)."""
    return train(_rainbow_row("far", cfg, FAR_RINGS), SCHEME_FAR_RAINBOW, cfg, channel, snr, rng)


# scheme table and the single-trial runner -----------------------------------

class Scheme(NamedTuple):
    """One row of the scheme table."""

    # probe family: "plan", "codebook", "near" or "far"; the schemes of one
    # family share its draws and observations.  None: no probes (perfect CSI)
    family: str | None
    probes: object  # a TdPsParams or a PolarCodebook, as _observe takes
    estimate: Callable | None  # (observations, pilot budget) -> BatchEstimate
    pilots: int  # full pilot count


def _exhaustive_row(codebook) -> Scheme:
    return Scheme("codebook", codebook,
                  lambda obs, budget: exhaustive_estimate(obs, codebook, budget), len(codebook))


def _rainbow_row(family: str, cfg: SystemConfig, rings) -> Scheme:
    return Scheme(family, rainbow_probes(cfg, rings),
                  lambda obs, budget: rainbow_estimate(obs, cfg, rings, budget), len(rings))


def scheme_table(plan: PilotPlan, schemes, bank_angles: int, bank_rings: int) -> dict:
    """Scheme name -> Scheme row, for every scheme of ALL_SCHEMES.

    One polar grid of bank_angles angles over the served range times
    bank_rings rings over the design's alpha band, plan.inputs.alpha_bounds,
    is the match-filter bank's grid, the exhaustive codebook and, by its
    rings, the near-field rainbow's rings.  The bank is built only when
    `schemes` asks for the match filter, but every row holds its full pilot
    count.  The rows hold no reference to a caller, so a finished sweep
    frees its bank without waiting for the cycle collector.
    """
    cfg = plan.cfg
    grid = PolarCodebook(cfg, _uniform_samples(*cfg.angle_range, bank_angles),
                         _uniform_samples(*plan.inputs.alpha_bounds, bank_rings))
    bank = build_match_filter_bank(plan, grid) if SCHEME_MATCH in schemes else None
    # the designed pilots' rows share their family, probes and pilot count
    plan_row = partial(Scheme, "plan", plan.params(np.arange(1, plan.K + 1)), pilots=plan.K)
    return {
        SCHEME_PERFECT: Scheme(None, None, None, 0),
        SCHEME_ONGRID: plan_row(lambda obs, budget: ongrid_estimate(obs, plan, budget)),
        SCHEME_AUX: plan_row(lambda obs, budget: aux_pair_estimate(obs, plan, budget)),
        SCHEME_MATCH: plan_row(lambda obs, budget: match_filter_estimate(obs, bank, budget)),
        SCHEME_EXHAUSTIVE: _exhaustive_row(grid),
        SCHEME_NEAR_RAINBOW: _rainbow_row("near", cfg, grid.rings),
        SCHEME_FAR_RAINBOW: _rainbow_row("far", cfg, FAR_RINGS),
    }


def train(row: Scheme, scheme: str, cfg: SystemConfig, channel: Channel, snr: float,
          rng) -> TrainingEstimate:
    """One training run of a scheme table row at T = 1: the row's probes
    observed by observe_params, then its estimator over the full pilot count.
    A fixed seed is reproducible."""
    obs = observe_params(cfg, channel, row.probes, snr, rng)
    return TrainingEstimate.from_batch(row.estimate(obs[None], None), scheme, row.pilots)
