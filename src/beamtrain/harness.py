"""Link-level experiment harness: rate metric, Monte-Carlo sweeps, dumps.

Sweeps draw random users, run every requested training scheme on common
channels, and report the mean spectral efficiency of serving with the
estimated location.  Trials are vectorized; randomness is keyed by
(master seed, axis index, scheme family) so results are reproducible and
schemes are compared on identical user draws.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from .config import (PolarLocation, SystemConfig, fields_from_dict, fields_to_dict,
                     write_text)
from .arrays import PolarCodebook, _uniform_samples, los_rows
from .beamsplit import InfeasibleFocusError, gain_kernel
from .design import DesignInputs, PilotPlan, design
from .training import (
    ALL_SCHEMES,
    FAR_RINGS,
    SCHEME_AUX,
    SCHEME_EXHAUSTIVE,
    SCHEME_FAR_RAINBOW,
    SCHEME_MATCH,
    SCHEME_NEAR_RAINBOW,
    SCHEME_ONGRID,
    SCHEME_PERFECT,
    TX_POWER,
    TrainingEstimate,
    _response_entries,
    _subcarrier_chunks,
    aux_pair_estimate,
    build_match_filter_bank,
    codeword_responses,
    exhaustive_estimate,
    match_filter_estimate,
    ongrid_estimate,
    pilot_beamformers,
    rainbow_estimate,
    rainbow_probes,
    rainbow_sweep_params,
)

AXES = ("snr_db", "overhead", "distance_m")

# rng stream tags: families keep their draws stable however schemes are combined
_STREAM_USERS = 101
_STREAM_PROPOSED = 102
_STREAM_EXHAUSTIVE = 103
_STREAM_NEAR = 104
_STREAM_FAR = 105


def rate_metric(cfg: SystemConfig, true_loc: PolarLocation, estimate, snr: float) -> float:
    """Mean spectral efficiency over subcarriers, bits/s/Hz:
    (1/M) sum_m log2(1 + snr |b_m(true)^T w_m|^2), with w_m the conjugate
    steering vector at the estimated location."""
    loc = estimate.location if isinstance(estimate, TrainingEstimate) else estimate
    gains = _serving_gains(
        cfg,
        np.array([true_loc.theta]),
        np.array([true_loc.alpha]),
        np.array([loc.theta]),
        np.array([loc.alpha]),
    )
    return float(np.mean(np.log2(1.0 + snr * gains[0] ** 2)))


def _serving_gains(cfg, theta0, alpha0, theta_hat, alpha_hat):
    """Array gain per (trial, subcarrier): kernel at the polar mismatch, one
    gain_kernel call per chunk of subcarriers."""
    k = cfg.wavenumber(cfg.subcarrier_freqs())
    out = np.empty((len(theta0), len(k)))
    dth = theta0 - theta_hat
    dal = alpha0 - alpha_hat
    for chunk in _subcarrier_chunks(len(k), len(theta0) * cfg.n_antennas):
        out[:, chunk] = gain_kernel(cfg, k[chunk, None] * dth, k[chunk, None] * dal).T
    return out


# the DesignInputs fields besides cfg, which ExperimentSpec holds flat and
# writes under "design"
_DESIGN_FIELDS = tuple(f.name for f in dataclasses.fields(DesignInputs) if f.name != "cfg")


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: config, design inputs, schemes, axis, and sizes.

    bank_angles x bank_rings sizes both the exhaustive codebook and the
    match-filter bank; bank_rings is also the rainbow ring count.  snr_db is
    the operating SNR for non-SNR axes.
    """

    cfg: SystemConfig
    gamma: float = 1.0
    alpha_min: float | None = None
    alpha_max: float | None = None
    k_override: int | None = None
    alpha_p_override: float | None = None
    schemes: tuple[str, ...] = ALL_SCHEMES
    sweep_axis: str = "snr_db"
    axis_values: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    n_trials: int = 200
    master_seed: int = 1
    snr_db: float = 15.0
    bank_angles: int = 192
    bank_rings: int = 8

    def __post_init__(self):
        if self.sweep_axis not in AXES:
            raise ValueError(f"sweep_axis must be one of {AXES}")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if len(self.axis_values) == 0:
            raise ValueError("need at least one axis value")
        if self.sweep_axis == "overhead" and any(v < 1 for v in self.axis_values):
            raise ValueError("overhead budgets must be >= 1")
        if self.sweep_axis == "distance_m" and any(v <= 0 for v in self.axis_values):
            raise ValueError("distances must be positive")
        if self.n_trials < 2:
            raise ValueError("n_trials must be >= 2")
        if self.bank_angles < 1 or self.bank_rings < 1:
            raise ValueError("bank dimensions must be >= 1")
        design(self.design_inputs())  # rejects what the design cannot serve
        if {SCHEME_NEAR_RAINBOW, SCHEME_FAR_RAINBOW} & set(self.schemes):
            rainbow_sweep_params(self.cfg)  # rejects a config the sweeps cannot serve

    def design_inputs(self) -> DesignInputs:
        return DesignInputs(self.cfg, **{name: getattr(self, name)
                                         for name in _DESIGN_FIELDS})

    def to_dict(self) -> dict:
        rest = fields_to_dict(self, omit=_DESIGN_FIELDS)
        inputs = fields_to_dict(self.design_inputs(), omit=("cfg",))
        return {"config": rest.pop("config"), "design": inputs, **rest}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        rest = dict(data)
        inputs = fields_from_dict(DesignInputs, rest.pop("design", {}), omit=("cfg",))
        return cls(**fields_from_dict(cls, rest, omit=_DESIGN_FIELDS), **inputs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse JSON text (read files with Path.read_text)."""
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_SWEEP_COLUMNS = (("scheme", str), ("axis", str), ("axis_value", float),
                  ("mean_rate", float), ("stderr", float), ("pilots_used", int),
                  ("n_trials", int))


def write_csv(columns, rows, path=None) -> str:
    """CSV text of rows (dicts) under a header of the (name, type) columns,
    each value written as str of its column type; also written to path when
    one is given."""
    lines = [",".join(name for name, _ in columns)]
    lines += [",".join(str(kind(r[name])) for name, kind in columns) for r in rows]
    text = "\n".join(lines) + "\n"
    write_text(path, text)
    return text


def read_csv(columns, text: str) -> list:
    """Rows of CSV text as written by write_csv with the same columns (read
    files with Path.read_text).  Raises ValueError on another header and on a
    line whose field count differs from the header's."""
    lines = text.strip().splitlines()
    if lines[:1] != [",".join(name for name, _ in columns)]:
        raise ValueError("unrecognized CSV header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"CSV line {number} has {len(parts)} fields, "
                             f"the header {len(columns)}")
        rows.append({name: kind(p) for (name, kind), p in zip(columns, parts)})
    return rows


@dataclass
class SweepResult:
    """Rows of (scheme, axis value) -> mean rate, plus metadata that the
    spec determines and facts of the run (its wall-clock time) kept apart,
    so that rows and metadata of two runs of one spec compare equal."""

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    def to_csv(self, path=None) -> str:
        return write_csv(_SWEEP_COLUMNS, self.rows, path)

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """Parse CSV text as written by to_csv (read files with Path.read_text)."""
        return cls(rows=read_csv(_SWEEP_COLUMNS, text))

    def to_json(self, path=None) -> str:
        text = json.dumps({"metadata": self.metadata, "rows": self.rows, "run": self.run},
                          indent=2)
        write_text(path, text + "\n")
        return text


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _draw_users(cfg: SystemConfig, rng, n: int, r_fixed: float | None = None):
    """Users uniform in physical angle over the served range; distance uniform
    in [r_min, r_max] unless fixed."""
    lo, hi = np.arcsin(cfg.angle_range[0]), np.arcsin(cfg.angle_range[1])
    theta = np.sin(rng.uniform(lo, hi, n))
    if r_fixed is None:
        r = rng.uniform(*cfg.distance_range, n)
    else:
        r = np.full(n, float(r_fixed))
    alpha = (1.0 - theta**2) / (2.0 * r)
    beta_c = cfg.wavelength / (4 * np.pi * r)
    return {"theta": theta, "alpha": alpha, "r": r, "beta_c": beta_c}


def _unit_noise(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _sigma(cfg: SystemConfig, users, snr_linear: float) -> np.ndarray:
    """Per-user noise std, SNR anchored at each user's center-frequency gain."""
    if math.isinf(snr_linear):
        return np.zeros_like(users["beta_c"])
    return np.sqrt(TX_POWER * cfg.n_antennas * users["beta_c"] ** 2 / snr_linear)


def _synthesize(cfg: SystemConfig, families, codebook, users, rng):
    """Noiseless observations of every probe family, and with a codebook the
    exhaustive moments, in one pass over subcarrier chunks: each chunk's
    channel rows are built once and feed them all.

    families holds one pilot parameter list per family; its observations
    have shape (T, M, K).  The moments (A, B, C), None without a codebook,
    decompose the per-codeword power sum_m |p + sigma z|^2 as
    A + 2 sigma B + sigma^2 C per user, with unit noise z = (x + j y) / sqrt(2)
    drawn from rng.  The chunks are sized for the codebook when there is one:
    one (chunk, 2, T, G) draw consumes the same normals as a
    real-then-imaginary (T, G) pair per subcarrier.
    """
    freqs = cfg.subcarrier_freqs()
    t = len(users["theta"])
    signals = [np.empty((t, len(freqs), len(params)), dtype=complex) for params in families]
    entries = cfg.n_antennas * max([t] + [len(params) for params in families])
    if codebook is not None:
        g = len(codebook)
        a, b, c = np.zeros((t, g)), np.zeros((t, g)), np.zeros((t, g))
        entries = _response_entries(codebook, t)
    for chunk in _subcarrier_chunks(len(freqs), entries):
        f = freqs[chunk]
        h = los_rows(cfg, users["theta"], users["r"], users["beta_c"], f[:, None])
        for sig, params in zip(signals, families):
            y = math.sqrt(TX_POWER) * (h @ pilot_beamformers(cfg, params, f))
            sig[:, chunk] = np.swapaxes(y, 0, 1)
        if codebook is not None:
            p = codeword_responses(codebook, h, f)
            xy = rng.standard_normal((len(f), 2, t, g))
            a += np.sum(p.real * p.real + p.imag * p.imag, axis=0)
            b += np.sum(p.real * xy[:, 0] + p.imag * xy[:, 1], axis=0)
            c += np.sum(xy * xy, axis=(0, 1))
    moments = None if codebook is None else (a, b / math.sqrt(2), c / 2)
    return signals, moments


def _magnitudes(sig, noise):
    """Per-user noise std (T, 1, 1) -> pilot magnitudes |sig + sigma z|."""
    return lambda sg: np.abs(sig + sg * noise)


def _powers(a, b, c):
    """Per-user noise std (T, 1, 1) -> per-codeword powers from the moments."""
    return lambda sg: a + 2 * sg[:, :, 0] * b + sg[:, :, 0] * sg[:, :, 0] * c


class _Scheme(NamedTuple):
    """One row of the sweep's scheme table."""

    stream: int | None  # rng stream tag of the probe family; None: no probes
    probes: Callable | None  # () -> pilot parameter sets; None: the codebook
    estimate: Callable | None  # (observations, pilot budget) -> (theta, alpha)
    pilots: int  # full pilot count


class _Engine:
    """Precomputed state shared across axis points of one sweep."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.cfg = cfg = spec.cfg
        self.plan = plan = design(spec.design_inputs())
        self.bank = bank = (
            build_match_filter_bank(plan, spec.bank_angles, spec.bank_rings)
            if SCHEME_MATCH in spec.schemes
            else None
        )
        self.codebook = codebook = (
            PolarCodebook(cfg, spec.bank_angles, spec.bank_rings)
            if SCHEME_EXHAUSTIVE in spec.schemes
            else None
        )
        rings = _uniform_samples(cfg.alpha_min, cfg.alpha_max, spec.bank_rings)

        def plan_probes():
            return [plan.params(k) for k in range(1, plan.K + 1)]

        # Schemes of one probe family share its draws and observations.  The
        # rows hold no reference to the engine, so a finished sweep frees its
        # bank without waiting for the cycle collector.
        self.table = {
            SCHEME_PERFECT: _Scheme(None, None, None, 0),
            SCHEME_ONGRID: _Scheme(
                _STREAM_PROPOSED, plan_probes,
                lambda obs, budget: ongrid_estimate(obs, plan, budget)[:2], plan.K),
            SCHEME_AUX: _Scheme(
                _STREAM_PROPOSED, plan_probes,
                lambda obs, budget: aux_pair_estimate(obs, plan, budget)[:2], plan.K),
            SCHEME_MATCH: _Scheme(
                _STREAM_PROPOSED, plan_probes,
                lambda obs, budget: match_filter_estimate(obs, bank, budget)[:2],
                plan.K),
            SCHEME_EXHAUSTIVE: _Scheme(
                _STREAM_EXHAUSTIVE, None,
                lambda obs, budget: exhaustive_estimate(obs, codebook, budget)[:2],
                spec.bank_angles * spec.bank_rings),
            SCHEME_NEAR_RAINBOW: _Scheme(
                _STREAM_NEAR, lambda: rainbow_probes(cfg, rings),
                lambda obs, budget: rainbow_estimate(obs, cfg, rings, budget)[:2],
                spec.bank_rings),
            SCHEME_FAR_RAINBOW: _Scheme(
                _STREAM_FAR, lambda: rainbow_probes(cfg, FAR_RINGS),
                lambda obs, budget: rainbow_estimate(obs, cfg, FAR_RINGS, budget)[:2],
                1),
        }

    def _rates(self, users, th_hat, al_hat, snr) -> np.ndarray:
        gains = _serving_gains(self.cfg, users["theta"], users["alpha"], th_hat, al_hat)
        return np.mean(np.log2(1.0 + snr * gains**2), axis=1)

    def _point(self, idx, value):
        """(snr in dB, pilot budget, draw key, fixed user distance) of one axis
        point.  The draw key extends the rng keys: the SNR and overhead axes
        share one draw, the distance axis redraws per point."""
        spec = self.spec
        if spec.sweep_axis == "snr_db":
            return value, math.inf, (), None
        if spec.sweep_axis == "overhead":
            return spec.snr_db, int(value), (), None
        return spec.snr_db, math.inf, (idx,), value

    def _draw(self, users, key):
        """Synthesize every probe family of the spec in one pass per draw key;
        returns, per stream tag, the map from the per-user noise std (T, 1, 1)
        to that family's noisy observations.  Each family's unit noise comes
        from its own keyed stream."""
        seed = self.spec.master_seed
        families = {}
        for name in self.spec.schemes:
            scheme = self.table[name]
            if scheme.probes is not None and scheme.stream not in families:
                families[scheme.stream] = scheme.probes()
        signals, moments = _synthesize(self.cfg, list(families.values()), self.codebook,
                                       users, _rng(seed, _STREAM_EXHAUSTIVE, *key))
        draws = {stream: _magnitudes(sig, _unit_noise(_rng(seed, stream, *key), sig.shape))
                 for stream, sig in zip(families, signals)}
        if moments is not None:
            draws[_STREAM_EXHAUSTIVE] = _powers(*moments)
        return draws

    def run(self) -> SweepResult:
        spec = self.spec
        t = spec.n_trials
        rows = []
        key = None
        for idx, value in enumerate(spec.axis_values):
            snr_db, budget, point_key, r_fixed = self._point(idx, value)
            # the last point's observations and the last key's draws are
            # dropped before the next key's are made, so that they never coexist
            observed = {}
            if point_key != key:
                key, draws = point_key, None
                users = _draw_users(self.cfg, _rng(spec.master_seed, _STREAM_USERS, *key),
                                    t, r_fixed=r_fixed)
                draws = self._draw(users, key)
            snr = 10 ** (snr_db / 10)
            sg = _sigma(self.cfg, users, snr)[:, None, None]
            for name in spec.schemes:
                scheme = self.table[name]
                if scheme.stream is None:
                    rates = np.full(t, math.log2(1.0 + snr))
                else:
                    if scheme.stream not in observed:
                        observed[scheme.stream] = draws[scheme.stream](sg)
                    th, al = scheme.estimate(observed[scheme.stream],
                                             min(budget, scheme.pilots))
                    rates = self._rates(users, th, al, snr)
                rows.append(self._row(name, value, rates, min(budget, scheme.pilots)))
        meta = {
            "spec_hash": spec.spec_hash(),
            "master_seed": spec.master_seed,
            "sweep_axis": spec.sweep_axis,
            "n_trials": spec.n_trials,
            "plan_K": self.plan.K,
        }
        run = {"created": datetime.now(timezone.utc).isoformat()}
        return SweepResult(rows=rows, metadata=meta, run=run)

    def _row(self, scheme, value, rates, pilots_used):
        rates = np.asarray(rates, dtype=float)
        se = rates.std(ddof=1) / math.sqrt(len(rates)) if len(rates) > 1 else 0.0
        return {
            "scheme": scheme,
            "axis": self.spec.sweep_axis,
            "axis_value": float(value),
            "mean_rate": float(rates.mean()),
            "stderr": float(se),
            "pilots_used": int(pilots_used),
            "n_trials": len(rates),
        }

    def full_pilots(self, scheme: str) -> int:
        return self.table[scheme].pilots


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Run the sweep described by the spec; deterministic in its master seed."""
    return _Engine(spec).run()


# beam pattern dump ---------------------------------------------------------

_PATTERN_COLUMNS = (("pilot", int), ("subcarrier", int), ("freq_hz", float),
                    ("theta", float), ("alpha", float), ("distance_m", float),
                    ("regime", str))


def dump_beam_pattern(plan: PilotPlan, out=None):
    """Predicted focus rows for every feasible (pilot, subcarrier) pair.

    Rows carry the focus angle/curvature and the implied distance; beams whose
    curvature is nonpositive are flagged far-field.  Transition subcarriers
    with no in-range focus are skipped.  Returns (rows, csv_text).
    """
    cfg = plan.cfg
    rows = []
    for k in range(1, plan.K + 1):
        for m in range(1, cfg.n_subcarriers + 1):
            try:
                focus = plan.focus(m, k)
            except InfeasibleFocusError:
                continue
            near = focus.alpha > 0
            r = (1.0 - focus.theta**2) / (2.0 * focus.alpha) if near else math.inf
            rows.append(
                {
                    "pilot": k,
                    "subcarrier": m,
                    "freq_hz": cfg.subcarrier_freq(m),
                    "theta": focus.theta,
                    "alpha": focus.alpha,
                    "distance_m": r,
                    "regime": "near" if near else "far",
                }
            )
    return rows, write_csv(_PATTERN_COLUMNS, rows, out)


# default experiment specs ---------------------------------------------------

def desk_config() -> SystemConfig:
    """Small geometry for fast experiments: the 64-element array's Rayleigh
    distance is about 20 m, so [2, 10] m keeps users deep enough in the
    near field that ignoring wavefront curvature visibly costs rate."""
    return SystemConfig(
        n_antennas=64,
        carrier_freq=30e9,
        bandwidth=5e9,
        n_subcarriers=256,
        distance_range=(2.0, 10.0),
    )


def fullscale_config() -> SystemConfig:
    return SystemConfig(
        n_antennas=256,
        carrier_freq=30e9,
        bandwidth=5e9,
        n_subcarriers=1024,
        distance_range=(5.0, 200.0),
    )


def desk_experiment_spec(**overrides) -> ExperimentSpec:
    base = dict(
        cfg=desk_config(),
        gamma=0.5,
        schemes=ALL_SCHEMES,
        sweep_axis="snr_db",
        axis_values=(5.0, 10.0, 15.0, 20.0),
        n_trials=200,
        master_seed=1,
        bank_angles=192,
        bank_rings=8,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def fullscale_experiment_spec(**overrides) -> ExperimentSpec:
    base = dict(
        cfg=fullscale_config(),
        gamma=0.95,
        k_override=3,
        schemes=ALL_SCHEMES,
        sweep_axis="snr_db",
        axis_values=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        n_trials=200,
        master_seed=1,
        bank_angles=1024,
        bank_rings=10,
    )
    base.update(overrides)
    return ExperimentSpec(**base)
