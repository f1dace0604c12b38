"""Link-level experiment harness: rate metric, Monte-Carlo sweeps, dumps.

Sweeps draw random users, run every requested training scheme on common
channels, and report the mean spectral efficiency of serving with the
estimated location.  Trials are vectorized; randomness is keyed by
(master seed, axis index, scheme family) so results are reproducible and
schemes are compared on identical user draws.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from .config import PolarLocation, SystemConfig
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
    ObservationGrid,
    TrainingEstimate,
    _response_entries,
    _subcarrier_chunks,
    aux_pair_train,
    build_match_filter_bank,
    codeword_responses,
    exhaustive_estimate,
    match_filter_estimate,
    ongrid_estimate,
    pilot_beamformers,
    rainbow_estimate,
    rainbow_probes,
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
        rainbow = {SCHEME_NEAR_RAINBOW, SCHEME_FAR_RAINBOW} & set(self.schemes)
        if rainbow and self.cfg.n_subcarriers < 2:
            raise ValueError(f"{sorted(rainbow)} sweep the angle across subcarriers: "
                             "need n_subcarriers >= 2")
        self.design_inputs()  # rejects what the design cannot serve

    def design_inputs(self) -> DesignInputs:
        return DesignInputs(
            cfg=self.cfg,
            gamma=self.gamma,
            alpha_min=self.alpha_min,
            alpha_max=self.alpha_max,
            k_override=self.k_override,
            alpha_p_override=self.alpha_p_override,
        )

    def to_dict(self) -> dict:
        return {
            "config": self.cfg.to_dict(),
            "design": {
                "gamma": self.gamma,
                "alpha_min": self.alpha_min,
                "alpha_max": self.alpha_max,
                "k_override": self.k_override,
                "alpha_p_override": self.alpha_p_override,
            },
            "schemes": list(self.schemes),
            "sweep_axis": self.sweep_axis,
            "axis_values": list(self.axis_values),
            "n_trials": self.n_trials,
            "master_seed": self.master_seed,
            "snr_db": self.snr_db,
            "bank_angles": self.bank_angles,
            "bank_rings": self.bank_rings,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        cfg = SystemConfig.from_dict(data["config"])
        dsn = data.get("design", {})
        return cls(
            cfg=cfg,
            gamma=dsn.get("gamma", 1.0),
            alpha_min=dsn.get("alpha_min"),
            alpha_max=dsn.get("alpha_max"),
            k_override=dsn.get("k_override"),
            alpha_p_override=dsn.get("alpha_p_override"),
            schemes=tuple(data.get("schemes", ALL_SCHEMES)),
            sweep_axis=data.get("sweep_axis", "snr_db"),
            axis_values=tuple(data.get("axis_values", (0.0, 5.0, 10.0, 15.0, 20.0))),
            n_trials=data.get("n_trials", 200),
            master_seed=data.get("master_seed", 1),
            snr_db=data.get("snr_db", 15.0),
            bank_angles=data.get("bank_angles", 192),
            bank_rings=data.get("bank_rings", 8),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse JSON text (read files with Path.read_text)."""
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_SWEEP_COLUMNS = ("scheme", "axis", "axis_value", "mean_rate", "stderr",
                  "pilots_used", "n_trials")


@dataclass
class SweepResult:
    """Rows of (scheme, axis value) -> mean rate, plus metadata that the
    spec determines and facts of the run (its wall-clock time) kept apart,
    so that rows and metadata of two runs of one spec compare equal."""

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    def to_csv(self, path=None) -> str:
        lines = [",".join(_SWEEP_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r["scheme"],
                        r["axis"],
                        repr(float(r["axis_value"])),
                        repr(float(r["mean_rate"])),
                        repr(float(r["stderr"])),
                        str(int(r["pilots_used"])),
                        str(int(r["n_trials"])),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """Parse CSV text as written by to_csv (read files with Path.read_text)."""
        lines = text.strip().splitlines()
        if lines[0] != ",".join(_SWEEP_COLUMNS):
            raise ValueError("unrecognized sweep CSV header")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            rows.append(
                {
                    "scheme": parts[0],
                    "axis": parts[1],
                    "axis_value": float(parts[2]),
                    "mean_rate": float(parts[3]),
                    "stderr": float(parts[4]),
                    "pilots_used": int(parts[5]),
                    "n_trials": int(parts[6]),
                }
            )
        return cls(rows=rows)

    def to_json(self, path=None) -> str:
        text = json.dumps({"metadata": self.metadata, "rows": self.rows, "run": self.run},
                          indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def scheme_rates(self, scheme: str) -> list:
        return [r for r in self.rows if r["scheme"] == scheme]


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


def _aux_estimate(mags, plan: PilotPlan, budget, snr):
    """Aux-pair estimates of mags (T, M, K), one Newton solve per trial."""
    th = np.empty(len(mags))
    al = np.empty(len(mags))
    for i, trial in enumerate(mags):
        est = aux_pair_train(ObservationGrid(magnitudes=trial[:, :budget], snr=snr), plan)
        th[i], al[i] = est.theta, est.alpha
    return th, al


class _Scheme(NamedTuple):
    """One row of the sweep's scheme table."""

    stream: int | None  # rng stream tag of the probe family; None: no probes
    probes: Callable | None  # () -> pilot parameter sets; None: the codebook
    estimate: Callable | None  # (observations, pilot budget, snr) -> (theta, alpha)
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
                lambda obs, budget, snr: ongrid_estimate(obs, plan, budget)[:2], plan.K),
            SCHEME_AUX: _Scheme(
                _STREAM_PROPOSED, plan_probes,
                lambda obs, budget, snr: _aux_estimate(obs, plan, budget, snr), plan.K),
            SCHEME_MATCH: _Scheme(
                _STREAM_PROPOSED, plan_probes,
                lambda obs, budget, snr: match_filter_estimate(obs, bank, budget)[:2],
                plan.K),
            SCHEME_EXHAUSTIVE: _Scheme(
                _STREAM_EXHAUSTIVE, None,
                lambda obs, budget, snr: exhaustive_estimate(obs, codebook, budget)[:2],
                spec.bank_angles * spec.bank_rings),
            SCHEME_NEAR_RAINBOW: _Scheme(
                _STREAM_NEAR, lambda: rainbow_probes(cfg, rings),
                lambda obs, budget, snr: rainbow_estimate(obs, cfg, rings, budget)[:2],
                spec.bank_rings),
            SCHEME_FAR_RAINBOW: _Scheme(
                _STREAM_FAR, lambda: rainbow_probes(cfg, FAR_RINGS),
                lambda obs, budget, snr: rainbow_estimate(obs, cfg, FAR_RINGS, budget)[:2],
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
                                             min(budget, scheme.pilots), snr)
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

_PATTERN_COLUMNS = ("pilot", "subcarrier", "freq_hz", "theta", "alpha",
                    "distance_m", "regime")


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
    text = pattern_to_csv(rows)
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    return rows, text


def pattern_to_csv(rows) -> str:
    lines = [",".join(_PATTERN_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(int(r["pilot"])),
                    str(int(r["subcarrier"])),
                    repr(float(r["freq_hz"])),
                    repr(float(r["theta"])),
                    repr(float(r["alpha"])),
                    repr(float(r["distance_m"])),
                    r["regime"],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def pattern_from_csv(text: str):
    """Parse beam-pattern CSV text as written by pattern_to_csv."""
    lines = text.strip().splitlines()
    if lines[0] != ",".join(_PATTERN_COLUMNS):
        raise ValueError("unrecognized pattern CSV header")
    rows = []
    for line in lines[1:]:
        p = line.split(",")
        rows.append(
            {
                "pilot": int(p[0]),
                "subcarrier": int(p[1]),
                "freq_hz": float(p[2]),
                "theta": float(p[3]),
                "alpha": float(p[4]),
                "distance_m": float(p[5]),
                "regime": p[6],
            }
        )
    return rows


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
