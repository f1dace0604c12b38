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
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .config import (DEFAULTS_IF_MISSING, PolarLocation, Record, SystemConfig, check_finite,
                     check_integer, curvature_law, write_text)
from .arrays import element_distances, path_loss
from .beamsplit import blocks, subcarrier_gains
from .design import DesignInputs, PilotPlan, design
from .training import ALL_SCHEMES, _observe, linear_snr, noise_power, scheme_table

AXES = ("snr_db", "overhead", "distance_m")

# rng stream tags of the users and of each probe family of the scheme table:
# families keep their draws stable however schemes are combined
_STREAM_USERS = 101
_STREAMS = {"plan": 102, "codebook": 103, "near": 104, "far": 105}


def rate_metric(cfg: SystemConfig, true_loc: PolarLocation, estimate, snr: float) -> float:
    """Mean spectral efficiency over subcarriers, bits/s/Hz:
    (1/M) sum_m log2(1 + snr |b_m(true)^T w_m|^2), with w_m the conjugate
    steering vector at the estimate's (theta, alpha): the sweep's rate pass,
    _distinct_rates, for one user and one estimate."""
    user = {"theta": np.array([true_loc.theta]), "alpha": np.array([true_loc.alpha])}
    return float(_distinct_rates(cfg, user, np.array([snr]), np.array([[estimate.theta]]),
                                 np.array([[estimate.alpha]]))[0, 0])


def _distinct_rates(cfg, users, snrs, theta_hat, alpha_hat) -> np.ndarray:
    """Rates (P, T) of P estimate sets (P, T) of the same T users, set p
    served at the linear SNR snrs[p].

    The serving gain of each distinct (trial, theta_hat, alpha_hat) row,
    compared bit for bit, is computed once: an estimator that repeats its
    pick across SNR points or schemes costs one kernel row.  The distinct
    rows go through subcarrier_gains at their polar mismatch, in blocks,
    and each row is the same computation as alone, so every rate is too.
    """
    p, t = theta_hat.shape
    trial = np.tile(np.arange(t), p)
    theta_hat, alpha_hat = theta_hat.ravel(), alpha_hat.ravel()
    bits = np.stack([trial, theta_hat.view(np.int64), alpha_hat.view(np.int64)], axis=1)
    _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()  # (N, 1) on some NumPy 2.0 releases
    snr = np.repeat(snrs, t)[:, None]
    rates = np.empty(p * t)
    for block in blocks(len(first), cfg.n_subcarriers):
        rows = first[block]
        gains = subcarrier_gains(cfg, users["theta"][trial[rows]] - theta_hat[rows],
                                 users["alpha"][trial[rows]] - alpha_hat[rows])
        reads = np.flatnonzero((inverse >= block.start) & (inverse < block.stop))
        g = gains[inverse[reads] - block.start]
        rates[reads] = np.mean(np.log2(1.0 + snr[reads] * g**2), axis=1)
    return rates.reshape(p, t)


def check_grid_sizes(record, label=lambda name: name) -> None:
    """The rule of the scheme table's grid sizes record.bank_angles and
    record.bank_rings: integers >= 1.  ExperimentSpec checks its fields here
    and `beamtrain train` its flags, each named by label(name)."""
    for name in ("bank_angles", "bank_rings"):
        check_integer(record, name, 1, label(name))


@dataclass(frozen=True)
class ExperimentSpec(Record):
    """One sweep: design inputs (with the config), schemes, axis, and sizes.

    bank_angles x bank_rings sizes both the exhaustive codebook and the
    match-filter bank; bank_rings is also the rainbow ring count.  snr_db is
    the operating SNR for non-SNR axes.  A spec file without "design" reads
    with the design defaults.
    """

    design: DesignInputs = field(metadata=DEFAULTS_IF_MISSING)
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
        check_finite(self, "axis_values", "snr_db")
        # a repeated scheme or axis value would write rows that repeat, or
        # on the distance axis disagree, at one (scheme, axis value)
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes repeat: {self.schemes}")
        if len(set(self.axis_values)) < len(self.axis_values):
            raise ValueError(f"axis values repeat: {self.axis_values}")
        for snr_db in self.axis_values if self.sweep_axis == "snr_db" else (self.snr_db,):
            linear_snr(snr_db)
        if self.sweep_axis == "overhead" and any(v < 1 or v % 1 for v in self.axis_values):
            raise ValueError("overhead budgets must be whole numbers >= 1")
        if self.sweep_axis == "distance_m" and any(v <= 0 for v in self.axis_values):
            raise ValueError("distances must be positive")
        for name, least in (("n_trials", 2), ("master_seed", 0)):
            check_integer(self, name, least)
        check_grid_sizes(self)
        # rejects what the design cannot serve, which includes every config
        # the rainbow sweeps cannot (one subcarrier, no bandwidth)
        design(self.design)

    @property
    def cfg(self) -> SystemConfig:
        return self.design.cfg

    def design_inputs(self) -> DesignInputs:
        return self.design

    def spec_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_SWEEP_COLUMNS = (("scheme", str), ("axis", str), ("axis_value", float),
                  ("mean_rate", float), ("stderr", float), ("pilots_used", int),
                  ("n_trials", int))


def _typed_row(columns, values) -> dict:
    """Row of values in the order of the (name, type) columns, each converted
    to its column's type: sweep and pattern rows, and read_csv."""
    return {name: kind(value) for (name, kind), value in zip(columns, values)}


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
        rows.append(_typed_row(columns, parts))
    return rows


@dataclass
class SweepResult(Record):
    """Rows of (scheme, axis value) -> mean rate, plus metadata that the
    spec determines and facts of the run (its wall-clock and stage times) kept apart,
    so that rows and metadata of two runs of one spec compare equal."""

    metadata: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    run: dict = field(default_factory=dict)

    def to_csv(self, path=None) -> str:
        return write_csv(_SWEEP_COLUMNS, self.rows, path)

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """Parse CSV text as written by to_csv (read files with Path.read_text)."""
        return cls(rows=read_csv(_SWEEP_COLUMNS, text))


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
    alpha = curvature_law(theta, r)
    beta_c = path_loss(cfg, r, cfg.carrier_freq)
    return {"theta": theta, "alpha": alpha, "r": r, "beta_c": beta_c}


@contextmanager
def _clock(times: dict, stage: str):
    """Add the time.perf_counter seconds the block takes to times[stage]."""
    start = time.perf_counter()
    yield
    times[stage] = times.get(stage, 0.0) + time.perf_counter() - start


class _Engine:
    """Precomputed state shared across the draws of one sweep, work, the
    workspace of training._observe, and stage_s, the seconds of its stages:
    design, observe, magnitudes, estimate (by scheme) and rate.  _keys maps
    the axis values to draws, and _key_rows turns each draw into its rows."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.cfg = spec.cfg
        self.work, self.stage_s = {}, {}
        with _clock(self.stage_s, "design"):
            self.plan = design(spec.design)
            self.table = scheme_table(self.plan, spec.schemes, spec.bank_angles, spec.bank_rings)
        requested = [self.table[name] for name in spec.schemes]
        self.families = {row.family: row.probes for row in requested if row.family is not None}

    def _keys(self) -> list:
        """The sweep's draws in row order, each (draw key, fixed user distance
        or None, points), a point (axis value, snr in dB, pilot budget).  The
        draw key extends the rng keys: the SNR and overhead axes share one
        draw, the distance axis redraws per point, keyed by its index."""
        spec = self.spec
        if spec.sweep_axis == "snr_db":
            return [((), None, [(v, v, math.inf) for v in spec.axis_values])]
        if spec.sweep_axis == "overhead":
            return [((), None, [(v, spec.snr_db, int(v)) for v in spec.axis_values])]
        return [((i,), v, [(v, spec.snr_db, math.inf)]) for i, v in enumerate(spec.axis_values)]

    def _draw(self, users, key):
        """training._observe of every probe family of the spec over the drawn
        users' element path lengths, one pass per draw key in the sweep's
        workspace; each family's noise comes from its own keyed stream."""
        seed = self.spec.master_seed
        lengths = element_distances(self.cfg, users["theta"][:, None], users["r"][:, None])
        with _clock(self.stage_s, "observe"):
            return _observe(self.cfg, self.families, users["beta_c"], lengths,
                            lambda family: _rng(seed, _STREAMS[family], *key), self.work)

    def run(self) -> SweepResult:
        spec = self.spec
        rows = [row for draw in self._keys() for row in self._key_rows(*draw)]
        meta = {
            "spec_hash": spec.spec_hash(),
            "master_seed": spec.master_seed,
            "sweep_axis": spec.sweep_axis,
            "n_trials": spec.n_trials,
            "plan_K": self.plan.K,
        }
        run = {"created": datetime.now(timezone.utc).isoformat(), "stage_s": self.stage_s}
        return SweepResult(rows=rows, metadata=meta, run=run)

    def _key_rows(self, key, r_fixed, points):
        """Rows of one draw's points, scheme by scheme: every estimate on the
        draw's users first, then one rate pass over them all.  The next key's
        draws rewrite this key's in the workspace, and each point's
        magnitudes are dropped before the next point's are made, so that
        they never coexist."""
        t = self.spec.n_trials
        users = _draw_users(self.cfg, _rng(self.spec.master_seed, _STREAM_USERS, *key), t,
                            r_fixed)
        draws = self._draw(users, key)
        picks, trained, estimate_s = [], [], self.stage_s.setdefault("estimate", {})
        for value, snr_db, budget in points:
            snr = linear_snr(snr_db)
            sg = np.sqrt(noise_power(self.cfg, users["beta_c"], snr))[:, None, None]
            observed = {}
            for name in self.spec.schemes:
                row = self.table[name]
                pilots = min(budget, row.pilots)
                if row.family is not None:
                    if row.family not in observed:
                        with _clock(self.stage_s, "magnitudes"):
                            observed[row.family] = draws[row.family](sg)
                    with _clock(estimate_s, name):
                        est = row.estimate(observed[row.family], pilots)
                    trained.append((snr, est.theta, est.alpha))
                picks.append((value, name, pilots, snr, row.family is None))
        with _clock(self.stage_s, "rate"):
            if trained:
                snrs, theta_hat, alpha_hat = map(np.array, zip(*trained))
                rates = iter(_distinct_rates(self.cfg, users, snrs, theta_hat, alpha_hat))
        return [self._row(name, value,
                          np.full(t, math.log2(1.0 + snr)) if untrained else next(rates),
                          pilots)
                for value, name, pilots, snr, untrained in picks]

    def _row(self, scheme, value, rates, pilots_used):
        rates = np.asarray(rates, dtype=float)
        se = rates.std(ddof=1) / math.sqrt(len(rates))
        return _typed_row(_SWEEP_COLUMNS, (scheme, self.spec.sweep_axis, value, rates.mean(),
                                           se, pilots_used, len(rates)))

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
    with no in-range focus (the beams the clamped lookup flags) are skipped.
    Returns (rows, csv_text).
    """
    k, m = np.meshgrid(np.arange(1, plan.K + 1), np.arange(1, plan.cfg.n_subcarriers + 1),
                       indexing="ij")
    focus = plan.focus(m, k, clamp=True)
    keep = ~focus.clamped
    columns = (k, m, plan.cfg.subcarrier_freq(m), focus.theta, focus.alpha, focus.distance,
               np.where(focus.alpha > 0, "near", "far"))
    rows = [_typed_row(_PATTERN_COLUMNS, values)
            for values in zip(*(c[keep].tolist() for c in columns))]
    return rows, write_csv(_PATTERN_COLUMNS, rows, out)


# default experiment specs ---------------------------------------------------

def desk_config() -> SystemConfig:
    """Small geometry for fast experiments: the 64-element array's Rayleigh
    distance is about 20 m, so [2, 10] m keeps users deep enough in the
    near field that ignoring wavefront curvature visibly costs rate."""
    return SystemConfig(n_antennas=64, n_subcarriers=256, distance_range=(2.0, 10.0))


def fullscale_config() -> SystemConfig:
    return SystemConfig()


def desk_experiment_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{"design": DesignInputs(desk_config(), gamma=0.5),
                             "axis_values": (5.0, 10.0, 15.0, 20.0), **overrides})


def fullscale_experiment_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{
        "design": DesignInputs(fullscale_config(), gamma=0.95, k_override=3),
        "axis_values": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        "bank_angles": 1024, "bank_rings": 10, **overrides})
