"""The four benchmark workloads.

Each workload builds its inputs from a seed when it is made, then runs timed
passes (`run_pass`).  A pass returns its wall time, (call id, latency) for
each call it made, and the operations it produced.  A call is one CLI call,
repeated by later passes, or the workload's `run_sweep`, of which every pass
is a repeat.  An operation is one sweep row or one CLI call, as a dict with:

  id      what makes the operation distinct within a run
  key     the reference row it is summarised into (sweep row, or CLI scheme)
  rate    achieved rate in bits/s/Hz (a sweep row's mean rate)
  stderr  standard error of that rate (0 for a single call)
  snr_db  operating SNR, which caps the rate at log2(1 + snr)
  theta, alpha  the estimate, where the program exposes one (CLI calls)

Sizes are fixed here so that every run of a workload does the same work;
`tiny` sizes serve the benchmark's self-tests only.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from beamtrain import cli, harness
from beamtrain.design import DesignInputs, design

WORKLOADS = ("desk_snr_sweep", "fullscale_grid", "fullscale_distance", "cli_train")

SIZES = {
    "bench": {
        "desk_snr_sweep": {"specs": 3, "n_trials": 40},
        "fullscale_grid": {"specs": 3, "n_trials": 20, "bank_angles": 32, "bank_rings": 2},
        "fullscale_distance": {"specs": 3, "n_trials": 20},
        "cli_train": {"calls_per_pass": 14, "distinct_passes": 16},
    },
    "tiny": {
        "desk_snr_sweep": {"specs": 1, "n_trials": 3, "bank_angles": 12, "bank_rings": 2},
        "fullscale_grid": {"specs": 1, "n_trials": 2, "bank_angles": 3, "bank_rings": 1},
        "fullscale_distance": {"specs": 1, "n_trials": 2},
        "cli_train": {"calls_per_pass": 14, "distinct_passes": 1,
                      "bank_angles": 8, "bank_rings": 2},
    },
}

# One cycle of CLI calls: every scheme of cli.TRAIN_SCHEMES, weighted so that
# the median call lies inside the cheap schemes' latencies (on-grid, aux-pair,
# far-field rainbow: 10 of 14 calls) and p90 inside the match-filter calls,
# away from the gaps between schemes.  With one call per scheme the median
# sits on the gap between the third- and fourth-fastest scheme, where a
# single slow call moves it by a fifth.
CLI_CYCLE = (
    "ongrid", "aux_pair", "farfield_rainbow", "nearfield_rainbow",
    "ongrid", "aux_pair", "farfield_rainbow", "match_filter",
    "ongrid", "aux_pair", "farfield_rainbow", "nearfield_rainbow",
    "ongrid", "exhaustive",
)
CLI_SNR_DB = 15.0


def sizes_for(name: str, tiny: bool) -> dict:
    return dict(SIZES["tiny" if tiny else "bench"][name])


def sweep_spec(name: str, seed: int, size: dict):
    if name == "desk_snr_sweep":
        return harness.desk_experiment_spec(master_seed=seed, **size)
    if name == "fullscale_grid":
        return harness.fullscale_experiment_spec(
            master_seed=seed,
            schemes=("perfect_csi", "exhaustive", "match_filter"),
            axis_values=(10.0,),
            **size,
        )
    return harness.fullscale_experiment_spec(
        master_seed=seed,
        schemes=("perfect_csi", "ongrid", "aux_pair", "nearfield_rainbow",
                 "farfield_rainbow"),
        sweep_axis="distance_m",
        axis_values=(10.0, 40.0, 160.0),
        snr_db=15.0,
        **size,
    )


class SweepWorkload:
    """One `run_sweep` call per pass.  Passes cycle through `specs` specs
    whose master seeds are specs * seed + j, so that the rate rows of a run
    pool that many independent draws."""

    def __init__(self, name: str, seed: int, tiny: bool, workdir: str):
        size = sizes_for(name, tiny)
        n_specs = size.pop("specs")
        self.specs = [sweep_spec(name, n_specs * seed + j, size) for j in range(n_specs)]
        self.distinct_passes = n_specs

    def run_pass(self, index: int):
        j = index % len(self.specs)
        spec = self.specs[j]
        start = time.perf_counter()
        result = harness.run_sweep(spec)
        wall = time.perf_counter() - start
        ops = []
        for row in result.rows:
            snr_db = row["axis_value"] if row["axis"] == "snr_db" else spec.snr_db
            key = (row["scheme"], row["axis_value"], j)
            ops.append({"id": key, "key": key, "rate": row["mean_rate"],
                        "stderr": row["stderr"], "snr_db": snr_db,
                        "theta": None, "alpha": None})
        return wall, [("run_sweep", wall)], ops

    def close(self):
        pass


class CliWorkload:
    """Batches of in-process `beamtrain train` calls against one desk plan.

    The run's calls are fixed by the seed: `distinct_passes` batches of
    `calls_per_pass` calls that follow CLI_CYCLE, each with its own user and
    noise seed.  Later passes repeat the batches in order.  Each scheme's
    users form a Latin hypercube over the served region (physical angle by
    distance): every user is uniform over the region, and each scheme covers
    it evenly, which keeps the mean rate steady from seed to seed.
    """

    def __init__(self, name: str, seed: int, tiny: bool, workdir: str):
        size = sizes_for(name, tiny)
        self.distinct_passes = size["distinct_passes"]
        self.calls_per_pass = size["calls_per_pass"]
        cfg = harness.desk_config()
        self.plan_path = os.path.join(workdir, "plan.json")
        design(DesignInputs(cfg=cfg, gamma=0.5)).to_json(self.plan_path)
        n = self.distinct_passes * self.calls_per_pass
        schemes = [CLI_CYCLE[i % len(CLI_CYCLE)] for i in range(n)]
        rng = np.random.default_rng(seed)
        lo, hi = np.arcsin(cfg.angle_range[0]), np.arcsin(cfg.angle_range[1])
        r_lo, r_hi = cfg.distance_range
        thetas, distances = np.empty(n), np.empty(n)
        for scheme in dict.fromkeys(schemes):
            idx = [i for i, s in enumerate(schemes) if s == scheme]
            u, v = _latin_hypercube(rng, len(idx))
            thetas[idx] = np.sin(lo + u * (hi - lo))
            distances[idx] = r_lo + v * (r_hi - r_lo)
        seeds = rng.integers(0, 2**31, n)
        grid = []
        if "bank_angles" in size:
            grid = ["--bank-angles", str(size["bank_angles"]),
                    "--bank-rings", str(size["bank_rings"])]
        self.calls = [
            (schemes[i],
             # --opt=value: argparse reads "-5e-05" after a space as an option
             ["train", f"--plan={self.plan_path}", f"--scheme={schemes[i]}",
              f"--theta={float(thetas[i])!r}", f"--distance={float(distances[i])!r}",
              f"--snr-db={CLI_SNR_DB!r}", f"--seed={int(seeds[i])}"] + grid)
            for i in range(n)
        ]

    def run_pass(self, index: int):
        first = (index % self.distinct_passes) * self.calls_per_pass
        latencies, ops = [], []
        start = time.perf_counter()
        for call_id in range(first, first + self.calls_per_pass):
            scheme, argv = self.calls[call_id]
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except SystemExit as exc:  # the CLI's way of reporting a failed call
                code = exc.code
            latencies.append((call_id, time.perf_counter() - t0))
            ops.append(_call_op(call_id, scheme, code, out.getvalue()))
        wall = time.perf_counter() - start
        return wall, latencies, ops

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.plan_path)


def _latin_hypercube(rng, n: int):
    """n points in the unit square, one in each row and each column stratum."""
    u = (rng.permutation(n) + rng.random(n)) / n
    v = (rng.permutation(n) + rng.random(n)) / n
    return u, v


def _call_op(call_id: int, scheme: str, code, text: str) -> dict:
    """A CLI call's operation; output that does not parse gives a NaN rate,
    which the checker counts as failed."""
    op = {"id": call_id, "key": (scheme, CLI_SNR_DB), "stderr": 0.0,
          "snr_db": CLI_SNR_DB, "rate": math.nan, "theta": math.nan,
          "alpha": math.nan}
    try:
        out = json.loads(text)
        if code == 0:
            op.update(rate=float(out["rate"]), theta=float(out["theta"]),
                      alpha=float(out["alpha"]))
    except (ValueError, KeyError, TypeError):
        pass
    return op


def make(name: str, seed: int, tiny: bool, workdir: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    cls = CliWorkload if name == "cli_train" else SweepWorkload
    return cls(name, seed, tiny, workdir)
