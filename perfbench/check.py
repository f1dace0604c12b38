"""Output checks: every operation is tested against the rules below and
against reference rows stored from the seed commit.

An operation fails if its rate is not finite, below 0 or above
log2(1 + snr); if it exposes an estimate outside theta in [-1, 1],
alpha >= 0; or if the reference row it belongs to has a mean rate more than
4 * sqrt(se^2 + se_ref^2) below the reference for the same seed.  The last
rule is one-sided: a better rate passes.

References are stored per workload and seed in reference/<workload>.json.
A seed with no stored reference is compared with the stored seed
`seed % n_stored`; the draws then differ, and the rule still holds because
independent means differ by more than 4 combined standard errors only
rarely.
"""
from __future__ import annotations

import json
import math
import os
import statistics

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REF_SIGMAS = 4.0
# Relative slack for rates that reach the cap exactly (perfect CSI rows).
CAP_SLACK = 1e-12


def rate_cap(snr_db: float) -> float:
    return math.log2(1.0 + 10 ** (snr_db / 10))


def op_faults(op: dict) -> list[str]:
    """Rule violations of one operation on its own."""
    faults = []
    rate, se = op["rate"], op["stderr"]
    if not (math.isfinite(rate) and math.isfinite(se) and se >= 0):
        faults.append("non-finite rate")
    elif rate < 0 or rate > rate_cap(op["snr_db"]) * (1 + CAP_SLACK):
        faults.append("rate outside [0, log2(1+snr)]")
    theta, alpha = op["theta"], op["alpha"]
    if theta is not None and not (-1.0 <= theta <= 1.0 and alpha >= 0):
        faults.append("estimate outside theta in [-1, 1], alpha >= 0")
    return faults


def distinct(ops: list[dict]) -> list[dict]:
    """First occurrence of each operation id, in order."""
    seen, out = set(), []
    for op in ops:
        if op["id"] not in seen:
            seen.add(op["id"])
            out.append(op)
    return out


def summarize(ops: list[dict]) -> dict:
    """Reference rows {key: (mean rate, standard error, samples)} of the
    distinct operations: a sweep row stands alone, CLI calls are pooled per
    scheme."""
    groups: dict = {}
    for op in distinct(ops):
        groups.setdefault(op["key"], []).append(op)
    rows = {}
    for key, group in groups.items():
        if len(group) == 1:
            rows[key] = (group[0]["rate"], group[0]["stderr"], 1)
        else:
            rates = [op["rate"] for op in group]
            se = statistics.stdev(rates) / math.sqrt(len(rates))
            rows[key] = (statistics.fmean(rates), se, len(rates))
    return rows


def below_reference(row, ref) -> bool:
    mean, se, _ = row
    ref_mean, ref_se, _ = ref
    return mean < ref_mean - REF_SIGMAS * math.hypot(se, ref_se) - CAP_SLACK * abs(ref_mean)


def failed_keys(rows: dict, ref_rows: dict) -> set:
    """Keys whose row is missing from either side, not finite, or below the
    reference."""
    bad = set(rows.keys() ^ ref_rows.keys())
    for key in rows.keys() & ref_rows.keys():
        row = rows[key]
        if not all(math.isfinite(v) for v in row[:2]) or below_reference(row, ref_rows[key]):
            bad.add(key)
    return bad


def check(ops: list[dict], ref_rows: dict | None) -> tuple[list[bool], list[str]]:
    """Failed flag per operation, plus a short reason for each failure kind.
    ref_rows None skips the reference rule (tiny self-test sizes)."""
    bad_keys = set() if ref_rows is None else failed_keys(summarize(ops), ref_rows)
    flags, reasons = [], set()
    for op in ops:
        faults = op_faults(op)
        if op["key"] in bad_keys:
            faults.append(f"below reference: {op['key']}")
        flags.append(bool(faults))
        reasons.update(faults)
    missing = bad_keys - {op["key"] for op in ops}
    if missing:
        # a reference row the run never produced counts as one failed operation
        flags.append(True)
        reasons.add(f"reference rows not produced: {sorted(map(str, missing))}")
    return flags, sorted(reasons)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int, sizes: dict) -> dict:
    """Reference rows for the seed; raises if the stored sizes differ."""
    with open(reference_path(workload)) as fh:
        data = json.load(fh)
    if data["sizes"] != sizes:
        raise ValueError(f"reference for {workload} was made with sizes "
                         f"{data['sizes']}, the workload now uses {sizes}")
    seeds = sorted(data["rows"], key=int)
    chosen = str(seed) if str(seed) in data["rows"] else seeds[seed % len(seeds)]
    return {tuple(row[:-3]): tuple(row[-3:]) for row in data["rows"][chosen]}


def encode_rows(rows: dict) -> list:
    """JSON rows: the key's fields, then mean rate, standard error, samples."""
    return [list(key) + list(value) for key, value in sorted(rows.items())]
