"""Paired benchmark runs of two git revisions, written as one BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE desk_snr_sweep:21-30 \
        fullscale_grid:21 desk_snr_sweep:21:trace --out BENCH_8.json

Each revision is exported with `git archive` into its own temporary
directory, so the runs see committed files only (`git stash create` names a
commit of uncommitted tracked changes).  Every pair spec WORKLOAD:SEEDS[:trace]
runs `python3 perfbench/run.py --workload WORKLOAD --seed N` once in each
tree for every seed N of SEEDS (a list like 21-30 or 21,25), one run at a
time; which tree runs first alternates from pair to pair, starting with the
parent in each pair spec.  `:trace` runs with --trace 1, the per-layer metrics.

The output holds, per workload, each metric's per-seed values of both trees,
`change_lower_in` (the pairs where the change read lower), ties, the median
ratio change / parent - 1, and with two or more pairs the quartiles of both
sides and `median_gap_exceeds_parent_iqr`: whether the medians lie further
apart than the parent's interquartile range.  Untraced pairs go under
"pairs", traced ones under "per_layer_traced"; "runs" keeps every run's
command, its unscaled timing line and its JSON output.  An untraced
workload also summarizes, under "unscaled", the figures of that line:
wall_s, call_p50_ms and call_p90_ms before perfbench's speed scaling, and
the speed scale itself.
"""
from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the line perfbench/run.py prints for an untraced run
UNSCALED = re.compile(r"unscaled: wall_s (\S+) s, call_p50_ms (\S+) ms, "
                      r"call_p90_ms (\S+) ms; speed scale (\S+)")
UNSCALED_NAMES = ("wall_s", "call_p50_ms", "call_p90_ms", "speed_scale")


def seeds_of(text: str) -> list[int]:
    """21-30 -> 21..30; 21,25 -> [21, 25]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_pair(text: str) -> tuple[str, list[int], int]:
    workload, seeds, *rest = text.split(":")
    if rest not in ([], ["trace"]):
        raise argparse.ArgumentTypeError(f"pair spec {text!r}: WORKLOAD:SEEDS[:trace]")
    return workload, seeds_of(seeds), int(rest == ["trace"])


def export(rev: str, into: Path) -> str:
    """Extract the files of git revision rev into `into`; returns its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(command)} failed in {tree}:\n{proc.stderr}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    unscaled = next((line.strip() for line in lines if line.strip().startswith("unscaled")), None)
    return {"command": " ".join(command), "unscaled": unscaled, "machine": machine,
            "output": json.loads(lines[-1])}


def quartiles(values: list[float]) -> list[float]:
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(parent: list[float], change: list[float]) -> dict:
    out = {
        "parent": [round(v, 4) for v in parent],
        "change": [round(v, 4) for v in change],
        "change_lower_in": sum(c < p for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }
    mid_parent, mid_change = statistics.median(parent), statistics.median(change)
    if mid_parent:
        out["change_vs_parent_median"] = round(mid_change / mid_parent - 1.0, 4)
    if len(parent) >= 2:
        q_parent, q_change = quartiles(parent), quartiles(change)
        out["parent_quartiles"], out["change_quartiles"] = q_parent, q_change
        iqr = q_parent[2] - q_parent[0]
        out["median_gap_exceeds_parent_iqr"] = abs(mid_change - mid_parent) > iqr
    return out


def unscaled_figures(line: str | None) -> dict:
    """Name -> value of each figure of UNSCALED_NAMES in a run's unscaled line."""
    match = UNSCALED.fullmatch(line or "")
    if match is None:
        raise ValueError(f"not an unscaled timing line: {line!r}")
    return dict(zip(UNSCALED_NAMES, map(float, match.groups())))


def unscaled_summary(runs: dict) -> dict:
    """runs: tree -> untraced runs; their unscaled figures, summarized like
    the metrics."""
    figures = {tree: [unscaled_figures(r["unscaled"]) for r in rs] for tree, rs in runs.items()}
    return {name: summarize(*([f[name] for f in figures[tree]] for tree in ("parent", "change")))
            for name in UNSCALED_NAMES}


def workload_summary(seeds: list[int], runs: dict) -> dict:
    """runs: tree -> the runs of one pair spec, in seed order."""
    outputs = {tree: [r["output"] for r in rs] for tree, rs in runs.items()}
    names = list(outputs["parent"][0]["metrics"])
    return {
        "seeds": seeds,
        "all_correct": all(o["correct"] for os_ in outputs.values() for o in os_),
        "failed": {tree: sum(o["failed"] for o in os_) for tree, os_ in outputs.items()},
        "attempted": {tree: sum(o["attempted"] for o in os_) for tree, os_ in outputs.items()},
        "metrics": {name: summarize(*([o["metrics"][name]["value"] for o in outputs[tree]]
                                      for tree in ("parent", "change")))
                    for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("pairs", nargs="+", type=parse_pair,
                        help="WORKLOAD:SEEDS[:trace], e.g. desk_snr_sweep:21-30")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--what", default="", help="one line saying what is compared")
    args = parser.parse_args(argv)

    result = {"what": args.what, "pairs": {}, "per_layer_traced": {}}
    all_runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for tree, rev in (("parent", args.parent), ("change", args.change)):
            trees[tree] = Path(tmp) / tree
            result[f"{tree}_commit"] = export(rev, trees[tree])
        result["how"] = (
            "each revision exported with git archive to its own directory; runs made one "
            "at a time, each as long as perfbench/run.py's default; one pair per seed, which "
            "tree ran first alternating from pair to pair, parent first in each workload's "
            "first pair; timings are scaled to reference machine speed by perfbench/speed.py "
            "(unscaled figures in 'runs', and summarized under each untraced workload's "
            "'unscaled'); 'change_lower_in' counts the pairs where the change read lower")
        for workload, seeds, trace in args.pairs:
            order = ("parent", "change")
            runs = {"parent": [], "change": []}
            for seed in seeds:
                for tree in order:
                    run = run_once(trees[tree], workload, seed, trace)
                    runs[tree].append(run)
                    all_runs.append({"tree": tree, "workload": workload, "trace": trace,
                                     "seed": seed, **run})
                    print(f"{tree:<6} {workload} seed={seed} trace={trace}: "
                          f"{run['unscaled'] or 'traced'}", file=sys.stderr)
                order = order[::-1]
            if trace:
                result["per_layer_traced"][workload] = workload_summary(seeds, runs)
            else:
                result["pairs"][workload] = {**workload_summary(seeds, runs),
                                             "unscaled": unscaled_summary(runs)}
    result["machine"] = all_runs[0]["machine"] if all_runs else {}
    for run in all_runs:
        del run["machine"]
    result["runs"] = all_runs
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
