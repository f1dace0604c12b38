"""Store reference rows for the output check.

    python3 perfbench/make_reference.py --workload desk_snr_sweep --seeds 0-31

For each seed it builds the workload's inputs at benchmark sizes, runs the
passes that cover every distinct operation once, and stores the summarised
rows (check.summarize) in reference/<workload>.json, next to rows already
stored for other seeds at the same sizes.  Run it only on a commit whose
output the benchmark should accept as the reference.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a seed or a range like 0-31")
    args = parser.parse_args(argv)
    run.import_program()
    import check
    import workloads

    sizes = workloads.sizes_for(args.workload, tiny=False)
    path = check.reference_path(args.workload)
    data = {"sizes": sizes, "rows": {}}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        if stored["sizes"] == sizes:
            data = stored
    for seed in parse_seeds(args.seeds):
        with run.workdir(f"reference-{args.workload}") as wd:
            work = workloads.make(args.workload, seed, False, wd)
            try:
                ops = [op for i in range(work.distinct_passes) for op in work.run_pass(i)[2]]
            finally:
                work.close()
        flags, reasons = check.check(ops, None)
        if any(flags):
            sys.exit(f"seed {seed}: output fails the rules, not stored: {reasons}")
        data["rows"][str(seed)] = check.encode_rows(check.summarize(ops))
        print(f"{args.workload} seed {seed}: {len(data['rows'][str(seed)])} rows", flush=True)
    data["rows"] = dict(sorted(data["rows"].items(), key=lambda kv: int(kv[0])))
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(dumps(data))
    return 0


def dumps(data: dict) -> str:
    """The reference JSON with one line per seed."""
    seeds = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rows)}"
                        for seed, rows in data["rows"].items())
    return f'{{\n "sizes": {json.dumps(data["sizes"])},\n "rows": {{\n{seeds}\n }}\n}}\n'


if __name__ == "__main__":
    sys.exit(main())
