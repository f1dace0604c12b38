"""beamtrain benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Run from a checkout: the program is imported from its `src/` directory.
One process runs one workload: it builds the inputs from the seed, runs
timed passes until --seconds have passed (and at least a minimum number),
checks every operation (see check.py), and prints a line per metric with its
unit and sample count, a line of machine facts, and last one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  A fixed kernel (speed.py) runs
before the first pass and after every pass, and the run's times are scaled
to the machine speed at which that kernel takes speed.REFERENCE_S, because
the CPU speed of a shared virtual machine drifts by a third over tens of
seconds.  wall_s is the scaled median pass; each distinct call's latency is
its scaled median run before call_p50_ms and call_p90_ms are taken over the
distinct calls (on the sweep workloads the one call is run_sweep).  The
unscaled figures are printed too.  setup_s is the median wall time, not
scaled (import time does not follow the kernel), of several fresh processes
that import beamtrain and build the workload's inputs.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of spans.py,
each the median over traced passes, and the tracing overhead; its spans are
written to .perfbench_out/.  WORKLOADS.md says why each workload exists and
which layer should dominate it.
"""
from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread leaves the second core to everything else; on a 2-core
# machine two threads made pass times vary more than they saved.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when NumPy is first imported.
for _var in BLAS_ENV:
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import check
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "rate_loss_bits": "bits/s/Hz",
}
SETUP_RUNS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def import_program():
    """Import beamtrain from the checkout's sources, never from elsewhere."""
    if not (SRC / "beamtrain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no beamtrain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamtrain

    if Path(beamtrain.__file__).resolve().parent != (SRC / "beamtrain").resolve():
        sys.exit(f"perfbench: imported beamtrain from {beamtrain.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


@contextlib.contextmanager
def workdir(name: str):
    path = OUT_DIR / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_times(args) -> list[float]:
    """Wall time of fresh processes that import beamtrain and build the
    workload's inputs (run.py --probe)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def run_passes(work, seconds: float, recorder=None):
    """Timed passes until `seconds` have passed and every distinct pass ran.  With a recorder, odd passes are traced.  Returns (untraced,
    traced) lists of (wall, [(call id, latency)], ops), and the factor that
    takes the run's times to reference machine speed (speed.py)."""
    min_passes = max(work.distinct_passes, MIN_PASSES if recorder is None else 4)
    deadline = time.perf_counter() + seconds
    probe = speed.Probe()
    untraced, traced = [], []
    index = 0
    while index < min_passes or time.perf_counter() + statistics.median(
            p[0] for p in untraced + traced) * (1 + probe.times[-1] / speed.EVERY_S) <= deadline:
        if recorder is not None and index % 2:
            recorder.pass_index = index
            recorder.install()
            try:
                traced.append(work.run_pass(index))
            finally:
                recorder.uninstall()
        else:
            untraced.append(work.run_pass(index))
        probe.after((untraced + traced)[-1][0])
        index += 1
    return untraced, traced, probe.scale()


def call_latencies(passes, scale: float = 1.0) -> list[float]:
    """Each distinct call's median run, in ms, times `scale`."""
    runs: dict = {}
    for _, calls, _ in passes:
        for call_id, latency in calls:
            runs.setdefault(call_id, []).append(1000 * latency * scale)
    return [statistics.median(latencies) for latencies in runs.values()]


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def rate_loss(ops) -> tuple[float, int]:
    """Mean of log2(1 + snr) - rate over the distinct operations that are not
    perfect CSI, and their number."""
    losses = [check.rate_cap(op["snr_db"]) - op["rate"] for op in check.distinct(ops)
              if op["key"][0] != "perfect_csi"]
    return statistics.fmean(losses), len(losses)


def end_to_end(args, untraced, scale) -> dict:
    ms = call_latencies(untraced, scale)
    ops = [op for p in untraced for op in p[2]]
    setup = setup_times(args)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (scale * statistics.median(p[0] for p in untraced), len(untraced)),
        "call_p50_ms": (statistics.median(ms), len(ms)),
        "call_p90_ms": (p90(ms), len(ms)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "rate_loss_bits": rate_loss(ops),
    }


def unscaled_line(untraced, scale) -> str:
    """The measured times before scaling, and the factor applied."""
    ms = call_latencies(untraced)
    return (f"  unscaled: wall_s {statistics.median(p[0] for p in untraced):.6g} s, "
            f"call_p50_ms {statistics.median(ms):.6g} ms, call_p90_ms {p90(ms):.6g} ms; "
            f"speed scale {scale:.4g}")


def per_layer(untraced, traced, recorder) -> dict:
    import spans

    per_pass = [spans.pass_metrics(recorder.spans, index)
                for index in sorted({span[spans.PASS] for span in recorder.spans})]
    out = {name: (statistics.median(p[name] for p in per_pass), len(per_pass))
           for name in per_pass[0]}
    traced_wall = statistics.median(p[0] for p in traced)
    untraced_wall = statistics.median(p[0] for p in untraced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0,
                                  min(len(traced), len(untraced)))
    return out


def run_workload(args) -> int:
    import_program()
    import spans
    import workloads

    sizes = workloads.sizes_for(args.workload, args.tiny)
    ref_rows = None if args.tiny else check.load_reference(args.workload, args.seed, sizes)
    recorder = spans.Recorder() if args.trace else None
    with workdir(args.workload) as wd:
        work = workloads.make(args.workload, args.seed, args.tiny, wd)
        try:
            untraced, traced, scale = run_passes(work, args.seconds, recorder)
        finally:
            work.close()
    ops = [op for p in untraced + traced for op in p[2]]
    flags, reasons = check.check(ops, ref_rows)
    facts = machine_facts()
    if args.trace:
        metrics, units = per_layer(untraced, traced, recorder), spans.PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"),
                       {"workload": args.workload, "seed": args.seed, "machine": facts,
                        "metrics": {k: v[0] for k, v in metrics.items()}})
    else:
        metrics, units = end_to_end(args, untraced, scale), END_TO_END
    failed = sum(flags)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sizes={json.dumps(sizes)} reference={'skipped' if ref_rows is None else 'checked'}")
    for name, (value, n) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units[name]:<10} n={n}")
    print(f"  {'failed_frac':<38} {failed / len(flags):>14.6g} {'ratio':<10} n={len(flags)}")
    if not args.trace:
        print(unscaled_line(untraced, scale))
    for reason in reasons:
        print(f"  FAILED: {reason}")
    print("machine " + json.dumps(facts))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flags),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; each prints its own metric lines."""
    import_program()
    import workloads

    codes = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        sys.stdout.flush()
        codes.append(subprocess.run(cmd, timeout=CHILD_TIMEOUT_S + 60).returncode)
    return max(codes)


def probe(args) -> int:
    import_program()
    import workloads

    with workdir(f"probe-{args.workload}") as wd:
        workloads.make(args.workload, args.seed, args.tiny, wd).close()
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; skips the reference comparison")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
