"""Command line entry points.

Subcommands:
  design   read design inputs (JSON), write a pilot plan (JSON) + summary
  pattern  dump a plan's predicted beam foci to CSV
  train    run one noisy training trial and print the estimate as JSON
  sweep    run a Monte-Carlo sweep, write CSV rows and a JSON summary

Every error, usage errors included, exits 2 with a JSON object on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .config import PolarLocation
from .arrays import los_channel
from .design import DesignInputs, PilotPlan, design as run_design, fixed_td_network
from .harness import (
    ExperimentSpec,
    check_grid_sizes,
    desk_experiment_spec,
    dump_beam_pattern,
    fullscale_experiment_spec,
    rate_metric,
    run_sweep,
)
from .training import (SCHEME_AUX, SCHEME_EXHAUSTIVE, SCHEME_FAR_RAINBOW, SCHEME_MATCH,
                       SCHEME_NEAR_RAINBOW, SCHEME_ONGRID, linear_snr, scheme_table, train)

TRAIN_SCHEMES = (SCHEME_ONGRID, SCHEME_AUX, SCHEME_MATCH, SCHEME_EXHAUSTIVE,
                 SCHEME_NEAR_RAINBOW, SCHEME_FAR_RAINBOW)


def _fail(message: str):
    print(json.dumps({"error": message}), file=sys.stderr)
    raise SystemExit(2)


@contextlib.contextmanager
def _failing(prefix: str = ""):
    """Report the block's OSError, ValueError or TypeError through _fail."""
    try:
        yield
    except (OSError, ValueError, TypeError) as exc:
        _fail(f"{prefix}: {exc}" if prefix else str(exc))


class _Parser(argparse.ArgumentParser):
    """Reports usage errors through _fail; its subparsers inherit the class."""

    def error(self, message):
        _fail(f"{self.prog}: {message}")


def _cmd_design(args):
    with _failing("invalid design inputs"):
        inputs = DesignInputs.from_json(Path(args.inputs).read_text())
    with _failing("design failed"):
        plan = run_design(inputs)
    with _failing("cannot write output"):
        if args.out:
            plan.to_json(args.out)
        if args.delays_csv:
            fixed_td_network(plan).to_csv(args.delays_csv)
    print(plan.summary())
    if args.delays_csv:
        print(f"delay table written to {args.delays_csv}")
    if args.out:
        print(f"plan written to {args.out}")
    return 0


def _cmd_pattern(args):
    with _failing("invalid plan"):
        plan = PilotPlan.from_json(Path(args.plan).read_text())
    with _failing("cannot write output"):
        rows, text = dump_beam_pattern(plan, out=args.out)
    if args.out:
        print(f"{len(rows)} rows written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(args):
    with _failing():
        check_grid_sizes(args, lambda name: "--" + name.replace("_", "-"))
    if not math.isfinite(args.snr_db):
        _fail(f"--snr-db must be finite, got {args.snr_db}")
    with _failing("invalid --snr-db"):
        snr = linear_snr(args.snr_db)
    with _failing("invalid plan"):
        plan = PilotPlan.from_json(Path(args.plan).read_text())
    cfg = plan.cfg
    with _failing("invalid user location"):
        if args.theta is not None:
            loc = PolarLocation.from_angle_distance(args.theta, args.distance)
        else:
            loc = PolarLocation.from_physical(args.angle_deg, args.distance)
        channel = los_channel(cfg, loc, args.distance)  # alpha = 0 at endfire
    with _failing("training failed"):
        row = scheme_table(plan, (args.scheme,), args.bank_angles, args.bank_rings)[args.scheme]
        est = train(row, args.scheme, cfg, channel, snr, args.seed)
    result = {**est.to_dict(), "true_theta": loc.theta, "true_alpha": loc.alpha,
              "snr_db": args.snr_db, "seed": args.seed, "rate": rate_metric(cfg, loc, est, snr)}
    print(json.dumps(result, indent=2))
    return 0


def _cmd_sweep(args):
    with _failing("invalid experiment spec"):
        if args.spec:
            spec = ExperimentSpec.from_json(Path(args.spec).read_text())
        elif args.full_scale:
            spec = fullscale_experiment_spec()
        else:
            spec = desk_experiment_spec()
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.trials is not None:
            overrides["n_trials"] = args.trials
        spec = dataclasses.replace(spec, **overrides)
    # fail before the sweep, not after minutes of it
    if os.path.basename(args.out) in ("", ".", ".."):  # "DIR/" would write DIR/.csv
        _fail(f"cannot write output: prefix {args.out!r} has no file name")
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        _fail(f"cannot write output: no directory {out_dir}")
    result = run_sweep(spec)
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    with _failing("cannot write output"):
        result.to_csv(csv_path)
        result.to_json(json_path)
    print(f"{len(result.rows)} rows written to {csv_path}; summary in {json_path}")
    if args.verbose:  # the engine's stage times, the estimate stage by scheme
        for stage, s in result.run["stage_s"].items():
            for name, t in (s.items() if isinstance(s, dict) else [("", s)]):
                print(f"{stage} {name}".rstrip() + f": {1e3 * t:.3f} ms", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beamtrain",
        description="Wideband near-field beam training: pilot design and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design pilot parameters from JSON inputs")
    p.add_argument("--inputs", required=True, help="DesignInputs JSON file")
    p.add_argument("--out", help="write the pilot plan JSON here")
    p.add_argument("--delays-csv", help="also write the fixed delay table CSV")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("pattern", help="dump predicted beam foci to CSV")
    p.add_argument("--plan", required=True, help="PilotPlan JSON file")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("train", help="run one noisy training trial")
    p.add_argument("--plan", required=True, help="PilotPlan JSON file")
    p.add_argument("--scheme", choices=TRAIN_SCHEMES, default=SCHEME_ONGRID)
    angle = p.add_mutually_exclusive_group(required=True)
    angle.add_argument("--theta", type=float, help="user sine-angle in [-1, 1]")
    angle.add_argument("--angle-deg", type=float, help="user physical angle in degrees")
    p.add_argument("--distance", type=float, required=True, help="user distance in m")
    p.add_argument("--snr-db", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bank-angles", type=int, default=96,
                   help="codebook/bank angle count for grid schemes")
    p.add_argument("--bank-rings", type=int, default=8,
                   help="codebook/bank ring count for grid schemes")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec", help="ExperimentSpec JSON file")
    source.add_argument("--full-scale", action="store_true",
                        help="use the full-scale default spec")
    p.add_argument("--out", required=True, help="output prefix for .csv/.json")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--verbose", action="store_true",
                   help="print the sweep's stage times in ms to stderr")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
