"""Command line entry points.

Subcommands:
  design   read design inputs (JSON), write a pilot plan (JSON) + summary
  pattern  dump a plan's predicted beam foci to CSV
  train    run one noisy training trial and print the estimate as JSON
  sweep    run a Monte-Carlo sweep, write CSV rows and a JSON summary

Errors exit nonzero with a machine-readable JSON object on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .config import PolarLocation
from .arrays import los_channel
from .design import DesignInputs, PilotPlan, fixed_td_network
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


def _cmd_design(args):
    try:
        inputs = DesignInputs.from_json(Path(args.inputs).read_text())
    except (OSError, ValueError, TypeError) as exc:
        _fail(f"invalid design inputs: {exc}")
    from .design import design as run_design

    try:
        plan = run_design(inputs)
    except ValueError as exc:
        _fail(f"design failed: {exc}")
    try:
        if args.out:
            plan.to_json(args.out)
        if args.delays_csv:
            fixed_td_network(plan).to_csv(args.delays_csv)
    except OSError as exc:
        _fail(f"cannot write output: {exc}")
    print(plan.summary())
    if args.delays_csv:
        print(f"delay table written to {args.delays_csv}")
    if args.out:
        print(f"plan written to {args.out}")
    return 0


def _cmd_pattern(args):
    try:
        plan = PilotPlan.from_json(Path(args.plan).read_text())
    except (OSError, ValueError, TypeError) as exc:
        _fail(f"invalid plan: {exc}")
    try:
        rows, text = dump_beam_pattern(plan, out=args.out)
    except OSError as exc:
        _fail(f"cannot write output: {exc}")
    if args.out:
        print(f"{len(rows)} rows written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(args):
    try:
        check_grid_sizes(args, lambda name: "--" + name.replace("_", "-"))
    except ValueError as exc:
        _fail(str(exc))
    if not math.isfinite(args.snr_db):
        _fail(f"--snr-db must be finite, got {args.snr_db}")
    try:
        snr = linear_snr(args.snr_db)
    except ValueError as exc:
        _fail(f"invalid --snr-db: {exc}")
    try:
        plan = PilotPlan.from_json(Path(args.plan).read_text())
    except (OSError, ValueError, TypeError) as exc:
        _fail(f"invalid plan: {exc}")
    cfg = plan.cfg
    if (args.theta is None) == (args.angle_deg is None):
        _fail("give exactly one of --theta or --angle-deg")
    try:
        if args.theta is not None:
            loc = PolarLocation.from_angle_distance(args.theta, args.distance)
        else:
            loc = PolarLocation.from_physical(args.angle_deg, args.distance)
        channel = los_channel(cfg, loc, args.distance)  # alpha = 0 at endfire
    except ValueError as exc:
        _fail(f"invalid user location: {exc}")
    try:
        row = scheme_table(plan, (args.scheme,), args.bank_angles, args.bank_rings)[args.scheme]
        est = train(row, args.scheme, cfg, channel, snr, args.seed)
    except ValueError as exc:
        _fail(f"training failed: {exc}")
    result = {**est.to_dict(), "true_theta": loc.theta, "true_alpha": loc.alpha,
              "snr_db": args.snr_db, "seed": args.seed, "rate": rate_metric(cfg, loc, est, snr)}
    print(json.dumps(result, indent=2))
    return 0


def _cmd_sweep(args):
    try:
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
    except (OSError, ValueError, TypeError) as exc:
        _fail(f"invalid experiment spec: {exc}")
    # fail before the sweep, not after minutes of it
    if os.path.basename(args.out) in ("", ".", ".."):  # "DIR/" would write DIR/.csv
        _fail(f"cannot write output: prefix {args.out!r} has no file name")
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        _fail(f"cannot write output: no directory {out_dir}")
    result = run_sweep(spec)
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    try:
        result.to_csv(csv_path)
        result.to_json(json_path)
    except OSError as exc:
        _fail(f"cannot write output: {exc}")
    print(f"{len(result.rows)} rows written to {csv_path}; summary in {json_path}")
    if args.verbose:  # the engine's stage times, the estimate stage by scheme
        for stage, s in result.run["stage_s"].items():
            for name, t in (s.items() if isinstance(s, dict) else [("", s)]):
                print(f"{stage} {name}".rstrip() + f": {1e3 * t:.3f} ms", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--theta", type=float, help="user sine-angle in [-1, 1]")
    p.add_argument("--angle-deg", type=float, help="user physical angle in degrees")
    p.add_argument("--distance", type=float, required=True, help="user distance in m")
    p.add_argument("--snr-db", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bank-angles", type=int, default=96,
                   help="codebook/bank angle count for grid schemes")
    p.add_argument("--bank-rings", type=int, default=8,
                   help="codebook/bank ring count for grid schemes")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    p.add_argument("--spec", help="ExperimentSpec JSON file")
    p.add_argument("--out", required=True, help="output prefix for .csv/.json")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--full-scale", action="store_true",
                   help="use the full-scale default spec when --spec is omitted")
    p.add_argument("--verbose", action="store_true",
                   help="print the sweep's stage times in ms to stderr")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
