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
import sys
from pathlib import Path

from .config import PolarLocation
from .arrays import PolarCodebook, los_channel
from .design import DesignInputs, PilotPlan, fixed_td_network
from .harness import (
    ExperimentSpec,
    desk_experiment_spec,
    dump_beam_pattern,
    fullscale_experiment_spec,
    rate_metric,
    run_sweep,
)
from .training import (
    SCHEME_AUX,
    SCHEME_EXHAUSTIVE,
    SCHEME_FAR_RAINBOW,
    SCHEME_MATCH,
    SCHEME_NEAR_RAINBOW,
    SCHEME_ONGRID,
    aux_pair_train,
    build_match_filter_bank,
    exhaustive_polar_train,
    farfield_rainbow_train,
    match_filter_train,
    nearfield_rainbow_train,
    observe_plan,
    ongrid_train,
)

TRAIN_SCHEMES = (
    SCHEME_ONGRID,
    SCHEME_AUX,
    SCHEME_MATCH,
    SCHEME_EXHAUSTIVE,
    SCHEME_NEAR_RAINBOW,
    SCHEME_FAR_RAINBOW,
)


def _fail(message: str, code: int = 2, **detail):
    payload = {"error": message}
    if detail:
        payload["detail"] = detail
    print(json.dumps(payload), file=sys.stderr)
    raise SystemExit(code)


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
    except ValueError as exc:
        _fail(f"invalid user location: {exc}")
    snr = 10 ** (args.snr_db / 10)
    channel = los_channel(cfg, loc)
    scheme = args.scheme
    try:
        if scheme in (SCHEME_ONGRID, SCHEME_AUX, SCHEME_MATCH):
            obs = observe_plan(channel, plan, snr, args.seed)
            if scheme == SCHEME_ONGRID:
                est = ongrid_train(obs, plan)
            elif scheme == SCHEME_AUX:
                est = aux_pair_train(obs, plan)
            else:
                bank = build_match_filter_bank(plan, args.bank_angles, args.bank_rings)
                est = match_filter_train(obs, bank)
        elif scheme == SCHEME_EXHAUSTIVE:
            book = PolarCodebook(cfg, args.bank_angles, args.bank_rings)
            est = exhaustive_polar_train(channel, book, snr, args.seed)
        elif scheme == SCHEME_NEAR_RAINBOW:
            est = nearfield_rainbow_train(channel, cfg, args.bank_rings, snr, args.seed)
        else:
            est = farfield_rainbow_train(channel, cfg, snr, args.seed)
    except ValueError as exc:
        _fail(f"training failed: {exc}")
    result = est.to_dict()
    result["true_theta"] = loc.theta
    result["true_alpha"] = loc.alpha
    result["snr_db"] = args.snr_db
    result["seed"] = args.seed
    result["rate"] = rate_metric(cfg, loc, est, snr)
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
    result = run_sweep(spec)
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    try:
        result.to_csv(csv_path)
        result.to_json(json_path)
    except OSError as exc:
        _fail(f"cannot write output: {exc}")
    print(f"{len(result.rows)} rows written to {csv_path}; summary in {json_path}")
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
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
