"""Command-line front end.

Exit codes: 0 = safe run / formula true / scenario valid, 1 = unsafe run /
formula false, 2 = usage, parse or validation error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .logic import LogicError, default_valuation, eval_multiview, parse
from .randomgen import sweep_scenario
from .scenario import MAX_TICKS, ScenarioError, load_scenario
from .views import build_multiview


def _load(spec: str, seed):
    if spec == "sweep":
        return sweep_scenario(0 if seed is None else seed)
    if seed is not None:
        raise ScenarioError("--seed applies only to the generated 'sweep' scenario")
    return load_scenario(spec)


def _ticks(text: str) -> int:
    try:
        ticks = int(text)
    except ValueError:
        ticks = -1
    if not 0 <= ticks <= MAX_TICKS:
        raise argparse.ArgumentTypeError(
            f"must be a whole number in [0, {MAX_TICKS:,}], got {text!r}")
    return ticks


def cmd_run(args) -> int:
    scenario = _load(args.scenario, args.seed)
    verdict, events = harness.run(scenario, max_ticks=args.ticks)
    if args.trace:
        harness.write_trace(events, args.trace)
    if verdict.first_violation:
        when, cars, node = verdict.first_violation
        print(f"unsafe: {cars[0]} and {cars[1]} overlap on {node} at t={when:.3f}")
    else:
        print("safe")
    if verdict.deadlocked_cars:
        print("deadlocked cars: " + ", ".join(sorted(verdict.deadlocked_cars)))
    return 0 if verdict.safe else 1


def cmd_check(args) -> int:
    scenario = _load(args.scenario, None)
    ts = scenario.snapshot()
    if args.car not in ts.cars:
        raise ScenarioError(f"no car {args.car!r} in scenario")
    formula = parse(args.formula, params=scenario.params)
    mv = build_multiview(scenario.topo, ts, args.car, scenario.h_b, scenario.h_f)
    nu = default_valuation(ts, args.car)
    verdict = eval_multiview(ts, mv, nu, formula, mode=args.mode)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_validate(args) -> int:
    _load(args.scenario, None)
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossings",
        description="Intersection manoeuvre simulator and spatial-logic checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario with the safety monitor")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the event trace to this file")
    p_run.add_argument("--seed", type=int, help="seed for the generated 'sweep' scenario")
    p_run.add_argument("--ticks", type=_ticks, help="override the number of ticks")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="evaluate one formula over a car's multi-view")
    p_check.add_argument("scenario")
    p_check.add_argument("--formula", required=True)
    p_check.add_argument("--car", required=True)
    p_check.add_argument("--mode", choices=("forall", "exists"), default="forall")
    p_check.set_defaults(fn=cmd_check)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ScenarioError, LogicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
