"""Command line front end.

Commands print one JSON document to stdout. `simulate` exits 0 only
when the run ends in the outcome the scenario file expects, so it slots
directly into shell-level checks; `scenarios/` holds a file for each
attack the paper evaluates.
"""

from __future__ import annotations

import argparse
import sys

# The commands that use the simulator and the corpus generator import
# them, so `serve` loads only what it serves.
from .domain import extract_hostname
from .service import load_config, serve
from .verify import VerifyConfig


def _cmd_simulate(args) -> int:
    from .simulator import load_scenario, matches_expectation, run_scenario

    # A param value the runner rejects (a bad domain or placement) is a
    # bad file too, not a run that missed its expected outcome.
    try:
        scenario = load_scenario(args.scenario, seed_override=args.seed)
        report = run_scenario(scenario)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    return 0 if matches_expectation(report, scenario.expected) else 1


def _cmd_evaluate(args) -> int:
    from .synth import GeneratorParams, ORACLE_PROFILE, evaluate_corpus, load_profile

    if args.profile == "oracle":
        profile = ORACLE_PROFILE
    else:
        try:
            profile = load_profile(args.profile)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load profile: {exc}", file=sys.stderr)
            return 2
    domains = tuple(args.domain) if args.domain else ("microsoft.com",)
    # A bad domain or a non-positive --n is refused before the first cycle.
    try:
        accept = frozenset(extract_hostname(d) for d in domains)
        report = evaluate_corpus(
            args.n, GeneratorParams(domains=domains), profile, VerifyConfig(), accept, args.seed
        )
    except ValueError as exc:
        print(f"cannot evaluate: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    return 0


def _cmd_serve(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load config: {exc}", file=sys.stderr)
        return 2
    return serve(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photoauth",
        description="Photo-based second-factor engine: simulate, evaluate, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and check its expected outcome")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="run detection cycles over synthetic screenshots")
    p.add_argument("--n", type=int, required=True, help="number of cycles")
    p.add_argument("--profile", default="oracle", help='profile JSON path or "oracle"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--domain", action="append", default=None, help="domain to render (repeatable)"
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("--config", required=True, help="path to a config JSON file")
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
