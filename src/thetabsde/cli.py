"""Command-line entry point.

``theta-bsde run <config> [--out DIR] [--paths-dump] [--quiet]`` executes a
scenario and writes artifacts; ``theta-bsde validate <config>`` only parses
and validates. Exit codes: 0 success, 1 invariant failure, 2 config error.
"""

import argparse
import sys
import time

from .config import ConfigError, parse_config
from .experiments import fmt, run_scenario


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    return parse_config(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="theta-bsde",
        description="Worst-case-driver BSDE solver and experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--paths-dump", action="store_true",
                       help="also write the per-path CSV")
    p_run.add_argument("--quiet", action="store_true")
    p_val = sub.add_parser("validate", help="parse and validate only")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = _load(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("OK")
        return 0

    start = time.perf_counter()
    try:
        summary, ok = run_scenario(cfg, args.out, paths_dump=args.paths_dump)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    if not args.quiet:
        parts = [f"kind={summary['kind']}"]
        if "y0" in summary:
            parts.append(f"Y0={fmt(summary['y0'])}")
        parts.append(f"seed={summary['seed']}")
        parts.append(f"wall={wall:.2f}s")
        print(" ".join(parts))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
