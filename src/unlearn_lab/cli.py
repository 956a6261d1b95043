"""Command-line entry point.

Usage::

    unlearn-lab <experiment> --config <path> [--out <path>]
                [--seeds s1,s2,...] [--log-level WARNING|INFO|DEBUG]

Exit status: 0 when every check passed, 1 on numerical failures or
failed checks, 2 on configuration errors, bad flags (``--seeds`` and
``--out`` are checked as the config fields they name), outputs that
cannot be written and arrays too large to allocate, each reported in
one line on stderr.  The oracle checks' bound is
:func:`~unlearn_lab.oracle.within_tolerance`'s alone; no flag sets it.
``--log-level`` sends the package's log records at that level and above
to stderr; it never changes the CSV or the summary.  ``INFO`` shows each
stage's seconds and each failed seed's error, and ``DEBUG`` adds each
rank-deficient factorization.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys

from .errors import ConfigError, UnlearnLabError
from .experiments import (
    EXPERIMENTS,
    exit_code_for,
    flag_value,
    load_config,
    run_experiment,
    write_outputs,
)


class _OneLineParser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``config error:`` line."""

    def error(self, message: str):
        self.exit(2, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _OneLineParser(
        prog="unlearn-lab",
        description="Deterministic experiments on fine-tuning-based unlearning.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--out", default=None, help="CSV output path (default: <experiment>.csv)")
    parser.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list overriding the config",
    )
    parser.add_argument(
        "--log-level", choices=("WARNING", "INFO", "DEBUG"), default="WARNING",
        help="log records to show on stderr (INFO: each stage's seconds and each failed seed; "
             "DEBUG: also each rank-deficient factorization)",
    )
    return parser


# One --seeds entry: a decimal integer, with spaces around it.
_SEED = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parse_seeds(raw: str) -> list[int]:
    parts = raw.split(",")
    if not all(_SEED.fullmatch(part) for part in parts):
        raise ConfigError(f"--seeds must be comma-separated integers, got {raw!r}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:  # an entry longer than Python's int-string limit
        raise ConfigError(f"--seeds: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    package_logger = logging.getLogger("unlearn_lab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(args.log_level)
    try:
        return _run(args)
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(previous_level)


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config, args.experiment)
        if args.seeds is not None:
            cfg["seeds"] = flag_value(args.experiment, "--seeds", _parse_seeds(args.seeds))
        out = cfg["out"] if args.out is None else flag_value(args.experiment, "--out", args.out)
        result = run_experiment(args.experiment, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("config error: cannot allocate the arrays this config needs: "
              f"{str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except UnlearnLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    out = out or f"{args.experiment}.csv"
    try:
        csv_path = write_outputs(result, out)
    except OSError as exc:
        print(f"output error: cannot write {exc.filename or out}: {exc.strerror}", file=sys.stderr)
        return 2
    status = exit_code_for(result)
    verdict = {0: "ok", 1: "FAILED"}[status]
    passed = "n/a" if result.passed is None else str(result.passed).lower()
    print(
        f"{args.experiment}: {len(result.rows)} rows -> {csv_path} "
        f"(passed={passed}, numerical_failures={result.numerical_failures}, {verdict})"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
