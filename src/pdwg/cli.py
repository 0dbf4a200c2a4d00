"""Batch front door: run a convergence study and emit CSV tables.

``pdwg-study --problem p1`` solves the chosen problem on a hierarchy of
uniformly refined meshes, prints one summary line per level, and writes
the convergence table as CSV (plus a plot-ready ``*.loglog.csv``
companion).  Exit codes: 0 on success, 2 on bad flags, 3 on a solver
or basis failure, a factorization that runs out of memory included.
Output paths are checked with the flags, before the study runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import run_study
from .assembly import dump_system
from .problems import builtin, catalog_names
from .solver import SolverError
from .wgspace import SpaceConfig

__all__ = ["build_parser", "main", "cli_entry"]

#: Multiplier flag values -> internal space names.  ``p0`` selects the
#: low-degree bracket end (degree k - 2), ``p1`` the high end (degree
#: k - 1), the default and the variant with the strongest observed
#: multiplier decay.
_MULTIPLIER_CHOICES = {"p0": "pkm2", "p1": "pkm1"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pdwg-study",
        description=(
            "Run a mesh-refinement convergence study for a built-in "
            "non-divergence-form problem and write the error table as CSV."
        ),
    )
    parser.add_argument(
        "--problem",
        required=True,
        help=f"built-in problem name ({', '.join(catalog_names())})",
    )
    parser.add_argument("--k", type=int, default=2, help="polynomial degree (>= 2)")
    parser.add_argument(
        "--multiplier",
        choices=sorted(_MULTIPLIER_CHOICES),
        default="p1",
        help="multiplier space: p0 -> degree k-2, p1 -> degree k-1",
    )
    parser.add_argument(
        "--no-c0",
        action="store_true",
        help="use the fully discontinuous variant (separate value traces) "
        "instead of the default continuous interior field",
    )
    parser.add_argument(
        "--levels", type=int, default=6, help="number of refinement levels (>= 2)"
    )
    parser.add_argument(
        "--out",
        default="study.csv",
        help="CSV output path (a companion <out>.loglog.csv is written next to it)",
    )
    parser.add_argument(
        "--dump-system",
        default=None,
        metavar="PATH",
        help="write the finest-level assembled system in coordinate format",
    )
    return parser


def _loglog_path(out):
    base = out[: -len(".csv")] if out.endswith(".csv") else out
    return base + ".loglog.csv"


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.levels < 2:
            parser.error("levels must be ≥ 2")
        if args.k < 2:
            parser.error("k must be ≥ 2")
        for flag, path in (("--out", args.out), ("--out", _loglog_path(args.out)),
                           ("--dump-system", args.dump_system)):
            folder = os.path.dirname(path or "") or "."
            if path is not None and (path == "" or os.path.isdir(path)):
                parser.error(f"{flag}: {path!r} is empty or a directory")
            if path and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                parser.error(f"{flag}: cannot write to directory {folder!r}")
        try:
            problem = builtin(args.problem)
        except ValueError as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        return int(exc.code or 0)

    config = SpaceConfig(
        k=args.k,
        multiplier_space=_MULTIPLIER_CHOICES[args.multiplier],
        c0_type=not args.no_c0,
    )

    final = {}

    def _grab(sol, row):
        # Only the finest level is dumped; holding a coarser one would keep
        # its system alive while the next level is built and factored.
        if row.level == args.levels - 1:
            final["sol"] = sol

    try:
        table = run_study(
            problem, config, levels=args.levels, on_level=_grab if args.dump_system else None
        )
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # e.g. a basis that cannot be built at this degree
        print(f"study failure: {exc}", file=sys.stderr)
        return 3

    for line in table.summary_lines():
        print(line)
    table.to_csv(args.out)
    table.to_loglog_csv(_loglog_path(args.out))
    if args.dump_system:
        dump_system(final["sol"].system, args.dump_system)
    return 0


def cli_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
