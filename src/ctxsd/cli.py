"""Command-line front end.

Subcommands: ``bounds`` (closed-form values at one parameter point),
``sweep`` (CSV over a parameter grid), ``figure`` (reproduce one of the
canned figure CSVs), ``table`` (the nine-cell gap report) and ``verify``
(the full cross-check suite).

``verify --json`` prints the report as one JSON object instead of text:
each check's status, worst deviation, limit, headroom (deviation over
limit), worst point, number of compared values and wall time.

Exit codes: 0 on success, 1 when verification fails, 2 on usage or I/O
errors. The ``CTXSD_TOL`` environment variable, read only by ``verify``,
loosens its comparison tolerances. ``table`` has no tolerance: a cell shows
an advantage exactly where its gap is positive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import config
from .bounds import CELLS, NONCONTEXTUAL, QUANTUM, Cell as Target, eval_bound
from .errors import CtxsdError

if TYPE_CHECKING:
    from .harness import VerifyReport

_FIGURE_TOKENS = {"PG": "P_g", "P0": "P_0", "C": "C", "C1": "C", "C2": "C"}
_THEORY_TOKENS = {"Q": QUANTUM, "QUANTUM": QUANTUM, "NC": NONCONTEXTUAL,
                  "NONCONTEXTUAL": NONCONTEXTUAL}


def _parse_target(token: str) -> Target:
    parts = token.upper().split(":")
    if len(parts) != 3:
        raise CtxsdError(
            f"target {token!r} must look like SCHEME:FIGURE:THEORY, "
            "e.g. MESD:Pg:Q or MESD:C1:NC"
        )
    scheme, figure_token, theory_token = parts
    if figure_token not in _FIGURE_TOKENS:
        raise CtxsdError(f"unknown figure token {token!r} (use Pg, P0, C, C1 or C2)")
    if theory_token not in _THEORY_TOKENS:
        raise CtxsdError(f"unknown theory token {token!r} (use Q or NC)")
    target = Target(
        scheme=scheme,
        figure=_FIGURE_TOKENS[figure_token],
        theory=_THEORY_TOKENS[theory_token],
        outcome=2 if figure_token == "C2" else 1,
    )
    if figure_token in ("C1", "C2") and not target.has_arms:
        raise CtxsdError(f"target {token!r} has no arms; only MESD:C1:NC and MESD:C2:NC do")
    return target


def _add_point_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--c", type=float, default=0.5, help="confusability in [0, 1]")
    sub.add_argument("--p", type=float, default=0.5, help="noise level in [0, 1]")
    sub.add_argument("--omega", type=float, default=0.5, help="strategy mixing weight")


@functools.cache  # one per process: parse_args leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    from .sweeps import FIGURE_IDS, _VARIABLES

    parser = argparse.ArgumentParser(
        prog="ctxsd",
        description="Quantum versus noncontextual bounds for binary state discrimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print every closed-form bound at one point")
    _add_point_args(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV")
    p_sweep.add_argument("--variable", choices=_VARIABLES, required=True)
    p_sweep.add_argument("--start", type=float, default=0.0)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=101)
    p_sweep.add_argument(
        "--target",
        action="append",
        required=True,
        metavar="SCHEME:FIGURE:THEORY",
        help="bound column, e.g. MESD:Pg:Q, MCM:P0:NC, MESD:C2:NC (repeatable)",
    )
    _add_point_args(p_sweep)
    p_sweep.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit one of the canned figure CSVs")
    p_fig.add_argument("--id", choices=FIGURE_IDS, required=True)
    p_fig.add_argument("--out", type=Path, required=True)
    p_fig.set_defaults(func=_cmd_figure)

    p_table = sub.add_parser("table", help="render the nine-cell gap table")
    _add_point_args(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the full cross-check suite")
    p_verify.add_argument("--points", type=int, default=21, help="grid density per axis")
    p_verify.add_argument("--json", action="store_true", help="print the report as JSON")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _cmd_bounds(args: argparse.Namespace) -> int:
    lines = []
    for cell in CELLS:
        figure = f"C({cell.outcome})" if cell.has_arms else cell.figure
        value = eval_bound(cell.spec(args.c, args.p, args.omega))
        lines.append(f"{cell.scheme:<5} {figure:<5} {cell.theory:<14} {value:.9g}")
    print("\n".join(lines))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .csvout import write_csv, write_csv_to
    from .sweeps import SweepSpec, _stream

    targets = tuple(_parse_target(tok) for tok in args.target)
    spec = SweepSpec(
        variable=args.variable,
        start=args.start,
        stop=args.stop,
        points=args.points,
        fixed={"c": args.c, "p": args.p, "omega": args.omega},
        targets=targets,
    )
    header, substitutions, blocks = _stream(spec)  # raises before a byte is written
    for sub in substitutions:
        print(
            f"note: row {sub.index}: {spec.variable} = {sub.grid_x:.9g} is singular; "
            f"evaluated at {sub.used_x:.9g}",
            file=sys.stderr,
        )
    if args.out is None:
        write_csv_to(sys.stdout, header, blocks)
    else:
        write_csv(args.out, header, blocks)
        print(f"wrote {args.out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .sweeps import FigureJob, emit_figure

    path = emit_figure(FigureJob(args.id, args.out))
    print(f"wrote {path}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .sweeps import table_cmd

    print(table_cmd(args.c, args.p, args.omega))
    return 0


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _report_json(report: VerifyReport) -> dict:
    """The verify report as JSON values. A deviation or headroom that is not
    finite (a failed pass/fail item) is null."""
    checks = [
        {"name": ch.name, "passed": ch.passed, "max_dev": _finite(ch.max_dev),
         "limit": ch.limit, "headroom": _finite(ch.headroom), "worst": ch.worst,
         "items": ch.items, "wall_s": ch.wall_s, "ops": list(ch.ops)}
        for ch in report.checks
    ]
    return {"points": report.points, "passed": report.passed, "checks": checks,
            "operations_exercised": len(report.covered_ops),
            "missing_ops": list(report.missing_ops)}


def _cmd_verify(args: argparse.Namespace) -> int:
    from .harness import verify_all

    report = verify_all(args.points, config.from_env())
    print(json.dumps(_report_json(report), indent=2) if args.json else report.render())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CtxsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold, such as 10^12 sweep points
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
