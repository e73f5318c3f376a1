"""Parameter sweeps, the figure CSVs and the rendered gap table.

A sweep is evaluated a block of rows at a time (``_stream``), four CSV
chunks of its width, 8192 rows at most (``_block_rows``): a target that
reads the swept variable is one array expression over a block of the grid
(``bounds``' guarded closed form), any other target is evaluated once. A
singular grid endpoint moves inward by half a step and is recorded as a
``Substitution``; a singular interior point raises before the first block,
so a sweep writes all of its rows or none. ``ctxsd sweep`` and
``emit_figure`` write each block as it comes, so a sweep holds its grid and
one block, not its table; ``run_sweep`` copies the blocks into one
``(1 + targets, points)`` array, returned transposed. Each figure is a
``SweepSpec`` plus a map to its column names.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .bounds import (
    CELLS,
    Cell as Target,
    ConfidencePairCell,
    DefinitionalCell,
    GapCertificate,
    _guarded,
    _require_regular,
    eval_bound,
    table1_report,
)
from .config import DEFAULTS, Tolerances
from .csvout import _chunk_rows, write_csv
from .errors import ContractError, DivergenceError, DomainError, require_in, require_int

__all__ = [
    "Target",
    "SweepSpec",
    "Substitution",
    "SweepResult",
    "run_sweep",
    "FigureJob",
    "FIGURE_IDS",
    "emit_figure",
    "table_cmd",
]

_VARIABLES = ("c", "p", "omega")


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one parameter with the other two held fixed."""

    variable: str
    start: float
    stop: float
    points: int
    fixed: Mapping[str, float]
    targets: tuple[Target, ...]

    def __post_init__(self) -> None:
        if self.variable not in _VARIABLES:
            raise ContractError(f"unknown sweep variable {self.variable!r}")
        object.__setattr__(self, "points", require_int(self.points, "sweep points"))
        if self.points < 1:
            raise DomainError("a sweep needs at least one grid point")
        for name in ("start", "stop"):
            object.__setattr__(self, name, require_in(getattr(self, name), f"sweep {name}",
                                                      scalar=True))
        if not self.start <= self.stop:
            raise DomainError("sweep range must satisfy 0 <= start <= stop <= 1")
        if not self.targets:
            raise ContractError("a sweep needs at least one target")
        if not isinstance(self.fixed, Mapping):
            raise ContractError(f"fixed must map parameter names to values, got {self.fixed!r}")
        unknown = set(self.fixed) - set(_VARIABLES)
        if unknown:
            raise ContractError(f"unknown fixed parameter(s) {sorted(unknown)}")
        merged = {"c": 0.5, "p": 0.5, "omega": 0.5}
        merged.update(self.fixed)
        object.__setattr__(self, "fixed", {k: require_in(v, f"fixed parameter {k}", scalar=True)
                                           for k, v in merged.items()})
        object.__setattr__(self, "targets", tuple(self.targets))
        for t in self.targets:
            if not isinstance(t, Target):
                raise ContractError(f"a sweep target must be a table cell, got {t!r}")


@dataclass(frozen=True)
class Substitution:
    """A grid point a sweep evaluated elsewhere: its index, the grid value
    and the value used instead."""

    index: int
    grid_x: float
    used_x: float


@dataclass(frozen=True)
class SweepResult:
    """``table`` holds one row per grid point: the x used, then one value
    per target."""

    header: tuple[str, ...]
    table: np.ndarray
    substitutions: tuple[Substitution, ...] = ()

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))


def _block_rows(columns: int) -> int:
    """The rows a sweep of ``columns`` columns evaluates, and writes, at a
    time: four of the CSV writer's chunks, but no more than the 8192 rows of
    a 16-column block, as the closed forms' temporaries grow with the rows."""
    return 4 * _chunk_rows(max(columns, 16))


def _stream(spec: SweepSpec) -> tuple[tuple[str, ...], tuple[Substitution, ...],
                                      Iterator[np.ndarray]]:
    """The sweep ``spec`` as its header, its substitutions and an iterator
    of its row blocks, each ``_block_rows`` of its width but the last.

    A grid endpoint at which a target's closed form is singular (for
    example the confidence of a pure coincident pair) is shifted inward by
    half a step for every target, so the output stays free of NaN
    placeholders. A singular interior point raises here, before any block
    is drawn: every block is tested first, so drawing them raises nothing.
    A target that does not read the swept variable is evaluated once. Each
    block is a view of one buffer, which the next block overwrites.
    """
    xs = np.linspace(spec.start, spec.stop, spec.points)
    step = (spec.stop - spec.start) / (spec.points - 1) if spec.points > 1 else 0.0
    substitutions = []
    for k, shift in ((0, 0.5 * step), (spec.points - 1, -0.5 * step)) if step else ():
        x = float(xs[k])
        try:
            for t in spec.targets:
                eval_bound(t.spec(**{**spec.fixed, spec.variable: x}))
        except DivergenceError:  # the only error a closed form raises
            xs[k] = x + shift
            substitutions.append(Substitution(k, x, float(xs[k])))
    xs = require_in(xs, f"{spec.variable} grid")
    rows = _block_rows(1 + len(spec.targets))
    starts = range(0, spec.points, rows)
    buffer = np.empty((1 + len(spec.targets), min(spec.points, rows)))
    varying = []  # (row, cell, its parameters with the variable a block's grid)
    for row, t in enumerate(spec.targets, 1):
        cell = t.spec(**spec.fixed)
        params = {"c": cell.c, "p": cell.p, "omega": cell.omega}
        if params[spec.variable] is None:  # constant: every block shares the row
            buffer[row] = eval_bound(cell)
            continue
        for lo in starts:
            params[spec.variable] = xs[lo:lo + rows]
            _require_regular(cell, params["c"], params["p"])
        varying.append((row, cell, params))

    def blocks() -> Iterator[np.ndarray]:
        for lo in starts:
            x = xs[lo:lo + rows]
            n = len(x)
            buffer[0, :n] = x
            for row, cell, params in varying:
                params[spec.variable] = x
                buffer[row, :n] = _guarded(cell, **params)
            # column-major as a row table: the CSV writer's np.copyto of a
            # chunk into its row-major scratch (csvout._CsvTable._cells)
            # does the transpose
            yield buffer[:, :n].T

    header = (spec.variable, *(t.label for t in spec.targets))
    return header, tuple(substitutions), blocks()


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every target on the grid, one column per target, each
    endpoint substitution recorded in ``substitutions``; a singular interior
    point raises DivergenceError."""
    header, substitutions, blocks = _stream(spec)
    table = np.empty((len(header), spec.points))
    for lo, block in zip(range(0, spec.points, _block_rows(len(header))), blocks):
        table[:, lo:lo + len(block)] = block.T
    return SweepResult(header, table.T, substitutions)


# ---------------------------------------------------------------------------
# figures

_FIG_POINTS = 201


# Figure column names of the sweep columns the figures plot.
_FIGURE_HEADER = {
    "MESD_C_Q": "C_Q", "MESD_C1_NC": "C_NC_1", "MESD_C2_NC": "C_NC_2",
    "MCM_P0_Q": "P0_Q", "MCM_P0_NC": "P0_NC", "MCM_Pg_Q": "Pg_Q", "MCM_Pg_NC": "Pg_NC",
}


def _cells(scheme: str, figure: str) -> tuple[Target, ...]:
    return tuple(t for t in CELLS if (t.scheme, t.figure) == (scheme, figure))


_FIGURES = {
    # confidence trade-off over omega at c = 1/2
    "fig2": SweepSpec("omega", 0.0, 1.0, _FIG_POINTS, {"c": 0.5}, _cells("MESD", "C")),
    # inconclusive rates over p at c = 1/2
    "fig3a": SweepSpec("p", 0.0, 1.0, _FIG_POINTS, {"c": 0.5}, _cells("MCM", "P_0")),
    # inconclusive rates over c at p = 3/4
    "fig3b": SweepSpec("c", 0.0, 1.0, _FIG_POINTS, {"p": 0.75}, _cells("MCM", "P_0")),
    # guessing probabilities over c at p = 1/2
    "fig4": SweepSpec("c", 0.0, 1.0, _FIG_POINTS, {"p": 0.5}, _cells("MCM", "P_g")),
}

FIGURE_IDS = tuple(sorted(_FIGURES))


@dataclass(frozen=True)
class FigureJob:
    figure_id: str
    out_path: Path

    def __post_init__(self) -> None:
        if self.figure_id not in _FIGURES:
            raise ContractError(
                f"unknown figure {self.figure_id!r}; choose from {FIGURE_IDS}"
            )
        object.__setattr__(self, "out_path", Path(self.out_path))


def emit_figure(job: FigureJob) -> Path:
    """Write one figure's data as CSV and return the path."""
    header, _, blocks = _stream(_FIGURES[job.figure_id])
    write_csv(job.out_path, [_FIGURE_HEADER.get(name, name) for name in header], blocks)
    return job.out_path


# ---------------------------------------------------------------------------
# table rendering


def table_cmd(c: float, p: float, omega: float, tols: Tolerances = DEFAULTS) -> str:
    """Render the nine-cell gap table as text, one line per cell."""
    report = table1_report(c, p, omega, tols)
    lines = [
        f"gap table at c={_fmt(c)}, p={_fmt(p)}, omega={_fmt(omega)}",
        f"{'scheme':<7}{'figure':<7}{'quantum':<15}{'noncontextual':<15}"
        f"{'gap':<16}advantage",
    ]

    def cert_line(scheme: str, figure: str, cert: GapCertificate) -> str:
        return (
            f"{scheme:<7}{figure:<7}{_fmt(cert.quantum_value):<15}"
            f"{_fmt(cert.noncontextual_value):<15}"
            f"{cert.gap:<+16.9g}{'yes' if cert.advantage else 'no'}"
        )

    for (scheme, figure), cell in report.cells.items():
        if isinstance(cell, DefinitionalCell):
            lines.append(
                f"{scheme:<7}{figure:<7}{_fmt(cell.value)} (definitional: {cell.note})"
            )
        elif isinstance(cell, ConfidencePairCell):
            lines.append(cert_line(scheme, "C(1)", cell.arm1))
            lines.append(cert_line(scheme, "C(2)", cell.arm2))
        else:
            lines.append(cert_line(scheme, figure, cell))

    mesd_c = report.cell("MESD", "C")
    if mesd_c.window is not None:
        lo, hi = mesd_c.window
        lines.append(
            f"both-arm confidence advantage window: omega in [{_fmt(lo)}, {_fmt(hi)}]"
        )
    else:
        lines.append("both-arm confidence advantage window: undefined at this c")
    if not report.usd_possible:
        lines.append("note: unambiguous discrimination impossible (coincident states)")
    return "\n".join(lines)
