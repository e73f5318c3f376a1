"""Reproduction harness: parameter sweeps, figure CSVs, the rendered gap
table and a one-shot verification suite.

``run_sweep`` evaluates each target as one array expression over the grid
(``bounds.eval_column``). A singular grid endpoint moves inward by half a
step and is recorded as a ``Substitution``; a singular interior point
raises. Each figure is a ``SweepSpec`` plus a map to its column names.

``verify_all`` first builds one shared evaluation pass: the Helstrom,
unambiguous and maximum-confidence measurements each as one stack over its
grid (``qtheory.helstrom_stack``, ``usd_stack``, ``mcm_stack``), whose
figures are read in one pass; the closed form of each cell as one
``eval_column`` call over a grid's c and p arrays; and the canonical
scenarios of the whole grid as one ``ncmodel.canonical_scenario`` stack,
over which each brute-force oracle runs once. The scalar constructions and
figures of merit only rebuild a stack row and its figures in spot checks.
The relation table ``_RELATIONS`` then compares each table cell with each
independent route to it (the constructions for quantum cells, the oracles
for noncontextual ones), every relation in exactly one named check. The
structural checks (completeness, monotonicity, model invariants, the
inequality suite and the like) read the same stacks. Each check reports its
largest deviation and the number of values it compared, and the report
records the audited operations whose results it compared. A typed error
raised inside a check is that check's failure, reported at the error; the
other checks still run.

The audits are array expressions with no per-point Python and no LAPACK.
``povm-completeness`` takes the smallest eigenvalue of each 2x2 element
from its trace t and determinant d, t/2 - sqrt(t^2/4 - d), apart from the
``qtheory.min_eig_2x2`` it audits, and Hermiticity from the entries that
can differ. ``pure-pair-and-mirror`` checks one stack of pairs and their
mirrors, with the scalar operations compared against its rows. An array's
deviation is recorded as its largest entry; the entry and its point are
located and formatted only for a check's worst item.

CSV output is deterministic: comma separated, ``.`` decimal point, LF line
endings, header row first, every cell the bytes of ``"%.9g" % x``. One numpy
kernel writes 4096 rows at a time as four uint32 words a cell: a lead word
holding the separator before the cell (``"\\n"`` for a row's first cell, so
the header goes out without its newline and one ``"\\n"`` ends the table), a
NUL and "0.", then three digit words; every byte it does not set is NUL,
deleted by one ``bytes.translate``. Its fast path covers 1e-4 <= x < 1: y =
x 10^k in [10^8, 10^9) is within 2^-24 of exact, so rint(y) is the
nine-digit mantissa unless |y - rint(y)| >= 1/2 - 1e-6; k indexes a power
table, and 1e12 / 10^k is exact for k = 9..12. The fraction digits f <
10^12 split exactly as hi = floor(f 1e-8), rest = f - hi 1e8, mid =
floor(rest 1e-4), lo = rest - mid 1e4: as fl(1e-8) and fl(1e-4) exceed their
powers, no product is below its integer part, nor (off by < 2e-12) reaches
the next one, >= 1e-8 away; the rest is integer arithmetic. A table holds
each four-digit group and, in its second half, the group with trailing "0"s
as NUL, read by the lowest group and by a higher one where all below are 0.
Exact 0 and 1 are one digit; any other cell is ``"%-15.9g"`` after its
separator, spaces NUL. The longest such texts are 16 bytes (as
``-1.23456789e-100``), so a call that holds one gives every cell a fifth
word, read from the data, and prints ``"%-19.9g"``. A column whose 64-bit
patterns are equal in every row of a chunk (0.0 and -0.0 differ, as do NaN
payloads) is not run through the kernel: each run of such columns is
formatted once per table, keyed by its columns and patterns, and repeated
down the chunk as its text. A table's kernel temporaries and word buffers
are allocated once, sized to a chunk, and every step writes into them.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import ncmodel, qtheory
from .bounds import (
    CELLS,
    Cell as Target,
    ConfidencePairCell,
    DefinitionalCell,
    GapCertificate,
    eval_bound,
    eval_column,
    is_advantage,
    oriented_gap,
    table1_report,
)
from .config import DEFAULTS, Tolerances
from .errors import (
    ContractError,
    CtxsdError,
    DegenerateEnsembleError,
    DivergenceError,
    DomainError,
    InfeasibleWeightsError,
    UsdImpossibleError,
)

__all__ = [
    "Target",
    "SweepSpec",
    "Substitution",
    "SweepResult",
    "run_sweep",
    "FigureJob",
    "FIGURE_IDS",
    "emit_figure",
    "write_csv",
    "write_csv_to",
    "table_cmd",
    "CheckResult",
    "VerifyReport",
    "verify_all",
    "OPERATIONS",
]

_VARIABLES = ("c", "p", "omega")
_CSV_CHUNK = 4096  # rows formatted per write


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


# A cell's lead word: its separator, a NUL and "0.", after another cell and
# first in its row
_CSV_LEAD = np.frombuffer(b",\x000.\n\x000.", np.uint32)
# The lead word of an exact 0 or 1 less its separator: a NUL, the digit, a NUL
_DIGIT_LEAD = np.frombuffer(b"\0\x000\0\0\x001\0", np.uint32)
_POW10 = 10.0 ** np.arange(13)
_BELOW_1 = np.nextafter(1.0, 0.0)


@functools.cache
def _csv_digits() -> np.ndarray:
    """The CSV kernel's digit table, built on its first use: at i the four
    ASCII digits of i (0..9999) packed into a uint32, and at 10000 + i the
    same digits with the trailing "0"s set to NUL."""
    n = np.arange(10_000)[:, None]
    digits = n // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    trailing = n % 10 ** np.arange(4, 0, -1) == 0  # every digit after it is 0
    table = np.concatenate([digits, np.where(trailing, 0, digits)])
    return table.astype(np.uint8).view(np.uint32).ravel()


class _CsvTable:
    """The CSV writer of one table of ``columns`` columns: its kernel's
    scratch, allocated once and sized to a chunk of ``rows`` rows, into which
    every step of the kernel writes, and the text of each constant run."""

    def __init__(self, rows: int, columns: int) -> None:
        size = rows * columns
        self.x, self.v, self.f, self.y, self.r = np.empty((5, size))
        self.fast, self.b1, self.b2 = np.empty((3, size), bool)
        self.count = np.empty(size, np.uint8)
        self.k = np.empty(size, np.intp)
        self.group = np.empty(size, np.uint32)
        self.words = np.empty(5 * size, np.uint32)  # four words a cell, or five
        self.rows = None  # a chunk's words with its constant runs, on first need
        self.lead = np.where(np.arange(columns) == 0, _CSV_LEAD[1], _CSV_LEAD[0])
        self.texts: dict[tuple, np.ndarray] = {}  # by columns and bit patterns

    def chunk(self, block: np.ndarray) -> bytes:
        """The CSV text of the rows ``block``, each led by its "\\n"."""
        n, m = block.shape
        bits = block.view(np.uint64)  # not float ==: 0.0 and -0.0 print apart
        same = np.equal(bits, bits[0], out=self.b1[:n * m].reshape(n, m)).all(axis=0)
        words = self._runs(block, same) if same.any() else self._cells(block)
        return words.tobytes().translate(None, b"\0")

    def _runs(self, block: np.ndarray, same: np.ndarray) -> np.ndarray:
        """The ``(rows, words)`` of a chunk ``block`` whose ``same`` columns
        are constant: each run of adjacent constant columns is its text,
        formatted once per table; the kernel writes the other cells."""
        n = len(block)
        spans, col = [], 0  # each run's first column, column count and text (None: varying)
        for const, run in itertools.groupby(same.tolist()):
            m = len(list(run))
            spans.append((col, m, self._text(block, col, m) if const else None))
            col += m
        varying = np.flatnonzero(~same)
        if len(varying):
            words = self._cells(block, varying)
            width = words.shape[1] // len(varying)
        pieces, v = [], 0
        for col, m, text in spans:
            if text is None:
                pieces.append(words[:, width * v:width * (v + m)])
                v += m
            else:
                pieces.append(np.broadcast_to(text, (n, len(text))))
        if self.rows is None:  # a run's text is at most five words a cell too
            self.rows = np.empty_like(self.words)
        total = sum(piece.shape[1] for piece in pieces)
        return np.concatenate(pieces, axis=1, out=self.rows[:n * total].reshape(n, total))

    def _text(self, block: np.ndarray, col: int, m: int) -> np.ndarray:
        """The words of the first row's ``m`` cells from column ``col``, NULs
        deleted and padded to a whole word; formatted on first use only."""
        key = (col, m, block[0, col:col + m].tobytes())
        text = self.texts.get(key)
        if text is None:
            text = self._cells(block[:1], slice(col, col + m)).tobytes().translate(None, b"\0")
            text = self.texts[key] = np.frombuffer(text + bytes(-len(text) % 4), np.uint32)
        return text

    def _cells(self, block: np.ndarray, columns: slice | np.ndarray = slice(None)) -> np.ndarray:
        """The kernel: the ``(rows, words)`` of ``block``'s ``columns`` (a
        slice or an index array), each cell its column's lead word, then
        ``b"%.9g" % x``, every byte it does not set NUL. A cell is four words;
        it is five in every cell if one cell's text is 16 bytes."""
        lead = self.lead[columns]
        n, m = len(block), len(lead)
        size = n * m
        x, v, f, y, r = (a[:size] for a in (self.x, self.v, self.f, self.y, self.r))
        fast, b1, b2, count, k, group = (
            a[:size] for a in (self.fast, self.b1, self.b2, self.count, self.k, self.group)
        )
        if isinstance(columns, slice):
            np.copyto(x.reshape(n, m), block[:, columns])
        else:
            np.take(block, columns, axis=1, out=x.reshape(n, m), mode="clip")
        np.greater_equal(x, 1e-4, out=fast)
        fast &= np.less(x, 1.0, out=b1)
        np.fmin(np.fmax(x, 1e-4, out=v), _BELOW_1, out=v)  # x, or any x off the path moved into it
        # x = y 10^-k with 10^8 <= y < 10^9: the thresholds are the doubles
        # nearest 10^-1..10^-3, each just above its power, so k is exact
        np.add(np.less(v, 0.1, out=b1).view(np.uint8), np.less(v, 0.01, out=b2).view(np.uint8),
               out=count)
        count += np.less(v, 0.001, out=b1).view(np.uint8)
        scale = np.take(_POW10, np.add(count, 9, out=k), out=f, mode="wrap")
        np.multiply(v, scale, out=y)
        np.rint(y, out=r)
        fast &= np.less(np.abs(np.subtract(y, r, out=y), out=y), 0.5 - 1e-6, out=b1)
        # the twelve fraction digits, an exact integer: 1e12 / 10^k is exact
        np.multiply(r, np.divide(1e12, scale, out=f), out=f)
        fast &= np.less(f, 1e12, out=b1)  # 10^12: x rounds to 1
        np.multiply(f, fast, out=f)  # 0 off the fast path: its digit words are NUL
        # exact 0 and 1 are one digit; every other cell is "%.9g" itself
        digit = np.greater(np.equal(x, 0.0, out=b1), np.signbit(x, out=b2), out=b1)
        digit |= np.equal(x, 1.0, out=b2)
        slow = np.flatnonzero(np.logical_not(np.logical_or(fast, digit, out=b2), out=b2))
        digit = np.flatnonzero(digit)
        values = tuple(x[slow].tolist())
        printed = (b"%-15.9g" * len(slow)) % values
        width = 4
        if len(printed) > 15 * len(slow):  # a 16-byte text: with its separator, 17
            width = 5
            printed = (b"%-19.9g" * len(slow)) % values
        cells = self.words[:width * size].reshape(size, width)
        cells.reshape(n, m, width)[:, :, 0] = lead
        cells[:, 4:] = 0
        # f = hi 10^8 + mid 10^4 + lo, split exactly
        hi = np.floor(np.multiply(f, 1e-8, out=y), out=y)
        rest = np.subtract(f, np.multiply(hi, 1e8, out=r), out=r)
        mid = np.floor(np.multiply(rest, 1e-4, out=v), out=v)
        lo = np.subtract(rest, np.multiply(mid, 1e4, out=f), out=f)
        # each group's digits, its "0"s NUL from the lowest nonzero group down
        np.add(np.multiply(np.equal(rest, 0.0, out=b1), 1e4, out=rest), hi, out=hi)
        np.add(np.multiply(np.equal(lo, 0.0, out=b1), 1e4, out=rest), mid, out=mid)
        np.add(lo, 1e4, out=lo)
        digits = _csv_digits()
        for word, index in ((1, hi), (2, mid), (3, lo)):
            np.copyto(k, index, casting="unsafe")
            cells[:, word] = np.take(digits, k, out=group, mode="wrap")
        cells[digit, 0] = cells[digit, 0] & 0xFF | _DIGIT_LEAD[(x[digit] == 1.0).view(np.int8)]
        text = cells.view(np.uint8)
        text[slow, 1:] = np.frombuffer(printed.replace(b" ", b"\0"), np.uint8).reshape(-1, 4 * width - 1)
        return cells.reshape(n, m * width)


def _csv_table(header: Sequence[str], rows: Sequence | np.ndarray) -> np.ndarray:
    """``rows`` as a 2-D float array with one column per header name."""
    try:
        table = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"CSV rows must form a table of numbers: {exc}") from None
    if table.shape == (0,):  # no rows at all
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ContractError(
            f"CSV rows must form a table of {len(header)} columns, got shape {table.shape}"
        )
    return table


def _csv_chunks(header: Sequence[str], table: np.ndarray) -> Iterator[bytes]:
    """The CSV bytes of a checked ``table``: the header, each chunk of rows
    (each row led by its "\\n"), then the last "\\n"."""
    yield ",".join(header).encode("utf-8")
    writer = _CsvTable(min(len(table), _CSV_CHUNK), table.shape[1])
    for start in range(0, len(table), _CSV_CHUNK):
        yield writer.chunk(table[start:start + _CSV_CHUNK])
    yield b"\n"


def write_csv_to(stream: TextIO, header: Sequence[str], rows: Sequence | np.ndarray) -> None:
    """Write a header line and ``rows`` (a 2-D array or a sequence of
    equal-length rows, one value per header column) to an open text stream,
    a chunk of rows at a time."""
    for chunk in _csv_chunks(header, _csv_table(header, rows)):
        stream.write(chunk.decode("utf-8"))


def write_csv(path: Path, header: Sequence[str], rows: Sequence | np.ndarray) -> None:
    chunks = _csv_chunks(header, _csv_table(header, rows))  # checked before truncating
    with open(path, "wb") as fh:
        fh.writelines(chunks)


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
        if self.points < 1:
            raise DomainError("a sweep needs at least one grid point")
        if not (0.0 <= self.start <= self.stop <= 1.0):
            raise DomainError("sweep range must satisfy 0 <= start <= stop <= 1")
        if not self.targets:
            raise ContractError("a sweep needs at least one target")
        merged = {"c": 0.5, "p": 0.5, "omega": 0.5}
        merged.update(self.fixed)
        for name, value in merged.items():
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"fixed parameter {name} must lie in [0, 1]")
        object.__setattr__(self, "fixed", merged)
        object.__setattr__(self, "targets", tuple(self.targets))


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


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every target on the grid, one column per target.

    A grid endpoint at which a target's closed form is singular (for
    example the confidence of a pure coincident pair) is shifted inward by
    half a step for every target, so the output stays free of NaN
    placeholders; each shift is recorded in ``substitutions``. A singular
    interior point raises.
    """
    xs = np.linspace(spec.start, spec.stop, spec.points)
    step = (spec.stop - spec.start) / (spec.points - 1) if spec.points > 1 else 0.0
    substitutions = []
    for k, shift in ((0, 0.5 * step), (spec.points - 1, -0.5 * step)) if step else ():
        x = float(xs[k])
        try:
            for t in spec.targets:
                eval_bound(t.spec(**{**spec.fixed, spec.variable: x}))
        except (DivergenceError, UsdImpossibleError, DegenerateEnsembleError):
            xs[k] = x + shift
            substitutions.append(Substitution(k, x, float(xs[k])))
    columns = [eval_column(t.spec(**spec.fixed), spec.variable, xs) for t in spec.targets]
    header = (spec.variable, *(t.label for t in spec.targets))
    # row-major by view: a CSV chunk's ravel() transposes it while it is in cache
    return SweepResult(header, np.stack([xs, *columns]).T, tuple(substitutions))


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
    result = run_sweep(_FIGURES[job.figure_id])
    header = [_FIGURE_HEADER.get(name, name) for name in result.header]
    write_csv(job.out_path, header, result.table)
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


# ---------------------------------------------------------------------------
# verification suite

# The audited operations. A check lists those whose results its items
# compare, called by the check or by the shared pass for it; the checks that
# read only the pass's stacks and closed-form columns list none.
OPERATIONS: dict[str, tuple[str, ...]] = {
    "qtheory": (
        "make_pure_pair",
        "mirror",
        "noisy_ensemble",
        "guessing_probability",
        "inconclusive_rate",
        "confidence",
        "helstrom_povm",
        "usd_povm",
        "usd_optimal",
        "mcm_povm",
        "mcm_optimal",
    ),
    "ncmodel": (
        "canonical_scenario",
        "nc_prob",
        "confusability",
        "mesd_mixed_strategy",
        "usd_response",
        "nc_figures",
        "nc_mesd_confidences",
        "omega_star",
        "oracle_max_pg",
        "oracle_max_confidence",
        "oracle_min_p0_at_max_confidence",
        "nc_mcm_guessing",
    ),
    "bounds": ("eval_bound", "gap", "table1_report"),
}

_ALL_OPS = frozenset(
    f"{module}.{op}" for module, ops in OPERATIONS.items() for op in ops
)


@dataclass(frozen=True)
class CheckResult:
    """One check and its worst item, the one closest to its limit: ``max_dev``
    its deviation, ``limit`` its limit, ``headroom`` their ratio (above 1
    fails) and ``worst`` its point. ``items`` counts the values the check
    compared (an array counts its size), and ``wall_s`` is its wall time."""

    name: str
    ops: tuple[str, ...]
    passed: bool
    max_dev: float
    worst: str
    limit: float
    headroom: float
    items: int
    wall_s: float


@dataclass(frozen=True)
class VerifyReport:
    points: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks) and not self.missing_ops

    @property
    def covered_ops(self) -> frozenset[str]:
        return frozenset(op for ch in self.checks for op in ch.ops)

    @property
    def missing_ops(self) -> tuple[str, ...]:
        return tuple(sorted(_ALL_OPS - self.covered_ops))

    def render(self) -> str:
        lines = [f"verification grid: {self.points} points per axis"]
        for ch in self.checks:
            status = "PASS" if ch.passed else "FAIL"
            line = f"{status} {ch.name:<38} max_dev={ch.max_dev:.3e}"
            if not ch.passed and ch.worst:
                line += f" at {ch.worst}"
            lines.append(line)
        lines.append(
            f"operations exercised: {len(self.covered_ops)}/{len(_ALL_OPS)}"
        )
        if self.missing_ops:
            lines.append("not exercised: " + ", ".join(self.missing_ops))
        failures = sum(1 for ch in self.checks if not ch.passed)
        lines.append(
            "all checks passed" if self.passed else f"{failures} check(s) failed"
        )
        return "\n".join(lines)


class _Acc:
    """Accumulates (severity, deviation, limit, point, |deviations|) items
    for one named check. A point is a string, a dict of coordinates (see
    ``_label``), or a function returning one, called only if that point is
    reported."""

    def __init__(self) -> None:
        self.items: list[tuple[float, float, float, str | dict | Callable, np.ndarray | None]] = []
        self.count = 0  # values compared

    def add(self, dev, limit: float, point) -> None:
        """Record |dev| against ``limit`` at ``point``. An array ``dev`` is
        recorded as its largest entry (NaN counting as the largest), at one
        ``point`` for all entries or at a function from an entry's index to
        its point; that entry is only located if the item is reported."""
        self.count += np.size(dev)
        devs = None
        if isinstance(dev, np.ndarray):
            devs = np.abs(dev)
            dev = devs.max()  # NaN if any entry is
        dev = abs(float(dev))
        # dev / limit; infinite for NaN, or for any deviation from a zero limit
        severity = dev / limit if limit > 0.0 and dev == dev else 0.0 if dev == 0.0 else math.inf
        self.items.append((severity, dev, limit, point, devs))

    def ok(self, passed, point) -> None:
        """Record a pass/fail item, or an array of them failing at its first False."""
        self.add(np.where(passed, 0.0, math.inf), 0.0, point)

    def raises(self, error: type, point: str | dict, fn: Callable, *args) -> None:
        """Record whether ``fn(*args)`` raises ``error``."""
        try:
            fn(*args)
        except error:
            return self.ok(True, point)
        self.ok(False, point)

    def result(self, name: str, ops: tuple[str, ...], wall_s: float) -> CheckResult:
        if not self.items:
            return CheckResult(name, ops, True, 0.0, "", 0.0, 0.0, 0, wall_s)
        severity, dev, limit, point, devs = max(self.items, key=itemgetter(0))  # the first worst
        if callable(point) and devs is not None:  # argmax: the first largest entry, or NaN
            point = functools.partial(point, np.unravel_index(np.argmax(devs), devs.shape))
        return CheckResult(name, ops, severity <= 1.0, dev, _label(point), limit, severity,
                           self.count, wall_s)


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _theta_of(c: float) -> float:
    return math.acos(math.sqrt(c))


def _label(point: str | dict | Callable[[], dict]) -> str:
    """The text of a point. Checks record a point as a string, as a dict of
    its named coordinates or as a function giving that dict, and only the
    worst point of a check is ever formatted: each number as
    ``name=value`` to six significant digits, each string value as it is
    (``{"c": 0.5, "element": "pi_1"}`` is ``c=0.5, pi_1``)."""
    if callable(point):
        point = point()
    if isinstance(point, str):
        return point
    return ", ".join(v if isinstance(v, str) else f"{k}={v:.6g}" for k, v in point.items())


def _points(**coords) -> Callable[[tuple], dict]:
    """The points of a stack whose named coordinates are the arrays
    ``coords``, broadcast over its leading axes: a function from the index
    of an entry to the dict of its point."""
    coords = dict(zip(coords, np.broadcast_arrays(*coords.values())))
    return lambda k: {name: v[k[:v.ndim]] for name, v in coords.items()}


_CELL = {cell.label: cell for cell in CELLS}
_USD_FRACTIONS = (0.25, 0.5, 0.6, 1.0)  # usd_povm weights, in units of 1/(1 + sqrt(c))
_MCM_FRACTIONS = (0.25, 0.5)  # MCM weights besides the optimal alpha, in units of it
# the routes of the stacks: their optimal measurements, and those at further weights
_HELSTROM, _USD, _MCM = "helstrom_stack", "usd_stack", "mcm_stack"
_USD_PART, _MCM_PART = "usd_stack at given weights", "mcm_stack at fractions of alpha"
_MIN_P0 = "oracle_min_p0_at_max_confidence"
_BOTH_ORACLES = "(1 - P_0) C(1) of both oracles"
_ELEMENTS = ("pi_1", "pi_2", "pi_0")


class _Pass:
    """Every construction and oracle of one verify run, built once.

    ``cs`` is the c grid. ``grids`` holds the c and the p arrays of ``c``
    (p = 0), ``c<1`` and of ``mcm`` and ``nc``, one n x n grid under two
    names: all of it but the pure coincident pair (1, 0), where the average
    state is singular and the confidences are undefined. Each is c-major, and
    ``points[grid]`` the point dict of an index into one. ``values[cell,
    route]`` holds a route's values of one table cell on its relation's grid,
    in point order; readers reshape them to one row per point. ``scenario``
    is one ``canonical_scenario`` stack over the c grid times the p grid and
    p = 1/2; each oracle runs once over its part. The measurements are one
    stack per scheme, ``stacks[grid]`` the one on each grid: ``pure`` the
    Helstrom measurements of the ``c`` grid, ``povms`` the USD measurements
    of the ``c<1`` grid, at the optimal weight and at ``_USD_FRACTIONS``,
    and ``mcm`` the MCM measurements of the ``mcm`` grid, at the optimal
    weight and at ``_MCM_FRACTIONS`` of it.
    """

    def __init__(self, n: int) -> None:
        self.cs = cs = _grid(n)
        self.n = n
        c, p = np.meshgrid(cs, np.union1d(cs, [0.5]), indexing="ij")  # p = 1/2 at every density
        self.scenario = ncmodel.canonical_scenario(c, p)
        square = np.isin(p, cs)
        masks = {"c": p == 0.0, "c<1": (p == 0.0) & (c < 1.0)}
        masks["mcm"] = masks["nc"] = square & ~((p == 0.0) & (c == 1.0))
        self.grids = {name: (c[m], p[m]) for name, m in masks.items()}
        self.points = {name: _points(c=c[m]) if name in ("c", "c<1") else _points(c=c[m], p=p[m])
                       for name, m in masks.items()}
        self._closed = {}
        theta = np.array([_theta_of(x) for x in cs.tolist()])
        self.pure = qtheory.helstrom_stack(theta)
        g = np.array(_USD_FRACTIONS) / (1.0 + np.sqrt(cs[:-1, None]))  # no USD at c = 1
        self.povms = qtheory.usd_stack(theta[:-1], np.stack((g, g), axis=-1))
        c, p = self.grids["mcm"]
        self.mcm = qtheory.mcm_stack(theta[np.searchsorted(cs, c)], p, (1.0, *_MCM_FRACTIONS))
        self.stacks = {"c": self.pure, "c<1": self.povms, "mcm": self.mcm}
        self.values = {("MESD_C_Q", _HELSTROM): self.pure.confidence(1)[:, 0]}
        for scheme, route, part, stack in (("MESD", _HELSTROM, None, self.pure),
                                           ("USD", _USD, _USD_PART, self.povms),
                                           ("MCM", _MCM, _MCM_PART, self.mcm)):
            self.values[f"{scheme}_Pg_Q", route] = stack.guessing_probability()[:, 0]
            self.values[f"{scheme}_P0_Q", route] = stack.inconclusive_rate()[:, 0]
            if part:  # the optimal measurements, then those at further weights
                conf = stack.confidences()
                self.values[f"{scheme}_C_Q", route] = conf[:, 0]
                self.values[f"{scheme}_C_Q", part] = conf[:, 1:]

        nc = self.scenario[masks["nc"]]
        p_0 = ncmodel.oracle_min_p0_at_max_confidence(nc)[1]
        conf = np.stack([ncmodel.oracle_max_confidence(nc, i, noisy=True)[1] for i in (1, 2)], -1)
        pure = nc.p == 0.0  # the pure scenarios, at c < 1
        self.values.update({
            ("MESD_Pg_NC", "oracle_max_pg"): ncmodel.oracle_max_pg(self.scenario[masks["c"]])[1],
            ("MCM_P0_NC", _MIN_P0): p_0,
            ("MCM_C_NC", "oracle_max_confidence"): conf,
            ("MCM_Pg_NC", _BOTH_ORACLES): (1.0 - p_0) * conf[:, 0],
            ("USD_P0_NC", _MIN_P0): p_0[pure],
            ("USD_Pg_NC", _MIN_P0): 1.0 - p_0[pure],
        })

    def stack_point(self, grid: str, k: tuple) -> dict:
        """The point of entry ``k`` = (row, measurement, ...) of the stack on
        ``grid``: its coordinates and, away from the optimal measurement, its
        conclusive weight, g for USD and alpha for MCM."""
        point = self.points[grid](k)
        if k[1]:
            point["g" if grid == "c<1" else "alpha"] = float(self.stacks[grid].weights[k[0], k[1], 0])
        return point

    def closed(self, cell: str, grid: str) -> np.ndarray:
        """The closed form of the cell labelled ``cell`` at each point of
        ``grid``: one ``eval_column`` over its c and p arrays."""
        if grid == "mcm":  # the points of "nc"
            grid = "nc"
        if (cell, grid) not in self._closed:
            self._closed[cell, grid] = eval_column(_CELL[cell].spec(0.5, 0.5, 0.5), ("c", "p"),
                                                   self.grids[grid])
        return self._closed[cell, grid]

    def gap(self, scheme: str, figure: str, grid: str) -> np.ndarray:
        """Quantum minus noncontextual closed form of one table cell on ``grid``."""
        label = f"{scheme}_{figure.replace('_', '')}"
        return self.closed(f"{label}_Q", grid) - self.closed(f"{label}_NC", grid)


_CLOSED, _ORACLE, _EXACT = (attrgetter(f) for f in ("closed_form", "oracle", "exact"))
_BUILT = "bounds/construction-consistency"

# Every cross-route relation of the table, each asserted by one check: what
# ``route`` gives for the table cell ``cell`` on ``grid`` equals the cell's
# closed form within ``limit(tols)``. Quantum cells are compared with the
# measurement constructions, noncontextual cells with the oracles.
_RELATIONS: tuple[tuple[str, str, str, str, Callable[[Tolerances], float]], ...] = (
    # check, cell, route, grid, limit
    (_BUILT, "MESD_Pg_Q", _HELSTROM, "c", lambda t: min(t.closed_form, 1e-10)),
    (_BUILT, "MESD_P0_Q", _HELSTROM, "c", _EXACT),
    (_BUILT, "MESD_C_Q", _HELSTROM, "c", _CLOSED),
    (_BUILT, "USD_P0_Q", _USD, "c<1", _CLOSED),
    (_BUILT, "USD_Pg_Q", _USD, "c<1", _CLOSED),
    (_BUILT, "USD_C_Q", _USD, "c<1", _CLOSED),
    (_BUILT, "MCM_P0_Q", _MCM, "mcm", _CLOSED),
    (_BUILT, "MCM_Pg_Q", _MCM, "mcm", _CLOSED),
    (_BUILT, "MCM_C_Q", _MCM, "mcm", _CLOSED),
    ("qtheory/usd-certainty", "USD_C_Q", _USD_PART, "c<1", lambda t: 1e-10),
    ("qtheory/mcm-confidence", "MCM_C_Q", _MCM_PART, "mcm", _CLOSED),
    ("ncmodel/oracle-max-pg", "MESD_Pg_NC", "oracle_max_pg", "c", _ORACLE),
    ("ncmodel/oracle-max-confidence", "MCM_C_NC", "oracle_max_confidence", "nc",
     lambda t: min(t.exact, t.oracle)),
    ("ncmodel/oracle-min-p0", "MCM_P0_NC", _MIN_P0, "nc", _ORACLE),
    ("ncmodel/oracle-min-p0", "USD_P0_NC", _MIN_P0, "c<1", _ORACLE),
    ("ncmodel/oracle-min-p0", "USD_Pg_NC", _MIN_P0, "c<1", _ORACLE),
    ("bounds/oracle-consistency", "MCM_Pg_NC", _BOTH_ORACLES, "nc", _ORACLE),
)

_CHECKS: list[tuple[str, tuple[str, ...], Callable[[_Pass, Tolerances, _Acc], None]]] = []


def _check(name: str, ops: Sequence[str]):
    """Register the check ``name``: its rows of ``_RELATIONS``, then the
    structural items the decorated function adds."""

    def deco(fn):
        def run(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
            for check, cell, route, grid, limit in _RELATIONS:
                if check == name:
                    want = ev.closed(cell, grid)
                    got = ev.values[cell, route].reshape(len(want), -1)
                    acc.add(got - want[:, None], limit(tols), ev.points[grid])
            fn(ev, tols, acc)

        _CHECKS.append((name, tuple(ops), run))
        return fn

    return deco


# Checks made of relation rows only.
for _name, _ops in (
    (_BUILT, ()),  # the stacks against the closed-form columns
    ("bounds/oracle-consistency", ("ncmodel.oracle_max_confidence",
                                   "ncmodel.oracle_min_p0_at_max_confidence")),
    ("ncmodel/oracle-max-pg", ("ncmodel.oracle_max_pg",)),
    ("ncmodel/oracle-max-confidence", ("ncmodel.oracle_max_confidence",)),
    ("ncmodel/oracle-min-p0", ("ncmodel.oracle_min_p0_at_max_confidence", "ncmodel.nc_figures")),
):
    _check(_name, _ops)(lambda ev, tols, acc: None)


@_check("qtheory/pure-pair-and-mirror", ("qtheory.make_pure_pair", "qtheory.mirror"))
def _chk_pure_pair(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the relations over the theta grid, one stack of pairs and their mirrors
    theta = np.linspace(0.0, math.pi, max(ev.n, 7))
    spots = (0.0, 0.5 * math.pi, math.pi)  # appended rows for the scalar operations
    pairs = qtheory._pure_pairs(np.concatenate((theta, spots)))
    mirrors = qtheory._mirrors(pairs)
    n, point = len(theta), _points(theta=theta)
    overlap = lambda a, b: (a.conj() * b).sum(axis=-1)  # <a|b> of each row
    acc.add(overlap(pairs[:n, 0], pairs[:n, 1]).real - np.cos(theta), tols.exact, point)
    acc.add(np.abs(overlap(pairs, mirrors)[:n]), tols.exact, point)
    acc.add(np.abs(overlap(pairs, qtheory._mirrors(mirrors))[:n]) - 1.0, tols.exact, point)
    # make_pure_pair and mirror rebuild the stack rows
    for row, t in enumerate(spots, n):
        states = qtheory.make_pure_pair(t)
        built = [[(s.amp0, s.amp1) for s in states],
                 [(m.amp0, m.amp1) for m in map(qtheory.mirror, states)]]
        acc.add(np.array(built) - np.stack((pairs[row], mirrors[row])), tols.exact, dict(theta=t))


def _skew(e: np.ndarray) -> np.ndarray:
    """max |e - e^H| of each 2x2 matrix of the stack ``e``, read from the
    entries that can differ: twice the imaginary parts of the diagonal, and
    |e01 - conj(e10)|."""
    diagonal = np.maximum(np.abs(e[..., 0, 0].imag), np.abs(e[..., 1, 1].imag))
    return np.maximum(2.0 * diagonal, np.abs(e[..., 0, 1] - e[..., 1, 0].conj()))


def _min_eigs(e: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each 2x2 Hermitian matrix of the stack
    ``e`` from its trace t and determinant d = e00 e11 - Re(e01 e10), as
    t/2 - sqrt(t^2/4 - d): the audit's own formula, apart from the
    ``qtheory.min_eig_2x2`` the stacks were validated with. NaN stays NaN."""
    a, b = e[..., 0, 0].real, e[..., 1, 1].real
    x, y = e[..., 0, 1], e[..., 1, 0]
    half = 0.5 * (a + b)
    det = a * b - (x.real * y.real - x.imag * y.imag)
    return half - np.sqrt(np.maximum(half * half - det, 0.0))


@_check("qtheory/povm-completeness", ("qtheory.noisy_ensemble", "qtheory.helstrom_povm",
                                      "qtheory.usd_optimal", "qtheory.usd_povm",
                                      "qtheory.guessing_probability",
                                      "qtheory.inconclusive_rate", "qtheory.confidence"))
def _chk_povm_completeness(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    for grid, stack in ev.stacks.items():
        e, point = stack.elements, functools.partial(ev.stack_point, grid)
        element = lambda k, point=point: {**point(k), "element": _ELEMENTS[k[-1]]}
        acc.add(_skew(e), tols.exact, element)
        residual = np.abs(e[..., 0, :, :] + e[..., 1, :, :] + e[..., 2, :, :] - np.eye(2))
        residual = np.maximum(residual[..., 0, :], residual[..., 1, :])
        acc.add(np.maximum(residual[..., 0], residual[..., 1]), tols.completeness, point)
        acc.add(np.maximum(0.0, -_min_eigs(e)), tols.psd, element)
    # the scalar constructions and figures rebuild a row of the Helstrom and
    # USD stacks, the pure pair at the middle c, and raise where the stacks do
    row = ev.n // 2
    ens, point = qtheory.noisy_ensemble(_theta_of(ev.cs[row]), 0.0), ev.points["c"]((row,))
    m, rate = qtheory.usd_optimal(ens)
    built = [qtheory.helstrom_povm(ens), m,
             *(qtheory.usd_povm(ens, *g) for g in ev.povms.weights[row, 1:].tolist())]
    stacks = (ev.pure[row:row + 1], ev.povms[row:row + 1])
    acc.add(np.array([m.elements for m in built])
            - np.concatenate([s.elements[0] for s in stacks]), tols.exact, point)
    acc.add(rate - ev.values["USD_P0_Q", _USD][row], tols.exact, point)
    figures = [[qtheory.guessing_probability(ens, m), qtheory.inconclusive_rate(ens, m),
                qtheory.confidence(ens, m, 1), qtheory.confidence(ens, m, 2)] for m in built]
    acc.add(np.array(figures) - np.concatenate([np.stack(
        (s.guessing_probability(), s.inconclusive_rate(), s.confidence(1), s.confidence(2)),
        axis=-1)[0] for s in stacks]), tols.exact, point)
    ens = qtheory.noisy_ensemble(_theta_of(0.5), 0.0)
    acc.raises(InfeasibleWeightsError, "c=0.5, g=0.9", qtheory.usd_povm, ens, 0.9, 0.9)
    acc.raises(UsdImpossibleError, "c=1", qtheory.usd_optimal, qtheory.noisy_ensemble(0.0, 0.0))


@_check("qtheory/helstrom-balance", ())
def _chk_helstrom_balance(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # Distinct states only: the c = 1 tie-break measurement has a dead arm.
    hits = ev.pure.hits[:-1, 0]
    acc.add(hits[:, 0] - hits[:, 1], 1e-10, ev.points["c<1"])
    acc.add(ev.values["MESD_Pg_Q", _HELSTROM][-1] - 0.5, tols.exact, "c=1 tie-break")


@_check("qtheory/mesd-confidence-identity", ())
def _chk_mesd_confidence(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # both confidences of the Helstrom measurement equal its P_g (outcome 2
    # never fires at c = 1)
    p_g = ev.values["MESD_Pg_Q", _HELSTROM]
    acc.add(ev.values["MESD_C_Q", _HELSTROM] - p_g, 1e-10, ev.points["c"])
    acc.add(ev.pure[:-1].confidence(2)[:, 0] - p_g[:-1], 1e-10, ev.points["c<1"])


_check("qtheory/usd-certainty", ())(lambda ev, tols, acc: None)  # its relation row only


@_check("qtheory/mcm-confidence", ("qtheory.noisy_ensemble", "qtheory.mcm_optimal",
                                    "qtheory.mcm_povm", "qtheory.confidence"))
def _chk_mcm_confidence(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the confidences do not depend on the conclusive weight alpha
    optimal = ev.values["MCM_C_Q", _MCM]
    seen = np.hstack([optimal, ev.values["MCM_C_Q", _MCM_PART].reshape(len(optimal), -1)])
    acc.add(seen.max(axis=1) - seen.min(axis=1), tols.closed_form, ev.points["mcm"])
    # the scalar constructions rebuild a row of the stack: the pure ensemble
    # at the middle c, a point of the mcm grid
    c = ev.cs[ev.n // 2]
    ens = qtheory.noisy_ensemble(_theta_of(c), 0.0)
    row = int(np.flatnonzero((ev.grids["mcm"][0] == c) & (ev.grids["mcm"][1] == 0.0))[0])
    m, rate = qtheory.mcm_optimal(_theta_of(c), 0.0)
    alphas = ev.mcm.weights[row, 1:, 0].tolist()
    built = [m.elements, *(qtheory.mcm_povm(ens, a).elements for a in alphas)]
    acc.add(np.array(built) - ev.mcm.elements[row], tols.exact,
            lambda k: ev.stack_point("mcm", (row, *k)))
    point = ev.points["mcm"]((row,))
    acc.add(rate - ev.values["MCM_P0_Q", _MCM][row], tols.exact, point)
    conf = [qtheory.confidence(ens, m, i) for i in (1, 2)]
    acc.add(conf - optimal[row], tols.exact, point)


@_check("qtheory/mcm-monotonicity", ())
def _chk_mcm_monotonicity(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the optimal rate rises with c at fixed p > 0 and falls with p > 0 at fixed c
    xs, p = ev.cs, ev.grids["mcm"][1]
    r = ev.values["MCM_P0_Q", _MCM][p > 0.0].reshape(ev.n, -1)  # one row per c, p > 0
    acc.add(np.minimum(np.diff(r, axis=0), 0.0), tols.exact, _points(c=xs[1:, None], p=xs[1:]))
    acc.add(np.minimum(-np.diff(r, axis=1), 0.0), tols.exact, _points(c=xs[:, None], p=xs[2:]))


@_check("qtheory/composition-identity", ())
def _chk_composition(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # P_g = (1 - P_0) C(1) for the optimal MCM measurement
    p_g, p_0, conf = (ev.values[f"MCM_{f}_Q", _MCM] for f in ("Pg", "P0", "C"))
    acc.add(p_g - (1.0 - p_0) * conf[:, 0], 1e-10, ev.points["mcm"])


@_check("ncmodel/canonical-invariants", ("ncmodel.canonical_scenario",))
def _chk_canonical(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    scn = ev.scenario
    states = ("prep1", "prep2", "mirror1", "mirror2", "mixed", "noisy1", "noisy2")
    w = np.stack([getattr(scn, s).weights for s in states], axis=-2)
    prep1, prep2, mirror1, mirror2, mixed, noisy1, _ = (w[..., i, :] for i in range(7))
    q, point = scn.p[..., None], _points(c=scn.c, p=scn.p)
    acc.ok(~((0.5 * prep1 + 0.5 * mirror1 != 0.5 * prep2 + 0.5 * mirror2).any(-1)  # mirrors
             | (prep1[..., 0] != prep2[..., 0])  # shared support
             | ((1.0 - q) * prep1 + q * mixed != noisy1).any(-1)), point)
    acc.add(w.sum(axis=-1) - 1.0, tols.norm, point)


@_check("ncmodel/response-normalisation", ("ncmodel.mesd_mixed_strategy", "ncmodel.usd_response"))
def _chk_response_norm(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    x = _grid(max(ev.n, 11))
    g2 = np.minimum(1.0 - x, x)
    for rs, point in ((ncmodel.mesd_mixed_strategy(x), _points(omega=x)),
                      (ncmodel.usd_response(x, g2), _points(g1=x, g2=g2))):
        acc.add(np.abs(rs.xi1 + rs.xi2 + rs.xi0 - 1.0).max(axis=-1), tols.norm, point)


@_check("ncmodel/confusability",
        ("ncmodel.confusability", "ncmodel.nc_prob", "ncmodel.canonical_scenario"))
def _chk_confusability(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    c = _grid(101)
    scn, point = ncmodel.canonical_scenario(c, np.zeros_like(c)), _points(c=c)
    c12 = ncmodel.confusability(scn.prep1, scn.prep2)
    acc.add(c12 - c, tols.exact, point)
    acc.add(c12 - ncmodel.confusability(scn.prep2, scn.prep1), tols.exact, point)
    acc.add(ncmodel.confusability(scn.prep1, scn.mirror1), tols.exact, point)
    rest = ncmodel.confusability(scn.prep1, scn.mirror2) - (1.0 - c)
    acc.add(np.where((0.0 < c) & (c < 1.0), rest, 0.0), tols.exact, point)
    acc.add(ncmodel.nc_prob(scn.prep2, scn.prep1.support.astype(float)) - c12, tols.exact, point)
    acc.add(ncmodel.nc_prob(scn.prep1, np.ones(4)) - 1.0, tols.exact, point)
    acc.add(ncmodel.nc_prob(scn.prep1, np.zeros(4)), tols.exact, point)


@_check("ncmodel/mesd-omega-invariance", ("ncmodel.mesd_mixed_strategy", "ncmodel.nc_figures"))
def _chk_omega_invariance(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    c, omega = ev.scenario.c[:, :1], _grid(101)  # the pure scenarios, one row per c
    figs = ncmodel.nc_figures(ev.scenario[:, :1], ncmodel.mesd_mixed_strategy(omega))
    acc.add(figs.p_g - (1.0 - 0.5 * c), tols.exact, _points(c=c, omega=omega))


@_check("ncmodel/mesd-confidences", ("ncmodel.nc_mesd_confidences", "ncmodel.nc_figures",
                                     "ncmodel.mesd_mixed_strategy"))
def _chk_mesd_confidences(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    c = ev.scenario.c[:, :1]
    omega = c[:, 0]  # omega runs over the c grid
    point = _points(c=c, omega=omega)
    closed = ncmodel.nc_mesd_confidences(c, omega)
    figs = ncmodel.nc_figures(ev.scenario[:, :1], ncmodel.mesd_mixed_strategy(omega))
    for got, want in ((figs.c1, closed[0]), (figs.c2, closed[1])):
        acc.add(np.where(np.isnan(got), 0.0, got - want), tols.exact, point)  # NaN: never fires
    acc.add(closed[0] - ncmodel.nc_mesd_confidences(c, 1.0 - omega)[1], tols.exact, point)


@_check("ncmodel/omega-star", ("ncmodel.omega_star", "ncmodel.nc_mesd_confidences"))
def _chk_omega_star(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    cs = ev.cs[1:-1]
    point = _points(c=cs)
    w_star = ncmodel.omega_star(cs)
    s = np.sqrt(1.0 - cs)
    textbook = (1.0 - cs) * (1.0 - s) / (2.0 * cs * s)
    acc.add(w_star - textbook, tols.oracle, point)
    acc.ok(w_star <= 0.25 + tols.exact, point)
    # there the first arm's confidence equals the optimal guessing probability
    acc.add(ncmodel.nc_mesd_confidences(cs, w_star)[0] - 0.5 * (1.0 + s), 1e-10, point)
    acc.raises(DivergenceError, "c=1", ncmodel.omega_star, 1.0)


@_check("ncmodel/hand-integrals",
        ("ncmodel.usd_response", "ncmodel.nc_prob", "ncmodel.canonical_scenario"))
def _chk_hand_integrals(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # 100 points, each drawn as c, g1, then g2 = rng.uniform(0, 1 - g1)
    c, g1, u = np.random.default_rng(20250809).random((100, 3)).T
    g2 = (1.0 - g1) * u
    scn = ncmodel.canonical_scenario(c, np.zeros_like(c))
    rs = ncmodel.usd_response(g1, g2)
    acc.add(ncmodel.nc_prob(scn.prep1, rs.xi0) - (1.0 - g1 + g1 * c), tols.exact,
            _points(c=c, g1=g1))
    acc.add(ncmodel.nc_prob(scn.mixed, rs.xi0) - (1.0 - 0.5 * (g1 + g2)), tols.exact,
            _points(c=c, g1=g1, g2=g2))


@_check("bounds/inequality-suite", ())  # the closed-form columns
def _chk_inequalities(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    cs = ev.cs
    for scheme, figure in (("MESD", "P_g"), ("USD", "P_0")):
        acc.ok(is_advantage(figure, ev.gap(scheme, figure, "c")[1:-1], tols), _points(c=cs[1:-1]))
    acc.add(ev.gap("MESD", "P_g", "c")[[0, -1]], tols.exact, _points(c=cs[[0, -1]]))
    c, p = ev.grids["nc"]
    interior = (0.0 < c) & (c < 1.0) & (0.0 < p) & (p < 1.0)
    for figure in ("P_g", "P_0", "C"):
        signed = ev.gap("MCM", figure, "nc")
        acc.ok(oriented_gap(figure, signed) >= -tols.exact, ev.points["nc"])
        acc.ok(is_advantage(figure, signed, tols) | ~interior, ev.points["nc"])


@_check("bounds/mesd-confidence-window", ("ncmodel.omega_star",))
def _chk_window(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    omegas = _grid(max(2 * ev.n + 1, 21))
    step = float(omegas[1] - omegas[0])
    cs = ev.cs[1:-1, None]
    w_star = ncmodel.omega_star(cs)
    quantum = ev.closed("MESD_C_Q", "c")[1:-1, None]
    both = np.ones((len(cs), len(omegas)), dtype=bool)
    for arm in ("MESD_C1_NC", "MESD_C2_NC"):
        nc = eval_column(_CELL[arm].spec(0.5, 0.0, 0.5), ("c", "omega"),
                         np.broadcast_arrays(cs, omegas))
        both &= is_advantage("C", quantum - nc, tols)
    inside = (w_star <= omegas) & (omegas <= 1.0 - w_star)
    # too close to the boundary for the grid to resolve
    unresolved = np.minimum(abs(omegas - w_star), abs(omegas - (1.0 - w_star))) <= 0.5 * step
    acc.ok((both == inside) | unresolved, _points(c=cs, omega=omegas))


@_check("bounds/factorisation", ("ncmodel.nc_mcm_guessing",))
def _chk_factorisation(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # P_g = (1 - P_0) C for the MCM closed forms of both theories
    for theory in ("Q", "NC"):
        p_g, p_0, conf = (ev.closed(f"MCM_{f}_{theory}", "nc") for f in ("Pg", "P0", "C"))
        acc.add(p_g - (1.0 - p_0) * conf, tols.exact, ev.points["nc"])


@_check("bounds/table-report", ("bounds.table1_report", "bounds.gap", "bounds.eval_bound"))
def _chk_table(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    report = table1_report(0.5, 0.5, 0.5, tols)
    acc.add(report.cell("MESD", "P_0").value, 0.0, "definitional MESD P_0")
    acc.add(report.cell("USD", "C").value - 1.0, 0.0, "definitional USD C")
    for (scheme, figure), cell in report.cells.items():
        if not isinstance(cell, DefinitionalCell):  # MESD C: both arms
            acc.ok(cell.advantage, f"{scheme} {figure}")
    degenerate = table1_report(0.0, 0.5, 0.5, tols)
    acc.add(degenerate.cell("MESD", "P_g").gap, tols.exact, "c=0 MESD P_g")
    acc.add(degenerate.cell("MCM", "C").gap, tols.exact, "c=0 MCM C")
    acc.ok(degenerate.cell("MESD", "C").window is None, "c=0 window")
    acc.ok(not table1_report(1.0, 0.5, 0.5, tols).usd_possible, "c=1 usd flag")


def verify_all(points: int, tols: Tolerances = DEFAULTS) -> VerifyReport:
    """Build the shared evaluation pass at the given grid density, then run
    every named check on it.

    Two-parameter grids use ``points`` per axis; the single-parameter
    properties pinned to a 101-point grid keep that density regardless. A
    check that raises a ``CtxsdError`` fails with the error as its worst
    point; one raised while the shared pass is built fails every check.
    """
    if points < 5:
        raise DomainError(f"grid density must be at least 5, got {points}")
    try:
        ev = _Pass(points)
    except CtxsdError as exc:  # no route can be compared: every check fails
        return VerifyReport(points, tuple(
            CheckResult(name, ops, False, math.inf, f"{type(exc).__name__}: {exc}", 0.0, math.inf,
                        0, 0.0) for name, ops, _ in _CHECKS))
    results = []
    for name, ops, fn in _CHECKS:
        acc, start = _Acc(), time.perf_counter()
        try:
            fn(ev, tols, acc)
        except CtxsdError as exc:  # a broken route is that check's failure
            acc.ok(False, f"{type(exc).__name__}: {exc}")
        results.append(acc.result(name, ops, time.perf_counter() - start))
    return VerifyReport(points, tuple(results))
