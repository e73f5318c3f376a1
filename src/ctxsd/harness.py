"""Reproduction harness: parameter sweeps, figure CSVs, the rendered gap
table and a one-shot verification suite.

``run_sweep`` evaluates each target as one array expression over the grid
(``bounds.eval_column``). A singular grid endpoint moves inward by half a
step and is recorded as a ``Substitution``; a singular interior point
raises. Each figure is a ``SweepSpec`` plus a map to its column names.

``verify_all`` first builds one shared evaluation pass: every measurement
construction and every brute-force oracle, once per grid point. The
relation table ``_RELATIONS`` then compares each table cell with each
independent route to it (the constructions for quantum cells, the oracles
for noncontextual ones), every relation in exactly one named check. The
structural checks (completeness, monotonicity, model invariants, the
inequality suite and the like) read the same pass. Each check reports its
largest deviation, and the report records which public operations it
exercised so coverage is auditable.

CSV output is deterministic: comma separated, ``.`` decimal point, at most
nine significant digits, LF line endings, header row first. Rows are
written in chunks, so a long sweep never holds its whole text in memory.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from . import ncmodel, qtheory
from .bounds import (
    CELLS,
    BoundSpec,
    Cell as Target,
    ConfidencePairCell,
    DefinitionalCell,
    GapCertificate,
    NONCONTEXTUAL,
    QUANTUM,
    eval_bound,
    eval_column,
    gap,
    table1_report,
)
from .config import DEFAULTS, Tolerances
from .errors import (
    ContractError,
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
_CSV_CHUNK = 8192  # rows formatted per write


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def write_csv_to(stream: TextIO, header: Sequence[str], rows: Sequence | np.ndarray) -> None:
    """Write a header line and ``rows`` (a 2-D array or a sequence of
    equal-length rows) to an open text stream, a chunk of rows at a time."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.9g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n")
    for start in range(0, len(table), _CSV_CHUNK):
        block = table[start:start + _CSV_CHUNK].tolist()
        stream.write("".join([line % tuple(row) for row in block]))


def write_csv(path: Path, header: Sequence[str], rows: Sequence | np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv_to(fh, header, rows)


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
    return SweepResult(header, np.column_stack([xs, *columns]), tuple(substitutions))


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
    name: str
    ops: tuple[str, ...]
    passed: bool
    max_dev: float
    worst: str


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
    """Accumulates (deviation, limit, point) items for one named check."""

    def __init__(self) -> None:
        self.items: list[tuple[float, float, str]] = []

    def add(self, dev, limit: float, point) -> None:
        """Record |dev| against ``limit`` at ``point``. An array ``dev`` comes
        with an array of point labels over its leading axes and is recorded
        as its largest entry (NaN counting as the largest)."""
        if isinstance(dev, np.ndarray):
            dev, labels = np.abs(dev), np.asarray(point)
            k = np.unravel_index(np.argmax(np.where(np.isnan(dev), np.inf, dev)), dev.shape)
            dev, point = dev[k], str(labels[k[:labels.ndim]])
        self.items.append((abs(float(dev)), limit, point))

    def ok(self, passed: bool, point: str) -> None:
        self.items.append((0.0 if passed else math.inf, 0.0, point))

    def raises(self, error: type, point: str, fn: Callable, *args) -> None:
        """Record whether ``fn(*args)`` raises ``error``."""
        try:
            fn(*args)
        except error:
            self.ok(True, point)
        else:
            self.ok(False, point)

    def result(self, name: str, ops: tuple[str, ...]) -> CheckResult:
        if not self.items:
            return CheckResult(name, ops, True, 0.0, "")

        def severity(item: tuple[float, float, str]) -> float:
            dev, limit, _ = item
            if limit <= 0.0:
                return math.inf if dev > 0.0 else 0.0
            return dev / limit

        worst = max(self.items, key=severity)
        passed = all(severity(item) <= 1.0 for item in self.items)
        return CheckResult(name, ops, passed, worst[0], worst[2])


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _theta_of(c: float) -> float:
    return math.acos(math.sqrt(c))


def _pt(**kv) -> str:
    return ", ".join(
        f"{k}={v:.6g}" if isinstance(v, (int, float)) else f"{k}={v}"
        for k, v in kv.items()
    )


def _cert(tols: Tolerances, scheme: str, figure: str, omega=None, outcome: int = 1,
          **params) -> GapCertificate:
    """Gap certificate of one table cell; ``omega`` and ``outcome`` pick the
    arm of the noncontextual MESD confidence."""
    return gap(BoundSpec(scheme, figure, QUANTUM, **params),
               BoundSpec(scheme, figure, NONCONTEXTUAL, omega=omega, outcome=outcome, **params),
               tols)


_CELL = {cell.label: cell for cell in CELLS}
_USD_FRACTIONS = (0.25, 0.5, 0.6, 1.0)  # usd_povm weights, in units of 1/(1 + sqrt(c))
_MCM_FRACTIONS = (0.25, 0.5)  # mcm_povm weights, in units of the optimal alpha
_MIN_P0 = "oracle_min_p0_at_max_confidence"
_BOTH_ORACLES = "(1 - P_0) C(1) of both oracles"


class _Pass:
    """Every construction and oracle of one verify run, built once per point.

    ``grids`` holds the (c, p) points of ``c`` (p = 0), ``c<1``, ``mcm``
    (n x n without the singular average states) and ``nc`` (n x n without
    the pure coincident pair); ``labels`` names them. ``values[cell, route]``
    holds a route's values of one table cell on its relation's grid, in
    point order; readers reshape them to one row per point. ``pure`` keeps
    the pure ensemble and its Helstrom measurement at each c, ``scenarios``
    the canonical scenario at each point of the n x n grid and at p = 1/2,
    and ``povms`` the point and the (pi_1, pi_2, pi_0) elements of every
    measurement built.
    """

    def __init__(self, n: int) -> None:
        cs = [float(c) for c in _grid(n)]
        self.n = n
        self.grids = {
            "c": [(c, 0.0) for c in cs],
            "c<1": [(c, 0.0) for c in cs[:-1]],
            "mcm": [(c, p) for c in cs for p in cs if not (p == 0.0 and c in (0.0, 1.0))],
            "nc": [(c, p) for c in cs for p in cs if (c, p) != (1.0, 0.0)],
        }
        self.labels = {
            name: [_pt(c=c, p=p) if name in ("mcm", "nc") else _pt(c=c) for c, p in pts]
            for name, pts in self.grids.items()
        }
        self.scenarios = {  # p = 1/2 too, so it is there at every density
            (c, p): ncmodel.canonical_scenario(c, p) for c in cs for p in sorted({*cs, 0.5})
        }
        self.pure, self.povms, self._closed = [], [], {}
        v = defaultdict(list)

        def measured(route, scheme, ens, m, point, rate=None, outcomes=(1, 2)) -> None:
            """Record a measurement built at ``point``: its confidences and,
            for an optimal construction, its P_g and its inconclusive ``rate``."""
            self.povms.append((point, m.elements))
            v[f"{scheme}_C_Q", route].append([qtheory.confidence(ens, m, i) for i in outcomes])
            if rate is not None:
                v[f"{scheme}_Pg_Q", route].append(qtheory.guessing_probability(ens, m))
                v[f"{scheme}_P0_Q", route].append(rate)

        for c in cs:
            ens = qtheory.noisy_ensemble(_theta_of(c), 0.0)
            m = qtheory.helstrom_povm(ens)
            self.pure.append((ens, m))
            measured("helstrom_povm", "MESD", ens, m, _pt(c=c), qtheory.inconclusive_rate(ens, m),
                     outcomes=(1,))
            scn = self.scenarios[c, 0.0]
            v["MESD_Pg_NC", "oracle_max_pg"].append(ncmodel.oracle_max_pg(scn)[1])
            if c == 1.0:
                continue  # coincident states admit no unambiguous measurement
            m, rate = qtheory.usd_optimal(ens)
            measured("usd_optimal", "USD", ens, m, _pt(c=c), rate)
            for g in (frac / (1.0 + math.sqrt(c)) for frac in _USD_FRACTIONS):
                measured("usd_povm", "USD", ens, qtheory.usd_povm(ens, g, g), _pt(c=c, g=g))
        for c, p in self.grids["mcm"]:
            ens = qtheory.noisy_ensemble(_theta_of(c), p)
            m, rate = qtheory.mcm_optimal(_theta_of(c), p)
            measured("mcm_optimal", "MCM", ens, m, _pt(c=c, p=p), rate)
            for alpha in (frac * m.conclusive(1).trace().real for frac in _MCM_FRACTIONS):
                m_alpha = qtheory.mcm_povm(ens, alpha)
                measured("mcm_povm", "MCM", ens, m_alpha, _pt(c=c, p=p, alpha=alpha))
        for c, p in self.grids["nc"]:
            scn = self.scenarios[c, p]
            p_0 = ncmodel.oracle_min_p0_at_max_confidence(scn)[1]
            conf = [ncmodel.oracle_max_confidence(scn, i, noisy=True)[1] for i in (1, 2)]
            v["MCM_P0_NC", _MIN_P0].append(p_0)
            v["MCM_C_NC", "oracle_max_confidence"].append(conf)
            v["MCM_Pg_NC", _BOTH_ORACLES].append((1.0 - p_0) * conf[0])
            if p == 0.0:  # the pure scenario, at c < 1
                v["USD_P0_NC", _MIN_P0].append(p_0)
                v["USD_Pg_NC", _MIN_P0].append(1.0 - p_0)
        self.values = {key: np.array(rows) for key, rows in v.items()}

    def closed(self, cell: str, grid: str) -> np.ndarray:
        """``eval_bound`` of the cell labelled ``cell`` at each point of ``grid``."""
        if (cell, grid) not in self._closed:
            spec = _CELL[cell].spec
            self._closed[cell, grid] = np.array(
                [eval_bound(spec(c, p, 0.5)) for c, p in self.grids[grid]])
        return self._closed[cell, grid]


_CLOSED, _ORACLE, _EXACT = (attrgetter(f) for f in ("closed_form", "oracle", "exact"))
_BUILT = "bounds/construction-consistency"

# Every cross-route relation of the table, each asserted by one check: what
# ``route`` gives for the table cell ``cell`` on ``grid`` equals the cell's
# closed form within ``limit(tols)``. Quantum cells are compared with the
# measurement constructions, noncontextual cells with the oracles.
_RELATIONS: tuple[tuple[str, str, str, str, Callable[[Tolerances], float]], ...] = (
    # check, cell, route, grid, limit
    (_BUILT, "MESD_Pg_Q", "helstrom_povm", "c", lambda t: min(t.closed_form, 1e-10)),
    (_BUILT, "MESD_P0_Q", "helstrom_povm", "c", _EXACT),
    (_BUILT, "MESD_C_Q", "helstrom_povm", "c", _CLOSED),
    (_BUILT, "USD_P0_Q", "usd_optimal", "c<1", _CLOSED),
    (_BUILT, "USD_Pg_Q", "usd_optimal", "c<1", _CLOSED),
    (_BUILT, "USD_C_Q", "usd_optimal", "c<1", _CLOSED),
    (_BUILT, "MCM_P0_Q", "mcm_optimal", "mcm", _CLOSED),
    (_BUILT, "MCM_Pg_Q", "mcm_optimal", "mcm", _CLOSED),
    (_BUILT, "MCM_C_Q", "mcm_optimal", "mcm", _CLOSED),
    ("qtheory/usd-certainty", "USD_C_Q", "usd_povm", "c<1", lambda t: 1e-10),
    ("qtheory/mcm-confidence", "MCM_C_Q", "mcm_povm", "mcm", _CLOSED),
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
                    acc.add(got - want[:, None], limit(tols), ev.labels[grid])
            fn(ev, tols, acc)

        _CHECKS.append((name, tuple(ops), run))
        return fn

    return deco


# Checks made of relation rows only.
for _name, _ops in (
    (_BUILT, ("bounds.eval_bound", "qtheory.helstrom_povm", "qtheory.usd_optimal",
              "qtheory.mcm_optimal", "qtheory.guessing_probability",
              "qtheory.inconclusive_rate", "qtheory.confidence")),
    ("bounds/oracle-consistency", ("bounds.eval_bound", "ncmodel.oracle_max_confidence",
                                   "ncmodel.oracle_min_p0_at_max_confidence")),
    ("ncmodel/oracle-max-pg", ("ncmodel.oracle_max_pg",)),
    ("ncmodel/oracle-max-confidence", ("ncmodel.oracle_max_confidence",)),
    ("ncmodel/oracle-min-p0", ("ncmodel.oracle_min_p0_at_max_confidence", "ncmodel.nc_figures")),
):
    _check(_name, _ops)(lambda ev, tols, acc: None)


@_check("qtheory/pure-pair-and-mirror", ("qtheory.make_pure_pair", "qtheory.mirror"))
def _chk_pure_pair(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    for theta in np.linspace(0.0, math.pi, max(ev.n, 7)):
        a, b = qtheory.make_pure_pair(float(theta))
        acc.add(a.overlap(b).real - math.cos(theta), tols.exact, _pt(theta=theta))
        for s in (a, b):
            m = qtheory.mirror(s)
            acc.add(abs(s.overlap(m)), tols.exact, _pt(theta=theta))
            back = qtheory.mirror(m)
            acc.add(abs(s.overlap(back)) - 1.0, tols.exact, _pt(theta=theta))


@_check("qtheory/povm-completeness", ("qtheory.noisy_ensemble", "qtheory.helstrom_povm",
                                      "qtheory.usd_povm", "qtheory.usd_optimal",
                                      "qtheory.mcm_povm", "qtheory.mcm_optimal"))
def _chk_povm_completeness(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    points, elements = zip(*ev.povms)
    elements = np.array(elements)
    acc.add(np.abs(elements.sum(axis=1) - np.eye(2)).max(axis=(1, 2)), tols.completeness, points)
    where = [[f"{point}, {label}" for label in ("pi_1", "pi_2", "pi_0")] for point in points]
    acc.add(np.maximum(0.0, -np.linalg.eigvalsh(elements)[..., 0]), tols.psd, where)


@_check("qtheory/helstrom-balance", ("qtheory.helstrom_povm",))
def _chk_helstrom_balance(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # Distinct states only: the c = 1 tie-break measurement has a dead arm.
    hits = np.array([np.trace(ens.states @ m.elements[:2], axis1=1, axis2=2).real
                     for ens, m in ev.pure[:-1]])
    acc.add(hits[:, 0] - hits[:, 1], 1e-10, ev.labels["c<1"])
    acc.add(ev.values["MESD_Pg_Q", "helstrom_povm"][-1] - 0.5, tols.exact, "c=1 tie-break")


@_check("qtheory/mesd-confidence-identity", ("qtheory.confidence",))
def _chk_mesd_confidence(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # both confidences of the Helstrom measurement equal its P_g (outcome 2
    # never fires at c = 1)
    p_g = ev.values["MESD_Pg_Q", "helstrom_povm"]
    acc.add(ev.values["MESD_C_Q", "helstrom_povm"][:, 0] - p_g, 1e-10, ev.labels["c"])
    conf2 = np.array([qtheory.confidence(ens, m, 2) for ens, m in ev.pure[:-1]])
    acc.add(conf2 - p_g[:-1], 1e-10, ev.labels["c<1"])


@_check("qtheory/usd-certainty", ("qtheory.usd_povm", "qtheory.usd_optimal", "qtheory.confidence"))
def _chk_usd_certainty(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    ens = qtheory.noisy_ensemble(_theta_of(0.5), 0.0)
    acc.raises(InfeasibleWeightsError, "c=0.5, g=0.9", qtheory.usd_povm, ens, 0.9, 0.9)
    acc.raises(UsdImpossibleError, "c=1", qtheory.usd_optimal, ev.pure[-1][0])


@_check("qtheory/mcm-confidence", ("qtheory.mcm_povm", "qtheory.confidence"))
def _chk_mcm_confidence(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the confidences do not depend on the conclusive weight alpha
    optimal = ev.values["MCM_C_Q", "mcm_optimal"]
    seen = np.hstack([optimal, ev.values["MCM_C_Q", "mcm_povm"].reshape(len(optimal), -1)])
    acc.add(seen.max(axis=1) - seen.min(axis=1), tols.closed_form, ev.labels["mcm"])


@_check("qtheory/mcm-monotonicity", ("qtheory.mcm_optimal",))
def _chk_mcm_monotonicity(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the optimal rate rises with c at fixed p > 0 and falls with p > 0 at fixed c
    rate = dict(zip(ev.grids["mcm"], ev.values["MCM_P0_Q", "mcm_optimal"]))
    xs = [c for c, _ in ev.grids["c"]]
    r = np.array([[rate[c, p] for p in xs[1:]] for c in xs])
    labels = np.array([[_pt(c=c, p=p) for p in xs] for c in xs])
    acc.add(np.minimum(np.diff(r, axis=0), 0.0), tols.exact, labels[1:, 1:])
    acc.add(np.minimum(-np.diff(r, axis=1), 0.0), tols.exact, labels[:, 2:])


@_check("qtheory/composition-identity", ("qtheory.guessing_probability", "qtheory.confidence",
                                         "qtheory.inconclusive_rate", "qtheory.mcm_optimal"))
def _chk_composition(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # P_g = (1 - P_0) C(1) for the optimal MCM measurement
    p_g, p_0, conf = (ev.values[f"MCM_{f}_Q", "mcm_optimal"] for f in ("Pg", "P0", "C"))
    acc.add(p_g - (1.0 - p_0) * conf[:, 0], 1e-10, ev.labels["mcm"])


@_check("ncmodel/canonical-invariants", ("ncmodel.canonical_scenario",))
def _chk_canonical(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    states = ("prep1", "prep2", "mirror1", "mirror2", "mixed", "noisy1", "noisy2")
    w = np.array([[getattr(scn, s).weights for s in states] for scn in ev.scenarios.values()])
    ps = np.array([p for _, p in ev.scenarios])[:, None]
    labels = [_pt(c=c, p=p) for c, p in ev.scenarios]
    broken = (
        (0.5 * w[:, 0] + 0.5 * w[:, 2] != 0.5 * w[:, 1] + 0.5 * w[:, 3]).any(axis=1)  # mirrors
        | (w[:, 0, 0] != w[:, 1, 0])  # shared support
        | ((1.0 - ps) * w[:, 0] + ps * w[:, 4] != w[:, 5]).any(axis=1)  # noisy state
    )
    acc.add(np.where(broken, math.inf, 0.0), 0.0, labels)
    acc.add(w.sum(axis=2) - 1.0, tols.norm, labels)


@_check("ncmodel/response-normalisation", ("ncmodel.mesd_mixed_strategy", "ncmodel.usd_response"))
def _chk_response_norm(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    for x in _grid(max(ev.n, 11)):
        x, g2 = float(x), min(1.0 - float(x), float(x))
        for rs, point in ((ncmodel.mesd_mixed_strategy(x), _pt(omega=x)),
                          (ncmodel.usd_response(x, g2), _pt(g1=x, g2=g2))):
            total = rs.xi1 + rs.xi2 + rs.xi0
            acc.add(float(np.max(np.abs(total - 1.0))), tols.norm, point)


@_check("ncmodel/confusability",
        ("ncmodel.confusability", "ncmodel.nc_prob", "ncmodel.canonical_scenario"))
def _chk_confusability(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(101):
        scn, point = ncmodel.canonical_scenario(float(c), 0.0), _pt(c=c)
        c12 = ncmodel.confusability(scn.prep1, scn.prep2)
        c21 = ncmodel.confusability(scn.prep2, scn.prep1)
        acc.add(c12 - c, tols.exact, point)
        acc.add(c12 - c21, tols.exact, point)
        acc.add(ncmodel.confusability(scn.prep1, scn.mirror1), tols.exact, point)
        if 0.0 < c < 1.0:
            acc.add(ncmodel.confusability(scn.prep1, scn.mirror2) - (1.0 - c), tols.exact, point)
        indicator = scn.prep1.support.astype(float)
        acc.add(ncmodel.nc_prob(scn.prep2, indicator) - c12, tols.exact, point)
        acc.add(ncmodel.nc_prob(scn.prep1, np.ones(4)) - 1.0, tols.exact, point)
        acc.add(ncmodel.nc_prob(scn.prep1, np.zeros(4)), tols.exact, point)


@_check("ncmodel/mesd-omega-invariance", ("ncmodel.mesd_mixed_strategy", "ncmodel.nc_figures"))
def _chk_omega_invariance(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    strategies = [(float(w), ncmodel.mesd_mixed_strategy(float(w))) for w in _grid(101)]
    for c, _ in ev.grids["c"]:
        for w, rs in strategies:
            figs = ncmodel.nc_figures(ev.scenarios[c, 0.0], rs)
            acc.add(figs.p_g - (1.0 - 0.5 * c), tols.exact, _pt(c=c, omega=w))


@_check("ncmodel/mesd-confidences", ("ncmodel.nc_mesd_confidences", "ncmodel.nc_figures",
                                     "ncmodel.mesd_mixed_strategy"))
def _chk_mesd_confidences(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    strategies = [(w, ncmodel.mesd_mixed_strategy(w)) for w, _ in ev.grids["c"]]
    for c, _ in ev.grids["c"]:  # omega runs over the c grid
        for w, rs in strategies:
            closed = ncmodel.nc_mesd_confidences(c, w)
            figs = ncmodel.nc_figures(ev.scenarios[c, 0.0], rs)
            for got, want in ((figs.c1, closed[0]), (figs.c2, closed[1])):
                if got is not None:
                    acc.add(got - want, tols.exact, _pt(c=c, omega=w))
            sym = ncmodel.nc_mesd_confidences(c, 1.0 - w)
            acc.add(closed[0] - sym[1], tols.exact, _pt(c=c, omega=w))


@_check("ncmodel/omega-star", ("ncmodel.omega_star",))
def _chk_omega_star(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    cs, labels = np.array([c for c, _ in ev.grids["c"][1:-1]]), ev.labels["c"][1:-1]
    w_star = np.array([ncmodel.omega_star(c) for c in cs])
    s = np.sqrt(1.0 - cs)
    textbook = (1.0 - cs) * (1.0 - s) / (2.0 * cs * s)
    acc.add(w_star - textbook, tols.oracle, labels)
    acc.add(np.where(w_star <= 0.25 + tols.exact, 0.0, math.inf), 0.0, labels)
    # there the first arm's confidence equals the optimal guessing probability
    acc.add(ncmodel.nc_mesd_confidences(cs, w_star)[0] - 0.5 * (1.0 + s), 1e-10, labels)
    acc.raises(DivergenceError, "c=1", ncmodel.omega_star, 1.0)


@_check("ncmodel/hand-integrals",
        ("ncmodel.usd_response", "ncmodel.nc_prob", "ncmodel.canonical_scenario"))
def _chk_hand_integrals(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    rng = np.random.default_rng(20250809)
    for k in range(100):
        c = float(rng.uniform(0.0, 1.0))
        g1 = float(rng.uniform(0.0, 1.0))
        g2 = float(rng.uniform(0.0, 1.0 - g1))
        scn = ncmodel.canonical_scenario(c, 0.0)
        rs = ncmodel.usd_response(g1, g2)
        acc.add(ncmodel.nc_prob(scn.prep1, rs.xi0) - (1.0 - g1 + g1 * c),
                tols.exact, _pt(c=c, g1=g1))
        acc.add(ncmodel.nc_prob(scn.mixed, rs.xi0) - (1.0 - 0.5 * (g1 + g2)),
                tols.exact, _pt(c=c, g1=g1, g2=g2))


@_check("bounds/inequality-suite", ("bounds.gap", "bounds.eval_bound"))
def _chk_inequalities(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    for c, _ in ev.grids["c"][1:-1]:
        acc.ok(_cert(tols, "MESD", "P_g", c=c).advantage, _pt(c=c))
        acc.ok(_cert(tols, "USD", "P_0", c=c).advantage, _pt(c=c))
    for edge in (0.0, 1.0):
        acc.add(_cert(tols, "MESD", "P_g", c=edge).gap, tols.exact, _pt(c=edge))
    for c, p in ev.grids["nc"]:
        for figure in ("P_g", "P_0", "C"):
            cert = _cert(tols, "MCM", figure, c=c, p=p)
            oriented = -cert.gap if figure == "P_0" else cert.gap
            acc.ok(oriented >= -tols.exact, _pt(c=c, p=p))
            if 0.0 < c < 1.0 and 0.0 < p < 1.0:
                acc.ok(cert.advantage, _pt(c=c, p=p))


@_check("bounds/mesd-confidence-window", ("bounds.gap", "ncmodel.omega_star"))
def _chk_window(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    omegas = _grid(max(2 * ev.n + 1, 21))
    step = float(omegas[1] - omegas[0])
    for c, _ in ev.grids["c"][1:-1]:
        w_star = ncmodel.omega_star(c)
        for w in omegas:
            w = float(w)
            if min(abs(w - w_star), abs(w - (1.0 - w_star))) <= 0.5 * step:
                continue  # too close to the boundary for the grid to resolve
            both = all(_cert(tols, "MESD", "C", c=c, omega=w, outcome=i).advantage
                       for i in (1, 2))
            inside = w_star <= w <= 1.0 - w_star
            acc.ok(both == inside, _pt(c=c, omega=w))


@_check("bounds/factorisation", ("bounds.eval_bound", "ncmodel.nc_mcm_guessing"))
def _chk_factorisation(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # P_g = (1 - P_0) C for the MCM closed forms of both theories
    for theory in ("Q", "NC"):
        p_g, p_0, conf = (ev.closed(f"MCM_{f}_{theory}", "nc") for f in ("Pg", "P0", "C"))
        acc.add(p_g - (1.0 - p_0) * conf, tols.exact, ev.labels["nc"])


@_check("bounds/table-report", ("bounds.table1_report", "bounds.gap"))
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
    properties pinned to a 101-point grid keep that density regardless.
    """
    if points < 5:
        raise DomainError(f"grid density must be at least 5, got {points}")
    ev = _Pass(points)
    results = []
    for name, ops, fn in _CHECKS:
        acc = _Acc()
        fn(ev, tols, acc)
        results.append(acc.result(name, ops))
    return VerifyReport(points, tuple(results))
