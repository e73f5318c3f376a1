"""Reproduction harness: parameter sweeps, figure CSVs, the rendered gap
table and a one-shot verification suite.

``run_sweep`` evaluates each target as one array expression over the grid
(``bounds.eval_column``). A singular grid endpoint moves inward by half a
step and is recorded as a ``Substitution``; a singular interior point
raises. Each figure is a ``SweepSpec`` plus a map to its column names.

``verify_all`` cross-checks every operation of the package at a given grid
density: measurement constructions against closed forms, closed forms
against brute-force oracles, the inequality suite, and the factorisation
identities. Each check is named, reports its largest deviation, and the
report records which public operations it exercised so coverage is
auditable.

CSV output is deterministic: comma separated, ``.`` decimal point, at most
nine significant digits, LF line endings, header row first. Rows are
written in chunks, so a long sweep never holds its whole text in memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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

    def add(self, dev: float, limit: float, point: str) -> None:
        self.items.append((abs(float(dev)), limit, point))

    def ok(self, passed: bool, point: str) -> None:
        self.items.append((0.0 if passed else math.inf, 0.0, point))

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


_CHECKS: list[tuple[str, tuple[str, ...], Callable[[int, Tolerances, _Acc], None]]] = []


def _check(name: str, ops: Sequence[str]):
    def deco(fn):
        _CHECKS.append((name, tuple(ops), fn))
        return fn

    return deco


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _theta_of(c: float) -> float:
    return math.acos(math.sqrt(c))


def _pt(**kv) -> str:
    return ", ".join(
        f"{k}={v:.6g}" if isinstance(v, (int, float)) else f"{k}={v}"
        for k, v in kv.items()
    )


def _expect(rho, op) -> float:
    return float(np.trace(rho.matrix @ op.matrix).real)


@_check("qtheory/pure-pair-and-mirror", ("qtheory.make_pure_pair", "qtheory.mirror"))
def _chk_pure_pair(n: int, tols: Tolerances, acc: _Acc) -> None:
    for theta in np.linspace(0.0, math.pi, max(n, 7)):
        a, b = qtheory.make_pure_pair(float(theta))
        acc.add(a.overlap(b).real - math.cos(theta), tols.exact, _pt(theta=theta))
        for s in (a, b):
            m = qtheory.mirror(s)
            acc.add(abs(s.overlap(m)), tols.exact, _pt(theta=theta))
            back = qtheory.mirror(m)
            acc.add(abs(s.overlap(back)) - 1.0, tols.exact, _pt(theta=theta))


@_check(
    "qtheory/povm-completeness",
    (
        "qtheory.noisy_ensemble",
        "qtheory.helstrom_povm",
        "qtheory.usd_povm",
        "qtheory.usd_optimal",
        "qtheory.mcm_povm",
        "qtheory.mcm_optimal",
    ),
)
def _chk_povm_completeness(n: int, tols: Tolerances, acc: _Acc) -> None:
    identity = np.eye(2, dtype=complex)

    def inspect(m: qtheory.Povm, point: str) -> None:
        total = sum(op.matrix for _, op in m.outcomes)
        acc.add(float(np.max(np.abs(total - identity))), tols.completeness, point)
        for label, op in m.outcomes:
            low = float(np.linalg.eigvalsh(op.matrix)[0])
            acc.add(max(0.0, -low), tols.psd, f"{point}, {label}")

    for c in _grid(n):
        c = float(c)
        ens = qtheory.noisy_ensemble(_theta_of(c), 0.0)
        inspect(qtheory.helstrom_povm(ens), _pt(c=c))
        if c < 1.0:
            m_opt, _ = qtheory.usd_optimal(ens)
            inspect(m_opt, _pt(c=c))
            g = 0.5 / (1.0 + math.sqrt(c))
            inspect(qtheory.usd_povm(ens, g, g), _pt(c=c, g=g))
    for c, p in _mcm_grid(max(5, n // 2)):
        m_opt, _ = qtheory.mcm_optimal(_theta_of(c), p)
        inspect(m_opt, _pt(c=c, p=p))
        alpha = 0.5 * m_opt.conclusive(1).trace
        if alpha > 0.0:
            inspect(qtheory.mcm_povm(_theta_of(c), p, alpha), _pt(c=c, p=p))


@_check(
    "qtheory/helstrom-closed-form",
    (
        "qtheory.make_pure_pair",
        "qtheory.noisy_ensemble",
        "qtheory.helstrom_povm",
        "qtheory.guessing_probability",
    ),
)
def _chk_helstrom_value(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        ens = qtheory.noisy_ensemble(_theta_of(float(c)), 0.0)
        m = qtheory.helstrom_povm(ens)
        p_g = qtheory.guessing_probability(ens, m)
        acc.add(p_g - 0.5 * (1.0 + math.sqrt(1.0 - c)), 1e-10, _pt(c=c))


@_check("qtheory/helstrom-balance", ("qtheory.helstrom_povm",))
def _chk_helstrom_balance(n: int, tols: Tolerances, acc: _Acc) -> None:
    # Distinct states only: the c = 1 tie-break measurement has a dead arm.
    for c in _grid(n)[:-1]:
        ens = qtheory.noisy_ensemble(_theta_of(float(c)), 0.0)
        m = qtheory.helstrom_povm(ens)
        hit1 = _expect(ens.states[0], m.conclusive(1))
        hit2 = _expect(ens.states[1], m.conclusive(2))
        acc.add(hit1 - hit2, 1e-10, _pt(c=c))
    ens = qtheory.noisy_ensemble(0.0, 0.0)
    p_g = qtheory.guessing_probability(ens, qtheory.helstrom_povm(ens))
    acc.add(p_g - 0.5, tols.exact, "c=1 tie-break")


@_check(
    "qtheory/mesd-confidence-identity",
    ("qtheory.confidence", "qtheory.inconclusive_rate"),
)
def _chk_mesd_confidence(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n)[:-1]:
        ens = qtheory.noisy_ensemble(_theta_of(float(c)), 0.0)
        m = qtheory.helstrom_povm(ens)
        p_g = qtheory.guessing_probability(ens, m)
        acc.add(qtheory.inconclusive_rate(ens, m), tols.exact, _pt(c=c))
        for i in (1, 2):
            acc.add(qtheory.confidence(ens, m, i) - p_g, 1e-10, _pt(c=c, i=i))


@_check("qtheory/usd-certainty", ("qtheory.usd_povm", "qtheory.confidence"))
def _chk_usd_certainty(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n)[:-1]:
        ens = qtheory.noisy_ensemble(_theta_of(float(c)), 0.0)
        g_max = 1.0 / (1.0 + math.sqrt(c))
        for frac in (0.25, 0.6, 1.0):
            g = frac * g_max
            if g <= 0.0:
                continue
            m = qtheory.usd_povm(ens, g, g)
            for i in (1, 2):
                acc.add(qtheory.confidence(ens, m, i) - 1.0, 1e-10, _pt(c=c, g=g))
    # infeasible weights must be rejected
    ens = qtheory.noisy_ensemble(_theta_of(0.5), 0.0)
    try:
        qtheory.usd_povm(ens, 0.9, 0.9)
        acc.ok(False, "c=0.5, g=0.9")
    except InfeasibleWeightsError:
        acc.ok(True, "c=0.5, g=0.9")


@_check(
    "qtheory/usd-optimal-rate",
    ("qtheory.usd_optimal", "qtheory.inconclusive_rate"),
)
def _chk_usd_optimal(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n)[:-1]:
        ens = qtheory.noisy_ensemble(_theta_of(float(c)), 0.0)
        _, rate = qtheory.usd_optimal(ens)
        acc.add(rate - math.sqrt(c), tols.closed_form, _pt(c=c))
    try:
        qtheory.usd_optimal(qtheory.noisy_ensemble(0.0, 0.0))
        acc.ok(False, "c=1")
    except UsdImpossibleError:
        acc.ok(True, "c=1")


def _mcm_grid(n: int):
    for c in _grid(n):
        for p in _grid(n):
            if p == 0.0 and (c == 0.0 or c == 1.0):
                continue  # singular average state
            yield float(c), float(p)


@_check("qtheory/mcm-confidence", ("qtheory.mcm_povm", "qtheory.confidence"))
def _chk_mcm_confidence(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c, p in _mcm_grid(n):
        target = eval_bound(BoundSpec("MCM", "C", QUANTUM, c=c, p=p))
        ens = qtheory.noisy_ensemble(_theta_of(c), p)
        m_opt, _ = qtheory.mcm_optimal(_theta_of(c), p)
        alpha_max = m_opt.conclusive(1).trace
        seen = []
        for frac in (0.25, 0.5, 1.0):
            alpha = frac * alpha_max
            if alpha <= 0.0:
                continue
            m = qtheory.mcm_povm(_theta_of(c), p, alpha)
            for i in (1, 2):
                conf = qtheory.confidence(ens, m, i)
                seen.append(conf)
                acc.add(conf - target, tols.closed_form, _pt(c=c, p=p, alpha=alpha))
        if len(seen) > 1:
            acc.add(max(seen) - min(seen), tols.closed_form, _pt(c=c, p=p))


@_check(
    "qtheory/mcm-optimal-rate",
    ("qtheory.mcm_optimal", "qtheory.inconclusive_rate"),
)
def _chk_mcm_optimal(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c, p in _mcm_grid(n):
        _, rate = qtheory.mcm_optimal(_theta_of(c), p)
        acc.add(rate - (1.0 - p) * math.sqrt(c), tols.closed_form, _pt(c=c, p=p))


@_check("qtheory/mcm-monotonicity", ("qtheory.mcm_optimal",))
def _chk_mcm_monotonicity(n: int, tols: Tolerances, acc: _Acc) -> None:
    cs = _grid(n)
    ps = [p for p in _grid(n) if p > 0.0]
    rates = {
        (float(c), float(p)): qtheory.mcm_optimal(_theta_of(float(c)), float(p))[1]
        for c in cs
        for p in ps
    }
    for p in ps:
        for lo, hi in itertools.pairwise(cs):
            diff = rates[(float(hi), p)] - rates[(float(lo), p)]
            acc.add(min(diff, 0.0), tols.exact, _pt(c=hi, p=p))
    for c in cs:
        for lo, hi in itertools.pairwise(ps):
            diff = rates[(float(c), lo)] - rates[(float(c), hi)]
            acc.add(min(diff, 0.0), tols.exact, _pt(c=c, p=hi))


@_check(
    "qtheory/composition-identity",
    (
        "qtheory.guessing_probability",
        "qtheory.inconclusive_rate",
        "qtheory.confidence",
        "qtheory.mcm_optimal",
    ),
)
def _chk_composition(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        ens = qtheory.noisy_ensemble(_theta_of(float(c)), 0.0)
        m = qtheory.helstrom_povm(ens)
        lhs = qtheory.guessing_probability(ens, m)
        rhs = (1.0 - qtheory.inconclusive_rate(ens, m)) * qtheory.confidence(ens, m, 1)
        acc.add(lhs - rhs, 1e-10, _pt(c=c, scheme=0))
    for c, p in _mcm_grid(max(5, n // 2)):
        m, p_0 = qtheory.mcm_optimal(_theta_of(c), p)
        ens = qtheory.noisy_ensemble(_theta_of(c), p)
        try:
            conf = qtheory.confidence(ens, m, 1)
        except CtxsdError:
            continue
        lhs = qtheory.guessing_probability(ens, m)
        acc.add(lhs - (1.0 - p_0) * conf, 1e-10, _pt(c=c, p=p))


@_check("ncmodel/canonical-invariants", ("ncmodel.canonical_scenario",))
def _chk_canonical(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        for p in (0.0, 0.5, 1.0):
            scn = ncmodel.canonical_scenario(float(c), p)
            left = 0.5 * scn.prep1.weights + 0.5 * scn.mirror1.weights
            right = 0.5 * scn.prep2.weights + 0.5 * scn.mirror2.weights
            acc.ok(bool(np.array_equal(left, right)), _pt(c=c, p=p))
            acc.ok(
                scn.prep1.weights[0] == scn.prep2.weights[0], _pt(c=c, p=p)
            )
            mix = (1.0 - p) * scn.prep1.weights + p * scn.mixed.weights
            acc.ok(bool(np.array_equal(mix, scn.noisy1.weights)), _pt(c=c, p=p))
            for state in (scn.prep1, scn.prep2, scn.mirror1, scn.mirror2,
                          scn.mixed, scn.noisy1, scn.noisy2):
                acc.add(float(state.weights.sum()) - 1.0, tols.norm, _pt(c=c, p=p))


@_check(
    "ncmodel/response-normalisation",
    ("ncmodel.mesd_mixed_strategy", "ncmodel.usd_response"),
)
def _chk_response_norm(n: int, tols: Tolerances, acc: _Acc) -> None:
    for w in _grid(max(n, 11)):
        rs = ncmodel.mesd_mixed_strategy(float(w))
        total = rs.xi1 + rs.xi2 + rs.xi0
        acc.add(float(np.max(np.abs(total - 1.0))), tols.norm, _pt(omega=w))
    for g1 in _grid(max(n, 11)):
        g2 = min(1.0 - float(g1), float(g1))
        rs = ncmodel.usd_response(float(g1), g2)
        total = rs.xi1 + rs.xi2 + rs.xi0
        acc.add(float(np.max(np.abs(total - 1.0))), tols.norm, _pt(g1=g1, g2=g2))


@_check(
    "ncmodel/confusability",
    ("ncmodel.confusability", "ncmodel.nc_prob", "ncmodel.canonical_scenario"),
)
def _chk_confusability(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(101):
        scn = ncmodel.canonical_scenario(float(c), 0.0)
        c12 = ncmodel.confusability(scn.prep1, scn.prep2)
        c21 = ncmodel.confusability(scn.prep2, scn.prep1)
        acc.add(c12 - c, tols.exact, _pt(c=c))
        acc.add(c12 - c21, tols.exact, _pt(c=c))
        acc.add(ncmodel.confusability(scn.prep1, scn.mirror1), tols.exact, _pt(c=c))
        if 0.0 < c < 1.0:
            acc.add(
                ncmodel.confusability(scn.prep1, scn.mirror2) - (1.0 - c),
                tols.exact,
                _pt(c=c),
            )
        indicator = scn.prep1.support.astype(float)
        acc.add(ncmodel.nc_prob(scn.prep2, indicator) - c12, tols.exact, _pt(c=c))
        acc.add(ncmodel.nc_prob(scn.prep1, np.ones(4)) - 1.0, tols.exact, _pt(c=c))
        acc.add(ncmodel.nc_prob(scn.prep1, np.zeros(4)), tols.exact, _pt(c=c))


@_check(
    "ncmodel/mesd-omega-invariance",
    ("ncmodel.mesd_mixed_strategy", "ncmodel.nc_figures"),
)
def _chk_omega_invariance(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        scn = ncmodel.canonical_scenario(float(c), 0.0)
        for w in _grid(101):
            figs = ncmodel.nc_figures(scn, ncmodel.mesd_mixed_strategy(float(w)))
            acc.add(figs.p_g - (1.0 - 0.5 * c), tols.exact, _pt(c=c, omega=w))


@_check(
    "ncmodel/mesd-confidences",
    ("ncmodel.nc_mesd_confidences", "ncmodel.nc_figures", "ncmodel.mesd_mixed_strategy"),
)
def _chk_mesd_confidences(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        scn = ncmodel.canonical_scenario(float(c), 0.0)
        for w in _grid(n):
            closed = ncmodel.nc_mesd_confidences(float(c), float(w))
            figs = ncmodel.nc_figures(scn, ncmodel.mesd_mixed_strategy(float(w)))
            for got, want in ((figs.c1, closed[0]), (figs.c2, closed[1])):
                if got is not None:
                    acc.add(got - want, tols.exact, _pt(c=c, omega=w))
            sym = ncmodel.nc_mesd_confidences(float(c), 1.0 - float(w))
            acc.add(closed[0] - sym[1], tols.exact, _pt(c=c, omega=w))


@_check("ncmodel/omega-star", ("ncmodel.omega_star",))
def _chk_omega_star(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n)[1:-1]:
        c = float(c)
        w_star = ncmodel.omega_star(c)
        s = math.sqrt(1.0 - c)
        textbook = (1.0 - c) * (1.0 - s) / (2.0 * c * s)
        acc.add(w_star - textbook, tols.oracle, _pt(c=c))
        acc.ok(w_star <= 0.25 + tols.exact, _pt(c=c))
        # bisection against the optimal guessing probability
        helstrom = 0.5 * (1.0 + s)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if ncmodel.nc_mesd_confidences(c, mid)[0] > helstrom:
                lo = mid
            else:
                hi = mid
        acc.add(w_star - 0.5 * (lo + hi), tols.oracle, _pt(c=c))
        conf_at_star = ncmodel.nc_mesd_confidences(c, w_star)[0]
        acc.add(conf_at_star - helstrom, 1e-10, _pt(c=c))
    try:
        ncmodel.omega_star(1.0)
        acc.ok(False, "c=1")
    except DivergenceError:
        acc.ok(True, "c=1")


@_check("ncmodel/oracle-max-pg", ("ncmodel.oracle_max_pg",))
def _chk_oracle_max_pg(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        scn = ncmodel.canonical_scenario(float(c), 0.0)
        _, value = ncmodel.oracle_max_pg(scn)
        acc.add(value - (1.0 - 0.5 * c), tols.oracle, _pt(c=c))


@_check("ncmodel/oracle-max-confidence", ("ncmodel.oracle_max_confidence",))
def _chk_oracle_confidence(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        for p in _grid(n):
            if c == 1.0 and p == 0.0:
                continue
            scn = ncmodel.canonical_scenario(float(c), float(p))
            target = eval_bound(
                BoundSpec("MCM", "C", NONCONTEXTUAL, c=float(c), p=float(p))
            )
            for outcome in (1, 2):
                _, got = ncmodel.oracle_max_confidence(scn, outcome, noisy=True)
                acc.add(got - target, tols.exact, _pt(c=c, p=p, outcome=outcome))


@_check(
    "ncmodel/oracle-min-p0",
    ("ncmodel.oracle_min_p0_at_max_confidence", "ncmodel.nc_figures"),
)
def _chk_oracle_min_p0(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        for p in _grid(n):
            if c == 1.0 and p == 0.0:
                continue
            scn = ncmodel.canonical_scenario(float(c), float(p))
            _, p_0 = ncmodel.oracle_min_p0_at_max_confidence(scn)
            closed = 0.5 * (1.0 + (1.0 - p) * c)
            acc.add(p_0 - closed, tols.oracle, _pt(c=c, p=p))


@_check(
    "ncmodel/hand-integrals",
    (
        "ncmodel.usd_response",
        "ncmodel.nc_prob",
        "ncmodel.confusability",
        "ncmodel.canonical_scenario",
    ),
)
def _chk_hand_integrals(n: int, tols: Tolerances, acc: _Acc) -> None:
    rng = np.random.default_rng(20250809)
    for k in range(100):
        c = float(rng.uniform(0.0, 1.0))
        g1 = float(rng.uniform(0.0, 1.0))
        g2 = float(rng.uniform(0.0, 1.0 - g1))
        scn = ncmodel.canonical_scenario(c, 0.0)
        rs = ncmodel.usd_response(g1, g2)
        acc.add(
            ncmodel.nc_prob(scn.prep1, rs.xi0) - (1.0 - g1 + g1 * c),
            tols.exact,
            _pt(c=c, g1=g1),
        )
        acc.add(
            ncmodel.nc_prob(scn.mixed, rs.xi0) - (1.0 - 0.5 * (g1 + g2)),
            tols.exact,
            _pt(c=c, g1=g1, g2=g2),
        )
        acc.add(
            ncmodel.confusability(scn.prep1, scn.mirror2) - (1.0 - c),
            tols.exact,
            _pt(c=c),
        )


@_check("ncmodel/mcm-guessing-factorisation", ("ncmodel.nc_mcm_guessing",))
def _chk_nc_mcm_guessing(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        for p in _grid(n):
            if c == 1.0 and p == 0.0:
                continue
            p_g = ncmodel.nc_mcm_guessing(float(c), float(p))
            p_0 = eval_bound(BoundSpec("MCM", "P_0", NONCONTEXTUAL, c=float(c), p=float(p)))
            conf = eval_bound(BoundSpec("MCM", "C", NONCONTEXTUAL, c=float(c), p=float(p)))
            acc.add(p_g - (1.0 - p_0) * conf, tols.exact, _pt(c=c, p=p))


@_check(
    "bounds/construction-consistency",
    ("bounds.eval_bound", "qtheory.usd_optimal", "qtheory.mcm_optimal"),
)
def _chk_construction(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        c = float(c)
        ens = qtheory.noisy_ensemble(_theta_of(c), 0.0)
        m = qtheory.helstrom_povm(ens)
        p_g = qtheory.guessing_probability(ens, m)
        acc.add(
            p_g - eval_bound(BoundSpec("MESD", "P_g", QUANTUM, c=c)),
            tols.closed_form,
            _pt(c=c),
        )
        acc.add(
            qtheory.confidence(ens, m, 1)
            - eval_bound(BoundSpec("MESD", "C", QUANTUM, c=c)),
            tols.closed_form,
            _pt(c=c),
        )
        if c < 1.0:
            usd_m, rate = qtheory.usd_optimal(ens)
            acc.add(
                rate - eval_bound(BoundSpec("USD", "P_0", QUANTUM, c=c)),
                tols.closed_form,
                _pt(c=c),
            )
            acc.add(
                qtheory.guessing_probability(ens, usd_m)
                - eval_bound(BoundSpec("USD", "P_g", QUANTUM, c=c)),
                tols.closed_form,
                _pt(c=c),
            )
    for c, p in _mcm_grid(n):
        mcm_m, rate = qtheory.mcm_optimal(_theta_of(c), p)
        noisy = qtheory.noisy_ensemble(_theta_of(c), p)
        acc.add(
            rate - eval_bound(BoundSpec("MCM", "P_0", QUANTUM, c=c, p=p)),
            tols.closed_form,
            _pt(c=c, p=p),
        )
        acc.add(
            qtheory.guessing_probability(noisy, mcm_m)
            - eval_bound(BoundSpec("MCM", "P_g", QUANTUM, c=c, p=p)),
            tols.closed_form,
            _pt(c=c, p=p),
        )
        if not (c == 1.0 and p == 0.0):
            acc.add(
                qtheory.confidence(noisy, mcm_m, 1)
                - eval_bound(BoundSpec("MCM", "C", QUANTUM, c=c, p=p)),
                tols.closed_form,
                _pt(c=c, p=p),
            )


@_check(
    "bounds/oracle-consistency",
    (
        "bounds.eval_bound",
        "ncmodel.oracle_max_pg",
        "ncmodel.oracle_max_confidence",
        "ncmodel.oracle_min_p0_at_max_confidence",
    ),
)
def _chk_oracle_consistency(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        c = float(c)
        pure = ncmodel.canonical_scenario(c, 0.0)
        _, max_pg = ncmodel.oracle_max_pg(pure)
        acc.add(
            max_pg - eval_bound(BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=c)),
            tols.oracle,
            _pt(c=c),
        )
        if c < 1.0:
            _, p0_pure = ncmodel.oracle_min_p0_at_max_confidence(pure)
            acc.add(
                p0_pure - eval_bound(BoundSpec("USD", "P_0", NONCONTEXTUAL, c=c)),
                tols.oracle,
                _pt(c=c),
            )
            acc.add(
                (1.0 - p0_pure) - eval_bound(BoundSpec("USD", "P_g", NONCONTEXTUAL, c=c)),
                tols.oracle,
                _pt(c=c),
            )
    for c, p in _mcm_grid(n):
        if c == 1.0 and p == 0.0:
            continue
        scn = ncmodel.canonical_scenario(c, p)
        _, conf = ncmodel.oracle_max_confidence(scn, 1, noisy=True)
        acc.add(
            conf - eval_bound(BoundSpec("MCM", "C", NONCONTEXTUAL, c=c, p=p)),
            tols.oracle,
            _pt(c=c, p=p),
        )
        _, p_0 = ncmodel.oracle_min_p0_at_max_confidence(scn)
        acc.add(
            p_0 - eval_bound(BoundSpec("MCM", "P_0", NONCONTEXTUAL, c=c, p=p)),
            tols.oracle,
            _pt(c=c, p=p),
        )
        acc.add(
            (1.0 - p_0) * conf
            - eval_bound(BoundSpec("MCM", "P_g", NONCONTEXTUAL, c=c, p=p)),
            tols.oracle,
            _pt(c=c, p=p),
        )


@_check("bounds/inequality-suite", ("bounds.gap", "bounds.eval_bound"))
def _chk_inequalities(n: int, tols: Tolerances, acc: _Acc) -> None:
    cs = _grid(n)
    interior = cs[1:-1]
    for c in interior:
        c = float(c)
        cert = gap(
            BoundSpec("MESD", "P_g", QUANTUM, c=c),
            BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=c),
            tols,
        )
        acc.ok(cert.advantage, _pt(c=c))
        cert = gap(
            BoundSpec("USD", "P_0", QUANTUM, c=c),
            BoundSpec("USD", "P_0", NONCONTEXTUAL, c=c),
            tols,
        )
        acc.ok(cert.advantage, _pt(c=c))
    for edge in (0.0, 1.0):
        cert = gap(
            BoundSpec("MESD", "P_g", QUANTUM, c=edge),
            BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=edge),
            tols,
        )
        acc.add(cert.gap, tols.exact, _pt(c=edge))
    for c in cs:
        for p in _grid(n):
            if c == 1.0 and p == 0.0:
                continue
            c_f, p_f = float(c), float(p)
            for figure in ("P_g", "P_0", "C"):
                cert = gap(
                    BoundSpec("MCM", figure, QUANTUM, c=c_f, p=p_f),
                    BoundSpec("MCM", figure, NONCONTEXTUAL, c=c_f, p=p_f),
                    tols,
                )
                oriented = -cert.gap if figure == "P_0" else cert.gap
                acc.ok(oriented >= -tols.exact, _pt(c=c_f, p=p_f))
                if 0.0 < c_f < 1.0 and 0.0 < p_f < 1.0:
                    acc.ok(cert.advantage, _pt(c=c_f, p=p_f))


@_check(
    "bounds/mesd-confidence-window",
    ("bounds.gap", "ncmodel.omega_star"),
)
def _chk_window(n: int, tols: Tolerances, acc: _Acc) -> None:
    omegas = _grid(max(2 * n + 1, 21))
    step = float(omegas[1] - omegas[0])
    for c in _grid(n)[1:-1]:
        c = float(c)
        w_star = ncmodel.omega_star(c)
        for w in omegas:
            w = float(w)
            if min(abs(w - w_star), abs(w - (1.0 - w_star))) <= 0.5 * step:
                continue  # too close to the boundary for the grid to resolve
            both = all(
                gap(
                    BoundSpec("MESD", "C", QUANTUM, c=c),
                    BoundSpec(
                        "MESD", "C", NONCONTEXTUAL, c=c, omega=w, outcome=i
                    ),
                    tols,
                ).advantage
                for i in (1, 2)
            )
            inside = w_star <= w <= 1.0 - w_star
            acc.ok(both == inside, _pt(c=c, omega=w))


@_check("bounds/factorisation", ("bounds.eval_bound",))
def _chk_factorisation(n: int, tols: Tolerances, acc: _Acc) -> None:
    for c in _grid(n):
        for p in _grid(n):
            if c == 1.0 and p == 0.0:
                continue
            for theory in (QUANTUM, NONCONTEXTUAL):
                p_g = eval_bound(BoundSpec("MCM", "P_g", theory, c=float(c), p=float(p)))
                p_0 = eval_bound(BoundSpec("MCM", "P_0", theory, c=float(c), p=float(p)))
                conf = eval_bound(BoundSpec("MCM", "C", theory, c=float(c), p=float(p)))
                acc.add(p_g - (1.0 - p_0) * conf, tols.exact, _pt(c=c, p=p, theory=theory))


@_check("bounds/table-report", ("bounds.table1_report", "bounds.gap"))
def _chk_table(n: int, tols: Tolerances, acc: _Acc) -> None:
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
    """Run every named cross-check at the given grid density.

    Two-parameter grids use ``points`` per axis; the single-parameter
    properties pinned to a 101-point grid keep that density regardless.
    """
    if points < 5:
        raise DomainError(f"grid density must be at least 5, got {points}")
    results = []
    for name, ops, fn in _CHECKS:
        acc = _Acc()
        fn(points, tols, acc)
        results.append(acc.result(name, ops))
    return VerifyReport(points, tuple(results))
