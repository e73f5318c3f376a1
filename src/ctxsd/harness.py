"""The verification suite: one shared evaluation pass, the relation table
and the named checks.

``verify_all`` first builds one shared evaluation pass: the Helstrom,
unambiguous and maximum-confidence measurements each as one stack over its
grid (``qtheory.helstrom_stack``, ``usd_stack``, ``mcm_stack``), whose
figures are read in one pass; the closed form of each cell as one
``eval_column`` call over a grid's c and p arrays; and the canonical
scenarios of the whole grid as one ``ncmodel.canonical_scenario`` stack,
over which each brute-force oracle runs once. The pass keeps the angle
theta = acos(sqrt(c)) of each c of its grid, computed once: the scalar
constructions and figures of merit only rebuild a stack row and its figures
in spot checks, at that row's theta. The route table ``_RELATIONS`` then
compares each table cell with each independent route to it (the
constructions for quantum cells, the oracles for noncontextual ones), every
relation in exactly one named check: a row names the check, the cell, its
grid, the reader that takes the route's values from the pass and the limit.
Each check takes its rows when it is registered. Every closed form comes
from ``bounds``, even in an ``ncmodel`` check such as ``mesd-confidences``,
which compares it with ``ncmodel.nc_figures``. The structural checks
(completeness, the inequality suite, the advantage window and the like)
read the same stacks. What a constructor enforces (the four-region model's mirror
equivalence and unit sums, the responses' normalisation) is no check: a
route that broke it raises before any check could compare. Each check
reports its largest deviation and the number of values it compared, and
the report records the audited operations (the routes' public functions)
whose results it compared. A typed error raised inside a check is that
check's failure, reported at the error; the other checks still run.

The audits are array expressions with no per-point Python and no LAPACK.
``povm-completeness`` takes the smallest eigenvalue of each 2x2 element
from its trace t and determinant d, t/2 - sqrt(t^2/4 - d), apart from the
``qtheory.min_eig_2x2`` it audits, and Hermiticity from the entries that
can differ. ``pure-pair-and-mirror`` checks one stack of pairs and their
mirrors, with the scalar operations compared against its rows. An array's
deviation is recorded as its largest entry; the entry and its point are
located and formatted only for a check's worst item.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Sequence

import numpy as np

from . import _HOMES, bounds, csvout, ncmodel, qtheory, sweeps
from .bounds import (
    CELLS,
    NONCONTEXTUAL,
    QUANTUM,
    Cell,
    ConfidencePairCell,
    DefinitionalCell,
    eval_column,
    oriented_gap,
    table1_report,
)
from .config import COMPLETENESS, DEFAULTS, PSD, Tolerances
from .errors import (
    CtxsdError,
    DivergenceError,
    DomainError,
    InfeasibleWeightsError,
    UsdImpossibleError,
    require_int,
)
# re-exported: perfbench/run.py traces each function of __all__ as harness.<name>
from .csvout import *  # noqa: F403
from .sweeps import *  # noqa: F403

__all__ = [*sweeps.__all__, *csvout.__all__, "CheckResult", "VerifyReport", "verify_all",
           "OPERATIONS"]

# The audited operations: every public function of the three routes. A check
# lists those whose results its items compare, called by the check or by the
# shared pass for it; the checks that read only the pass's stacks and
# closed-form columns list none. An operation no check lists fails verify.
OPERATIONS: dict[str, tuple[str, ...]] = {
    name: tuple(op for op in _HOMES[name] if inspect.isfunction(getattr(module, op)))
    for name, module in (("qtheory", qtheory), ("ncmodel", ncmodel), ("bounds", bounds))
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
        if not self.items:  # a check that compared nothing cannot pass
            return CheckResult(name, ops, False, 0.0, "no value compared", 0.0, math.inf, 0, wall_s)
        severity, dev, limit, point, devs = max(self.items, key=itemgetter(0))  # the first worst
        if callable(point) and devs is not None:  # argmax: the first largest entry, or NaN
            point = functools.partial(point, np.unravel_index(np.argmax(devs), devs.shape))
        return CheckResult(name, ops, severity <= 1.0, dev, _label(point), limit, severity,
                           self.count, wall_s)


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


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
    of an entry to the dict of its point. The coordinates are broadcast when
    a point is first formatted, a check's worst one, and then kept."""
    arrays = functools.cache(lambda: np.broadcast_arrays(*coords.values()))
    return lambda k: {name: v[k[:v.ndim]] for name, v in zip(coords, arrays())}


_CELL = {cell.label: cell for cell in CELLS}
_USD_FRACTIONS = (0.25, 0.5, 0.6, 1.0)  # usd_povm weights, in units of 1/(1 + sqrt(c))
_MCM_FRACTIONS = (0.25, 0.5)  # MCM weights besides the optimal alpha, in units of it
_ELEMENTS = ("pi_1", "pi_2", "pi_0")


class _Pass:
    """Every construction and oracle of one verify run, built once.

    ``cs`` is the c grid and ``theta`` its angles, acos(sqrt(c)), those of
    every stack and spot check. ``grids`` holds the c and the p arrays of
    ``c`` (p = 0), ``c<1`` and ``nc``, the n x n grid but for the pure
    coincident pair (1, 0), where the average state is singular and the
    confidences are undefined. Each is c-major, and ``points[grid]`` the
    point dict of an index into one. ``scenario`` is one
    ``canonical_scenario`` stack over the n x n grid. The measurements are
    one stack per scheme, ``stacks[grid]`` the one on each grid: ``pure``
    the Helstrom measurements of the ``c`` grid, ``povms`` the USD
    measurements of the ``c<1`` grid, at the optimal weight and at
    ``_USD_FRACTIONS``, and ``mcm`` the MCM measurements of the ``nc``
    grid, at the optimal weight and at ``_MCM_FRACTIONS`` of it.
    Each oracle runs once over its part of ``scenario``, in point order:
    ``max_pg`` on the ``c`` grid, and ``min_p0`` and both columns of
    ``max_conf`` on the ``nc`` grid, whose pure scenarios, the points of
    ``c<1``, ``pure_nc`` marks.
    """

    def __init__(self, n: int) -> None:
        self.cs = cs = _grid(n)
        self.n = n
        c, p = np.meshgrid(cs, cs, indexing="ij")
        self.scenario = ncmodel.canonical_scenario(c, p)
        masks = {"c": p == 0.0, "c<1": (p == 0.0) & (c < 1.0), "nc": ~((p == 0.0) & (c == 1.0))}
        self.grids = {name: (c[m], p[m]) for name, m in masks.items()}
        self.points = {name: _points(c=c[m], p=p[m]) if name == "nc" else _points(c=c[m])
                       for name, m in masks.items()}
        self._closed = {}
        self.theta = theta = np.array([math.acos(math.sqrt(x)) for x in cs.tolist()])
        self.pure = qtheory.helstrom_stack(theta)
        g = np.array(_USD_FRACTIONS) / (1.0 + np.sqrt(cs[:-1, None]))  # no USD at c = 1
        self.povms = qtheory.usd_stack(theta[:-1], np.stack((g, g), axis=-1))
        c, p = self.grids["nc"]
        self.mcm = qtheory.mcm_stack(theta[np.searchsorted(cs, c)], p, (1.0, *_MCM_FRACTIONS))
        self.stacks = {"c": self.pure, "c<1": self.povms, "nc": self.mcm}

        nc = self.scenario[masks["nc"]]
        self.min_p0 = ncmodel.oracle_min_p0_at_max_confidence(nc)[1]
        self.max_conf = np.stack([ncmodel.oracle_max_confidence(nc, i)[1]
                                  for i in (1, 2)], -1)
        self.max_pg = ncmodel.oracle_max_pg(self.scenario[masks["c"]])[1]
        self.pure_nc = nc.p == 0.0

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
        if (cell, grid) not in self._closed:
            self._closed[cell, grid] = eval_column(_CELL[cell].spec(0.5, 0.5, 0.5), ("c", "p"),
                                                   self.grids[grid])
        return self._closed[cell, grid]

    def gap(self, scheme: str, figure: str, grid: str) -> np.ndarray:
        """Quantum minus noncontextual closed form of one table cell on ``grid``."""
        label = f"{scheme}_{figure.replace('_', '')}"
        return self.closed(f"{label}_Q", grid) - self.closed(f"{label}_NC", grid)

    def advantage(self, scheme: str, figure: str, grid: str) -> np.ndarray:
        """``bounds``' verdict of one table cell at each point of ``grid``,
        read from the cell's gap certificate."""
        return bounds._gap(_CELL[f"{scheme}_{figure.replace('_', '')}_NC"], *self.grids[grid],
                           None)[1]


_CLOSED, _ORACLE, _EXACT = (attrgetter(f) for f in ("closed_form", "oracle", "exact"))
_BUILT = "bounds/construction-consistency"
_Read = Callable[[_Pass], np.ndarray]

# The route table: every cross-route relation of the table, each asserted by
# one check. What ``read`` takes from the pass for the table cell ``cell``,
# one value or row per point of ``grid``, equals the cell's closed form there
# within ``limit(tols)``. Quantum cells read the measurement stacks, at the
# optimal weight ([:, 0]) or at the further ones ([:, 1:]); noncontextual
# cells read the oracles.
_RELATIONS: tuple[tuple[str, str, str, _Read, Callable[[Tolerances], float]], ...] = (
    # check, cell, grid, read, limit
    (_BUILT, "MESD_Pg_Q", "c", lambda ev: ev.pure.guessing_probability()[:, 0],
     lambda t: min(t.closed_form, 1e-10)),
    (_BUILT, "MESD_P0_Q", "c", lambda ev: ev.pure.inconclusive_rate()[:, 0], _EXACT),
    (_BUILT, "MESD_C_Q", "c", lambda ev: ev.pure.confidence(1)[:, 0], _CLOSED),
    (_BUILT, "USD_P0_Q", "c<1", lambda ev: ev.povms.inconclusive_rate()[:, 0], _CLOSED),
    (_BUILT, "USD_Pg_Q", "c<1", lambda ev: ev.povms.guessing_probability()[:, 0], _CLOSED),
    (_BUILT, "USD_C_Q", "c<1", lambda ev: ev.povms.confidences()[:, 0], _CLOSED),
    (_BUILT, "MCM_P0_Q", "nc", lambda ev: ev.mcm.inconclusive_rate()[:, 0], _CLOSED),
    (_BUILT, "MCM_Pg_Q", "nc", lambda ev: ev.mcm.guessing_probability()[:, 0], _CLOSED),
    (_BUILT, "MCM_C_Q", "nc", lambda ev: ev.mcm.confidences()[:, 0], _CLOSED),
    ("qtheory/mcm-confidence", "MCM_C_Q", "nc", lambda ev: ev.mcm.confidences()[:, 1:], _CLOSED),
    ("ncmodel/oracle-max-pg", "MESD_Pg_NC", "c", attrgetter("max_pg"), _ORACLE),
    ("ncmodel/oracle-max-confidence", "MCM_C_NC", "nc", attrgetter("max_conf"),
     lambda t: min(t.exact, t.oracle)),
    ("ncmodel/oracle-min-p0", "MCM_P0_NC", "nc", attrgetter("min_p0"), _ORACLE),
    ("ncmodel/oracle-min-p0", "USD_P0_NC", "c<1", lambda ev: ev.min_p0[ev.pure_nc], _ORACLE),
    ("ncmodel/oracle-min-p0", "USD_Pg_NC", "c<1", lambda ev: 1.0 - ev.min_p0[ev.pure_nc],
     _ORACLE),
    ("ncmodel/oracle-min-p0", "MCM_Pg_NC", "nc",  # (1 - P_0) C(1) of both oracles
     lambda ev: (1.0 - ev.min_p0) * ev.max_conf[:, 0], _ORACLE),
)

_CHECKS: list[tuple[str, tuple[str, ...], Callable[[_Pass, Tolerances, _Acc], None]]] = []


def _check(name: str, ops: Sequence[str]):
    """Register the check ``name`` with its rows of ``_RELATIONS``; a check
    with structural items decorates the function that adds them."""
    rows = tuple(row[1:] for row in _RELATIONS if row[0] == name)
    body = []

    def run(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
        for cell, grid, read, limit in rows:
            want = ev.closed(cell, grid)
            acc.add(read(ev).reshape(len(want), -1) - want[:, None], limit(tols), ev.points[grid])
        for fn in body:
            fn(ev, tols, acc)

    _CHECKS.append((name, tuple(ops), run))
    return lambda fn: body.append(fn) or fn


# Checks made of relation rows only.
for _name, _ops in (
    (_BUILT, ()),  # the stacks against the closed-form columns
    ("ncmodel/oracle-max-pg", ("ncmodel.oracle_max_pg",)),
    ("ncmodel/oracle-max-confidence", ("ncmodel.oracle_max_confidence",)),
    ("ncmodel/oracle-min-p0", ("ncmodel.oracle_min_p0_at_max_confidence", "ncmodel.nc_figures",
                               "ncmodel.oracle_max_confidence")),
):
    _check(_name, _ops)


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
        acc.add(np.maximum(residual[..., 0], residual[..., 1]), COMPLETENESS, point)
        acc.add(np.maximum(0.0, -_min_eigs(e)), PSD, element)
    # the scalar constructions and figures rebuild a row of the Helstrom and
    # USD stacks, the pure pair at the middle c, and raise where the stacks do
    row = ev.n // 2
    ens, point = qtheory.noisy_ensemble(ev.theta[row], 0.0), ev.points["c"]((row,))
    m, rate = qtheory.usd_optimal(ens)
    built = [qtheory.helstrom_povm(ens), m,
             *(qtheory.usd_povm(ens, *g) for g in ev.povms.weights[row, 1:].tolist())]
    stacks = (ev.pure[row:row + 1], ev.povms[row:row + 1])
    acc.add(np.array([m.elements for m in built])
            - np.concatenate([s.elements[0] for s in stacks]), tols.exact, point)
    acc.add(rate - ev.povms.inconclusive_rate()[row, 0], tols.exact, point)
    figures = [[qtheory.guessing_probability(ens, m), qtheory.inconclusive_rate(ens, m),
                qtheory.confidence(ens, m, 1), qtheory.confidence(ens, m, 2)] for m in built]
    acc.add(np.array(figures) - np.concatenate([np.stack(
        (s.guessing_probability(), s.inconclusive_rate(), s.confidence(1), s.confidence(2)),
        axis=-1)[0] for s in stacks]), tols.exact, point)
    acc.raises(InfeasibleWeightsError, {**point, "g": 0.9}, qtheory.usd_povm, ens, 0.9, 0.9)
    acc.raises(UsdImpossibleError, "c=1", qtheory.usd_optimal, qtheory.noisy_ensemble(0.0, 0.0))


@_check("qtheory/mcm-confidence", ("qtheory.noisy_ensemble", "qtheory.mcm_optimal",
                                    "qtheory.mcm_povm", "qtheory.confidence"))
def _chk_mcm_confidence(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the scalar constructions rebuild a row of the stack: the pure ensemble
    # at the middle c, a point of the nc grid
    c, theta = ev.cs[ev.n // 2], ev.theta[ev.n // 2]
    ens = qtheory.noisy_ensemble(theta, 0.0)
    row = int(np.flatnonzero((ev.grids["nc"][0] == c) & (ev.grids["nc"][1] == 0.0))[0])
    m, rate = qtheory.mcm_optimal(theta, 0.0)
    alphas = ev.mcm.weights[row, 1:, 0].tolist()
    built = [m.elements, *(qtheory.mcm_povm(ens, a).elements for a in alphas)]
    acc.add(np.array(built) - ev.mcm.elements[row], tols.exact,
            lambda k: ev.stack_point("nc", (row, *k)))
    point = ev.points["nc"]((row,))
    acc.add(rate - ev.mcm.inconclusive_rate()[row, 0], tols.exact, point)
    conf = [qtheory.confidence(ens, m, i) for i in (1, 2)]
    acc.add(conf - ev.mcm.confidences()[row, 0], tols.exact, point)


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


@_check("ncmodel/mesd-confidences", ("bounds.nc_mesd_confidences", "ncmodel.nc_figures",
                                     "ncmodel.mesd_mixed_strategy"))
def _chk_mesd_confidences(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    c, omega = ev.scenario.c[:, :1], _grid(max(ev.n, 101))  # the pure scenarios, one row per c
    point = _points(c=c, omega=omega)
    closed = bounds.nc_mesd_confidences(c, omega)
    figs = ncmodel.nc_figures(ev.scenario[:, :1], ncmodel.mesd_mixed_strategy(omega))
    # the guessing probability does not depend on omega
    acc.add(figs.p_g - ev.closed("MESD_Pg_NC", "c")[:, None], tols.exact, point)
    # outcome 1 never fires only at (c, omega) = (1, 0), outcome 2 only at (1, 1):
    # there the route gives NaN (a deviation of 0, else 1), elsewhere the closed form
    for got, want, dead_omega in ((figs.c1, closed[0], 0.0), (figs.c2, closed[1], 1.0)):
        dead = (c == 1.0) & (omega == dead_omega)
        acc.add(np.where(dead, np.isnan(got) - 1.0, got - want), tols.exact, point)
    acc.add(closed[0] - bounds.nc_mesd_confidences(c, 1.0 - omega)[1], tols.exact, point)


@_check("ncmodel/omega-star", ("bounds.omega_star", "bounds.nc_mesd_confidences"))
def _chk_omega_star(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    cs = ev.cs[1:-1]
    point = _points(c=cs)
    w_star = bounds.omega_star(cs)
    s = np.sqrt(1.0 - cs)
    textbook = (1.0 - cs) * (1.0 - s) / (2.0 * cs * s)
    acc.add(w_star - textbook, tols.oracle, point)
    # there the first arm's confidence equals the optimal guessing probability
    helstrom = ev.closed("MESD_C_Q", "c")[1:-1]
    acc.add(bounds.nc_mesd_confidences(cs, w_star)[0] - helstrom, 1e-10, point)
    acc.raises(DivergenceError, "c=1", bounds.omega_star, 1.0)


@_check("ncmodel/hand-integrals",
        ("ncmodel.usd_response", "ncmodel.nc_prob", "ncmodel.canonical_scenario"))
def _chk_hand_integrals(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # the 100 points of a 5 x 5 x 4 grid over c, g1 and u, endpoints included: g2 = (1 - g1) u
    c, g1, u = np.indices((5, 5, 4)).reshape(3, -1) / np.array([[4.0], [4.0], [3.0]])
    g2 = (1.0 - g1) * u
    scn = ncmodel.canonical_scenario(c, np.zeros_like(c))
    rs = ncmodel.usd_response(g1, g2)
    acc.add(ncmodel.nc_prob(scn.prep1, rs.xi0) - (1.0 - g1 + g1 * c), tols.exact,
            _points(c=c, g1=g1))
    acc.add(ncmodel.nc_prob(scn.mixed, rs.xi0) - (1.0 - 0.5 * (g1 + g2)), tols.exact,
            _points(c=c, g1=g1, g2=g2))


@_check("bounds/inequality-suite", ())  # the closed-form columns
def _chk_inequalities(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # each verdict is an advantage exactly off its certificate's zero set:
    # MESD P_g's c = 0 and 1, USD P_0's c = 1, MCM P_g's and P_0's (1, 0),
    # which the grid leaves out, and MCM C's edges of the square
    cs = ev.cs
    for scheme, figure, where in (("MESD", "P_g", (0.0 < cs) & (cs < 1.0)),
                                  ("USD", "P_0", cs < 1.0)):
        acc.ok(ev.advantage(scheme, figure, "c") == where, _points(c=cs))
    acc.add(ev.gap("MESD", "P_g", "c")[[0, -1]], tols.exact, _points(c=cs[[0, -1]]))
    c, p = ev.grids["nc"]
    interior = (0.0 < c) & (c < 1.0) & (0.0 < p) & (p < 1.0)
    for figure, where in (("P_g", True), ("P_0", True), ("C", interior)):
        acc.ok(oriented_gap(figure, ev.gap("MCM", figure, "nc")) >= -tols.exact, ev.points["nc"])
        acc.ok(ev.advantage("MCM", figure, "nc") == where, ev.points["nc"])


@_check("bounds/mesd-confidence-window", ("bounds.omega_star",))
def _chk_window(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    omegas = _grid(max(2 * ev.n + 1, 21))
    step = float(omegas[1] - omegas[0])
    cs = ev.cs[1:-1, None]
    w_star = bounds.omega_star(cs)
    both = np.ones((len(cs), len(omegas)), dtype=bool)
    for arm in ("MESD_C1_NC", "MESD_C2_NC"):
        both &= bounds._gap(_CELL[arm], cs, None, omegas)[1]
    inside = (w_star <= omegas) & (omegas <= 1.0 - w_star)
    # too close to the boundary for the grid to resolve
    unresolved = np.minimum(abs(omegas - w_star), abs(omegas - (1.0 - w_star))) <= 0.5 * step
    acc.ok((both == inside) | unresolved, _points(c=cs, omega=omegas))


@_check("bounds/factorisation", ("bounds.nc_mcm_guessing",))
def _chk_factorisation(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    # P_g = (1 - P_0) C for the MCM closed forms of both theories, the
    # noncontextual P_g read through its public function
    for theory, p_g in (("Q", ev.closed("MCM_Pg_Q", "nc")),
                        ("NC", bounds.nc_mcm_guessing(*ev.grids["nc"]))):
        p_0, conf = (ev.closed(f"MCM_{f}_{theory}", "nc") for f in ("P0", "C"))
        acc.add(p_g - (1.0 - p_0) * conf, tols.exact, ev.points["nc"])


@_check("bounds/table-report", ("bounds.table1_report", "bounds.gap", "bounds.eval_bound"))
def _chk_table(ev: _Pass, tols: Tolerances, acc: _Acc) -> None:
    point = (0.5, 0.5, 0.5)
    report = table1_report(*point)
    acc.add(report.cell("MESD", "P_0").value, 0.0, "definitional MESD P_0")
    acc.add(report.cell("USD", "C").value - 1.0, 0.0, "definitional USD C")
    for (scheme, figure), cell in report.cells.items():
        if isinstance(cell, DefinitionalCell):
            continue
        acc.ok(cell.advantage, f"{scheme} {figure}")  # MESD C: both arms
        # each certificate is gap's for its pair of specs, exactly: gap's
        # values are eval_bound's for the two cells
        arms = (cell.arm1, cell.arm2) if isinstance(cell, ConfidencePairCell) else (cell,)
        quantum = Cell(scheme, figure, QUANTUM).spec(*point)
        for outcome, cert in enumerate(arms, 1):
            nc_cell = Cell(scheme, figure, NONCONTEXTUAL, outcome)
            acc.ok(bounds.gap(quantum, nc_cell.spec(*point)) == cert,
                   f"the certificate of {nc_cell.label}")
    degenerate = table1_report(0.0, 0.5, 0.5)
    acc.add(degenerate.cell("MESD", "P_g").gap, tols.exact, "c=0 MESD P_g")
    acc.add(degenerate.cell("MCM", "C").gap, tols.exact, "c=0 MCM C")
    acc.ok(degenerate.cell("MESD", "C").window is None, "c=0 window")
    acc.ok(not table1_report(1.0, 0.5, 0.5).usd_possible, "c=1 usd flag")


# The grid densities verify accepts. A pass holds about 1.8 KB per grid point
# (tracemalloc peaks of verify_all: 18 MiB at 101 points, 70 MiB at 201, 157 MiB
# at 301; Python 3.11.7, numpy 2.4.6), so 750 points peak near 0.96 GiB.
_MIN_POINTS, _MAX_POINTS = 5, 750


def verify_all(points: int, tols: Tolerances = DEFAULTS) -> VerifyReport:
    """Build the shared evaluation pass at the given grid density, then run
    every named check on it.

    Two-parameter grids use ``points`` per axis; the single-parameter
    properties pinned to a 101-point grid keep that density regardless. A
    check that raises a ``CtxsdError`` fails with the error as its worst
    point; one raised while the shared pass is built fails every check.
    ``points`` that is not an integer raises ContractError, and one outside
    [5, 750] DomainError, before any grid is built.
    """
    points = require_int(points, "grid density")
    if points < _MIN_POINTS:
        raise DomainError(f"grid density must be at least {_MIN_POINTS}, got {points}")
    if points > _MAX_POINTS:  # its grids would not fit
        raise DomainError(f"grid density must be at most {_MAX_POINTS}, got {points}")
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
