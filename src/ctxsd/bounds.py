"""Closed-form bound library and gap certificates.

One entry per cell of the scheme x figure table: for each of the three
discrimination schemes (MESD, USD, MCM) and each figure of merit (guessing
probability, inconclusive rate, confidence) this module evaluates the
quantum optimum and its noncontextual counterpart at fixed confusability,
and pairs them into signed gap certificates. Two cells are definitional
rather than comparative: a minimum-error measurement has no inconclusive
outcome (P_0 = 0) and unambiguous conclusive outcomes are certain (C = 1).

Quantum formulas are written in the overlap |<psi1|psi2>|; the comparison
convention overlap^2 = c is applied in exactly one place,
``overlap_from_confusability``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import ContractError, DivergenceError, require_in
from .ncmodel import nc_mcm_guessing, nc_mesd_confidences, omega_star

__all__ = [
    "SCHEMES",
    "FIGURES",
    "THEORIES",
    "BoundSpec",
    "Cell",
    "CELLS",
    "GapCertificate",
    "DefinitionalCell",
    "ConfidencePairCell",
    "Table1Report",
    "overlap_from_confusability",
    "eval_bound",
    "eval_column",
    "gap",
    "oriented_gap",
    "is_advantage",
    "table1_report",
]

SCHEMES = ("MESD", "USD", "MCM")
FIGURES = ("P_g", "P_0", "C")
THEORIES = ("quantum", "noncontextual")

QUANTUM = "quantum"
NONCONTEXTUAL = "noncontextual"


def overlap_from_confusability(c: float | np.ndarray) -> float | np.ndarray:
    """|<psi1|psi2>| matching confusability c: the square root (float or array)."""
    return np.sqrt(require_in(c, "confusability"))


@dataclass(frozen=True)
class BoundSpec:
    """One cell request: scheme, figure, theory and its parameters.

    Parameter applicability follows the table: p only enters the MCM row,
    omega (and the arm index) only the noncontextual MESD confidence.
    """

    scheme: str
    figure: str
    theory: str
    c: float
    p: Optional[float] = None
    omega: Optional[float] = None
    outcome: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ContractError(f"unknown scheme {self.scheme!r}")
        if self.figure not in FIGURES:
            raise ContractError(f"unknown figure {self.figure!r}")
        if self.theory not in THEORIES:
            raise ContractError(f"unknown theory {self.theory!r}")
        object.__setattr__(self, "c", require_in(self.c, "confusability"))
        if self.scheme == "MCM":
            if self.p is None:
                raise ContractError("MCM bounds require the noise level p")
            object.__setattr__(self, "p", require_in(self.p, "noise"))
        elif self.p is not None:
            raise ContractError(f"p is not a parameter of {self.scheme} bounds")
        mesd_conf_nc = (
            self.scheme == "MESD"
            and self.figure == "C"
            and self.theory == NONCONTEXTUAL
        )
        if mesd_conf_nc:
            if self.omega is None:
                raise ContractError(
                    "the noncontextual MESD confidence requires omega"
                )
            object.__setattr__(self, "omega", require_in(self.omega, "omega"))
        elif self.omega is not None:
            raise ContractError("omega only parametrises the noncontextual MESD confidence")
        if self.outcome not in (1, 2):
            raise ContractError(f"outcome must be 1 or 2, got {self.outcome}")
        if self.outcome == 2 and not mesd_conf_nc:
            raise ContractError("only the noncontextual MESD confidence has distinct arms")


@dataclass(frozen=True)
class Cell:
    """One column of the table: scheme, figure, theory and, for the
    noncontextual MESD confidence, the arm (``outcome``)."""

    scheme: str
    figure: str
    theory: str
    outcome: int = 1
    _template: BoundSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_template", self.spec(0.5, 0.5, 0.5))  # checks the cell

    @property
    def has_arms(self) -> bool:
        return (self.scheme, self.figure, self.theory) == ("MESD", "C", NONCONTEXTUAL)

    @property
    def label(self) -> str:
        """Column name, e.g. ``MESD_Pg_Q`` or ``MESD_C1_NC``."""
        fig = f"C{self.outcome}" if self.has_arms else self.figure.replace("_", "")
        theory = "Q" if self.theory == QUANTUM else "NC"
        return f"{self.scheme}_{fig}_{theory}"

    def spec(self, c: float, p: float, omega: float) -> BoundSpec:
        """The cell at (c, p, omega), keeping only the parameters it reads."""
        return BoundSpec(self.scheme, self.figure, self.theory, c,
                         p=p if self.scheme == "MCM" else None,
                         omega=omega if self.has_arms else None, outcome=self.outcome)

    def _checked_spec(self, c: float, p: float, omega: float) -> BoundSpec:
        """``spec`` for parameters that ``spec`` has already accepted."""
        spec, t = object.__new__(BoundSpec), self._template
        spec.__dict__.update(t.__dict__, c=c, p=None if t.p is None else p,
                             omega=None if t.omega is None else omega)
        return spec


# The 19 cells in table order; each quantum cell comes before its
# noncontextual counterpart(s).
CELLS = tuple(
    Cell(scheme, figure, theory, outcome)
    for scheme in SCHEMES
    for figure in FIGURES
    for theory in THEORIES
    for outcome in ((1, 2) if (scheme, figure, theory) == ("MESD", "C", NONCONTEXTUAL)
                    else (1,))
)

# The kernels below take floats or numpy arrays: the scalar API passes
# Python floats, a sweep column passes the grid as an array. Both run the
# same operations in the same order, so a column equals its cells bit for bit.


def _helstrom_value(c):
    return 0.5 * (1.0 + np.sqrt(1.0 - c))


def _require_regular(denom) -> None:
    singular = denom <= DEFAULTS.norm
    if singular.any() if isinstance(singular, np.ndarray) else singular:
        raise DivergenceError("confidence undefined for a pure coincident pair")


def _mcm_confidence_quantum(c, p):
    # 1 - (1-p)^2 c, written so it does not cancel as c -> 1, p -> 0
    denom_sq = (1.0 - c) + c * p * (2.0 - p)
    _require_regular(denom_sq)
    return 0.5 * (1.0 + (1.0 - p) * np.sqrt(1.0 - c) / np.sqrt(denom_sq))


def _mcm_confidence_nc(c, p):
    denom = (1.0 - c) + c * p  # 1 - (1-p) c, without the cancellation as c -> 1, p -> 0
    _require_regular(denom)
    return 0.5 * (1.0 + (1.0 - p) * (1.0 - c) / denom)


def _mcm_guessing_quantum(c, p):
    o = overlap_from_confusability(c)
    t = (1.0 - p) * o
    one_minus_t = (1.0 - c) / (1.0 + o) + p * o  # 1 - t, without the cancellation
    return 0.5 * (one_minus_t + (1.0 - p) * np.sqrt(one_minus_t / (1.0 + t)) * np.sqrt(1.0 - c))


def _closed_form(spec: BoundSpec, c, p, omega):
    """Value of the cell ``spec`` at (c, p, omega), floats or arrays."""
    s, f, t = spec.scheme, spec.figure, spec.theory
    if s == "MESD":
        if f == "P_0":
            return 0.0
        if f == "P_g":
            return _helstrom_value(c) if t == QUANTUM else 1.0 - 0.5 * c
        # confidence
        if t == QUANTUM:
            return _helstrom_value(c)
        return nc_mesd_confidences(c, omega)[spec.outcome - 1]
    if s == "USD":
        if f == "C":
            return 1.0
        o = overlap_from_confusability(c)
        if f == "P_0":
            return o if t == QUANTUM else 0.5 * (1.0 + c)
        return 1.0 - o if t == QUANTUM else 0.5 * (1.0 - c)
    # MCM
    if f == "C":
        return _mcm_confidence_quantum(c, p) if t == QUANTUM else _mcm_confidence_nc(c, p)
    if f == "P_0":
        o = overlap_from_confusability(c)
        return (1.0 - p) * o if t == QUANTUM else 0.5 * (1.0 + (1.0 - p) * c)
    return _mcm_guessing_quantum(c, p) if t == QUANTUM else nc_mcm_guessing(c, p)


def eval_bound(spec: BoundSpec) -> float:
    """Closed-form value of one table cell."""
    return float(_closed_form(spec, spec.c, spec.p, spec.omega))


def eval_column(spec: BoundSpec, variable: str | Sequence[str],
                xs: Sequence[float] | np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Values of the cell ``spec`` with its ``variable`` replaced by the grid
    ``xs``: constant in a parameter the cell does not read. ``variable`` may
    also name several parameters, with ``xs`` one equal-shape grid for each
    (the c and p of every point of a two-parameter grid, say). Raises as
    ``eval_bound`` does if any grid point is singular."""
    params = {"c": spec.c, "p": spec.p, "omega": spec.omega}
    names, grids = ((variable,), (xs,)) if isinstance(variable, str) else (variable, xs)
    if len(names) != len(grids):
        raise ContractError(f"{len(names)} parameters need as many grids, got {len(grids)}")
    shape = None
    for name, grid in zip(names, grids):
        if name not in params:
            raise ContractError(f"unknown parameter {name!r}")
        grid = require_in(grid, f"{name} grid")
        if shape not in (None, np.shape(grid)):
            raise ContractError(f"the grids must have one shape, got {shape} and {np.shape(grid)}")
        shape = np.shape(grid)
        if params[name] is not None:
            params[name] = grid
    return np.broadcast_to(_closed_form(spec, **params), shape)


@dataclass(frozen=True)
class GapCertificate:
    """Signed quantum-minus-noncontextual gap for one figure of merit.

    ``advantage`` is True when the quantum value is strictly better than
    the noncontextual one beyond the tolerance, in the direction favoured
    by the figure (larger P_g and C, smaller P_0).
    """

    quantum: BoundSpec
    noncontextual: BoundSpec
    quantum_value: float
    noncontextual_value: float
    gap: float
    advantage: bool


def oriented_gap(figure: str, signed):
    """A quantum-minus-noncontextual difference (float or array) signed so
    that a positive value favours the quantum theory: negated for P_0,
    where smaller is better."""
    return -signed if figure == "P_0" else signed


def is_advantage(figure: str, signed, tols: Tolerances = DEFAULTS):
    """The advantage rule of ``gap``: the oriented difference exceeds
    ``tols.advantage``. Floats or arrays."""
    return oriented_gap(figure, signed) > tols.advantage


def gap(
    quantum: BoundSpec,
    noncontextual: BoundSpec,
    tols: Tolerances = DEFAULTS,
) -> GapCertificate:
    """Certify the gap between a matching quantum / noncontextual pair."""
    if quantum.theory != QUANTUM or noncontextual.theory != NONCONTEXTUAL:
        raise ContractError("gap expects one quantum spec and one noncontextual spec")
    same_cell = (
        quantum.scheme == noncontextual.scheme
        and quantum.figure == noncontextual.figure
        and quantum.c == noncontextual.c
        and quantum.p == noncontextual.p
    )
    if not same_cell:
        raise ContractError("specs must agree on scheme, figure and parameters")
    qv = eval_bound(quantum)
    nv = eval_bound(noncontextual)
    signed = qv - nv
    return GapCertificate(quantum, noncontextual, qv, nv, signed,
                          is_advantage(quantum.figure, signed, tols))


@dataclass(frozen=True)
class DefinitionalCell:
    """Table cell fixed by the scheme's definition rather than a comparison."""

    value: float
    note: str


@dataclass(frozen=True)
class ConfidencePairCell:
    """Noncontextual MESD confidence cell: one certificate per arm.

    ``window`` holds the omega interval on which both arms show an
    advantage simultaneously (None at the degenerate confusabilities).
    """

    arm1: GapCertificate
    arm2: GapCertificate
    window: Optional[tuple[float, float]]
    advantage: bool


@dataclass(frozen=True)
class Table1Report:
    """All nine scheme x figure cells at a fixed parameter point."""

    c: float
    p: float
    omega: float
    cells: dict
    usd_possible: bool

    def cell(self, scheme: str, figure: str):
        return self.cells[(scheme, figure)]


# Cells fixed by the scheme's definition rather than by a comparison.
_DEFINITIONAL = {
    ("MESD", "P_0"): DefinitionalCell(0.0, "no inconclusive outcome"),
    ("USD", "C"): DefinitionalCell(1.0, "conclusive outcomes are certain"),
}


def table1_report(
    c: float, p: float, omega: float, tols: Tolerances = DEFAULTS
) -> Table1Report:
    """Evaluate every cell of the gap table at one parameter point."""
    # c, omega and p, checked once, in the order the cells would check them
    for x, name in ((c, "confusability"), (omega, "omega"), (p, "noise")):
        require_in(x, name)
    if 0.0 < c < 1.0:
        w_star = omega_star(c)
        window: Optional[tuple[float, float]] = (w_star, 1.0 - w_star)
    else:
        window = None
    cells: dict = {}
    for cell in CELLS:
        key = (cell.scheme, cell.figure)
        if key in _DEFINITIONAL:
            cells[key] = _DEFINITIONAL[key]
        elif cell.theory == QUANTUM:
            quantum = cell._checked_spec(c, p, omega)
        elif cell.outcome == 1:
            cells[key] = gap(quantum, cell._checked_spec(c, p, omega), tols)
        else:  # the second arm of the noncontextual MESD confidence
            arm1, arm2 = cells[key], gap(quantum, cell._checked_spec(c, p, omega), tols)
            cells[key] = ConfidencePairCell(
                arm1, arm2, window, arm1.advantage and arm2.advantage
            )
    return Table1Report(c, p, omega, cells, usd_possible=c < 1.0)
