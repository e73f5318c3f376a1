"""Closed-form bound library and gap certificates.

One entry per cell of the scheme x figure table: for each of the three
discrimination schemes (MESD, USD, MCM) and each figure of merit (guessing
probability, inconclusive rate, confidence) this module evaluates the
quantum optimum and its noncontextual counterpart at fixed confusability,
and pairs them into signed gap certificates. Two cells are definitional
rather than comparative: a minimum-error measurement has no inconclusive
outcome (P_0 = 0) and unambiguous conclusive outcomes are certain (C = 1).

This is the closed-form route; it imports neither of the others. The 19
cells' expressions are written once, in ``_closed_form``, over a namespace
that supplies sqrt: ``math`` for a float point (``eval_bound`` and
``table1_report`` run no numpy), numpy for a column, sympy or mpmath to
evaluate the same code exactly. They are guarded outside it:
``_require_regular`` raises at a singular MCM confidence, checked per cell
by ``eval_bound`` and ``eval_column`` and once per point by
``table1_report``; ``_guarded`` fixes the MESD arms at c = 1; and
``omega_star`` raises at c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULTS, NORM, Tolerances
from .errors import ContractError, DivergenceError, require_in

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
    "eval_bound",
    "eval_column",
    "nc_mesd_confidences",
    "omega_star",
    "nc_mcm_guessing",
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
_ARMED = ("MESD", "C", NONCONTEXTUAL)  # the one cell with an arm per outcome


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
        object.__setattr__(self, "c", require_in(self.c, "confusability", scalar=True))
        if self.scheme == "MCM":
            if self.p is None:
                raise ContractError("MCM bounds require the noise level p")
            object.__setattr__(self, "p", require_in(self.p, "noise", scalar=True))
        elif self.p is not None:
            raise ContractError(f"p is not a parameter of {self.scheme} bounds")
        mesd_conf_nc = (self.scheme, self.figure, self.theory) == _ARMED
        if mesd_conf_nc:
            if self.omega is None:
                raise ContractError("the noncontextual MESD confidence requires omega")
            object.__setattr__(self, "omega", require_in(self.omega, "omega", scalar=True))
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

    def __post_init__(self) -> None:
        self.spec(0.5, 0.5, 0.5)  # checks the cell

    @property
    def has_arms(self) -> bool:
        return (self.scheme, self.figure, self.theory) == _ARMED

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


# The 19 cells in table order; each quantum cell comes before its
# noncontextual counterpart(s).
CELLS = tuple(
    Cell(scheme, figure, theory, outcome)
    for scheme in SCHEMES
    for figure in FIGURES
    for theory in THEORIES
    for outcome in ((1, 2) if (scheme, figure, theory) == _ARMED else (1,))
)
_ARMS = tuple(cell for cell in CELLS if cell.has_arms)  # outcomes 1 and 2
_MCM_PG_NC = Cell("MCM", "P_g", NONCONTEXTUAL)
_MCM_C_NC = Cell("MCM", "C", NONCONTEXTUAL)

# The closed forms below take floats over math or numpy arrays over numpy:
# the scalar API passes Python floats, a sweep column passes the grid as an
# array. Both run the same IEEE operations in the same order (math.sqrt and
# np.sqrt are both correctly rounded), so a column equals its cells bit for bit.


def _mcm_denominator(quantum: bool, c, p):
    """The MCM confidence's 1 - (1-p)^2 c (quantum) or 1 - (1-p) c
    (noncontextual), written so that it does not cancel as c -> 1, p -> 0."""
    return (1.0 - c) + c * p * (2.0 - p) if quantum else (1.0 - c) + c * p


def _closed_form(cell, c, p, omega, xp=np):
    """Value of ``cell`` (a ``Cell`` or a ``BoundSpec``) at (c, p, omega),
    unguarded, with ``xp`` supplying sqrt. Quantum values are written in
    the overlap |<psi1|psi2>| = sqrt(c)."""
    scheme, figure, quantum = cell.scheme, cell.figure, cell.theory == QUANTUM
    if scheme == "MESD":
        if figure == "P_0":
            return 0.0
        if quantum:  # the Helstrom value: P_g, and both confidences
            return 0.5 * (1.0 + xp.sqrt(1.0 - c))
        if figure == "P_g":
            return 1.0 - 0.5 * c
        # the confidences of the omega-mixed guessing strategies, arm by arm
        if cell.outcome == 1:
            return (1.0 - (1.0 - omega) * c) / (1.0 - (1.0 - 2.0 * omega) * c)
        return (1.0 - omega * c) / (1.0 + (1.0 - 2.0 * omega) * c)
    if scheme == "USD":
        if figure == "C":
            return 1.0
        if figure == "P_0":
            return xp.sqrt(c) if quantum else 0.5 * (1.0 + c)
        return 1.0 - xp.sqrt(c) if quantum else 0.5 * (1.0 - c)
    # MCM
    if figure == "C":
        if quantum:
            return 0.5 * (1.0 + (1.0 - p) * xp.sqrt(1.0 - c)
                          / xp.sqrt(_mcm_denominator(quantum, c, p)))
        return 0.5 * (1.0 + (1.0 - p) * (1.0 - c) / _mcm_denominator(quantum, c, p))
    if figure == "P_0":
        return (1.0 - p) * xp.sqrt(c) if quantum else 0.5 * (1.0 + (1.0 - p) * c)
    if not quantum:
        return 0.5 * (1.0 - 0.5 * p - (1.0 - p) * c)
    o = xp.sqrt(c)
    t = (1.0 - p) * o
    one_minus_t = (1.0 - c) / (1.0 + o) + p * o  # 1 - t, without the cancellation
    return 0.5 * (one_minus_t + (1.0 - p) * xp.sqrt(one_minus_t / (1.0 + t)) * xp.sqrt(1.0 - c))


def _omega_star(c, xp=np):
    """``omega_star``, unguarded: the stable form of the textbook
    (1-c)(1 - sqrt(1-c)) / (2 c sqrt(1-c)), which tends to 1/4 as c -> 0."""
    t = xp.sqrt(1.0 - c)
    return t / (2.0 * (1.0 + t))


def _require_regular(cell, c, p) -> None:
    """Raise DivergenceError if ``cell`` is an MCM confidence whose
    denominator is within ``NORM`` of 0 at (c, p), or at any point
    of a grid (c, p): the pure coincident pair. Every other cell is finite."""
    if cell.scheme == "MCM" and cell.figure == "C":
        singular = _mcm_denominator(cell.theory == QUANTUM, c, p) <= NORM
        if singular if type(singular) is bool else singular.any():  # a float point or a grid
            raise DivergenceError("confidence undefined for a pure coincident pair")


def _guarded(cell, c, p, omega, xp=np):
    """``_closed_form`` over ``xp`` at points that ``_require_regular`` has
    passed, with both MESD arms 1/2 at c = 1, where the canonical model
    forces it and their denominators can vanish."""
    if (cell.scheme, cell.figure, cell.theory) == _ARMED:
        coincident = c == 1.0
        if type(coincident) is not bool:  # a grid
            with np.errstate(divide="ignore", invalid="ignore"):  # discarded at c = 1
                return np.where(coincident, 0.5, _closed_form(cell, c, p, omega))
        if coincident:
            return 0.5
    return _closed_form(cell, c, p, omega, xp)


def eval_bound(spec: BoundSpec) -> float:
    """Closed-form value of one table cell, over ``math``."""
    _require_regular(spec, spec.c, spec.p)
    return _guarded(spec, spec.c, spec.p, spec.omega, math)


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
    _require_regular(spec, params["c"], params["p"])
    return np.broadcast_to(_guarded(spec, **params), shape)


def nc_mesd_confidences(c: float | np.ndarray, omega: float | np.ndarray) -> tuple:
    """Closed-form confidences (C(1), C(2)) of the omega-mixed guessing
    strategies, the two arms of the noncontextual MESD confidence; (1/2, 1/2)
    at c = 1. ``c`` and ``omega`` may be floats or numpy arrays."""
    c, omega = require_in(c, "confusability"), require_in(omega, "omega")
    try:
        return tuple(_guarded(arm, c, None, omega) for arm in _ARMS)
    except ValueError:  # arrays that do not broadcast
        raise ContractError(f"c and omega must broadcast, got shapes {np.shape(c)} and "
                            f"{np.shape(omega)}") from None


def omega_star(c: float | np.ndarray) -> float | np.ndarray:
    """Mixing weight at which the first arm's confidence drops to the
    optimal guessing probability: bounded by 1/4 on [0, 1), and undefined
    for coincident preparations, so any c = 1 raises DivergenceError. ``c``
    may be a float or a numpy array."""
    c = require_in(c, "confusability")
    if (c == 1.0).any() if isinstance(c, np.ndarray) else c == 1.0:
        raise DivergenceError("threshold undefined for coincident preparations")
    w = _omega_star(c)
    return w if isinstance(c, np.ndarray) else float(w)


def nc_mcm_guessing(c: float | np.ndarray, p: float | np.ndarray) -> float | np.ndarray:
    """Closed-form guessing probability of the maximal-confidence strategy,
    the noncontextual MCM P_g. ``c`` and ``p`` may be floats or numpy arrays."""
    c, p = require_in(c, "confusability"), require_in(p, "noise")
    try:
        return _closed_form(_MCM_PG_NC, c, p, None)
    except ValueError:  # arrays that do not broadcast
        raise ContractError(f"c and p must broadcast, got shapes {np.shape(c)} and "
                            f"{np.shape(p)}") from None


@dataclass(frozen=True)
class GapCertificate:
    """Signed quantum-minus-noncontextual gap for one figure of merit.

    ``advantage`` is True when the quantum value is strictly better than
    the noncontextual one beyond the tolerance, in the direction favoured
    by the figure (larger P_g and C, smaller P_0).
    """

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
    return GapCertificate(qv, nv, signed, is_advantage(quantum.figure, signed, tols))


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
        """The cell of ``scheme`` and ``figure``; ContractError names the nine."""
        try:
            return self.cells[scheme, figure]
        except (KeyError, TypeError):  # an unknown or an unhashable key
            raise ContractError(f"no cell {scheme} {figure}; the cells are "
                                + ", ".join(f"{s} {f}" for s, f in self.cells)) from None


# Cells fixed by the scheme's definition rather than by a comparison.
_DEFINITIONAL = {
    ("MESD", "P_0"): DefinitionalCell(0.0, "no inconclusive outcome"),
    ("USD", "C"): DefinitionalCell(1.0, "conclusive outcomes are certain"),
}


def table1_report(
    c: float, p: float, omega: float, tols: Tolerances = DEFAULTS
) -> Table1Report:
    """Evaluate every cell of the gap table at one parameter point."""
    # c, omega and p as floats, checked once, in the order the cells would check them
    c = require_in(c, "confusability", scalar=True)
    omega = require_in(omega, "omega", scalar=True)
    p = require_in(p, "noise", scalar=True)
    if 0.0 < c < 1.0:
        w_star = _omega_star(c, math)  # omega_star, with c already checked
        window: Optional[tuple[float, float]] = (w_star, 1.0 - w_star)
    else:
        window = None
    # The one regularity check: rounding is monotone, so in IEEE arithmetic
    # (1-c) + c*p*(2-p) >= (1-c) + c*p, and the noncontextual MCM confidence's
    # denominator is never above the quantum one. Where that cell is regular,
    # every cell is.
    _require_regular(_MCM_C_NC, c, p)
    cells: dict = {}
    for cell in CELLS:  # one value per cell, over math
        key = (cell.scheme, cell.figure)
        if key in _DEFINITIONAL:
            cells[key] = _DEFINITIONAL[key]
            continue
        value = _guarded(cell, c, p, omega, math)
        if cell.theory == QUANTUM:
            qv = value
            continue
        signed = qv - value
        cert = GapCertificate(qv, value, signed,  # is_advantage's rule, inlined
                              (-signed if key[1] == "P_0" else signed) > tols.advantage)
        if cell.outcome == 2:  # the second arm of the noncontextual MESD confidence
            arm1 = cells[key]
            cert = ConfidencePairCell(arm1, cert, window, arm1.advantage and cert.advantage)
        cells[key] = cert
    return Table1Report(c, p, omega, cells, usd_possible=c < 1.0)
