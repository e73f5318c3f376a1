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

Each gap is written once too, in ``_gap``, a function of the point: its
certificate, in terms nonnegative on the square, so it does not cancel, and
whose signs, not their rounded value, give the verdict, with no threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .config import NORM
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


def _closed_form(cell, c, p, omega, xp=np, s=None, r=None):
    """Value of ``cell`` (a ``Cell`` or a ``BoundSpec``) at (c, p, omega),
    unguarded, with ``xp`` supplying sqrt. Quantum values are written in
    the overlap s = |<psi1|psi2>| = sqrt(c) and in r = sqrt(1 - c), taken
    as given where the caller shares them with the gaps."""
    scheme, figure, quantum = cell.scheme, cell.figure, cell.theory == QUANTUM
    if quantum and s is None:
        s, r = xp.sqrt(c), xp.sqrt(1.0 - c)
    if scheme == "MESD":
        if figure == "P_0":
            return 0.0
        if quantum:  # the Helstrom value: P_g, and both confidences
            return 0.5 * (1.0 + r)
        if figure == "P_g":
            return 1.0 - 0.5 * c
        # the confidences of the omega-mixed guessing strategies, arm by arm:
        # (1 - (1 - v) c) / (1 - (1 - 2v) c), v = omega (arm 1) or 1 - omega
        v = omega if cell.outcome == 1 else 1.0 - omega
        return 0.5 * (1.0 + (1.0 - c) / ((1.0 - c) + 2.0 * v * c))
    if scheme == "USD":
        if figure == "C":
            return 1.0
        if figure == "P_0":
            return s if quantum else 0.5 * (1.0 + c)
        return 1.0 - s if quantum else 0.5 * (1.0 - c)
    # MCM
    if figure == "C":
        if quantum:
            return 0.5 * (1.0 + (1.0 - p) * r / xp.sqrt(_mcm_denominator(quantum, c, p)))
        return 0.5 * (1.0 + (1.0 - p) * (1.0 - c) / _mcm_denominator(quantum, c, p))
    if figure == "P_0":
        return (1.0 - p) * s if quantum else 0.5 * (1.0 + (1.0 - p) * c)
    if not quantum:
        return 0.5 * ((1.0 - p) * (1.0 - c) + 0.5 * p)  # 1 - p/2 - (1-p) c
    t = (1.0 - p) * s
    one_minus_t = (1.0 - c) / (1.0 + s) + p * s  # 1 - t, without the cancellation
    return 0.5 * (one_minus_t + (1.0 - p) * xp.sqrt(one_minus_t / (1.0 + t)) * r)


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

    ``gap`` is computed from the cell's certificate (see ``_gap``), and
    ``advantage`` is True exactly where the quantum value is strictly
    better than the noncontextual one in the direction favoured by the
    figure (larger P_g and C, smaller P_0).
    """

    quantum_value: float
    noncontextual_value: float
    gap: float
    advantage: bool


def oriented_gap(figure: str, signed):
    """A quantum-minus-noncontextual difference (float or array) signed so
    that a positive value favours the quantum theory: negated for P_0,
    where smaller is better, as 0 - signed, so that a zero stays +0. It is
    its own inverse."""
    return 0.0 - signed if figure == "P_0" else signed


# The float f of a MESD arm's sign factor 2v(1 + r) - r is within 16.5u of
# its value at the exact inputs (u = 2^-53; v, r <= 1: the roundings of
# 1 - c, its sqrt, v = 1 - omega, 1 + r and the product), so where |f| > 32u
# f shows its sign; the arm's gap then has a relative error of about 16.5u/|f|.
_ARM_ROUNDING = 2.0 ** -48


def _arm_factor(c: float, omega: float, outcome: int, r: float) -> tuple[float, bool]:
    """A MESD arm's sign factor F = 2v(1 + r) - r at the floats c < 1 and
    omega (v = omega for arm 1, 1 - omega for arm 2) where its float is too
    close to 0 to show its sign, and whether F > 0. There v < 1/2, so F =
    2v - (1 - 2v) r has the sign of n = 4v^2 - (1 - c)(1 - 2v)^2, exact in
    ``fractions.Fraction``, and is n / (2v + (1 - 2v) r) with a positive
    denominator that does not cancel."""
    v = Fraction(omega) if outcome == 1 else 1 - Fraction(omega)
    n = 4 * v * v - (1 - Fraction(c)) * (1 - 2 * v) ** 2
    return float(n) / (2.0 * float(v) + float(1 - 2 * v) * r), n > 0


def _gap(cell, c, p, omega, xp=np, s=None, r=None):
    """The signed gap, quantum minus noncontextual, of the noncontextual
    ``cell`` (a ``Cell`` or a ``BoundSpec``) at (c, p, omega), and whether it
    favours the quantum theory: floats over ``math``, arrays over numpy at
    regular points, or the gap's expression over sympy. Each oriented gap is
    its certificate (``tests/test_certified_signs.py``), in terms that are
    nonnegative on the square, with s = sqrt(c), r = sqrt(1 - c), u = 1 - p
    and t = u s, s and r taken as given where the caller shares them:

    * MESD P_g: r (1 - r) / 2, 1 - r = c / (1 + r); MESD C, per arm,
      r (1 - r) F / (2 D) with F = 2v(1 + r) - r, D = (1 - c) + 2vc and
      v = omega (arm 1) or 1 - omega (arm 2);
    * USD: m^2 / 2 with m = 1 - s = (1 - c) / (1 + s); MCM P_0:
      ((1 - t)^2 + u p c) / 2, 1 - t = m + p s;
    * MCM C: u (a^2 - b^2) / (2 (a + b)) with a = r / sqrt(Dq), b = r^2 / Dn
      (``_mcm_denominator``) and a^2 - b^2 = c (1 - c) p^2 / (Dq Dn^2);
    * MCM P_g: (p/2 + A - t m) / 2, where A = u r Q, Q = sqrt((1 - t) / (1 + t)),
      is the quantum value's root term and A - t m = (A^2 - t^2 m^2) / (A + t m)
      = u r K / ((1 + t)((1 + s) Q + s r)), K = (1 - c)^2 + p s (1 + s + s^2 m).

    Each verdict is that each factor of a product, or some term of a sum,
    is positive, read from the floats of the factors, whose signs are exact
    (c, 1 - c, p, 1 - p, and m or 1 - t, positive where c < 1 or, for MCM
    P_0, p > 0), and for a MESD arm's F from ``_arm_factor`` where its float
    is within its rounding error of 0. A 0/0 at a zero set, a MESD arm's at
    (c, v) = (1, 0) or MCM P_g's at (1, 0), reads as 0."""
    scheme, figure = cell.scheme, cell.figure
    if s is None:
        s, r = xp.sqrt(c), xp.sqrt(1.0 - c)
    if scheme == "MESD":
        g, positive = 0.5 * r * (c / (1.0 + r)), (c > 0.0) & (r > 0.0)
        if figure == "P_g":
            return g, positive
        v = omega if cell.outcome == 1 else 1.0 - omega
        f = 2.0 * v * (1.0 + r) - r
        sign = f > 0.0
        undecided = (-_ARM_ROUNDING <= f) & (f <= _ARM_ROUNDING) & (r > 0.0)
        if type(undecided) is bool:  # a float point
            if undecided:
                f, sign = _arm_factor(c, omega, cell.outcome, r)
        elif isinstance(undecided, np.ndarray):  # a grid; over sympy, f is exact
            cs, omegas, rs = np.broadcast_arrays(c, omega, r)
            for k in zip(*np.nonzero(undecided)):
                f[k], sign[k] = _arm_factor(float(cs[k]), float(omegas[k]), cell.outcome,
                                            float(rs[k]))
        d = (1.0 - c) + 2.0 * v * c  # 0 only at (c, v) = (1, 0), where g = 0: read as 1
        return g * f / (d + 1.0 * (d == 0.0)), positive & sign
    if figure == "C":  # MCM
        u, dn = 1.0 - p, _mcm_denominator(False, c, p)
        root_dq = xp.sqrt(_mcm_denominator(True, c, p))
        return (0.5 * u * c * r * p * p / (dn * root_dq * (dn + r * root_dq)),
                (u > 0.0) & (c > 0.0) & (r > 0.0) & (p > 0.0))
    m = (1.0 - c) / (1.0 + s)  # 1 - s
    if scheme == "USD":
        g = 0.5 * m * m
    elif figure == "P_0":  # MCM
        m = m + p * s  # 1 - t
        g = 0.5 * (m * m + (1.0 - p) * p * c)
    else:  # MCM P_g
        t = (1.0 - p) * s
        d = (1.0 + t) * ((1.0 + s) * xp.sqrt((m + p * s) / (1.0 + t)) + s * r)  # 0 only where r is
        k = (1.0 - c) * (1.0 - c) + p * s * (1.0 + s + s * s * m)
        return 0.5 * (0.5 * p + (1.0 - p) * r * k / (d + 1.0 * (d == 0.0))), (p > 0.0) | (m > 0.0)
    return (0.0 - g if figure == "P_0" else g), m > 0.0  # signed as qv - nv, as oriented_gap


def gap(quantum: BoundSpec, noncontextual: BoundSpec) -> GapCertificate:
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
    return GapCertificate(eval_bound(quantum), eval_bound(noncontextual),
                          *_gap(noncontextual, noncontextual.c, noncontextual.p,
                                noncontextual.omega, math))


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


def table1_report(c: float, p: float, omega: float) -> Table1Report:
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
    s, r = math.sqrt(c), math.sqrt(1.0 - c)  # shared by the quantum values and the gaps
    cells: dict = {}
    for cell in CELLS:  # one value per cell, over math
        key = (cell.scheme, cell.figure)
        if key in _DEFINITIONAL:
            cells[key] = _DEFINITIONAL[key]
            continue
        if cell.theory == QUANTUM:
            qv = _closed_form(cell, c, p, omega, math, s, r)
            continue
        nv = _guarded(cell, c, p, omega, math)
        cert = GapCertificate(qv, nv, *_gap(cell, c, p, omega, math, s, r))
        if cell.outcome == 2:  # the second arm of the noncontextual MESD confidence
            arm1 = cells[key]
            cert = ConfidencePairCell(arm1, cert, window, arm1.advantage and cert.advantage)
        cells[key] = cert
    return Table1Report(c, p, omega, cells, usd_possible=c < 1.0)
