"""Each advantage verdict is the sign of its gap, computed at 80 digits.

``table1_report`` (and ``gap`` where the report raises) decides each cell's
advantage from its gap certificate, with no threshold. This test compares
every verdict with the sign of the oriented gap Q - N of ``bounds``' closed
forms evaluated in mpmath at 80 digits on the float inputs, or at 800
digits where 80 cancel to below 1e-70 (at p = 1e-300, say), with both MESD
arms 1/2 at c = 1 as in ``_guarded``. A zero gap, a point of a certified
zero set, must read no advantage. The points are:

* the 21 x 21 verify grid, omega = 0.3;
* the 16 corner decades, 1 - c and p each 10^-1 ... 10^-16, omega = 0.3;
* the domain edges of ROADMAP item 4;
* for each interior c of the grid, omega one ulp either side of omega* and
  of 1 - omega*, where the MESD arms' verdicts turn and ``_arm_factor``
  decides them exactly.
"""

import math

import numpy as np
import pytest

from ctxsd import bounds
from ctxsd.bounds import CELLS, NONCONTEXTUAL, QUANTUM, Cell, gap, omega_star, table1_report
from ctxsd.errors import DivergenceError

mpmath = pytest.importorskip("mpmath")

_PAIRS = [(Cell(cell.scheme, cell.figure, QUANTUM), cell) for cell in CELLS
          if cell.theory == NONCONTEXTUAL
          and (cell.scheme, cell.figure) not in (("MESD", "P_0"), ("USD", "C"))]


def _points():
    grid = np.linspace(0.0, 1.0, 21).tolist()
    points = [(c, p, 0.3) for c in grid for p in grid]
    points += [(1.0 - 10.0 ** -a, 10.0 ** -b, 0.3) for a in range(1, 17) for b in range(1, 17)]
    points += [(1.0 - 1e-13, 0.0, 0.3), (1.0, 1e-12, 0.3), (1.0, 1e-300, 0.3),
               (1.0, 2.5e-12, 0.3), (1.0, 0.0, 0.3)]
    for c in grid[1:-1]:
        for end in (omega_star(c), 1.0 - omega_star(c)):
            points += [(c, 0.5, math.nextafter(end, toward)) for toward in (0.0, 1.0)]
    return points


def _value(cell, c, p, omega):
    if cell.has_arms and c == 1.0:
        return mpmath.mpf(0.5)
    return bounds._closed_form(cell, mpmath.mpf(c), mpmath.mpf(p), mpmath.mpf(omega), xp=mpmath)


def _exact_gap(quantum, cell, point):
    """The oriented gap Q - N at 80 digits, or at 800 where 80 cancel."""
    with mpmath.workdps(80):
        signed = _value(quantum, *point) - _value(cell, *point)
    if abs(signed) < mpmath.mpf(10) ** -70:
        with mpmath.workdps(800):
            signed = _value(quantum, *point) - _value(cell, *point)
    return -signed if cell.figure == "P_0" else signed


def _certificates(point):
    """The report's certificate of each pair at ``point``, or gap's for each
    pair that does not raise where the report does."""
    try:
        report = table1_report(*point)
    except DivergenceError:
        report = None
    certs = {}
    for quantum, cell in _PAIRS:
        if report is not None:
            entry = report.cell(cell.scheme, cell.figure)
            certs[cell] = getattr(entry, f"arm{cell.outcome}") if cell.has_arms else entry
            continue
        try:
            certs[cell] = gap(quantum.spec(*point), cell.spec(*point))
        except DivergenceError:  # the MCM confidences at a pure coincident pair
            pass
    return certs


def test_every_verdict_is_the_sign_of_its_80_digit_gap():
    wrong = []
    for point in _points():
        for cell, cert in _certificates(point).items():
            positive = _exact_gap(Cell(cell.scheme, cell.figure, QUANTUM), cell, point) > 0
            if cert.advantage != positive:
                wrong.append((cell.label, point, cert.gap, cert.advantage))
    assert not wrong, f"{len(wrong)} verdicts differ from the gap's sign; first {wrong[0]}"
