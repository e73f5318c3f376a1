"""Exact sign certificates for the contextual advantages whose gaps factor.

Each gap is the quantum value minus the noncontextual one, oriented so that
a positive value favours the quantum theory (negated for P_0). With
s = sqrt(c), r = sqrt(1 - c) and t = 1 - p, sympy proves that each gap
equals a certificate whose factors are visibly nonnegative on the closed
square (c, p) in [0, 1]^2, and the test states where it vanishes:

* USD P_0 and USD P_g: (1 - s)^2 / 2, zero exactly at c = 1;
* MESD P_g: (r - r^2) / 2 = r (1 - r) / 2, zero exactly at c = 0 and c = 1;
* MCM P_0: ((1 - t s)^2 + t (1 - t) c) / 2, zero exactly at (c, p) = (1, 0);
* MCM C: t (a - b) / 2 with a = r / sqrt(1 - t^2 c) and b = r^2 / (1 - t c),
  where a, b >= 0 and a^2 - b^2, over its positive denominators, is
  c (1 - c) p^2; so the gap is zero exactly on the four edges of the square
  and positive inside.
  It is undefined at (1, 0), the pure coincident pair.

Each certificate is then evaluated at the 21- and 51-point verify grids in
40-digit arithmetic and checked against ``eval_column`` to 1e-15, its zero
set included. The MCM P_g and MESD C gaps do not factor this way and are
not certified here.

Runs only where sympy is installed; it is not a declared dependency.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
import mpmath  # noqa: E402  (a dependency of sympy)

from ctxsd.bounds import CELLS, eval_column, oriented_gap  # noqa: E402

s, r, t = sympy.symbols("s r t", nonnegative=True)
c_of_s, c_of_r = s**2, 1 - r**2
_HALF = sympy.Rational(1, 2)


def _cell(scheme, figure, theory):
    return next(cell for cell in CELLS if (cell.scheme, cell.figure, cell.theory)
                == (scheme, figure, theory))


def _gap_on_grid(scheme, figure, n):
    """The oriented closed-form gap on the n x n verify grid, c-major."""
    c, p = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, n),
                                            np.linspace(0.0, 1.0, n), indexing="ij"))
    keep = ~((c == 1.0) & (p == 0.0)) if figure == "C" else np.ones_like(c, dtype=bool)
    c, p = c[keep], p[keep]
    q, nc = (eval_column(_cell(scheme, figure, theory).spec(0.5, 0.5, 0.5), ("c", "p"), (c, p))
             for theory in ("quantum", "noncontextual"))
    return c, p, oriented_gap(figure, q - nc)


def _evaluate(expr, c, p):
    """``expr`` in s, r and t at the grid points (c, p), each float taken
    exactly and the value rounded once to a float."""
    f = sympy.lambdify((s, r, t), expr, "mpmath")
    with mpmath.workdps(40):
        return np.array([float(f(mpmath.sqrt(x), mpmath.sqrt(1 - mpmath.mpf(x)), 1 - mpmath.mpf(y)))
                         for x, y in zip(c.tolist(), p.tolist())])


# (scheme, figure): (gap in s, r, t from the closed forms, certificate, zero set)
_CERTIFICATES = {
    ("USD", "P_0"): (-(s - _HALF * (1 + c_of_s)), (1 - s) ** 2 / 2,
                     lambda c, p: c == 1.0),
    ("USD", "P_g"): ((1 - s) - _HALF * (1 - c_of_s), (1 - s) ** 2 / 2,
                     lambda c, p: c == 1.0),
    ("MESD", "P_g"): (_HALF * (1 + r) - (1 - _HALF * c_of_r), (r - r**2) / 2,
                      lambda c, p: (c == 0.0) | (c == 1.0)),
    ("MCM", "P_0"): (-(t * s - _HALF * (1 + t * c_of_s)),
                     ((1 - t * s) ** 2 + t * (1 - t) * c_of_s) / 2,
                     lambda c, p: (c == 1.0) & (p == 0.0)),
}


@pytest.mark.parametrize("key", list(_CERTIFICATES), ids=" ".join)
def test_gap_equals_its_certificate(key):
    gap, certificate, _ = _CERTIFICATES[key]
    assert sympy.expand(gap - certificate) == 0


def test_mcm_confidence_gap_factors():
    c, p = c_of_r, 1 - t
    a, b = r / sympy.sqrt(1 - t**2 * c), r**2 / (1 - t * c)
    quantum = _HALF * (1 + t * a)  # 1/2 (1 + (1 - p) sqrt(1 - c) / sqrt(1 - (1 - p)^2 c))
    noncontextual = _HALF * (1 + t * (1 - c) / (1 - t * c))
    assert sympy.simplify(quantum - noncontextual - t * (a - b) / 2) == 0
    # a^2 - b^2 over the common denominator (1 - t^2 c)(1 - t c)^2
    assert sympy.expand(r**2 * (1 - t * c) ** 2 - r**4 * (1 - t**2 * c) - c * (1 - c) * p**2) == 0


@pytest.mark.parametrize("n", [21, 51])
@pytest.mark.parametrize("key", list(_CERTIFICATES), ids=" ".join)
def test_certificate_matches_the_closed_forms_on_the_verify_grid(key, n):
    _, certificate, zero = _CERTIFICATES[key]
    c, p, gap = _gap_on_grid(*key, n)
    want = _evaluate(certificate, c, p)
    assert np.abs(gap - want).max() <= 1e-15
    assert (want[zero(c, p)] == 0.0).all() and (want[~zero(c, p)] > 0.0).all()


@pytest.mark.parametrize("n", [21, 51])
def test_mcm_confidence_gap_vanishes_exactly_on_the_edges(n):
    c, p, gap = _gap_on_grid("MCM", "C", n)  # without the undefined (1, 0)
    want = _evaluate(t * (r / sympy.sqrt(1 - t**2 * s**2) - r**2 / (1 - t * s**2)) / 2, c, p)
    assert np.abs(gap - want).max() <= 1e-15
    edge = (c == 0.0) | (c == 1.0) | (p == 0.0) | (p == 1.0)
    assert (np.abs(gap[edge]) <= 1e-15).all()
    assert (want[~edge] > 0.0).all() and (gap[~edge] > 0.0).all()
