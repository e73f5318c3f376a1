"""Exact sign certificates for the contextual advantages whose gaps factor.

Each gap is the quantum value minus the noncontextual one, oriented so that
a positive value favours the quantum theory (negated for P_0). Both values
are the package's own expressions: ``bounds._closed_form`` evaluated over
sympy, with its float literals made exact. With s = sqrt(c),
r = sqrt(1 - c) and t = 1 - p, sympy proves that each gap equals a
certificate whose factors are visibly nonnegative on the closed square
(c, p) in [0, 1]^2, and the test states where it vanishes:

* USD P_0 and USD P_g: (1 - s)^2 / 2, zero exactly at c = 1;
* MESD P_g: (r - r^2) / 2 = r (1 - r) / 2, zero exactly at c = 0 and c = 1;
* MCM P_0: ((1 - t s)^2 + t (1 - t) c) / 2, zero exactly at (c, p) = (1, 0);
* MCM C: t (a - b) / 2 with a = r / sqrt(1 - t^2 c) and b = r^2 / (1 - t c),
  where a, b >= 0 and a^2 - b^2, over its positive denominators, is
  c (1 - c) p^2; so the gap is zero exactly on the four edges of the square
  and positive inside.
  It is undefined at (1, 0), the pure coincident pair.
* MESD C, per arm of the omega-mixed strategies at mixing weight omega:
  r (1 - r) (2 (1 + r) omega - r) / (2 (r^2 + 2 omega (1 - r^2))) for arm 1,
  and its mirror omega -> 1 - omega, numerator
  r (1 - r) (r + 2 - 2 (1 + r) omega), for arm 2. For 0 < c < 1 the
  denominators and r (1 - r) are positive, so arm 1's gap vanishes exactly
  at omega = omega* = r / (2 (1 + r)) and is positive above it, and arm 2's
  vanishes exactly at 1 - omega* and is positive below it. At c = 0 both
  gaps are zero; at c = 1 both arms take the guarded value 1/2, the
  Helstrom value there, so both gaps are zero.

Each certificate is then evaluated at the 21- and 51-point verify grids in
40-digit arithmetic and checked against ``eval_column`` to 1e-15, its zero
set included. The MCM P_g gap does not factor this way and is not certified
here.

Runs only where sympy is installed; it is not a declared dependency.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
import mpmath  # noqa: E402  (a dependency of sympy)

from ctxsd.bounds import CELLS, _closed_form, _omega_star, eval_column, oriented_gap  # noqa: E402

s, r, t, w = sympy.symbols("s r t omega", nonnegative=True)
c_of_s, c_of_r = s**2, 1 - r**2


def _cell(scheme, figure, theory, outcome=1):
    return next(cell for cell in CELLS if (cell.scheme, cell.figure, cell.theory, cell.outcome)
                == (scheme, figure, theory, outcome))


def _code(cell, c, p=None, omega=None):
    """The package's expression of ``cell`` over sympy, its floats made exact."""
    return sympy.nsimplify(_closed_form(cell, c, p, omega, xp=sympy), rational=True)


def _code_gap(scheme, figure, c, p=None, omega=None, outcome=1):
    """The oriented quantum-minus-noncontextual gap of the package's expressions."""
    return oriented_gap(figure, _code(_cell(scheme, figure, "quantum"), c, p, omega)
                        - _code(_cell(scheme, figure, "noncontextual", outcome), c, p, omega))


def _gap_on_grid(scheme, figure, n):
    """The oriented closed-form gap on the n x n verify grid, c-major."""
    c, p = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, n),
                                            np.linspace(0.0, 1.0, n), indexing="ij"))
    keep = ~((c == 1.0) & (p == 0.0)) if figure == "C" else np.ones_like(c, dtype=bool)
    c, p = c[keep], p[keep]
    q, nc = (eval_column(_cell(scheme, figure, theory).spec(0.5, 0.5, 0.5), ("c", "p"), (c, p))
             for theory in ("quantum", "noncontextual"))
    return c, p, oriented_gap(figure, q - nc)


def _evaluate(expr, c, p, omega=None):
    """``expr`` in s, r, t and omega at the grid points (c, p, omega), each
    float taken exactly and the value rounded once to a float."""
    f = sympy.lambdify((s, r, t, w), expr, "mpmath")
    omega = np.zeros_like(c) if omega is None else omega
    with mpmath.workdps(40):
        return np.array([float(f(mpmath.sqrt(x), mpmath.sqrt(1 - mpmath.mpf(x)),
                                 1 - mpmath.mpf(y), mpmath.mpf(z)))
                         for x, y, z in zip(c.tolist(), p.tolist(), omega.tolist())])


# (scheme, figure): (c in s or r, certificate, zero set); p = 1 - t
_CERTIFICATES = {
    ("USD", "P_0"): (c_of_s, (1 - s) ** 2 / 2, lambda c, p: c == 1.0),
    ("USD", "P_g"): (c_of_s, (1 - s) ** 2 / 2, lambda c, p: c == 1.0),
    ("MESD", "P_g"): (c_of_r, (r - r**2) / 2, lambda c, p: (c == 0.0) | (c == 1.0)),
    ("MCM", "P_0"): (c_of_s, ((1 - t * s) ** 2 + t * (1 - t) * c_of_s) / 2,
                     lambda c, p: (c == 1.0) & (p == 0.0)),
}


@pytest.mark.parametrize("key", list(_CERTIFICATES), ids=" ".join)
def test_gap_equals_its_certificate(key):
    c, certificate, _ = _CERTIFICATES[key]
    assert sympy.expand(_code_gap(*key, c, 1 - t) - certificate) == 0


def test_mcm_confidence_gap_factors():
    c, p = c_of_r, 1 - t
    a, b = r / sympy.sqrt(1 - t**2 * c), r**2 / (1 - t * c)
    assert sympy.simplify(_code_gap("MCM", "C", c, p) - t * (a - b) / 2) == 0
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


# outcome: (MESD C certificate of that arm in r and omega, c = 1 - r^2; its
# sign factor, which vanishes at the arm's end of the advantage window)
_ARMS = {
    1: (r * (1 - r) * (2 * (1 + r) * w - r) / (2 * (r**2 + 2 * w * (1 - r**2))),
        2 * (1 + r) * w - r),
    2: (r * (1 - r) * (r + 2 - 2 * (1 + r) * w) / (2 * (r**2 + 2 * (1 - w) * (1 - r**2))),
        r + 2 - 2 * (1 + r) * w),
}


@pytest.mark.parametrize("outcome", [1, 2])
def test_mesd_confidence_gap_equals_its_certificate(outcome):
    certificate, sign = _ARMS[outcome]
    gap = _code_gap("MESD", "C", c_of_r, omega=w, outcome=outcome)
    assert sympy.simplify(gap - certificate) == 0
    assert sympy.simplify(_ARMS[2][0] - _ARMS[1][0].subs(w, 1 - w)) == 0  # the mirror
    # the sign factor vanishes at omega*, the code's, for arm 1 and at 1 - omega* for arm 2
    w_star = sympy.nsimplify(_omega_star(c_of_r, sympy), rational=True)
    assert sympy.simplify(sign.subs(w, w_star if outcome == 1 else 1 - w_star)) == 0


@pytest.mark.parametrize("n", [21, 51])
@pytest.mark.parametrize("outcome", [1, 2])
def test_mesd_confidence_certificate_matches_the_closed_forms_on_the_grid(outcome, n):
    c, omega = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, n),
                                                np.linspace(0.0, 1.0, n), indexing="ij"))
    arm = _cell("MESD", "C", "noncontextual", outcome).spec(0.5, 0.5, 0.5)
    gap = (eval_column(_cell("MESD", "C", "quantum").spec(0.5, 0.5, 0.5), "c", c)
           - eval_column(arm, ("c", "omega"), (c, omega)))
    assert (gap[c == 1.0] == 0.0).all()  # both arms' guarded 1/2 is the Helstrom value
    inside = c < 1.0
    c, omega, gap = c[inside], omega[inside], gap[inside]
    want = _evaluate(_ARMS[outcome][0], c, np.zeros_like(c), omega)
    assert np.abs(gap - want).max() <= 1e-15
    # zero exactly at c = 0 and at the arm's end of the window, omega* or
    # 1 - omega*, the code's omega* at 40 digits; of the window's sign elsewhere
    with mpmath.workdps(40):
        end = np.array([_omega_star(mpmath.mpf(x), mpmath) for x in c.tolist()])
        side = np.array([mpmath.sign(x - (e if outcome == 1 else 1 - e))
                         for x, e in zip(omega.tolist(), end)], dtype=float)
    side = side if outcome == 1 else -side
    assert (want[c == 0.0] == 0.0).all()
    assert (np.sign(want[c > 0.0]) == side[c > 0.0]).all()
