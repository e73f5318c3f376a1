"""The rewritten closed forms equal their textbook forms, exactly.

Four expressions of ``bounds`` are written so that they do not cancel in
floating point near the singular corner (c -> 1, p -> 0) or as c -> 0.
sympy proves that each, evaluated over sympy from the package's own code
with its float literals made exact, equals the textbook form it rewrites:

* ``omega_star``: sqrt(1-c) / (2 (1 + sqrt(1-c))) is
  (1-c)(1 - sqrt(1-c)) / (2 c sqrt(1-c));
* MCM C, quantum: (1-c) + c p (2-p) under the root is 1 - (1-p)^2 c;
* MCM C, noncontextual: the denominator (1-c) + c p is 1 - (1-p) c;
* MCM P_g, quantum: (1-c)/(1+sqrt(c)) + p sqrt(c) is 1 - t, t = (1-p) sqrt(c).

Square roots are compared by their radicands brought to one fraction, so a
rewrite inside a root is proved too. Runs only where sympy is installed;
it is not a declared dependency.
"""

import pytest

sympy = pytest.importorskip("sympy")

from ctxsd.bounds import CELLS, _closed_form, _omega_star  # noqa: E402

c, p, s = sympy.symbols("c p s", positive=True)
_HALF = sympy.Rational(1, 2)
_sqrt = sympy.sqrt


def _code(label, c, p):
    cell = next(cell for cell in CELLS if cell.label == label)
    return _closed_form(cell, c, p, None, xp=sympy)


def _t(c):
    return (1 - p) * _sqrt(c)


# name: (the package's expression over sympy, the textbook form)
_FORMS = {
    "omega_star": (_omega_star(c, sympy), (1 - c) * (1 - _sqrt(1 - c)) / (2 * c * _sqrt(1 - c))),
    "MCM_C_Q": (_code("MCM_C_Q", c, p),
                _HALF * (1 + (1 - p) * _sqrt(1 - c) / _sqrt(1 - (1 - p) ** 2 * c))),
    "MCM_C_NC": (_code("MCM_C_NC", c, p), _HALF * (1 + (1 - p) * (1 - c) / (1 - (1 - p) * c))),
    # c = s^2, so that sqrt(c) = s and the roots of the two forms can meet
    "MCM_Pg_Q": (_code("MCM_Pg_Q", s**2, p),
                 _HALF * (1 - _t(s**2) + (1 - p) * _sqrt((1 - _t(s**2)) / (1 + _t(s**2)))
                          * _sqrt(1 - s**2))),
}


def _radicands_as_one_fraction(expr):
    return expr.replace(lambda e: e.is_Pow and e.exp == _HALF,
                        lambda e: _sqrt(sympy.factor(sympy.cancel(e.base))))


@pytest.mark.parametrize("name", list(_FORMS))
def test_rewritten_form_equals_its_textbook_form(name):
    code, textbook = (_radicands_as_one_fraction(sympy.nsimplify(e, rational=True))
                      for e in _FORMS[name])
    assert sympy.simplify(code - textbook) == 0
