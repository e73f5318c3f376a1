"""Exact certificates that noncontextual closed forms are the optima of the
four-region model over the closed square (c, p) in [0, 1]^2.

Every objective is built from the package's own model data, made exact with
sympy's ``nsimplify``: the canonical weights c * ``ncmodel._SLOPES`` +
``_OFFSETS`` (the noisy pair mixed with the even mixture at weight p), the
81 response vertices ``_VERTICES`` and, for the maximal-confidence face, the
identifying supports ``_IDENTIFYING`` and the candidates
``_FACE_CANDIDATES``. The closed forms are ``bounds._closed_form`` over
sympy, as in ``test_certified_signs.py``.

* MESD P_g: the guessing probability of each of the 81 vertices is linear
  in c. Exactly 6 equal the closed form 1 - c/2 identically (the oracle's
  ties), and none exceeds it at c = 0 or c = 1, so none does on [0, 1].
* MCM P_0: the two identifying masses m1 and m2 of the average noisy state
  are equal identically, so the three hypotenuse candidates give the same
  rate 1 - m1, the closed form (1 + (1 - p) c)/2, identically: a tie of the
  oracle that is exact. The vertex (0, 0) gives 1, at least the closed form
  on the whole square.

The MCM row runs over the identifying family the oracle searches today, not
over a declared set of response generators.

Runs only where sympy, a declared test extra, is installed.
"""

import pytest

sympy = pytest.importorskip("sympy")

from ctxsd import ncmodel  # noqa: E402
from ctxsd.bounds import CELLS, _closed_form  # noqa: E402

c, p = sympy.symbols("c p", nonnegative=True)
_CORNERS = [(x, y) for x in (0, 1) for y in (0, 1)]


def _exact(array):
    """A numpy array of the model data as a sympy matrix of rationals."""
    return sympy.Matrix(array.tolist()).applyfunc(lambda x: sympy.nsimplify(x, rational=True))


def _closed(scheme, figure):
    cell = next(cell for cell in CELLS if (cell.scheme, cell.figure, cell.theory)
                == (scheme, figure, "noncontextual"))
    return sympy.nsimplify(_closed_form(cell, c, p, None, xp=sympy), rational=True)


def _state(name):
    """The canonical weights of the state ``name`` (one of the first five of
    ``ncmodel._STATES``), as a 1 x 4 row in c."""
    row = ncmodel._STATES.index(name)
    return c * _exact(ncmodel._SLOPES)[row, :] + _exact(ncmodel._OFFSETS)[row, :]


def test_mesd_guessing_optimum_is_its_closed_form():
    closed = _closed("MESD", "P_g")
    assert sympy.expand(closed - (1 - c / 2)) == 0
    prep1, prep2 = _state("prep1"), _state("prep2")
    values = [sympy.expand((prep1.dot(_exact(v[:, 0])) + prep2.dot(_exact(v[:, 1]))) / 2)
              for v in ncmodel._VERTICES]
    assert len(values) == 81
    attained = [k for k, value in enumerate(values) if sympy.expand(value - closed) == 0]
    assert len(attained) == 6
    for value in values:  # linear in c, so no higher than the closed form on [0, 1]
        assert sympy.degree(value, c) <= 1
        assert all((closed - value).subs(c, x) >= 0 for x in (0, 1))


def test_mcm_inconclusive_optimum_is_its_closed_form():
    closed = _closed("MCM", "P_0")
    mixed = _state("mixed")
    noisy = [(1 - p) * _state(name) + p * mixed for name in ("prep1", "prep2")]
    average = (noisy[0] + noisy[1]) / 2
    m1, m2 = (average.dot(_exact(row)) for row in ncmodel._IDENTIFYING)
    assert sympy.expand(m1 - m2) == 0
    rates = {tuple(g): sympy.expand(1 - g[0] * m1 - g[1] * m2)
             for g in _exact(ncmodel._FACE_CANDIDATES).tolist()}
    hypotenuse = [g for g in rates if g[0] + g[1] == 1]
    assert len(hypotenuse) == 3
    for g in hypotenuse:
        assert sympy.expand(rates[g] - closed) == 0
        assert sympy.expand(rates[g] - (1 + (1 - p) * c) / 2) == 0
    assert rates[0, 0] == 1
    # 1 - closed is multilinear in (c, p): its least value on the square is at a corner
    excess = sympy.expand(1 - closed)
    assert sympy.degree(excess, c) <= 1 and sympy.degree(excess, p) <= 1
    assert all(excess.subs({c: x, p: y}) >= 0 for x, y in _CORNERS)
