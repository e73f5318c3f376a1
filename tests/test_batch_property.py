"""Property test: each scalar construction is its one-row stack, byte for byte.

A batch of one runs the construction geometry over floats and ``math``, a
stack over numpy arrays; both must give the same bytes, or raise the same
typed error, at any (theta, p), not only on the grids the other tests use.
Runs only where hypothesis is installed (the ``test`` extra); each run
draws the same examples (derandomized, with no example database).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctxsd import qtheory as qt  # noqa: E402
from ctxsd.errors import CtxsdError  # noqa: E402

# theta in [0, pi], with a share log-spaced towards the coincident pair
# (1 - c = sin^2 theta down to 1e-14), and p in [0, 1], with a share
# log-spaced towards the pure states: the singular corner c -> 1, p -> 0
_THETA = st.one_of(st.floats(0.0, math.pi), st.floats(-7.0, -0.5).map(lambda t: 10.0 ** t),
                   st.sampled_from([0.0, math.pi / 2, math.pi]))
_P = st.one_of(st.floats(0.0, 1.0), st.floats(-13.0, 0.0).map(lambda t: 10.0 ** t),
               st.sampled_from([0.0, 1.0]))


def _outcome(build):
    """The bytes of the arrays and numbers ``build()`` returns, or the class
    of the typed error it raises."""
    try:
        return [np.asarray(x).tobytes() for x in build()]
    except CtxsdError as exc:
        return type(exc)


def _mcm_point(theta, p):
    m, rate = qt.mcm_optimal(theta, p)
    return m.elements, rate


def _mcm_row(theta, p):
    stack = qt.mcm_stack([theta], [p])
    return stack.elements[0, 0], stack.inconclusive_rate()[0, 0]


def _helstrom_row(theta, p):
    # helstrom_stack builds pure pairs only; the noisy row is the same construction
    batch = qt._ensembles(qt._pure_pairs([theta]), np.array([p]))
    return (qt._helstrom(batch).elements[0, 0],)


def _usd_point(theta):
    m, rate = qt.usd_optimal(qt.noisy_ensemble(theta, 0.0))
    return m.elements, rate


def _usd_row(theta):
    stack = qt.usd_stack([theta])
    return stack.elements[0, 0], stack.inconclusive_rate()[0, 0]


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(_THETA, _P)
def test_batches_of_one_are_their_one_row_stacks(theta, p):
    pairs = [
        (lambda: _mcm_point(theta, p), lambda: _mcm_row(theta, p)),
        (lambda: (qt.helstrom_povm(qt.noisy_ensemble(theta, p)).elements,),
         lambda: _helstrom_row(theta, p)),
        (lambda: _usd_point(theta), lambda: _usd_row(theta)),
    ]
    for name, (point, row) in zip(("mcm", "helstrom", "usd"), pairs):
        assert _outcome(point) == _outcome(row), (name, theta, p)
