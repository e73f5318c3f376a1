"""Every scalar call is its stack's row, byte for byte.

Each scalar entry point of the three routes is a batch of one of a stacked
kernel. A row of ``_ROWS`` builds one multi-row stack over a point set and
compares every stack row with the scalar call at that point by dtype, shape
and bytes, which tell -0.0 from 0.0; NaN stands for None, an outcome that
never fires, and a scalar call's numbers must be Python floats. A point
where the scalar call raises a typed error is checked as a one-row stack
that raises the same error class; each row names the one error class its
scalar call may raise and where. The rows run over ``FIXED``: the 21 x 21
grid with its edge values (which holds the p = 1 and c = 1 lines), the
corner decades, pure pairs towards c = 1 and seeded points. Where
hypothesis is installed (the ``test`` extra), its derandomized draws drive
the same rows, one drawn point at a time.
"""

import itertools
import math

import numpy as np
import pytest

from ctxsd import bounds, ncmodel as nc, qtheory as qt
from ctxsd.bounds import CELLS, eval_column
from ctxsd.errors import (
    CtxsdError,
    DegenerateEnsembleError,
    DivergenceError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
    UsdImpossibleError,
)


def _unique(points) -> list:
    return list(dict.fromkeys(points))


def _point_set(cs, ps, omegas, vectors, extra_cp=()) -> dict:
    """The points (c, p) of the product of ``cs`` and ``ps`` and of
    ``extra_cp``, each with an omega of ``omegas`` in turn, as the rows read
    them: ``theta_p`` the pairs make_pure_pair(theta) dephased at p, also at
    pi - theta, where the overlap cos(theta) is negative; ``vectors`` the
    unit vectors to mirror; ``gammas`` unambiguous response weights; and
    ``held``, where a one-variable column holds the other two variables."""
    cp = _unique([*itertools.product(cs, ps), *extra_cp])
    theta_p = [(math.acos(math.sqrt(c)), p) for c, p in cp]
    theta_p += [(math.pi - t, p) for t, p in theta_p if t > 0.0 and p in (0.0, 0.5, 1.0)]
    cpw = [(c, p, omegas[k % len(omegas)]) for k, (c, p) in enumerate(cp)]
    return {"theta_p": _unique(theta_p), "theta": _unique((t,) for t, _ in theta_p),
            "vectors": vectors, "cpw": cpw, "held": cpw[:1],
            "gammas": [*((0.5 * a, 0.5 * b) for a, b in zip(omegas, reversed(omegas))),
                       (1.0, 0.0), (0.0, 1.0), (0.75, 0.5)]}  # the last infeasible


def _fixed() -> dict:
    axis = sorted({*np.linspace(0.0, 1.0, 21).tolist(), 1e-16, 0.5 - 1e-16,
                   float(np.nextafter(1.0, 0.0))})
    seeded = np.random.default_rng(20240611).uniform(0.0, 1.0, 4).tolist()
    decades = [10.0 ** -k for k in np.linspace(1.0, 12.0, 4)]  # 1 - c and p over [1e-12, 1e-1]
    corner = [(1.0 - a, b) for a in decades for b in decades]
    pure = [(c, 0.0) for c in (1.0 - 1e-13, *(1.0 - a for a in decades))]
    rng = np.random.default_rng(11)
    v = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    v[::7, 1] *= 1e-13  # mirrors whose first amplitude is below the phase threshold
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    points = _point_set(axis, axis, sorted({*axis, *seeded}), [tuple(x) for x in v.tolist()],
                        corner + pure + list(itertools.product(seeded[:2], seeded[2:])))
    points["held"] = list(itertools.product((0.0, 1.0, *seeded[:2]), repeat=3))
    return points


FIXED = _fixed()


def _bits(values, scalar: bool = False) -> list:
    """The dtype, shape and bytes of each value, None as NaN."""
    out = []
    for v in values:
        items = v if isinstance(v, list) else [v]
        assert not scalar or isinstance(v, np.ndarray) or all(
            type(x) is float or x is None for x in items), v
        if not isinstance(v, np.ndarray):
            v = np.reshape([math.nan if x is None else x for x in items], np.shape(v))
        out.append((v.dtype.str, v.shape, v.tobytes()))
    return out


def _columns(points) -> tuple:
    return tuple(np.array(column) for column in zip(*points))


def _assert_rows(points, stacked, scalar=None, raises=None) -> None:
    """``stacked(*columns)`` builds one stack over ``points`` and gives its
    values, each an array over the points; ``scalar(*point)`` gives the
    scalar call's at one point, or, for a call that takes an input (a
    weight) from the stack, a function of that stack row giving them. Where
    one function serves both, ``scalar`` is left out. A scalar call may
    raise only the error class ``raises[0]``, and only where ``raises[1]``
    holds; there the one-row stack must raise the same class."""
    scalar = scalar or stacked
    answered, want = [], []
    for point in points:
        try:
            want.append(scalar(*point))
        except CtxsdError as exc:
            assert raises and type(exc) is raises[0] and raises[1](*point), (point, exc)
            with pytest.raises(CtxsdError) as raised:
                stacked(*_columns([point]))
            assert type(raised.value) is type(exc), point
            continue
        answered.append(point)
    values = stacked(*_columns(answered)) if answered else []
    assert all(len(v) == len(answered) for v in values)
    for k, (point, one) in enumerate(zip(answered, want)):
        row = [v[k] for v in values]
        assert _bits(row) == _bits(one(row) if callable(one) else one, scalar=True), point


# ---------------------------------------------------------------------------
# qtheory: the constructions and the three scalar figures of merit


def _stack(stack, *inputs) -> list:
    """The ``inputs``, states, elements, P_g, P_0, C(1) and C(2) of each
    row, a confidence NaN in the rows where its outcome never fires."""
    values = [*inputs, stack.states, stack.elements, stack.guessing_probability(),
              stack.inconclusive_rate()]
    for i in (1, 2):
        fires = (stack.outcome_probs[..., i - 1] > 0.0).all(axis=1)
        values.append(np.full(stack.weights.shape[:2], math.nan))
        values[-1][fires] = stack[fires].confidence(i)
    return values


def _confidence(ens, m, i):
    try:
        return qt.confidence(ens, m, i)
    except UndefinedConfidenceError:  # the outcome never fires
        return None


def _point(ens, povms, *inputs) -> list:
    """The same values of the scalar ``povms`` of ``ens``."""
    return [*inputs, ens.states, np.array([m.elements for m in povms]),
            [qt.guessing_probability(ens, m) for m in povms],
            [qt.inconclusive_rate(ens, m) for m in povms],
            *([_confidence(ens, m, i) for m in povms] for i in (1, 2))]


def _helstrom_stack(theta, p):  # helstrom_stack is this construction at p = 0
    return _stack(qt._helstrom(qt._ensembles(qt._pure_pairs(theta), p)))


def _helstrom_povm(theta, p):
    ens = qt.noisy_ensemble(theta, p)
    return _point(ens, [qt.helstrom_povm(ens)])


def _usd_weights(theta: float) -> list:
    unit = 1.0 / (1.0 + abs(math.cos(theta)))  # the optimal weight
    return [(a * unit, b * unit) for a, b in ((1.0, 0.5), (0.25, 0.25), (0.6, 0.3))]


def _usd_stack(theta):
    return _stack(qt.usd_stack(theta, [_usd_weights(t) for t in theta.tolist()]))


def _usd_povms(theta):
    ens = qt.noisy_ensemble(theta, 0.0)
    m, rate = qt.usd_optimal(ens)
    values = _point(ens, [m, *(qt.usd_povm(ens, g1, g2) for g1, g2 in _usd_weights(theta))])
    assert rate == values[3][0]  # the optimum's rate is one trace
    return values


def _mcm_stack(theta, p):  # at 1, 1/4 and 1/2 of the optimal weight
    stack = qt.mcm_stack(theta, p, (1.0, 0.25, 0.5))
    return _stack(stack, stack.weights[..., 0])


def _mcm_povms(theta, p):
    m, rate = qt.mcm_optimal(theta, p)
    ens = qt.noisy_ensemble(theta, p)

    def at(row):  # the weights are the stack row's
        values = _point(ens, [qt.mcm_povm(ens, alpha) for alpha in row[0].tolist()], row[0])
        assert (m.elements.tobytes(), rate) == (values[2][0].tobytes(), values[4][0])
        return values
    return at


def _pure_pair(theta):
    return [np.array([(s.amp0, s.amp1) for s in qt.make_pure_pair(theta)])]


def _mirror(amp0, amp1):
    m = qt.mirror(qt.PureState(amp0, amp1))
    return [np.array([m.amp0, m.amp1])]


# ---------------------------------------------------------------------------
# ncmodel and the closed forms of bounds: one function of floats or of
# equal-shape arrays gives both sides


def _scenario(c, p, omega):
    scn = nc.canonical_scenario(c, p)
    return [scn.c, scn.p, *(getattr(scn, s).weights for s in nc._STATES)]


def _responses(rs) -> list:
    return [rs.xi1, rs.xi2, rs.xi0]


def _strategies(omega):
    """The MESD strategy at omega and the unambiguous responses (omega/2, (1 - omega)/2)."""
    return nc.mesd_mixed_strategy(omega), nc.usd_response(0.5 * omega, 0.5 * (1.0 - omega))


def _nc_figures(c, p, omega):
    scn = nc.canonical_scenario(c, p)
    return [f for rs in _strategies(omega) for f in nc.nc_figures(scn, rs)]


def _confusabilities(c, p, omega):
    scn = nc.canonical_scenario(c, p)
    return [nc.confusability(getattr(scn, a), getattr(scn, b))
            for a in ("prep1", "prep2") for b in nc._STATES]


def _nc_probs(c, p, omega):
    scn = nc.canonical_scenario(c, p)
    mesd, usd = _strategies(omega)
    return [nc.nc_prob(getattr(scn, s), xi) for s in nc._STATES for xi in (mesd.xi1, usd.xi0)]


def _max_confidences(c, p, omega):
    scn = nc.canonical_scenario(c, p)
    return [x for i in (1, 2) for x in nc.oracle_max_confidence(scn, i)]


def _oracle(oracle):
    """The response set and the value ``oracle`` finds at the scenario (c, p)."""
    def found(c, p, omega):
        rs, value = oracle(nc.canonical_scenario(c, p))
        return [*_responses(rs), value]
    return found


# ---------------------------------------------------------------------------
# eval_bound against eval_column


def _diverges(cell, c, p, omega=None) -> bool:
    """Whether the closed form of ``cell`` may diverge at (c, p): an MCM
    confidence at the pure coincident pair."""
    return (cell.scheme, cell.figure) == ("MCM", "C") and 1.0 - c <= 1e-12 and p <= 1e-12


def _one_variable_columns(points):
    for k, variable in enumerate(("c", "p", "omega")):
        xs = sorted({point[k] for point in points["cpw"]})
        for held in _unique(point[:k] + point[k + 1:] for point in points["held"]):
            fixed = dict(zip([v for v in ("c", "p", "omega") if v != variable], held))
            for cell in CELLS:
                spec = cell.spec(**fixed, **{variable: 0.5})
                _assert_rows([(x,) for x in xs], lambda x: [eval_column(spec, variable, x)],
                             lambda x: [bounds.eval_bound(cell.spec(**fixed, **{variable: x}))],
                             (DivergenceError, lambda x: _diverges(cell, **fixed, **{variable: x})))


def _several_variable_columns(points):
    for cell in CELLS:
        _assert_rows(points["cpw"], lambda *cpw: [eval_column(
            cell.spec(0.5, 0.5, 0.5), ("c", "p", "omega"), cpw)],
                     lambda *cpw: [bounds.eval_bound(cell.spec(*cpw))],
                     (DivergenceError, lambda *cpw: _diverges(cell, *cpw)))


def _rows(name, stacked, scalar=None, raises=None):
    return lambda points: _assert_rows(points[name], stacked, scalar, raises)


# where the average state is singular: within twice NORM of the pure
# coincident or antipodal pair
_SINGULAR = (DegenerateEnsembleError, lambda theta, p: max(math.sin(theta) ** 2, p) <= 2e-12)
_NEVER_FIRES = (UndefinedConfidenceError, lambda c, p, omega: (c, p) == (1.0, 0.0))

_ROWS = {
    "qtheory.helstrom_povm": _rows("theta_p", _helstrom_stack, _helstrom_povm),
    "qtheory.usd_optimal/usd_povm": _rows(  # no unambiguous measurement of one state twice
        "theta", _usd_stack, _usd_povms,
        (UsdImpossibleError, lambda theta: math.sin(0.5 * theta) == 0.0)),
    "qtheory.mcm_optimal/mcm_povm": _rows("theta_p", _mcm_stack, _mcm_povms, _SINGULAR),
    "qtheory.make_pure_pair": _rows("theta", lambda theta: [qt._pure_pairs(theta)], _pure_pair),
    "qtheory.mirror": _rows("vectors", lambda a0, a1: [qt._mirrors(np.stack((a0, a1), -1))],
                            _mirror),
    "ncmodel.canonical_scenario": _rows("cpw", _scenario),
    "ncmodel.mesd_mixed_strategy": _rows(
        "cpw", lambda c, p, omega: _responses(nc.mesd_mixed_strategy(omega))),
    "ncmodel.usd_response": _rows("gammas", lambda g1, g2: _responses(nc.usd_response(g1, g2)),
                                  raises=(InfeasibleWeightsError, lambda g1, g2: g1 + g2 > 1.0)),
    "ncmodel.nc_figures": _rows("cpw", _nc_figures),
    "ncmodel.confusability": _rows("cpw", _confusabilities),
    "ncmodel.nc_prob": _rows("cpw", _nc_probs),
    "ncmodel.oracle_max_pg": _rows("cpw", _oracle(nc.oracle_max_pg)),
    "ncmodel.oracle_max_confidence": _rows("cpw", _max_confidences, raises=_NEVER_FIRES),
    "ncmodel.oracle_min_p0_at_max_confidence": _rows(
        "cpw", _oracle(nc.oracle_min_p0_at_max_confidence), raises=_NEVER_FIRES),
    "bounds.eval_bound/one-variable": _one_variable_columns,
    "bounds.eval_bound/several-variable": _several_variable_columns,
    "bounds.nc_mesd_confidences": _rows(
        "cpw", lambda c, p, omega: list(bounds.nc_mesd_confidences(c, omega))),
    "bounds.omega_star": _rows("cpw", lambda c, p, omega: [bounds.omega_star(c)],
                               raises=(DivergenceError, lambda c, p, omega: c == 1.0)),
    "bounds.nc_mcm_guessing": _rows("cpw", lambda c, p, omega: [bounds.nc_mcm_guessing(c, p)]),
}


@pytest.mark.parametrize("row", _ROWS)
def test_every_scalar_call_is_its_stacks_row(row):
    _ROWS[row](FIXED)


def test_batches_of_one_are_their_one_row_stacks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # theta in [0, pi] and c in [0, 1], each with a share log-spaced towards
    # the coincident pair (1 - c = sin^2 theta down to 1e-14), and p in
    # [0, 1] with a share log-spaced towards the pure states: the corner
    # c -> 1, p -> 0
    theta = st.one_of(st.floats(0.0, math.pi), st.floats(-7.0, -0.5).map(lambda t: 10.0 ** t),
                      st.sampled_from([0.0, math.pi / 2, math.pi]))
    c = st.one_of(st.floats(0.0, 1.0), st.floats(-14.0, -1.0).map(lambda t: 1.0 - 10.0 ** t),
                  st.sampled_from([0.0, 1.0]))
    p = st.one_of(st.floats(0.0, 1.0), st.floats(-13.0, 0.0).map(lambda t: 10.0 ** t),
                  st.sampled_from([0.0, 1.0]))

    @hypothesis.settings(deadline=None, derandomize=True, database=None, max_examples=100)
    @hypothesis.given(theta, c, p, st.floats(0.0, 1.0))
    def every_row_at(theta, c, p, omega):
        points = _point_set([c], [p], [omega], [tuple(v) for v in qt._pure_pairs([theta])[0]])
        points.update(theta_p=[(theta, p)], theta=[(theta,)])
        for row in _ROWS.values():
            row(points)

    every_row_at()
