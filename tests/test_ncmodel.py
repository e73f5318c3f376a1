import itertools
import math

import numpy as np
import pytest

from ctxsd import bounds, ncmodel as nc
from ctxsd.errors import (
    ContractError,
    CtxsdError,
    DivergenceError,
    DomainError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
)


# ---------------------------------------------------------------------------
# canonical scenario


def test_canonical_weights_disjoint_supports_at_zero():
    scn = nc.canonical_scenario(0.0, 0.0)
    assert np.array_equal(scn.prep1.weights, [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(scn.prep2.weights, [0.0, 0.0, 1.0, 0.0])


def test_canonical_weights_identical_at_one():
    scn = nc.canonical_scenario(1.0, 0.0)
    assert np.array_equal(scn.prep1.weights, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(scn.prep2.weights, scn.prep1.weights)


def test_canonical_mixed_state_at_half():
    scn = nc.canonical_scenario(0.5, 0.0)
    assert np.array_equal(scn.mixed.weights, [0.25, 0.25, 0.25, 0.25])
    # the even mixture route gives the same vector component by component
    alt = 0.5 * scn.prep1.weights + 0.5 * scn.mirror1.weights
    assert np.array_equal(scn.mixed.weights, alt)


def test_mirror_equivalence_exact_for_all_c():
    for c in np.linspace(0.0, 1.0, 101):
        scn = nc.canonical_scenario(float(c), 0.0)
        left = 0.5 * scn.prep1.weights + 0.5 * scn.mirror1.weights
        right = 0.5 * scn.prep2.weights + 0.5 * scn.mirror2.weights
        assert np.array_equal(left, right)


def test_noisy_states_mix_toward_mixed():
    scn = nc.canonical_scenario(0.4, 0.3)
    want = 0.7 * scn.prep1.weights + 0.3 * scn.mixed.weights
    assert np.array_equal(scn.noisy1.weights, want)


# ---------------------------------------------------------------------------
# probabilities and confusability


def test_nc_prob_unit_and_zero_responses():
    scn = nc.canonical_scenario(0.37, 0.0)
    assert nc.nc_prob(scn.prep1, np.ones(4)) == pytest.approx(1.0, abs=1e-15)
    assert nc.nc_prob(scn.prep1, np.zeros(4)) == 0.0


def test_nc_prob_support_indicator_gives_confusability():
    for c in (0.2, 0.5, 0.9):
        scn = nc.canonical_scenario(c, 0.0)
        indicator = scn.prep1.support.astype(float)
        assert nc.nc_prob(scn.prep2, indicator) == pytest.approx(c, abs=1e-15)


def test_confusability_examples():
    for c in np.linspace(0.0, 1.0, 101):
        scn = nc.canonical_scenario(float(c), 0.0)
        assert nc.confusability(scn.prep1, scn.prep2) == pytest.approx(c, abs=1e-15)
        assert nc.confusability(scn.prep2, scn.prep1) == pytest.approx(c, abs=1e-15)
        assert nc.confusability(scn.prep1, scn.mirror1) == 0.0
    scn = nc.canonical_scenario(0.3, 0.0)
    assert nc.confusability(scn.prep1, scn.mirror2) == pytest.approx(0.7, abs=1e-15)


# ---------------------------------------------------------------------------
# strategies


def test_mesd_strategy_structure():
    rs = nc.mesd_mixed_strategy(1.0)
    assert np.array_equal(rs.xi1, [1.0, 1.0, 0.0, 0.0])  # indicator of supp prep1
    rs = nc.mesd_mixed_strategy(0.0)
    assert np.array_equal(rs.xi2, [1.0, 0.0, 1.0, 0.0])  # indicator of supp prep2
    rs = nc.mesd_mixed_strategy(0.5)
    assert np.array_equal(rs.xi1, [0.5, 1.0, 0.0, 0.5])
    assert np.array_equal(rs.xi0, np.zeros(4))


def test_usd_response_structure_and_feasibility():
    rs = nc.usd_response(0.5, 0.5)
    assert np.array_equal(rs.xi0, [1.0, 0.5, 0.5, 0.0])
    rs = nc.usd_response(1.0, 0.0)
    assert np.array_equal(rs.xi1, [0.0, 1.0, 0.0, 1.0])
    with pytest.raises(InfeasibleWeightsError):
        nc.usd_response(0.6, 0.6)
    with pytest.raises(DomainError):
        nc.usd_response(-0.1, 0.5)


# ---------------------------------------------------------------------------
# figures of merit


def test_nc_figures_usd_noisy_inconclusive_rate():
    c, p = 0.4, 0.6
    scn = nc.canonical_scenario(c, p)
    figs = nc.nc_figures(scn, nc.usd_response(0.5, 0.5))
    assert figs.p_0 == pytest.approx(0.5 * (1.0 + (1.0 - p) * c), abs=1e-12)


def test_nc_figures_flags_dead_outcome_as_none():
    scn = nc.canonical_scenario(0.5, 0.0)
    figs = nc.nc_figures(scn, nc.usd_response(0.5, 0.0))
    assert figs.c1 == pytest.approx(1.0, abs=1e-12)
    assert figs.c2 is None


def test_nc_mesd_confidences_examples():
    c = 0.6
    assert bounds.nc_mesd_confidences(c, 0.5) == pytest.approx(
        (1.0 - 0.5 * c, 1.0 - 0.5 * c), abs=1e-15
    )
    c1, c2 = bounds.nc_mesd_confidences(c, 0.0)
    assert c1 == pytest.approx(1.0, abs=1e-15)
    assert c2 == pytest.approx(1.0 / (1.0 + c), abs=1e-15)
    assert bounds.nc_mesd_confidences(1.0, 0.0) == (0.5, 0.5)


def test_nc_mesd_confidence_at_threshold_equals_helstrom():
    c1, _ = bounds.nc_mesd_confidences(0.5, bounds.omega_star(0.5))
    assert c1 == pytest.approx(0.8535533905932738, abs=1e-12)


# ---------------------------------------------------------------------------
# omega*


def test_omega_star_value_and_limit():
    assert bounds.omega_star(0.5) == pytest.approx(0.2071067811865475, abs=1e-12)
    assert bounds.omega_star(1e-6) == pytest.approx(0.25, abs=1e-4)
    assert bounds.omega_star(0.0) == 0.25


def test_omega_star_matches_textbook_form():
    for c in np.linspace(0.01, 0.99, 50):
        s = math.sqrt(1.0 - c)
        textbook = (1.0 - c) * (1.0 - s) / (2.0 * c * s)
        assert bounds.omega_star(float(c)) == pytest.approx(textbook, abs=1e-12)


def test_omega_star_bounded_and_divergent_at_one():
    for c in np.linspace(0.01, 0.99, 25):
        assert 0.0 < bounds.omega_star(float(c)) <= 0.25
    with pytest.raises(DivergenceError):
        bounds.omega_star(1.0)


def test_omega_star_of_an_array_equals_its_scalar_calls():
    cs = np.linspace(0.0, 1.0 - 1e-9, 101)
    scalar = [bounds.omega_star(float(c)) for c in cs]
    assert all(type(w) is float for w in scalar)
    # the closed form in Python floats
    assert scalar == [math.sqrt(1.0 - c) / (2.0 * (1.0 + math.sqrt(1.0 - c))) for c in cs.tolist()]
    for shape in ((101,), (101, 1)):
        got = bounds.omega_star(cs.reshape(shape))
        assert got.shape == shape and got.tobytes() == np.array(scalar).tobytes()
    with pytest.raises(DivergenceError):
        bounds.omega_star(np.array([0.5, 1.0]))
    for bad in (np.array([0.5, 1.5]), np.array([-0.1, 0.5]), np.array([math.nan]), -0.1):
        with pytest.raises(DomainError):
            bounds.omega_star(bad)


def test_omega_star_by_bisection_against_helstrom():
    for c in (0.2, 0.5, 0.8):
        helstrom = 0.5 * (1.0 + math.sqrt(1.0 - c))
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bounds.nc_mesd_confidences(c, mid)[0] > helstrom:
                lo = mid
            else:
                hi = mid
        assert bounds.omega_star(c) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("c,expected", [(0.0, 1.0), (0.5, 0.75), (1.0, 0.5)])
def test_oracle_max_pg_examples(c, expected):
    scn = nc.canonical_scenario(c, 0.0)
    rs, value = nc.oracle_max_pg(scn)
    assert value == pytest.approx(expected, abs=1e-12)
    # the witness response set actually achieves the value
    figs = nc.nc_figures(scn, rs)
    assert figs.p_g == pytest.approx(value, abs=1e-15)


def test_oracle_max_pg_matches_explicit_enumeration_noisy():
    # independent per-region maximisation over the pure pair, as MESD P_g has
    # no p: a noisy scenario's value is its pure pair's
    c, p = 0.3, 0.6
    scn = nc.canonical_scenario(c, p)
    _, value = nc.oracle_max_pg(scn)
    s1, s2 = scn.prep1.weights, scn.prep2.weights
    expected = 0.5 * sum(max(s1[r], s2[r], 0.0) for r in range(4))
    assert value == pytest.approx(expected, abs=1e-15)


def test_oracle_max_confidence_pure_case_is_certain():
    scn = nc.canonical_scenario(0.5, 0.0)
    vec, value = nc.oracle_max_confidence(scn, 1)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(vec, [0.0, 1.0, 0.0, 1.0])  # supported on supp mirror2


def test_oracle_max_confidence_full_noise_is_half():
    scn = nc.canonical_scenario(0.5, 1.0)
    for outcome in (1, 2):
        _, value = nc.oracle_max_confidence(scn, outcome)
        assert value == pytest.approx(0.5, abs=1e-15)


def test_oracle_min_p0_examples():
    scn = nc.canonical_scenario(0.5, 0.75)
    rs, p_0 = nc.oracle_min_p0_at_max_confidence(scn)
    assert p_0 == pytest.approx(0.5625, abs=1e-12)
    # witness uses the full conclusive budget
    assert rs.xi0[3] == pytest.approx(0.0, abs=1e-12)
    assert (rs.xi1[3], rs.xi2[3]) == (0.5, 0.5)  # symmetric witness gamma1 = gamma2

    scn = nc.canonical_scenario(0.3, 0.0)
    _, p_0 = nc.oracle_min_p0_at_max_confidence(scn)
    assert p_0 == pytest.approx(0.5 * (1.0 + 0.3), abs=1e-9)

    scn = nc.canonical_scenario(0.0, 0.4)
    _, p_0 = nc.oracle_min_p0_at_max_confidence(scn)
    assert p_0 == pytest.approx(0.5, abs=1e-9)  # mass stays on the shared mirror region


# (c, p) -> the oracles' (max P_g, max C outcome 1, max C outcome 2, min P_0
# at max C) as float.hex, or the typed error each raises, at the edge points
# of test_bounds._corner_points: the oracle column of the edge table. Only
# the pure coincident pair (1, 0) raises; the closed-form and construction
# columns raise at more of these points (ROADMAP item 4).
_UNDEFINED = UndefinedConfidenceError.__name__
_ORACLE_EDGES = {
    (0.0, 0.0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                 "0x1.0000000000000p+0", "0x1.0000000000000p-1"),
    (0.0, 1.0): ("0x1.0000000000000p+0", "0x1.0000000000000p-1",
                 "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    (1.0, 0.0): ("0x1.0000000000000p-1", _UNDEFINED, _UNDEFINED, _UNDEFINED),
    (1.0, 1.0): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                 "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    (1.0, 1e-300): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                    "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
    (1.0, 1e-15): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                   "0x1.0000000000000p-1", "0x1.ffffffffffffcp-1"),
    (1.0, 1e-12): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                   "0x1.0000000000000p-1", "0x1.fffffffffee69p-1"),
    (1.0, 2.5e-12): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                     "0x1.0000000000000p-1", "0x1.fffffffffd405p-1"),
    (1.0, 1e-8): ("0x1.0000000000000p-1", "0x1.0000000000000p-1",
                  "0x1.0000000000000p-1", "0x1.ffffffd50ce23p-1"),
    (1.0 - 1e-15, 0.0): ("0x1.0000000000004p-1", "0x1.0000000000000p+0",
                         "0x1.0000000000000p+0", "0x1.ffffffffffffbp-1"),
    (1.0 - 1e-13, 0.0): ("0x1.00000000001c2p-1", "0x1.0000000000000p+0",
                         "0x1.0000000000000p+0", "0x1.ffffffffffe3dp-1"),
}


def _pinned_oracle(oracle, *args):
    try:
        return float(oracle(*args)[1]).hex()
    except CtxsdError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("c, p", list(_ORACLE_EDGES))
def test_oracles_at_the_edge_points(c, p):
    scn = nc.canonical_scenario(c, p)
    got = (_pinned_oracle(nc.oracle_max_pg, scn), _pinned_oracle(nc.oracle_max_confidence, scn, 1),
           _pinned_oracle(nc.oracle_max_confidence, scn, 2),
           _pinned_oracle(nc.oracle_min_p0_at_max_confidence, scn))
    assert got == _ORACLE_EDGES[c, p]


# ---------------------------------------------------------------------------
# hand integrals and the guessing closed form


def test_hand_integral_reproduction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = float(rng.uniform(0.0, 1.0))
        g1 = float(rng.uniform(0.0, 1.0))
        g2 = float(rng.uniform(0.0, 1.0 - g1))
        scn = nc.canonical_scenario(c, 0.0)
        rs = nc.usd_response(g1, g2)
        assert nc.nc_prob(scn.prep1, rs.xi0) == pytest.approx(
            1.0 - g1 + g1 * c, abs=1e-12
        )
        assert nc.nc_prob(scn.mixed, rs.xi0) == pytest.approx(
            1.0 - 0.5 * (g1 + g2), abs=1e-12
        )
        assert nc.confusability(scn.prep1, scn.mirror2) == pytest.approx(
            1.0 - c, abs=1e-12
        )


def test_nc_mcm_guessing_examples():
    assert bounds.nc_mcm_guessing(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
    for p in (0.0, 0.3, 1.0):
        assert bounds.nc_mcm_guessing(0.0, p) == pytest.approx(
            0.5 * (1.0 - 0.5 * p), abs=1e-15
        )
    assert bounds.nc_mcm_guessing(0.4, 0.0) == pytest.approx(0.3, abs=1e-15)  # (1-c)/2


def test_region_enum_is_the_documented_order():
    assert [r.name for r in nc.Region] == ["S12", "S1m2", "Sm12", "Sm1m2"]
    assert list(nc.Region) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# stacks: every op broadcasts, and a stack equals its points bit for bit

_EDGE = [1e-16, 0.5 - 1e-16, float(np.nextafter(1.0, 0.0))]
_AXIS = np.union1d(np.linspace(0.0, 1.0, 21), _EDGE)  # c = 1 and p = 1 give the ties


def _same(stacked, point):
    """``==`` of a stacked entry and a scalar result; NaN in a stack stands
    for None (an outcome that never fires)."""
    if point is None:
        return bool(np.isnan(stacked))
    return bool(np.all(stacked == point))


def _grid_scenario():
    c, p = np.meshgrid(_AXIS, _AXIS, indexing="ij")
    return c, p, nc.canonical_scenario(c, p)


def test_stacked_scenario_and_responses_equal_their_points():
    c, p, stack = _grid_scenario()
    omega = _AXIS
    strategies = nc.mesd_mixed_strategy(omega)
    g1 = omega[::-1] * 0.5
    responses = nc.usd_response(g1, omega * 0.5)
    for k in np.ndindex(c.shape):
        point = nc.canonical_scenario(float(c[k]), float(p[k]))
        assert isinstance(point.c, float) and stack[k].c == point.c
        for name in ("prep1", "prep2", "mirror1", "mirror2", "mixed", "noisy1", "noisy2"):
            assert _same(getattr(stack, name).weights[k], getattr(point, name).weights)
        for a, b in (("prep1", "prep2"), ("prep1", "mirror1"), ("prep1", "mirror2")):
            got = nc.confusability(getattr(stack, a), getattr(stack, b))[k]
            assert _same(got, nc.confusability(getattr(point, a), getattr(point, b)))
        xi = responses.xi0[k[1]]
        assert _same(nc.nc_prob(stack.mixed, responses.xi0[None, :])[k],
                     nc.nc_prob(point.mixed, xi))
    for j, w in enumerate(omega):
        scalar = nc.mesd_mixed_strategy(float(w))
        assert _same(strategies.xi1[j], scalar.xi1) and _same(strategies.xi2[j], scalar.xi2)
        scalar = nc.usd_response(float(g1[j]), float(omega[j] * 0.5))
        assert _same(responses.xi0[j], scalar.xi0)


def test_stacked_figures_equal_their_points():
    c, p, stack = _grid_scenario()
    omega = np.array([0.0, 0.3, 0.5, 1.0])
    g1, g2 = np.array([0.0, 0.5, 1.0, 0.2]), np.array([0.0, 0.5, 0.0, 0.3])
    cases = [(nc.mesd_mixed_strategy(omega), [nc.mesd_mixed_strategy(float(w)) for w in omega]),
             (nc.usd_response(g1, g2), [nc.usd_response(float(a), float(b)) for a, b in zip(g1, g2)])]
    points = {k: nc.canonical_scenario(float(c[k]), float(p[k])) for k in np.ndindex(c.shape)}
    for responses, each in cases:
        figs = nc.nc_figures(stack[:, :, None], responses)  # (c, p, response)
        for k in np.ndindex(figs.p_g.shape):
            want = nc.nc_figures(points[k[:2]], each[k[2]])
            for got, expected in zip(figs, want):
                assert _same(got[k], expected), (k, got[k], expected)


def test_stacked_closed_forms_equal_their_points():
    c, w = np.meshgrid(_AXIS, _AXIS, indexing="ij")
    c1, c2 = bounds.nc_mesd_confidences(c, w)
    guess = bounds.nc_mcm_guessing(c, w)
    for k in np.ndindex(c.shape):
        assert (c1[k], c2[k]) == bounds.nc_mesd_confidences(float(c[k]), float(w[k]))
        assert guess[k] == bounds.nc_mcm_guessing(float(c[k]), float(w[k]))


def test_stacked_oracles_equal_their_points():
    c, p, stack = _grid_scenario()
    regular = ~((c == 1.0) & (p == 0.0))  # both outcomes fire
    nc_stack = stack[regular]
    witness, value = nc.oracle_max_pg(stack)
    conf = {i: nc.oracle_max_confidence(nc_stack, i) for i in (1, 2)}
    rs, p_0 = nc.oracle_min_p0_at_max_confidence(nc_stack)
    for row, k in enumerate(zip(*np.nonzero(regular))):
        point = nc.canonical_scenario(float(c[k]), float(p[k]))
        one_rs, one = nc.oracle_max_pg(point)
        assert isinstance(one, float) and value[k] == one
        assert _same(witness.xi1[k], one_rs.xi1) and _same(witness.xi2[k], one_rs.xi2)
        for i, (pattern, confidence) in conf.items():
            one_pattern, one = nc.oracle_max_confidence(point, i)
            assert confidence[row] == one and _same(pattern[row], one_pattern)
        one_rs, one = nc.oracle_min_p0_at_max_confidence(point)
        assert p_0[row] == one
        assert _same(rs.xi1[row], one_rs.xi1) and _same(rs.xi2[row], one_rs.xi2)


def _loop_max_pg(s1, s2):
    """Reference: the 81 vertices in product order, the first of equal maxima."""
    best, best_assign = -1.0, None
    for assign in itertools.product(((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)), repeat=4):
        p_g = 0.5 * sum(s1[r] * a[0] + s2[r] * a[1] for r, a in enumerate(assign))
        if p_g > best:
            best, best_assign = p_g, assign
    return best, [a[0] for a in best_assign], [a[1] for a in best_assign]


def _loop_min_p0(mass1, mass2):
    """Reference: the four face candidates in order, preferring the symmetric
    point among rates within 1e-15."""
    best_p0, best_pair = math.inf, (0.0, 0.0)
    for g1, g2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
        p_0 = 1.0 - g1 * mass1 - g2 * mass2
        tie = abs(p_0 - best_p0) <= 1e-15 and min(g1, g2) > min(*best_pair)
        if p_0 < best_p0 - 1e-15 or tie:
            best_p0, best_pair = p_0, (g1, g2)
    return best_pair


def test_stacked_oracles_equal_the_scalar_loops():
    c, p, stack = _grid_scenario()
    witness, value = nc.oracle_max_pg(stack)
    regular = ~((c == 1.0) & (p == 0.0))
    rs, _ = nc.oracle_min_p0_at_max_confidence(stack[regular])
    for row, k in enumerate(zip(*np.nonzero(regular))):
        best, xi1, xi2 = _loop_max_pg(stack.prep1.weights[k].tolist(),
                                      stack.prep2.weights[k].tolist())
        assert value[k] == best
        assert witness.xi1[k].tolist() == xi1 and witness.xi2[k].tolist() == xi2
        avg = 0.5 * (stack.noisy1.weights[k] + stack.noisy2.weights[k])
        g1, g2 = _loop_min_p0(float(avg[1] + avg[3]), float(avg[2] + avg[3]))
        assert (rs.xi1[row, 3], rs.xi2[row, 3]) == (g1, g2)


def test_min_p0_prefers_the_symmetric_point_in_stacks():
    # at p = 1 both noisy states are the even mixture: (1, 0), (0, 1) and the
    # symmetric point tie, and the symmetric point wins at every c
    cs = np.linspace(0.0, 1.0, 21)
    rs, p_0 = nc.oracle_min_p0_at_max_confidence(nc.canonical_scenario(cs, np.ones_like(cs)))
    assert (rs.xi1[:, 3] == 0.5).all() and (rs.xi2[:, 3] == 0.5).all()
    assert (p_0 == 0.5 * (1.0 + 0.0 * cs)).all()


def test_stacked_errors_name_their_first_point(monkeypatch):
    c = np.array([0.5, 1.0, 1.0])
    stack = nc.canonical_scenario(c, np.array([0.0, 0.0, 0.5]))
    with pytest.raises(UndefinedConfidenceError, match=r"outcome 2 never fires at c=1\.0, p=0\.0"):
        nc.oracle_max_confidence(stack, 2)
    monkeypatch.setattr(nc, "_CONFIDENCE_FACE", -1.0)  # every point is off the face
    with pytest.raises(ContractError, match=r"maximal-confidence face at c=0\.25, p=0\.5"):
        nc.oracle_min_p0_at_max_confidence(nc.canonical_scenario(np.array([0.25, 0.75]),
                                                                 np.array([0.5, 0.5])))
    with pytest.raises(ContractError, match="equal shapes"):
        nc.canonical_scenario(np.array([0.5, 0.5]), 0.0)
