import math
import warnings

import numpy as np
import pytest

from ctxsd import qtheory as qt
from ctxsd.bounds import QUANTUM, BoundSpec, eval_bound
from ctxsd.config import DEFAULTS, NORM
from ctxsd.errors import (
    ContractError,
    DegenerateEnsembleError,
    DomainError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
    UsdImpossibleError,
)

SQRT_HALF = math.sqrt(0.5)


def theta_of(c: float) -> float:
    return math.acos(math.sqrt(c))


def pure_ensemble(c: float) -> qt.Ensemble:
    return qt.noisy_ensemble(theta_of(c), 0.0)


def projector(s: qt.PureState) -> np.ndarray:
    v = np.array([s.amp0, s.amp1])
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# states and ensembles


def test_pure_pair_orthogonal_at_right_angle():
    a, b = qt.make_pure_pair(math.pi / 2)
    assert abs(np.vdot((a.amp0, a.amp1), (b.amp0, b.amp1))) < 1e-15
    # equal superpositions with opposite signs
    assert np.allclose(np.abs((a.amp0, a.amp1)), [SQRT_HALF, SQRT_HALF])
    assert np.allclose(np.abs((b.amp0, b.amp1)), [SQRT_HALF, SQRT_HALF])


def test_pure_pair_identical_at_zero():
    a, b = qt.make_pure_pair(0.0)
    assert np.vdot((a.amp0, a.amp1), (b.amp0, b.amp1)) == pytest.approx(1.0, abs=1e-15)


def test_pure_pair_overlap_sq_at_pi_third():
    a, b = qt.make_pure_pair(math.pi / 3)
    # explicit inner product of the amplitude vectors
    inner = (a.amp0.conjugate() * b.amp0 + a.amp1.conjugate() * b.amp1).real
    assert abs(inner) ** 2 == pytest.approx(0.25, abs=1e-14)
    assert inner == pytest.approx(math.cos(math.pi / 3), abs=1e-14)


def test_mirror_computational_basis():
    m = qt.mirror(qt.PureState(1.0, 0.0))
    assert np.allclose((m.amp0, m.amp1), [0.0, 1.0])


def test_mirror_hadamard_basis():
    plus = qt.PureState(SQRT_HALF, SQRT_HALF)
    m = qt.mirror(plus)
    assert np.allclose((m.amp0, m.amp1), [SQRT_HALF, -SQRT_HALF])


def test_mirror_involution_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(100):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        psi = qt.PureState(complex(raw[0]), complex(raw[1]))
        once = qt.mirror(psi)
        twice = qt.mirror(once)
        assert abs(np.vdot(raw, (once.amp0, once.amp1))) < 1e-12
        assert abs(abs(np.vdot(raw, (twice.amp0, twice.amp1))) - 1.0) < 1e-12


def test_mirror_is_a_row_of_the_stacked_mirrors():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    v[::7, 1] *= 1e-13  # mirrors whose first amplitude is below the phase threshold
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    rows = qt._mirrors(v)
    for vec, row in zip(v.tolist(), rows.tolist()):
        m = qt.mirror(qt.PureState(*vec))
        assert (m.amp0, m.amp1) == tuple(row)
        lead = row[0] if abs(row[0]) > 1e-12 else row[1]
        assert abs(lead.imag) <= 1e-15 and lead.real > 0.0  # real to rounding
    # a real state's mirror is exact: the phase is +-1
    m = qt.mirror(qt.PureState(0.6, 0.8))
    assert (m.amp0, m.amp1) == (0.8, -0.6)


def test_noisy_ensemble_pure_case_rank_one():
    ens = qt.noisy_ensemble(math.pi / 3, 0.0)
    for op in ens.states:
        w = np.linalg.eigvalsh(op)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0, abs=1e-12)


def test_noisy_ensemble_full_dephasing():
    ens = qt.noisy_ensemble(math.pi / 3, 1.0)
    for op in ens.states:
        assert np.allclose(op, 0.5 * np.eye(2))


def test_noisy_ensemble_half_noise_eigenvalues():
    ens = qt.noisy_ensemble(math.pi / 2, 0.5)
    for op in ens.states:
        assert np.allclose(np.linalg.eigvalsh(op), [0.25, 0.75], atol=1e-12)


def test_ensemble_from_complex_pair():
    # a pair make_pure_pair cannot produce: complex amplitudes, no symmetry
    v1 = np.array([0.6, 0.8j])
    v2 = np.array([0.8, -0.6 * np.exp(1j * math.pi / 3)])
    pair = (qt.PureState(*v1), qt.PureState(*v2))
    inner = abs(np.vdot(v1, v2))
    ens = qt.Ensemble(pair, 0.0)
    m, rate = qt.usd_optimal(ens)
    assert rate == pytest.approx(inner, abs=1e-12)
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(1.0, abs=1e-10)
    p_g = qt.guessing_probability(ens, qt.helstrom_povm(ens))
    assert p_g == pytest.approx(0.5 * (1.0 + math.sqrt(1.0 - inner**2)), abs=1e-12)
    with pytest.raises(DomainError):
        qt.Ensemble(pair, 1.5)
    with pytest.raises(ContractError):
        qt.Ensemble(pair[:1], 0.0)


def test_ensemble_and_povm_arrays_are_frozen():
    ens = qt.noisy_ensemble(math.pi / 3, 0.2)
    twin = qt.noisy_ensemble(math.pi / 3, 0.2)
    assert ens == twin and hash(ens) == hash(twin)  # equality reads (pair, noise)
    source = np.array([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
    m = qt.Povm(source)
    source[0] = 0.0
    assert np.array_equal(m.conclusive(1), np.eye(2))  # the POVM holds its own copy
    stacks = (qt.helstrom_stack([1.0]), qt.usd_stack([1.0]), qt.mcm_stack([1.0], [0.2]))
    frozen = [ens.vectors, ens.states, ens.average, m.elements,
              qt.mcm_optimal(math.pi / 3, 0.2)[0].elements]
    frozen += [getattr(s, name) for s in stacks
               for name in ("states", "average", "weights", "elements")]
    for arr in frozen:
        assert not arr.flags.writeable
    assert np.array_equal(ens.vectors, [(s.amp0, s.amp1) for s in ens.pair])


def test_min_eig_closed_form_matches_lapack():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = g + g.conj().T
        assert qt.min_eig_2x2(h) == pytest.approx(
            float(np.linalg.eigvalsh(h)[0]), abs=1e-12
        )


# ---------------------------------------------------------------------------
# figures of merit


def test_guessing_orthogonal_projective_is_certain():
    ens = pure_ensemble(0.0)
    m = qt.helstrom_povm(ens)
    assert qt.guessing_probability(ens, m) == pytest.approx(1.0, abs=1e-12)


ONE = np.eye(2)
HALF = 0.5 * np.eye(2)
ZERO = np.zeros((2, 2))


def test_guessing_trivial_povm_returns_prior():
    ens = pure_ensemble(0.3)
    trivial = qt.Povm((ONE, ZERO, ZERO))
    assert qt.guessing_probability(ens, trivial) == pytest.approx(0.5, abs=1e-12)


def test_inconclusive_rate_zero_without_null_element():
    ens = pure_ensemble(0.4)
    assert qt.inconclusive_rate(ens, qt.helstrom_povm(ens)) == 0.0


def test_inconclusive_rate_one_for_never_conclude():
    ens = pure_ensemble(0.4)
    never = qt.Povm((ZERO, ZERO, ONE))
    assert qt.inconclusive_rate(ens, never) == pytest.approx(1.0, abs=1e-12)


def test_confidence_orthogonal_projective_is_one():
    ens = pure_ensemble(0.0)
    m = qt.helstrom_povm(ens)
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(1.0, abs=1e-12)


def test_confidence_uninformative_element_returns_prior():
    ens = pure_ensemble(0.5)
    m = qt.Povm((HALF, HALF, ZERO))
    assert qt.confidence(ens, m, 1) == pytest.approx(0.5, abs=1e-12)


def test_confidence_zero_probability_is_distinct_error():
    ens = pure_ensemble(0.5)
    m = qt.Povm((ONE, ZERO, ZERO))
    with pytest.raises(UndefinedConfidenceError):
        qt.confidence(ens, m, 2)
    assert not issubclass(UndefinedConfidenceError, DomainError)


# ---------------------------------------------------------------------------
# minimum-error measurement


def helstrom_value_by_trace_norm(ens: qt.Ensemble) -> float:
    """Independent route: 1/2 (1 + ||q1 rho1 - q2 rho2||_1) via LAPACK."""
    x = ens.priors[0] * ens.states[0] - ens.priors[1] * ens.states[1]
    return 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(x)))))


@pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9])
def test_helstrom_matches_closed_form_and_trace_norm(c):
    ens = pure_ensemble(c)
    p_g = qt.guessing_probability(ens, qt.helstrom_povm(ens))
    assert p_g == pytest.approx(0.5 * (1.0 + math.sqrt(1.0 - c)), abs=1e-10)
    assert p_g == pytest.approx(helstrom_value_by_trace_norm(ens), abs=1e-12)


def test_helstrom_degenerate_tie_break():
    ens = pure_ensemble(1.0)
    m = qt.helstrom_povm(ens)
    assert np.allclose(m.conclusive(1), np.diag([1.0, 0.0]))
    assert np.allclose(m.conclusive(2), np.diag([0.0, 1.0]))
    assert np.array_equal(m.inconclusive(), ZERO)
    assert qt.guessing_probability(ens, m) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_works_on_noisy_states():
    ens = qt.noisy_ensemble(theta_of(0.5), 0.3)
    p_g = qt.guessing_probability(ens, qt.helstrom_povm(ens))
    assert p_g == pytest.approx(helstrom_value_by_trace_norm(ens), abs=1e-12)


# ---------------------------------------------------------------------------
# unambiguous discrimination


def test_usd_zero_weights_never_conclude():
    ens = pure_ensemble(0.5)
    m = qt.usd_povm(ens, 0.0, 0.0)
    assert qt.inconclusive_rate(ens, m) == pytest.approx(1.0, abs=1e-12)


def test_usd_orthogonal_projective_limit():
    ens = pure_ensemble(0.0)
    m = qt.usd_povm(ens, 1.0, 1.0)
    assert qt.inconclusive_rate(ens, m) == pytest.approx(0.0, abs=1e-12)


def test_usd_conclusive_outcomes_are_certain():
    ens = pure_ensemble(0.5)
    g_max = 1.0 / (1.0 + SQRT_HALF)
    for frac in (0.3, 0.7, 1.0):
        m = qt.usd_povm(ens, frac * g_max, 0.5 * frac * g_max)
        for i in (1, 2):
            assert qt.confidence(ens, m, i) == pytest.approx(1.0, abs=1e-10)


def max_symmetric_weight_by_grid(ens: qt.Ensemble, steps: int = 200_000) -> float:
    """Brute-force oracle: largest gamma on a fine grid keeping pi_0 PSD."""
    psi1, psi2 = (qt.mirror(s) for s in _pure_pair(ens))
    s = projector(psi1) + projector(psi2)
    best = 0.0
    for k in range(steps + 1):
        g = k / steps
        if float(np.linalg.eigvalsh(np.eye(2) - g * s)[0]) >= -1e-12:
            best = g
        else:
            break
    return best


def _pure_pair(ens: qt.Ensemble):
    # recover the pure states from the rank-one density operators
    out = []
    for op in ens.states:
        w, v = np.linalg.eigh(op)
        out.append(qt.PureState(complex(v[0, 1]), complex(v[1, 1])))
    return out


@pytest.mark.parametrize(
    "c,expected",
    [(0.0, 0.0), (0.25, 0.5), (0.5, SQRT_HALF)],
)
def test_usd_optimal_rate(c, expected):
    ens = pure_ensemble(c)
    m, rate = qt.usd_optimal(ens)
    assert rate == pytest.approx(expected, abs=1e-9)
    assert rate == pytest.approx(qt.inconclusive_rate(ens, m), abs=1e-15)


def test_usd_optimal_weight_agrees_with_grid_oracle():
    ens = pure_ensemble(0.5)
    m, _ = qt.usd_optimal(ens)
    achieved = np.trace(m.conclusive(1)).real  # element is gamma * projector
    assert achieved == pytest.approx(max_symmetric_weight_by_grid(ens), abs=1e-5)


@pytest.mark.parametrize("c", [1.0 - 1e-13, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0))])
def test_usd_optimal_exists_for_every_distinct_pair(c):
    # only the coincident pair (c = 1) raises; next to it the construction
    # still matches the closed forms, and its conclusive outcomes are certain
    ens = pure_ensemble(c)
    m, rate = qt.usd_optimal(ens)
    closed = {fig: eval_bound(BoundSpec("USD", fig, QUANTUM, c)) for fig in ("P_0", "P_g")}
    assert abs(rate - closed["P_0"]) <= DEFAULTS.closed_form
    assert abs(qt.guessing_probability(ens, m) - closed["P_g"]) <= DEFAULTS.closed_form
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(1.0, abs=DEFAULTS.exact)


# ---------------------------------------------------------------------------
# maximum-confidence measurement


def mcq(c: float, p: float) -> float:
    return 0.5 * (
        1.0 + (1.0 - p) * math.sqrt(1.0 - c) / math.sqrt(1.0 - (1.0 - p) ** 2 * c)
    )


def test_mcm_pure_case_reduces_to_usd_directions():
    c = 0.5
    ens = pure_ensemble(c)
    m = qt.mcm_povm(ens, 0.2)
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(1.0, abs=1e-10)
    # conclusive element 1 is proportional to the projector onto mirror(psi2)
    psi1, psi2 = _pure_pair(ens)
    target = projector(qt.mirror(psi2))
    elem = m.conclusive(1)
    assert np.allclose(elem, 0.2 * target, atol=1e-10)


def test_mcm_full_noise_confidence_half():
    ens = qt.noisy_ensemble(theta_of(0.5), 1.0)
    m = qt.mcm_povm(ens, 0.5)
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(0.5, abs=1e-12)


def test_mcm_confidence_matches_closed_form():
    c, p = 0.5, 0.75
    ens = qt.noisy_ensemble(theta_of(c), p)
    m = qt.mcm_povm(ens, 0.4)
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(mcq(c, p), abs=1e-9)
    assert mcq(c, p) == pytest.approx(0.5898027, abs=5e-8)


def test_mcm_confidence_alpha_invariant():
    c, p = 0.3, 0.6
    ens = qt.noisy_ensemble(theta_of(c), p)
    values = [
        qt.confidence(ens, qt.mcm_povm(ens, a), 1)
        for a in (0.1, 0.3, 0.5, 0.7)
    ]
    assert max(values) - min(values) < 1e-9


def test_mcm_singularity_test_does_not_cancel_at_its_threshold():
    # at c = 1 the average state's smallest eigenvalue is p/2: 1.000001e-12,
    # just above NORM, is regular and 1e-12 is singular, where
    # centre - radius of the eigenvalues cancels to either side
    p = 2.000002e-12
    m, rate = qt.mcm_optimal(theta_of(1.0), p)
    ens = qt.noisy_ensemble(theta_of(1.0), p)
    assert abs(rate - (1.0 - p)) <= 4 * _EPS
    assert [qt.confidence(ens, m, i) for i in (1, 2)] == [0.5, 0.5]
    with pytest.raises(DegenerateEnsembleError):
        qt.mcm_optimal(theta_of(1.0), 2e-12)


def test_mcm_optimal_rate_formula_on_grid():
    for c in np.linspace(0.0, 1.0, 9):
        for p in np.linspace(0.1, 1.0, 7):
            _, rate = qt.mcm_optimal(theta_of(float(c)), float(p))
            assert rate == pytest.approx((1.0 - p) * math.sqrt(c), abs=1e-9)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_mcm_optimal_rate_near_full_noise(c):
    # as p -> 1 the states approach 1/2; the rate (1-p)sqrt(c) must keep its
    # absolute accuracy instead of the directions losing it to cancellation
    for k in range(4, 13):
        p = 1.0 - 10.0**-k
        _, rate = qt.mcm_optimal(theta_of(c), p)
        assert abs(rate - (1.0 - p) * math.sqrt(c)) <= 1e-14, (c, p)


def test_mcm_optimal_rate_is_exactly_zero_for_coincident_states_at_full_noise():
    # at (c, p) = (1, 1) the average state is I/2, so the fallback directions
    # are -x and +x exactly, their sum is 0, the weight is 1 and pi_0 = 0: no
    # rounding residue of either sign is left in the rate
    stack = qt.mcm_stack([theta_of(1.0)], [1.0])
    assert not stack.elements[0, 0, 2].any()
    assert stack.inconclusive_rate()[0, 0] == 0.0
    assert qt.mcm_optimal(theta_of(1.0), 1.0)[1] == 0.0


def test_optimal_weights_leave_inconclusive_element_on_the_boundary():
    # the optimal weight is the largest feasible one, so pi_0 is singular
    grid = [float(x) for x in np.linspace(0.0, 1.0, 41)]
    for c in grid:
        for p in grid:
            if c == 1.0 and p == 0.0:
                continue  # coincident pure pair: no MCM directions
            m, _ = qt.mcm_optimal(theta_of(c), p)
            assert abs(qt.min_eig_2x2(m.inconclusive())) <= 1e-14, (c, p)
        if c < 1.0:
            m, _ = qt.usd_optimal(pure_ensemble(c))
            assert abs(qt.min_eig_2x2(m.inconclusive())) <= 1e-14, c


# ---------------------------------------------------------------------------
# the stacked maximum-confidence construction

_GRID21 = [float(x) for x in np.linspace(0.0, 1.0, 21)]
_FRACTIONS = (1.0, 0.25, 0.5)
_DECADES = np.linspace(1.0, 12.0, 4)  # 1 - c and p log-spaced over [1e-12, 1e-1]


def _bits(x) -> bytes:
    """The bytes of a number or an array: unlike ``==``, tells -0.0 from 0.0."""
    return np.asarray(x).tobytes()


def _assert_rows_equal_scalar_constructions(points):
    """Each row of one mcm_stack over ``points`` is, byte for byte, what the
    scalar constructions and figures of merit give at that point."""
    theta = [theta_of(c) for c, _ in points]
    stack = qt.mcm_stack(theta, [p for _, p in points], _FRACTIONS)
    conf, p_g, rate = stack.confidences(), stack.guessing_probability(), stack.inconclusive_rate()
    for k, ((c, p), t) in enumerate(zip(points, theta)):
        ens = qt.noisy_ensemble(t, p)
        m, m_rate = qt.mcm_optimal(t, p)
        assert _bits(m.elements) == _bits(stack.elements[k, 0]), (c, p)
        assert _bits(m_rate) == _bits(rate[k, 0]), (c, p)
        assert _bits(qt.guessing_probability(ens, m)) == _bits(p_g[k, 0]), (c, p)
        for f, frac in enumerate(_FRACTIONS):
            m_f = qt.mcm_povm(ens, stack.weights[k, f, 0])
            assert _bits(m_f.elements) == _bits(stack.elements[k, f]), (c, p, frac)
            assert _bits([qt.confidence(ens, m_f, i) for i in (1, 2)]) == _bits(conf[k, f]), \
                (c, p, frac)
            assert _bits(qt.inconclusive_rate(ens, m_f)) == _bits(rate[k, f]), (c, p, frac)
    return stack


def test_stack_equals_scalar_constructions_on_the_verify_grid():
    _assert_rows_equal_scalar_constructions(
        [(c, p) for c in _GRID21 for p in _GRID21 if not (p == 0.0 and c in (0.0, 1.0))])


def test_stack_equals_scalar_constructions_towards_the_corner():
    points = []
    for c, p in ((1.0 - 10.0 ** -a, 10.0 ** -b) for a in _DECADES for b in _DECADES):
        try:
            qt.mcm_optimal(theta_of(c), p)
        except DegenerateEnsembleError:  # the average state is singular to its test
            continue
        points.append((c, p))
    assert len(points) >= 12
    _assert_rows_equal_scalar_constructions(points)


def test_stack_equals_scalar_constructions_at_full_noise():
    stack = _assert_rows_equal_scalar_constructions([(c, 1.0) for c in _GRID21])
    assert np.abs(stack.confidences() - 0.5).max() <= 1e-15


def test_stack_takes_the_coincident_fallback_at_c_1():
    # one state twice: every direction is optimal, and the fallback keeps
    # the two conclusive elements distinct mirror images of each other and
    # the optimal rate at its limit (1 - p) sqrt(c) from c < 1
    ps = np.array(_GRID21[1:])
    stack = _assert_rows_equal_scalar_constructions([(1.0, p) for p in ps])
    flip = np.diag([1.0, -1.0])
    pi1, pi2 = stack.elements[:, 0, 0], stack.elements[:, 0, 1]
    assert np.abs(flip @ pi1 @ flip - pi2).max() <= 1e-15
    assert np.abs(pi1 - pi2).max(axis=(1, 2)).min() > 0.1
    assert np.abs(stack.inconclusive_rate()[:, 0] - (1.0 - ps)).max() <= 1e-15
    assert np.abs(stack.confidences() - 0.5).max() <= 1e-15


def test_stack_weight_above_the_optimum_raises():
    theta, p = [theta_of(0.5), theta_of(0.2)], [0.75, 0.1]
    assert qt.mcm_stack(theta, p, (1.0, 0.5)).elements.shape == (2, 2, 3, 2, 2)
    with pytest.raises(InfeasibleWeightsError):
        qt.mcm_stack(theta, p, (1.0, 1.001))
    with pytest.raises(UndefinedConfidenceError):
        qt.mcm_stack(theta, p, (1.0, 0.0)).confidences()


# ---------------------------------------------------------------------------
# the stacked minimum-error and unambiguous constructions

_EDGE_C = [0.0, 0.5, 1.0 - 1e-13, *(1.0 - 10.0 ** -k for k in _DECADES), 1.0]  # 1.0 last
_USD_WEIGHTS = ((1.0, 0.5), (0.25, 0.25), (0.6, 0.3))  # in units of 1/(1 + sqrt(c))


def test_helstrom_stack_rows_equal_their_batches_of_one():
    cs = _GRID21 + _EDGE_C
    stack = qt.helstrom_stack([theta_of(c) for c in cs])
    conf, p_g, rate = stack.confidence(1), stack.guessing_probability(), stack.inconclusive_rate()
    for k, c in enumerate(cs):
        ens = pure_ensemble(c)
        m = qt.helstrom_povm(ens)
        assert _bits(stack.states[k]) == _bits(ens.states), c
        assert _bits(m.elements) == _bits(stack.elements[k, 0]), c
        assert _bits(qt.guessing_probability(ens, m)) == _bits(p_g[k, 0]), c
        assert _bits(qt.inconclusive_rate(ens, m)) == _bits(rate[k, 0]) == _bits(0.0), c
        assert _bits(qt.confidence(ens, m, 1)) == _bits(conf[k, 0]), c
        if c < 1.0:
            assert _bits(qt.confidence(ens, m, 2)) == _bits(stack[k:k + 1].confidence(2)[0, 0]), c
    # c = 1: the tie-break measures in the computational basis, P_g = 1/2,
    # and outcome 2 never fires
    assert np.array_equal(stack.elements[-1, 0, :2], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert p_g[-1, 0] == 0.5
    with pytest.raises(UndefinedConfidenceError, match=f"row {cs.index(1.0)}"):
        stack.confidence(2)


def test_stack_figures_are_formed_once_and_read_only():
    cs = np.array(_GRID21 + _EDGE_C)
    stack = qt.helstrom_stack([theta_of(c) for c in cs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # outcome 2 never fires at c = 1: no division warning
        figures = (stack.confidence(1), stack.guessing_probability(), stack.inconclusive_rate())
    for figure, again in zip(figures, (stack.confidence(1), stack.guessing_probability(),
                                       stack.inconclusive_rate())):
        assert np.shares_memory(figure, again) and not figure.flags.writeable
    assert not stack.outcome_probs.flags.writeable and not stack.hits.flags.writeable
    for _ in range(2):  # the cached confidences still refuse an outcome that never fires
        with pytest.raises(UndefinedConfidenceError, match="outcome 2"):
            stack.confidence(2)
        with pytest.raises(UndefinedConfidenceError, match="outcome 2"):
            stack.confidences()
    inner = stack[cs < 1.0]
    both = inner.confidences()
    assert both is inner.confidences() and not both.flags.writeable
    assert np.array_equal(both, np.stack([inner.confidence(1), inner.confidence(2)], axis=-1))
    assert np.array_equal(both[..., 1], 0.5 * inner.hits[..., 1] / inner.outcome_probs[..., 1])


def test_usd_stack_rows_equal_their_batches_of_one():
    cs = [c for c in _GRID21 + _EDGE_C if c < 1.0]
    weights = np.array([[(a / (1.0 + math.sqrt(c)), b / (1.0 + math.sqrt(c)))
                         for a, b in _USD_WEIGHTS] for c in cs])
    stack = qt.usd_stack([theta_of(c) for c in cs], weights)
    assert stack.elements.shape == (len(cs), 1 + len(_USD_WEIGHTS), 3, 2, 2)
    conf, p_g, rate = stack.confidences(), stack.guessing_probability(), stack.inconclusive_rate()
    for k, c in enumerate(cs):
        ens = pure_ensemble(c)
        m, m_rate = qt.usd_optimal(ens)
        assert _bits(m.elements) == _bits(stack.elements[k, 0]), c
        assert _bits(m_rate) == _bits(rate[k, 0]), c
        assert _bits(qt.guessing_probability(ens, m)) == _bits(p_g[k, 0]), c
        for f, (g1, g2) in enumerate(weights[k].tolist(), start=1):
            m_f = qt.usd_povm(ens, g1, g2)  # asymmetric weights
            assert _bits(m_f.elements) == _bits(stack.elements[k, f]), (c, g1, g2)
            assert _bits([qt.confidence(ens, m_f, i) for i in (1, 2)]) == _bits(conf[k, f]), \
                (c, g1, g2)
            assert _bits(qt.inconclusive_rate(ens, m_f)) == _bits(rate[k, f]), (c, g1, g2)
    assert _bits(stack.weights[:, 1:]) == _bits(weights)
    assert np.abs(conf - 1.0).max() <= DEFAULTS.exact


def test_stack_figures_match_the_matrix_traces():
    theta = [theta_of(c) for c in _GRID21[:-1]]
    stacks = (qt.helstrom_stack(theta), qt.usd_stack(theta),
              qt.mcm_stack(theta, np.linspace(0.05, 1.0, len(theta)), _FRACTIONS))
    for stack in stacks:
        probs = np.trace(stack.average[:, None, None] @ stack.elements, axis1=-2, axis2=-1).real
        hits = np.trace(stack.states[:, None] @ stack.elements[:, :, :2], axis1=-2, axis2=-1).real
        assert np.abs(stack.inconclusive_rate() - probs[..., 2]).max() <= 1e-15
        assert np.abs(stack.guessing_probability() - 0.5 * (hits[..., 0] + hits[..., 1])).max() \
            <= 1e-15
        assert np.abs(stack.confidences() - 0.5 * hits / probs[..., :2]).max() <= 1e-15


def test_stacked_usd_and_helstrom_errors_name_their_row():
    with pytest.raises(UsdImpossibleError, match="row 2"):
        qt.usd_stack([theta_of(0.5), theta_of(0.2), theta_of(1.0)])
    weights = np.full((3, 1, 2), 0.1)
    weights[1, 0] = (0.9, 0.8)
    with pytest.raises(InfeasibleWeightsError, match=r"\(0\.9, 0\.8\).*row 1"):
        qt.usd_stack([theta_of(0.5)] * 3, weights)
    with pytest.raises(DomainError, match="weights"):
        qt.usd_stack([theta_of(0.5)], [[[1.5, 0.1]]])
    with pytest.raises(ContractError):
        qt.usd_stack([theta_of(0.5), theta_of(0.2)], [[[0.1, 0.1]]])
    with pytest.raises(DomainError, match="row 1"):
        qt.helstrom_stack([0.5, 4.0])
    with pytest.raises(ContractError):
        qt.helstrom_stack([[0.5, 0.6]])
    # a batch of one names no row
    with pytest.raises(InfeasibleWeightsError, match=r"indefinite$"):
        qt.usd_povm(pure_ensemble(0.5), 0.9, 0.9)
    with pytest.raises(UsdImpossibleError, match=r"dependent$"):
        qt.usd_optimal(pure_ensemble(1.0))


# ---------------------------------------------------------------------------
# the closed-form eigenvectors, judged by LAPACK (used here only)

_EPS = np.finfo(float).eps


def _pair_ensemble(vectors, p: float) -> qt.Ensemble:
    return qt.Ensemble(tuple(qt.PureState(*v) for v in np.asarray(vectors).tolist()), p)


def _rotated(angle: float) -> tuple[float, float]:
    return math.cos(angle), math.sin(angle)


def _mcm_projectors_by_lapack(vectors, average):
    """|phi_i><phi_i| of the whitened eigenproblem, phi_i = rho^(-1/2) u_i
    with u_1 (u_2) the top (bottom) eigenvector of rho^(-1/2) (P_1 - P_2)
    rho^(-1/2); also that matrix's eigenvalue gap and rho's smallest
    eigenvalue, which set how well rounding can fix the directions."""
    proj = vectors[..., :, None] * vectors[..., None, :].conj()
    w, v = np.linalg.eigh(average)
    whiten = (v * w[..., None, :] ** -0.5) @ v.conj().swapaxes(-1, -2)
    wg, vg = np.linalg.eigh(whiten @ (proj[..., 0, :, :] - proj[..., 1, :, :]) @ whiten)
    d = (whiten @ vg[..., ::-1]).swapaxes(-1, -2)  # rows: top, bottom
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return d[..., :, None] * d[..., None, :].conj(), wg[..., 1] - wg[..., 0], w[..., 0]


def _assert_mcm_directions_match_lapack(dirs, vectors, average):
    want, gap, lam_min = _mcm_projectors_by_lapack(vectors, average)
    bound = 8 * _EPS * (1.0 + 1.0 / (lam_min * gap))  # rounding of A over its gap
    assert np.abs(dirs - want).max() <= bound, (np.abs(dirs - want).max(), bound)


def test_closed_form_directions_match_lapack_on_random_complex_pairs():
    # generic pairs, not symmetric about |0>, so both branches of each closed
    # form run: the diagonal of A or of rho_1 - rho_2 falls either way
    rng = np.random.default_rng(20261018)
    pairs = rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))
    pairs /= np.linalg.norm(pairs, axis=-1, keepdims=True)
    signs = set()
    for k, (vectors, p) in enumerate(zip(pairs, rng.uniform(size=400))):
        ens = _pair_ensemble(vectors, 0.0 if k % 4 == 0 else float(p))
        assert np.array_equal(ens.vectors, vectors)
        x = ens.states[0] - ens.states[1]
        w, v = np.linalg.eigh(x)
        top = v[:, 1]
        bound = 8 * _EPS * (1.0 + 1.0 / (w[1] - w[0]))
        pi_1 = qt.helstrom_povm(ens).conclusive(1)
        assert np.abs(pi_1 - np.outer(top, top.conj())).max() <= bound
        signs.add(bool(x[0, 0].real >= x[1, 1].real))
        m = qt.mcm_povm(ens, 0.5)  # 1/2 is below every optimal weight
        _assert_mcm_directions_match_lapack(2.0 * m.elements[:2], vectors, ens.average)
    assert signs == {True, False}


@pytest.mark.parametrize("p", [0.0, 1e-12, 1e-6, 0.5, 1.0])
def test_mcm_stack_directions_match_lapack_towards_the_corner(p):
    # 1 - c down to 1e-13; the stack is exact where the average state is
    # singular to its test, and raises there
    for one_minus_c in (1.0, 0.5, 1e-3, 1e-6, 1e-9, 1e-13):
        theta = theta_of(1.0 - one_minus_c)
        vectors = qt._pure_pairs([theta])
        average = qt._ensembles(vectors, np.array([p]))[2]
        if np.linalg.eigvalsh(average)[0, 0] <= 1.01 * NORM:
            with pytest.raises(DegenerateEnsembleError):
                qt.mcm_stack([theta], [p])
            continue
        stack = qt.mcm_stack([theta], [p])
        dirs = stack.elements[:, 0, :2] / stack.weights[:, 0, :, None, None]
        _assert_mcm_directions_match_lapack(dirs, vectors, average)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_closed_forms_take_the_branch_that_does_not_cancel(p):
    # an orthogonal pair in the computational basis makes A and rho_1 - rho_2
    # diagonal: one of the two eigenvector forms is then the zero vector
    for first, second in (((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0))):
        ens = _pair_ensemble((first, second), p)
        if p == 0.0:
            helstrom = qt.helstrom_povm(ens)
            assert np.array_equal(helstrom.conclusive(1), np.outer(first, first))
        projectors = ens.vectors[:, :, None] * ens.vectors[:, None, :]
        assert np.array_equal(qt.mcm_povm(ens, 0.5).elements[:2], 0.5 * projectors)


@pytest.mark.parametrize("angle", [5e-13, 1e-9])
def test_mcm_coincident_test_is_relative_to_det_rho(angle):
    # at full noise det(rho) = 1/4: a pair 5e-13 apart has A's gap 5e-13,
    # below 1e-12 but above 1e-12 det(rho), and the whitened gap 2e-12, above
    # 1e-12, so it is generic and takes the directions of the whitened
    # eigenproblem, not the fallback's (0.3 rad off them)
    ens = _pair_ensemble((_rotated(0.3), _rotated(0.3 + angle)), 1.0)
    m = qt.mcm_povm(ens, 0.5)
    _assert_mcm_directions_match_lapack(2.0 * m.elements[:2], ens.vectors, ens.average)


@pytest.mark.parametrize("p", [1e-6, 0.5, 1.0])
def test_mcm_coincident_fallback_whitens_by_the_adjugate(p):
    # one state twice, off the axis of make_pure_pair: the fallback directions
    # are rho^(-1/2) u for the fixed u = (1, -+1)/sqrt(2), with rho^(-1/2)
    # from LAPACK here
    ens = _pair_ensemble((_rotated(0.3), _rotated(0.3)), p)
    w, v = np.linalg.eigh(ens.average)
    whiten = (v * w**-0.5) @ v.conj().T
    u = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    d = u @ whiten.T  # rows: rho^(-1/2) u_i
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    want = d[:, :, None] * d[:, None, :].conj()
    got = 2.0 * qt.mcm_povm(ens, 0.5).elements[:2]
    assert np.abs(got - want).max() <= 8 * _EPS / w[0]


# (c, p) -> the optimal MCM measurement's (C, P_g, P_0), or the error it
# raises, at the edge points of the domain. The values are the closed forms
# to rounding; the errors are the outcome the construction route has today.
_MCM_EDGES = {
    (0.0, 0.0): (1.0, 1.0, 0.0),
    (0.0, 1.0): (0.5, 0.5, 0.0),
    (1.0, 0.0): DegenerateEnsembleError,
    (1.0, 1.0): (0.5, 0.5, 0.0),
    (1.0, 1e-300): DegenerateEnsembleError,
    (1.0, 1e-15): DegenerateEnsembleError,
    (1.0, 1e-12): DegenerateEnsembleError,
    (1.0, 1e-8): (0.5, 5e-9, 1.0 - 1e-8),
    (1.0 - 1e-15, 0.0): DegenerateEnsembleError,
    (1.0 - 1e-13, 0.0): DegenerateEnsembleError,
}


@pytest.mark.parametrize("c, p", list(_MCM_EDGES))
def test_stacks_at_the_edge_points(c, p):
    want = _MCM_EDGES[c, p]
    if isinstance(want, type):
        with pytest.raises(want):
            qt.mcm_stack([theta_of(c)], [p])
    else:
        stack = qt.mcm_stack([theta_of(c)], [p])
        got = (*stack.confidences()[0, 0], stack.guessing_probability()[0, 0],
               stack.inconclusive_rate()[0, 0])
        assert np.abs(np.subtract(got, (want[0], *want))).max() <= 4 * _EPS, got
    # every pair has a minimum-error measurement, P_g = (1 + sin(theta))/2
    # for the pair <psi1|psi2> = cos(theta) that theta_of(c) gives
    theta = theta_of(c)
    helstrom = qt.helstrom_stack([theta])
    assert abs(helstrom.guessing_probability()[0, 0] - 0.5 * (1.0 + math.sin(theta))) <= 4 * _EPS


@pytest.mark.parametrize("p", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
def test_mcm_confidence_keeps_its_precision_towards_the_corner(p):
    # towards c -> 1, p -> 0 the states and conclusive projectors are nearly
    # rank one and the confidence is a ratio of their small traces. Judged at
    # the theta the stack is given, where 1 - c = sin^2(theta) does not cancel:
    # C = (1 + (1 - p) sin(theta) / sqrt(sin^2(theta) + p (2 - p) cos^2(theta)))/2
    theta = np.logspace(-5.0, -1.0, 13)
    stack = qt.mcm_stack(theta, np.full(len(theta), p))
    s, c = np.sin(theta), np.cos(theta)
    want = 0.5 * (1.0 + (1.0 - p) * s / np.sqrt(s * s + p * (2.0 - p) * c * c))
    assert np.abs(stack.confidences()[:, 0] - want[:, None]).max() <= 4 * _EPS
