import math

import numpy as np
import pytest

from ctxsd import qtheory as qt
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


# ---------------------------------------------------------------------------
# states and ensembles


def test_pure_pair_orthogonal_at_right_angle():
    a, b = qt.make_pure_pair(math.pi / 2)
    assert abs(a.overlap(b)) < 1e-15
    # equal superpositions with opposite signs
    assert np.allclose(np.abs(a.vector), [SQRT_HALF, SQRT_HALF])
    assert np.allclose(np.abs(b.vector), [SQRT_HALF, SQRT_HALF])


def test_pure_pair_identical_at_zero():
    a, b = qt.make_pure_pair(0.0)
    assert a.overlap(b) == pytest.approx(1.0, abs=1e-15)


def test_pure_pair_overlap_sq_at_pi_third():
    a, b = qt.make_pure_pair(math.pi / 3)
    # explicit inner product of the amplitude vectors
    inner = (a.amp0.conjugate() * b.amp0 + a.amp1.conjugate() * b.amp1).real
    assert abs(inner) ** 2 == pytest.approx(0.25, abs=1e-14)
    assert inner == pytest.approx(math.cos(math.pi / 3), abs=1e-14)


@pytest.mark.parametrize("theta", [-0.1, math.pi + 0.1, 7.0])
def test_pure_pair_rejects_bad_theta(theta):
    with pytest.raises(DomainError):
        qt.make_pure_pair(theta)


def test_pure_state_rejects_unnormalised():
    with pytest.raises(DomainError):
        qt.PureState(1.0, 1.0)


def test_mirror_computational_basis():
    m = qt.mirror(qt.PureState(1.0, 0.0))
    assert np.allclose(m.vector, [0.0, 1.0])


def test_mirror_hadamard_basis():
    plus = qt.PureState(SQRT_HALF, SQRT_HALF)
    m = qt.mirror(plus)
    assert np.allclose(m.vector, [SQRT_HALF, -SQRT_HALF])


def test_mirror_involution_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(100):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        psi = qt.PureState(complex(raw[0]), complex(raw[1]))
        twice = qt.mirror(qt.mirror(psi))
        assert abs(psi.overlap(qt.mirror(psi))) < 1e-12
        assert abs(abs(psi.overlap(twice)) - 1.0) < 1e-12


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


def test_noisy_ensemble_rejects_bad_noise():
    with pytest.raises(DomainError):
        qt.noisy_ensemble(math.pi / 3, 1.5)


def test_ensemble_from_complex_pair():
    # a pair make_pure_pair cannot produce: complex amplitudes, no symmetry
    v1 = np.array([0.6, 0.8j])
    v2 = np.array([0.8, -0.6 * np.exp(1j * math.pi / 3)])
    pair = (qt.PureState(*v1), qt.PureState(*v2))
    inner = abs(np.vdot(v1, v2))
    ens = qt.Ensemble(pair, 0.0)
    assert ens.overlap_sq == pytest.approx(inner**2, abs=1e-15)
    m, rate = qt.usd_optimal(ens)
    assert rate == pytest.approx(inner, abs=1e-12)
    for i in (1, 2):
        assert qt.confidence(ens, m, i) == pytest.approx(1.0, abs=1e-10)
    p_g = qt.guessing_probability(ens, qt.helstrom_povm(ens))
    assert p_g == pytest.approx(0.5 * (1.0 + math.sqrt(1.0 - ens.overlap_sq)), abs=1e-12)
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
    for arr in (ens.states, ens.average, m.elements):
        assert not arr.flags.writeable


def test_operator2_rejects_non_hermitian():
    with pytest.raises(DomainError):
        qt.Operator2(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_helstrom_specific_value_at_half():
    ens = pure_ensemble(0.5)
    p_g = qt.guessing_probability(ens, qt.helstrom_povm(ens))
    assert p_g == pytest.approx(0.8535533905932738, abs=1e-10)


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


def test_usd_rejects_infeasible_weights():
    ens = pure_ensemble(0.5)
    with pytest.raises(InfeasibleWeightsError):
        qt.usd_povm(ens, 0.9, 0.9)


def test_usd_rejects_noisy_ensemble():
    ens = qt.noisy_ensemble(theta_of(0.5), 0.2)
    with pytest.raises(ContractError):
        qt.usd_povm(ens, 0.1, 0.1)


def max_symmetric_weight_by_grid(ens: qt.Ensemble, steps: int = 200_000) -> float:
    """Brute-force oracle: largest gamma on a fine grid keeping pi_0 PSD."""
    psi1, psi2 = (qt.mirror(s) for s in _pure_pair(ens))
    s = psi1.projector() + psi2.projector()
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


def test_usd_optimal_impossible_for_coincident_states():
    with pytest.raises(UsdImpossibleError):
        qt.usd_optimal(pure_ensemble(1.0))


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
    target = qt.mirror(psi2).projector()
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


def test_mcm_rejects_infeasible_alpha():
    with pytest.raises(InfeasibleWeightsError):
        qt.mcm_povm(qt.noisy_ensemble(theta_of(0.5), 0.75), 1.0)


def test_mcm_degenerate_ensemble_error():
    with pytest.raises(DegenerateEnsembleError):
        qt.mcm_povm(qt.noisy_ensemble(0.0, 0.0), 0.1)
    with pytest.raises(DegenerateEnsembleError):
        qt.mcm_optimal(math.pi, 0.0)


@pytest.mark.parametrize(
    "c,p,expected",
    [
        (0.5, 1.0, 0.0),
        (0.0, 0.5, 0.0),
        (0.5, 0.75, 0.17677669529663687),
    ],
)
def test_mcm_optimal_rate(c, p, expected):
    _, rate = qt.mcm_optimal(theta_of(c), p)
    assert rate == pytest.approx(expected, abs=1e-9)


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


_NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: qt.Povm((HALF, HALF)), ContractError, "shape"),
        (lambda: qt.Povm(([[0.0, 1.0], [0.0, 0.0]], ZERO, [[1.0, -1.0], [0.0, 1.0]])),
         DomainError, "Hermitian"),
        (lambda: qt.Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]), ZERO)), ContractError,
         "negative eigenvalue"),
        (lambda: qt.Povm((HALF, ZERO, ZERO)), ContractError, "identity"),
        (lambda: qt.Povm((_NAN, ZERO, ONE - _NAN)), DomainError, "Hermitian"),
        (lambda: qt.Povm((ONE, ZERO, ZERO)).conclusive(0), ContractError, "1 and 2"),
        (lambda: qt.Povm((ONE, ZERO, ZERO)).conclusive(3), ContractError, "1 and 2"),
    ],
    ids=["shape", "non-hermitian", "indefinite", "incomplete", "nan", "conclusive-0",
         "conclusive-3"],
)
def test_povm_rejects_invalid_input(build, error, match):
    with pytest.raises(error, match=match):
        build()
