"""Quantum side of binary state discrimination on a qubit.

Value types (pure states, ensembles, three-outcome POVMs) together with
the three figures of merit and the optimal-measurement constructions.
Operators are plain read-only 2x2 complex arrays. An ensemble is an
equiprobable pure pair dephased at a noise level p; it stores the pair
itself, so the unambiguous measurement reads the pure states directly, and
derives its two density operators and their average once on construction.
A POVM is one (3, 2, 2) array of its elements (pi_1, pi_2, pi_0), pi_0 the
inconclusive element, validated once on construction. The constructions are:

* minimum-error: projective measurement onto the eigenspaces of the
  weighted state difference,
* unambiguous: conclusive elements proportional to the mirror projectors,
* maximum-confidence: rank-one conclusive directions from a whitened
  eigenproblem, with the free conclusive weight set to the largest value
  that keeps the inconclusive element positive semidefinite.

The maximum-confidence construction runs on stacks: ``mcm_stack`` takes
arrays of theta and p and builds the states, the whitening, the direction
eigenproblem of both outcomes, the optimal weight and the (N, F, 3, 2, 2)
elements at F fractions of it as stacked 2x2 linear algebra, validates the
whole stack once, and returns an ``McmStack`` that also gives the figures of
merit as arrays. ``mcm_optimal`` and ``mcm_povm`` are batches of one of it.

All functions are pure and all values immutable, so everything here is safe
to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import DEFAULTS
from .errors import (
    ContractError,
    DegenerateEnsembleError,
    DomainError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
    UsdImpossibleError,
)

__all__ = [
    "PureState",
    "Operator2",
    "Ensemble",
    "Povm",
    "min_eig_2x2",
    "make_pure_pair",
    "mirror",
    "noisy_ensemble",
    "guessing_probability",
    "inconclusive_rate",
    "confidence",
    "helstrom_povm",
    "usd_povm",
    "usd_optimal",
    "mcm_povm",
    "mcm_optimal",
    "McmStack",
    "mcm_stack",
]

_IDENTITY = np.eye(2, dtype=complex)


def min_eig_2x2(m: np.ndarray) -> float:
    """Smallest eigenvalue of a 2x2 Hermitian matrix, in closed form."""
    a = m[0, 0].real
    b = m[1, 1].real
    r = math.hypot(0.5 * (a - b), abs(m[0, 1]))
    return 0.5 * (a + b) - r


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rescale by a global phase so the first nonzero amplitude is real >= 0."""
    for comp in v:
        if abs(comp) > 1e-12:
            return v * (comp.conjugate() / abs(comp))
    raise DomainError("zero vector has no phase convention")


@dataclass(frozen=True)
class PureState:
    """A qubit ray stored as two complex amplitudes of unit norm."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        n = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if not abs(n - 1.0) <= DEFAULTS.norm:
            raise DomainError(f"amplitudes have squared norm {n}, expected 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.vector, other.vector))

    def projector(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


class Operator2:
    """2x2 complex Hermitian matrix, validated on construction.

    The constructor copies its input, freezes it and rejects matrices whose
    skew part exceeds the Hermiticity tolerance. The package keeps its own
    operators as plain arrays; this class stays public because
    ``perfbench/run.py --trace 1`` counts its constructions.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ContractError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.max(np.abs(m - m.conj().T)) <= DEFAULTS.norm:
            raise DomainError("matrix is not Hermitian within tolerance")
        m.flags.writeable = False
        self._m = m

    @classmethod
    def identity(cls) -> "Operator2":
        return cls(_IDENTITY)

    @classmethod
    def zero(cls) -> "Operator2":
        return cls(np.zeros((2, 2), dtype=complex))

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def trace(self) -> float:
        return float(self._m[0, 0].real + self._m[1, 1].real)

    def min_eigenvalue(self) -> float:
        return min_eig_2x2(self._m)

    def eigenvalues(self) -> np.ndarray:
        """Both eigenvalues, ascending (LAPACK route)."""
        return np.linalg.eigvalsh(self._m)

    def __repr__(self) -> str:
        return f"Operator2({self._m.tolist()!r})"


@dataclass(frozen=True)
class Ensemble:
    """Equiprobable pure pair dephased to rho_i = (1-p)|psi_i><psi_i| + p/2.

    ``pair`` and ``noise`` are the whole ensemble, and the priors are the
    class constant (1/2, 1/2). ``states`` (the two density operators, a
    read-only (2, 2, 2) array) and ``average`` (their even mixture, a
    read-only 2x2 array) are derived from them once on construction;
    ``overlap_sq`` is |<psi1|psi2>|^2 of the pair.
    """

    priors: ClassVar[tuple[float, float]] = (0.5, 0.5)

    pair: tuple[PureState, PureState]
    noise: float
    states: np.ndarray = field(init=False, compare=False)
    average: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        if len(self.pair) != 2 or not all(isinstance(s, PureState) for s in self.pair):
            raise ContractError("an ensemble is a pair of PureState values")
        if not 0.0 <= self.noise <= 1.0:
            raise DomainError(f"noise must lie in [0, 1], got {self.noise}")
        p = self.noise
        rho1, rho2 = ((1.0 - p) * s.projector() + 0.5 * p * _IDENTITY for s in self.pair)
        states = np.array((rho1, rho2))
        average = 0.5 * rho1 + 0.5 * rho2
        states.flags.writeable = average.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "average", average)

    @property
    def overlap_sq(self) -> float:
        a, b = self.pair
        return abs(a.overlap(b)) ** 2


def _check_elements(e: np.ndarray, min_eigs: np.ndarray) -> None:
    """Raise unless the POVMs (..., 3, 2, 2) in ``e``, whose elements have the
    smallest eigenvalues ``min_eigs`` (..., 3), are Hermitian, positive
    semidefinite and complete."""
    if not np.abs(e - e.conj().swapaxes(-1, -2)).max() <= DEFAULTS.norm:
        raise DomainError("POVM elements are not Hermitian within tolerance")
    if not min_eigs.min() >= -DEFAULTS.psd:  # false for NaN too
        k = int(np.argmax(~(min_eigs >= -DEFAULTS.psd))) % 3
        raise ContractError(f"element {k} has a negative eigenvalue")
    if not np.abs(e.sum(axis=-3) - _IDENTITY).max() <= DEFAULTS.completeness:
        raise ContractError("POVM elements do not sum to the identity")


@dataclass(frozen=True, eq=False)
class Povm:
    """Three-outcome POVM on a qubit: conclusive pi_1, pi_2 and inconclusive pi_0.

    ``elements`` is a read-only (3, 2, 2) complex array in the order
    (pi_1, pi_2, pi_0); a minimum-error measurement has pi_0 = 0. The
    elements must be Hermitian, positive semidefinite and sum to the
    identity.
    """

    elements: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.elements, dtype=complex)
        if e.shape != (3, 2, 2):
            raise ContractError(f"expected a (3, 2, 2) array of elements, got shape {e.shape}")
        _check_elements(e, np.array([min_eig_2x2(op) for op in e]))
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

    @classmethod
    def _validated(cls, elements: np.ndarray) -> "Povm":
        """Wrap read-only elements that ``_check_elements`` has passed already."""
        povm = object.__new__(cls)
        object.__setattr__(povm, "elements", elements)
        return povm

    def conclusive(self, i: int) -> np.ndarray:
        """pi_i for outcome i in {1, 2}."""
        if i not in (1, 2):
            raise ContractError(f"conclusive outcomes are 1 and 2, got {i}")
        return self.elements[i - 1]

    def inconclusive(self) -> np.ndarray:
        return self.elements[2]


# ---------------------------------------------------------------------------
# ensembles


def make_pure_pair(theta: float) -> tuple[PureState, PureState]:
    """Two unit vectors symmetric about |0> with <psi1|psi2> = cos(theta).

    |psi1> = cos(theta/2)|0> - sin(theta/2)|1> and
    |psi2> = cos(theta/2)|0> + sin(theta/2)|1>, for theta in [0, pi].
    """
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    hc = math.cos(0.5 * theta)
    hs = math.sin(0.5 * theta)
    return PureState(complex(hc), complex(-hs)), PureState(complex(hc), complex(hs))


def mirror(state: PureState) -> PureState:
    """The orthogonal ray, phase-fixed (first nonzero amplitude real >= 0)."""
    raw = np.array([-state.amp1.conjugate(), state.amp0.conjugate()], dtype=complex)
    v = _phase_fixed(raw)
    return PureState(complex(v[0]), complex(v[1]))


def noisy_ensemble(theta: float, p: float) -> Ensemble:
    """Equiprobable dephased pair rho_i = (1-p)|psi_i><psi_i| + p/2."""
    return Ensemble(make_pure_pair(theta), p)


def _pure_pair_of(ens: Ensemble) -> tuple[PureState, PureState]:
    if ens.noise != 0.0:
        raise ContractError("pure-state ensemble required (noise = 0)")
    return ens.pair


# ---------------------------------------------------------------------------
# figures of merit


def _expect(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


def guessing_probability(ens: Ensemble, m: Povm) -> float:
    """Average probability that the conclusive outcome names the state.

    sum_i q_i Tr[rho_i pi_i].
    """
    total = 0.0
    for i, (q, rho) in enumerate(zip(ens.priors, ens.states), start=1):
        total += q * _expect(rho, m.conclusive(i))
    return total


def inconclusive_rate(ens: Ensemble, m: Povm) -> float:
    """Tr[rho pi_0] under the prior-averaged state."""
    return _expect(ens.average, m.inconclusive())


def confidence(ens: Ensemble, m: Povm, i: int) -> float:
    """Posterior probability that state i was prepared given outcome i."""
    outcome_prob = _expect(ens.average, m.conclusive(i))
    if outcome_prob <= 0.0:
        raise UndefinedConfidenceError(f"outcome {i} has zero probability")
    joint = ens.priors[i - 1] * _expect(ens.states[i - 1], m.conclusive(i))
    return joint / outcome_prob


# ---------------------------------------------------------------------------
# minimum-error measurement


def helstrom_povm(ens: Ensemble) -> Povm:
    """Projective measurement onto the eigenspaces of q1 rho1 - q2 rho2.

    Outcome 1 collects the strictly positive eigenspace. When the weighted
    states coincide the measurement is a pure tie-break and falls back to
    the computational basis.
    """
    x = ens.priors[0] * ens.states[0] - ens.priors[1] * ens.states[1]
    if np.max(np.abs(x)) <= DEFAULTS.norm:
        pi1 = np.diag([1.0 + 0.0j, 0.0j])
    else:
        w, v = np.linalg.eigh(x)
        pi1 = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            if w[k] > 0.0:
                pi1 = pi1 + np.outer(v[:, k], v[:, k].conj())
    return Povm((pi1, _IDENTITY - pi1, np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# measurements with an inconclusive outcome


def _povm_with_inconclusive(
    pi1: np.ndarray, pi2: np.ndarray, weights: tuple[float, float]
) -> Povm:
    """Complete two conclusive elements with pi_0 = 1 - pi_1 - pi_2.

    Raises when pi_0 is not positive semidefinite; ``weights`` are the
    conclusive weights, quoted in the message.
    """
    pi0 = _IDENTITY - pi1 - pi2
    if min_eig_2x2(pi0) < -DEFAULTS.psd:
        raise InfeasibleWeightsError(
            f"weights {weights} make the inconclusive element indefinite"
        )
    return Povm((pi1, pi2, pi0))


def _max_weight(s: np.ndarray) -> float:
    """Largest w in [0, 1] keeping 1 - w*s positive semidefinite.

    For Hermitian s the eigenvalues of 1 - w*s are 1 - w*lambda, so the
    bound is 1/lambda_max(s), and lambda_max is the trace minus the
    smallest eigenvalue.
    """
    lam_max = float(s[0, 0].real + s[1, 1].real) - min_eig_2x2(s)
    return 1.0 if lam_max <= 1.0 else 1.0 / lam_max


# ---------------------------------------------------------------------------
# unambiguous discrimination


def usd_povm(ens: Ensemble, gamma1: float, gamma2: float) -> Povm:
    """Unambiguous POVM pi_i = gamma_i |mirror(psi_j)><mirror(psi_j)|, j != i.

    Each conclusive element projects onto the ray orthogonal to the
    competing state, so a conclusive click identifies its state with
    certainty. Requires a pure ensemble and weights that leave
    pi_0 = 1 - pi_1 - pi_2 positive semidefinite.
    """
    for g in (gamma1, gamma2):
        if not 0.0 <= g <= 1.0:
            raise DomainError(f"weights must lie in [0, 1], got {g}")
    psi1, psi2 = _pure_pair_of(ens)
    return _povm_with_inconclusive(
        gamma1 * mirror(psi2).projector(),
        gamma2 * mirror(psi1).projector(),
        (gamma1, gamma2),
    )


def usd_optimal(ens: Ensemble) -> tuple[Povm, float]:
    """Minimise the inconclusive rate over feasible unambiguous weights.

    For an equiprobable pure pair the rate decreases linearly in
    gamma1 + gamma2 while the feasible set is convex and symmetric under
    swapping the weights, so the optimum sits at the largest symmetric
    weight with pi_0 still positive semidefinite, 1/lambda_max of the sum
    of the two mirror projectors. Only coincident states (the same ray,
    theta = 0) admit no unambiguous measurement and raise; any distinct
    pair, however close, has one.
    """
    psi1, psi2 = _pure_pair_of(ens)
    if psi1.amp0 * psi2.amp1 == psi1.amp1 * psi2.amp0:
        raise UsdImpossibleError("states are linearly dependent")
    p1 = mirror(psi2).projector()
    p2 = mirror(psi1).projector()
    g = _max_weight(p1 + p2)
    m = _povm_with_inconclusive(g * p1, g * p2, (g, g))
    return m, inconclusive_rate(ens, m)


# ---------------------------------------------------------------------------
# maximum-confidence measurement


# u for coincident states, where every direction is optimal: the limit of the
# generic case, so the pair stays symmetric and the optimal inconclusive rate
# stays continuous in (theta, p). Row i - 1 is outcome i's.
_COINCIDENT_U = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
_WHOLE = np.ones(1)  # the weight itself, as the one fraction


@dataclass(frozen=True, eq=False)
class McmStack:
    """Maximum-confidence measurements of N ensembles at F conclusive weights.

    ``states`` (N, 2, 2, 2) holds each equiprobable ensemble's two density
    operators and ``average`` (N, 2, 2) their even mixtures. ``elements``
    (N, F, 3, 2, 2) holds the measurements (pi_1, pi_2, pi_0) at the weights
    ``fractions * alpha``, with ``alpha`` (N,) each ensemble's optimal
    weight; they were validated as one stack when built. The figures of
    merit are read from Tr[rho pi] of ``elements``, in the arithmetic of the
    scalar ``confidence``, ``guessing_probability`` and
    ``inconclusive_rate``, so a measurement and its figures cannot disagree.
    All arrays are read-only.
    """

    states: np.ndarray
    average: np.ndarray
    alpha: np.ndarray
    elements: np.ndarray

    def _outcome_probs(self) -> np.ndarray:
        """Tr[rho pi] of every element under the average state: (N, F, 3)."""
        return np.trace(self.average[:, None, None] @ self.elements, axis1=-2, axis2=-1).real

    def confidences(self) -> np.ndarray:
        """(N, F, 2) posterior probability of state i given outcome i."""
        prob = self._outcome_probs()[..., :2]
        if not (prob > 0.0).all():
            raise UndefinedConfidenceError("a conclusive outcome has zero probability")
        return 0.5 * self._hits() / prob

    def guessing_probability(self) -> np.ndarray:
        """(N, F) sum_i q_i Tr[rho_i pi_i]."""
        hits = self._hits()
        return 0.5 * hits[..., 0] + 0.5 * hits[..., 1]

    def inconclusive_rate(self) -> np.ndarray:
        """(N, F) Tr[rho pi_0] under the prior-averaged state."""
        return self._outcome_probs()[..., 2]

    def _hits(self) -> np.ndarray:
        """Tr[rho_i pi_i] of both conclusive outcomes: (N, F, 2)."""
        joint = self.states[:, None] @ self.elements[:, :, :2]
        return np.trace(joint, axis1=-2, axis2=-1).real


def _row(bad: np.ndarray) -> str:
    """Where a stacked check failed: its first bad row, when there are several."""
    return f" (row {int(np.argmax(bad))})" if bad.size > 1 else ""


def mcm_stack(theta, p, fractions=(1.0,)) -> McmStack:
    """Maximum-confidence measurements of noisy_ensemble(theta[k], p[k]) for
    every k at once, at the conclusive weights ``fractions`` times each
    ensemble's optimal weight.

    ``theta`` and ``p`` are equal-length 1-D sequences. The pure pairs come
    from ``make_pure_pair``; every later step is one stacked 2x2 computation
    over all N ensembles. ``mcm_optimal`` runs the same construction as a
    batch of one.
    """
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    if theta.ndim != 1 or theta.shape != p.shape or not theta.size:
        raise ContractError(f"theta and p must be 1-D of one length, got {theta.shape}, {p.shape}")
    bad = [x for x in p.tolist() if not 0.0 <= x <= 1.0]  # NaN too
    if bad:
        raise DomainError(f"noise must lie in [0, 1], got {bad[0]}")
    if not all(f >= 0.0 for f in fractions):
        raise DomainError(f"weight fractions must be >= 0, got {fractions}")
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or not fractions.size:
        raise ContractError(f"weight fractions must be 1-D and not empty, got {fractions}")
    return _mcm_stack([make_pure_pair(t) for t in theta.tolist()], p, fractions)


def _mcm_stack(pairs: list[tuple[PureState, PureState]], p: np.ndarray, fractions: np.ndarray,
               alpha: np.ndarray | None = None) -> McmStack:
    """The stacked construction for the N pure pairs ``pairs`` dephased at
    ``p`` (N,), at the weights ``fractions * alpha``; ``alpha`` defaults to
    the optimal weight.

    The direction |phi_i> maximises the retrodictive confidence
    q_i Tr[rho_i pi] / Tr[rho pi] over rank-one pi. Whitening by rho^(-1/2)
    turns that ratio into a Rayleigh quotient, so |phi_i> ~ rho^(-1/2) u
    with u the top eigenvector of rho^(-1/2) rho_i rho^(-1/2). The optimal
    weight is 1/lambda_max of the sum of the two conclusive projectors, the
    largest keeping pi_0 = 1 - pi_1 - pi_2 positive semidefinite.
    """
    vectors = np.array([[(a.amp0, a.amp1), (b.amp0, b.amp1)] for a, b in pairs])
    proj = vectors[..., :, None] * vectors[..., None, :].conj()  # (N, 2, 2, 2)
    q = p[:, None, None, None]
    states = (1.0 - q) * proj + 0.5 * q * _IDENTITY
    average = 0.5 * states[:, 0] + 0.5 * states[:, 1]
    w, v = np.linalg.eigh(average)
    bad = ~(w[:, 0] > DEFAULTS.norm)
    if bad.any():
        raise DegenerateEnsembleError(
            "average state is singular (no noise and coincident or antipodal pair)" + _row(bad)
        )
    whiten = (v * w[:, None, :] ** -0.5) @ v.conj().swapaxes(-1, -2)
    # rho_i - rho = +-(1-p)/2 (P_1 - P_2) for the pair's projectors P: the
    # same whitened eigenvectors as rho_i, read from the pair so p -> 1
    # cannot cancel them. Outcome 1 takes the top eigenvector, outcome 2 the
    # bottom one (the top one of -(P_1 - P_2)).
    wg, vg = np.linalg.eigh(whiten @ (proj[:, 0] - proj[:, 1]) @ whiten)
    u = np.where((wg[:, 1] - wg[:, 0] <= 1e-12)[:, None, None], _COINCIDENT_U,
                 vg.swapaxes(-1, -2)[:, ::-1])
    d = (whiten[:, None] @ u[..., None])[..., 0]  # (N, 2, 2): outcome, amplitude
    # unit vectors; no phase convention, as only |phi_i><phi_i| is used
    mod = np.abs(d)
    d /= np.hypot(mod[..., 0], mod[..., 1])[..., None]
    dirs = d[..., :, None] * d[..., None, :].conj()  # (N, 2, 2, 2)
    if alpha is None:
        lam_max = np.linalg.eigvalsh(dirs[:, 0] + dirs[:, 1])[:, 1]
        alpha = 1.0 / np.maximum(lam_max, 1.0)
    weights = alpha[:, None] * fractions  # (N, F)
    conclusive = weights[:, :, None, None, None] * dirs[:, None]
    pi0 = _IDENTITY - conclusive[:, :, 0] - conclusive[:, :, 1]
    elements = np.concatenate((conclusive, pi0[:, :, None]), axis=2)
    min_eigs = np.linalg.eigvalsh(elements)[..., 0]  # (N, F, 3)
    if not min_eigs[..., 2].min() >= -DEFAULTS.psd:  # false for NaN too
        bad = ~(min_eigs[..., 2] >= -DEFAULTS.psd)
        g = weights[bad][0]
        raise InfeasibleWeightsError(
            f"weights {(g, g)} make the inconclusive element indefinite" + _row(bad.any(axis=1))
        )
    _check_elements(elements, min_eigs)
    for a in (states, average, alpha, elements):
        a.flags.writeable = False
    return McmStack(states, average, alpha, elements)


def mcm_povm(ens: Ensemble, alpha: float) -> Povm:
    """Maximum-confidence POVM with conclusive elements alpha |phi_i><phi_i|.

    The achieved confidence does not depend on alpha; alpha only scales the
    conclusive rate, and must leave pi_0 = 1 - pi_1 - pi_2 positive
    semidefinite. A batch of one of the stacked construction.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    stack = _mcm_stack([ens.pair], np.array([ens.noise]), _WHOLE, np.array([float(alpha)]))
    return Povm._validated(stack.elements[0, 0])


def mcm_optimal(theta: float, p: float) -> tuple[Povm, float]:
    """Largest feasible conclusive weight and the inconclusive rate it attains.

    The confidence is alpha-independent, so this is the measurement with
    maximal confidences and minimal inconclusive rate. A batch of one of
    ``mcm_stack``.
    """
    stack = mcm_stack((theta,), (p,))
    return Povm._validated(stack.elements[0, 0]), float(stack.inconclusive_rate()[0, 0])
