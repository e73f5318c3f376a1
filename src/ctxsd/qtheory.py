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
        if not np.max(np.abs(e - e.conj().transpose(0, 2, 1))) <= DEFAULTS.norm:
            raise DomainError("POVM elements are not Hermitian within tolerance")
        for k, op in enumerate(e):
            if not min_eig_2x2(op) >= -DEFAULTS.psd:
                raise ContractError(f"element {k} has a negative eigenvalue")
        if not np.max(np.abs(e.sum(axis=0) - _IDENTITY)) <= DEFAULTS.completeness:
            raise ContractError("POVM elements do not sum to the identity")
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

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
    of the two mirror projectors. Coincident states admit no unambiguous
    measurement and raise.
    """
    psi1, psi2 = _pure_pair_of(ens)
    if ens.overlap_sq >= 1.0 - DEFAULTS.norm:
        raise UsdImpossibleError("states are linearly dependent")
    p1 = mirror(psi2).projector()
    p2 = mirror(psi1).projector()
    g = _max_weight(p1 + p2)
    m = _povm_with_inconclusive(g * p1, g * p2, (g, g))
    return m, inconclusive_rate(ens, m)


# ---------------------------------------------------------------------------
# maximum-confidence measurement


def _mcm_directions(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    rho = ens.average
    w, v = np.linalg.eigh(rho)
    if w[0] <= DEFAULTS.norm:
        raise DegenerateEnsembleError(
            "average state is singular (no noise and coincident or antipodal pair)"
        )
    whiten = (v * (w**-0.5)) @ v.conj().T
    # rho_i - rho = (1-p)/2 (P_i - P_j) for the pair's projectors P: the same
    # whitened eigenvectors as rho_i, read from the pair so p -> 1 cannot cancel them.
    proj1, proj2 = (s.projector() for s in ens.pair)
    dirs = []
    for i, diff in enumerate((proj1 - proj2, proj2 - proj1)):
        g = whiten @ diff @ whiten
        wg, vg = np.linalg.eigh(g)
        if wg[1] - wg[0] <= 1e-12:
            # Coincident states, where every direction is optimal: take the
            # limit of the generic case so the pair stays symmetric and the
            # optimal inconclusive rate stays continuous in (theta, p).
            sign = -1.0 if i == 0 else 1.0
            u = np.array([1.0, sign]) / math.sqrt(2.0)
        else:
            u = vg[:, 1]
        d = whiten @ u
        d = _phase_fixed(d / np.linalg.norm(d))
        dirs.append(d)
    return dirs[0], dirs[1]


def mcm_povm(ens: Ensemble, alpha: float) -> Povm:
    """Maximum-confidence POVM with conclusive elements alpha |phi_i><phi_i|.

    The direction |phi_i> maximises the retrodictive confidence
    q_i Tr[rho_i pi] / Tr[rho pi] over rank-one pi. Whitening by
    rho^(-1/2) turns that ratio into a Rayleigh quotient, so
    |phi_i> ~ rho^(-1/2) u with u the top eigenvector of
    rho^(-1/2) rho_i rho^(-1/2). The achieved confidence does not depend
    on alpha; alpha only scales the conclusive rate, and must leave
    pi_0 = 1 - pi_1 - pi_2 positive semidefinite.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    d1, d2 = _mcm_directions(ens)
    return _povm_with_inconclusive(
        alpha * np.outer(d1, d1.conj()),
        alpha * np.outer(d2, d2.conj()),
        (alpha, alpha),
    )


def mcm_optimal(theta: float, p: float) -> tuple[Povm, float]:
    """Largest feasible conclusive weight and the inconclusive rate it attains.

    alpha is 1/lambda_max of the sum of the two conclusive projectors, the
    largest weight keeping pi_0 positive semidefinite; the confidence is
    alpha-independent, so this is the measurement with maximal confidences
    and minimal inconclusive rate.
    """
    ens = noisy_ensemble(theta, p)
    d1, d2 = _mcm_directions(ens)
    p1 = np.outer(d1, d1.conj())
    p2 = np.outer(d2, d2.conj())
    alpha = _max_weight(p1 + p2)
    m = _povm_with_inconclusive(alpha * p1, alpha * p2, (alpha, alpha))
    return m, inconclusive_rate(ens, m)
