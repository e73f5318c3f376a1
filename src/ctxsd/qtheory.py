"""Quantum side of binary state discrimination on a qubit.

Value types (pure states, ensembles, three-outcome POVMs) together with
the three figures of merit and the optimal-measurement constructions.
Operators are plain read-only 2x2 complex arrays. An ensemble is an
equiprobable pure pair dephased at a noise level p; it stores the pair and
its (2, 2) amplitude array and derives its two density operators and their
average once on construction. A POVM is one (3, 2, 2) array of its elements
(pi_1, pi_2, pi_0), pi_0 the inconclusive element, validated once.

The constructions work in Pauli coordinates, on real 3-vectors. With the
pair's Bloch vectors n_1, n_2, d = n_1 - n_2 and the average state's
r = (1 - p)(n_1 + n_2)/2 they are:

* minimum-error: the projector (I + d/|d| . sigma)/2 and its complement,
* unambiguous: pi_i = gamma_i (I - n_j . sigma)/2, the mirror projectors,
* maximum-confidence: rank-one directions with the Bloch vectors
  m_+- = -r +- (lambda/|d|^2) d, lambda = |d| sqrt(1 - |r|^2) (d . r = 0),
  which solve the whitened eigenproblem of Croke et al. and Herzog,

the last two with the conclusive weight at most 1/(1 + |m_1 + m_2|/2) for
conclusive Bloch vectors m_i, which keeps pi_0 positive semidefinite. Each
projector becomes a matrix once, in ``_projectors``; nothing calls LAPACK.

Every construction runs on stacks: ``helstrom_stack``, ``usd_stack`` and
``mcm_stack`` build N ensembles at once, with the coincident fallbacks and
the typed errors as masks, and return a ``MeasurementStack`` validated once.
The scalar constructions and ``make_pure_pair`` are batches of one of them,
their geometry the stack's formulas over floats and ``math``, the rest the
stack's arithmetic, so a stack row equals its batch of one bit for bit.

All functions are pure and all values immutable, so everything here is safe
to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .config import COMPLETENESS, NORM, PSD
from .errors import (
    ContractError,
    DegenerateEnsembleError,
    DomainError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
    UsdImpossibleError,
    require_in,
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
    "MeasurementStack",
    "helstrom_stack",
    "usd_stack",
    "mcm_stack",
]

_IDENTITY = np.eye(2, dtype=complex)
_HALF_IDENTITY = 0.5 * _IDENTITY
# a batch of one's weight fraction, no further weights, and a projective measurement's weights
_ONE, _NO_WEIGHTS, _UNIT_WEIGHTS = np.ones(1), np.zeros((1, 0, 2)), np.ones((1, 1, 2))
# X, Y, Z as the real and imaginary parts of their entries 00, 01, 10, 11: in
# them a . sigma = a @ _PAULI and Tr[H sigma] = H @ _PAULI.T, each entry one
# term or a sum of two, so rounded once at most, in any summation order.
_PAULI = np.array([[0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0],
                   [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0]])
_HALF_PAULI = 0.5 * _PAULI  # m @ _HALF_PAULI is (0.5 m) @ _PAULI: each entry one exact product
# I/2 as those eight parts; adding -0.0 leaves every entry, a signed zero too, as it is
_HALF_DIAGONAL = np.array([0.5, -0.0, -0.0, -0.0, -0.0, -0.0, 0.5, -0.0])


def min_eig_2x2(m: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of a 2x2 Hermitian matrix, or of each of a stack
    (..., 2, 2) of them, in closed form: centre - radius."""
    a = m[..., 0, 0].real
    b = m[..., 1, 1].real
    return 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.abs(m[..., 0, 1]))


@dataclass(frozen=True)
class PureState:
    """A qubit ray stored as two complex amplitudes of unit norm."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        try:
            n = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
            off = not abs(n - 1.0) <= NORM
        except (TypeError, ValueError):  # an amplitude that is no number, or an array
            raise ContractError(f"amplitudes must be numbers, got {self.amp0!r} and "
                                f"{self.amp1!r}") from None
        if off:
            raise DomainError(f"amplitudes have squared norm {n}, expected 1")


class Operator2:
    """2x2 complex Hermitian matrix, validated on construction.

    The constructor copies its input, freezes it and rejects matrices whose
    skew part exceeds the Hermiticity tolerance. The package keeps its own
    operators as plain arrays; this class stays public because
    ``perfbench/run.py --trace 1`` counts its constructions.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix) -> None:
        try:
            m = np.array(matrix, dtype=complex)
        except (ValueError, TypeError):  # a non-numeric entry, or a ragged array
            raise ContractError(f"operator entries must be numbers, got {matrix!r}") from None
        if m.shape != (2, 2):
            raise ContractError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.max(np.abs(m - m.conj().T)) <= NORM:
            raise DomainError("matrix is not Hermitian within tolerance")
        m.flags.writeable = False
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __repr__(self) -> str:
        return f"Operator2({self._m.tolist()!r})"


@dataclass(frozen=True)
class Ensemble:
    """Equiprobable pure pair dephased to rho_i = (1-p)|psi_i><psi_i| + p/2.

    ``pair`` and ``noise`` are the whole ensemble, and the priors are the
    class constant (1/2, 1/2). ``vectors`` (the pair's amplitudes, a
    read-only (2, 2) array, row i the state psi_{i+1}), ``states`` (the two
    density operators, a read-only (2, 2, 2) array) and ``average`` (their
    even mixture, a read-only 2x2 array) are derived once on construction
    by ``_ensembles``, as a stack's are, with the constructions' batch of one.
    """

    priors: ClassVar[tuple[float, float]] = (0.5, 0.5)

    pair: tuple[PureState, PureState]
    noise: float
    vectors: np.ndarray = field(init=False, compare=False)
    states: np.ndarray = field(init=False, compare=False)
    average: np.ndarray = field(init=False, compare=False)
    _batch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        if len(self.pair) != 2 or not all(isinstance(s, PureState) for s in self.pair):
            raise ContractError("an ensemble is a pair of PureState values")
        self._derive(np.array([[(s.amp0, s.amp1) for s in self.pair]], dtype=complex))

    def _derive(self, vectors: np.ndarray) -> None:
        """Check the noise; derive the arrays and the batch of one from the amplitudes."""
        batch = _ensembles(vectors, require_in(self.noise, "noise", scalar=True))
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors[0])
        object.__setattr__(self, "states", batch[1][0])
        object.__setattr__(self, "average", batch[2][0])
        object.__setattr__(self, "_batch", batch)


def _check_psd(min_eigs: np.ndarray) -> None:
    """Raise unless every element, with the smallest eigenvalues ``min_eigs``
    (..., 3), is positive semidefinite (NaN is not)."""
    psd = min_eigs >= -PSD  # NaN is not
    if np.count_nonzero(psd) < psd.size:
        raise ContractError(f"element {int(np.argmax(~psd)) % 3} has a negative eigenvalue")


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
        try:
            e = np.array(self.elements, dtype=complex)
        except (ValueError, TypeError) as exc:  # a non-numeric entry, or a ragged array
            raise ContractError(f"POVM elements must be complex numbers: {exc}") from None
        if e.shape != (3, 2, 2):
            raise ContractError(f"expected a (3, 2, 2) array of elements, got shape {e.shape}")
        if not np.abs(e - e.conj().swapaxes(-1, -2)).max() <= NORM:
            raise DomainError("POVM elements are not Hermitian within tolerance")
        _check_psd(min_eig_2x2(e))
        if not np.abs(e.sum(axis=0) - _IDENTITY).max() <= COMPLETENESS:
            raise ContractError("POVM elements do not sum to the identity")
        e.flags.writeable = False
        object.__setattr__(self, "elements", e)

    @classmethod
    def _validated(cls, elements: np.ndarray) -> "Povm":
        """Wrap the read-only elements of a validated stack row."""
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


def _row(bad: np.ndarray) -> str:
    """Where a stacked check failed: its first bad row, when there are several."""
    return f" (row {int(np.argmax(bad))})" if np.size(bad) > 1 else ""


# ---------------------------------------------------------------------------
# ensembles


def _pure_pairs(theta, scalar: bool = False) -> np.ndarray:
    """The amplitudes (N, 2, 2) of ``make_pure_pair(theta[k])`` for each k of
    the 1-D ``theta``, or (1, 2, 2) for the one number ``theta`` if
    ``scalar``: row k holds (psi1, psi2), each as (amp0, amp1)."""
    if scalar:
        theta = np.array([require_in(theta, "theta", math.pi, scalar=True)])
    else:
        theta = np.asarray(theta)
        if theta.ndim != 1 or not theta.size:
            raise ContractError(f"theta must be 1-D and not empty, got shape {theta.shape}")
        theta = require_in(theta, "theta", math.pi)
    half = 0.5 * theta
    hc, hs = np.cos(half), np.sin(half)
    vectors = np.empty((len(theta), 2, 2), dtype=complex)
    vectors[:, :, 0] = hc[:, None]
    vectors[:, 0, 1], vectors[:, 1, 1] = -hs, hs
    return vectors


def make_pure_pair(theta: float) -> tuple[PureState, PureState]:
    """Two unit vectors symmetric about |0> with <psi1|psi2> = cos(theta).

    |psi1> = cos(theta/2)|0> - sin(theta/2)|1> and
    |psi2> = cos(theta/2)|0> + sin(theta/2)|1>, for theta in [0, pi].
    """
    (a, b), = _pure_pairs(theta, scalar=True).tolist()
    return PureState(*a), PureState(*b)


def _mirrors(vectors: np.ndarray) -> np.ndarray:
    """The mirrors of the unit vectors ``vectors`` (..., 2): each the
    orthogonal ray (-conj(amp1), conj(amp0)), rescaled by a global phase so
    that its first amplitude of modulus above 1e-12 is real >= 0."""
    raw = np.stack((-vectors[..., 1].conj(), vectors[..., 0].conj()), axis=-1)
    lead = np.where(np.abs(raw[..., 0]) > 1e-12, raw[..., 0], raw[..., 1])
    r = np.abs(lead)  # conj(lead) / r part by part: exactly 1 for a real positive lead
    return raw * (lead.real / r - 1j * (lead.imag / r))[..., None]


def mirror(state: PureState) -> PureState:
    """The orthogonal ray, phase-fixed (first nonzero amplitude real >= 0).
    A batch of one of ``_mirrors``."""
    (amp0, amp1), = _mirrors(np.array([(state.amp0, state.amp1)], dtype=complex)).tolist()
    return PureState(amp0, amp1)


def noisy_ensemble(theta: float, p: float) -> Ensemble:
    """Equiprobable dephased pair rho_i = (1-p)|psi_i><psi_i| + p/2."""
    vectors = _pure_pairs(theta, scalar=True)
    ens = object.__new__(Ensemble)  # the pair built from its amplitude array, not the reverse
    [(a, b)] = vectors.tolist()
    vars(ens).update(pair=(PureState(*a), PureState(*b)), noise=p)
    ens._derive(vectors)
    return ens


def _dot(a, b):
    """a . b of 3-vectors as components, each entry exactly as it is alone."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ensembles(vectors: np.ndarray, p) -> tuple:
    """The pure pairs ``vectors`` (N, 2, 2) dephased at ``p`` (N,), in the one
    place states are formed: the Bloch vectors n_1, n_2 as components
    (3, 2, N), read off |psi_i><psi_i| = (I + n_i . sigma)/2; the states
    rho_i = (1 - p)|psi_i><psi_i| + p/2 (N, 2, 2, 2) and their averages
    (N, 2, 2), both read-only; p; and numpy. For a float p, a batch of one,
    n is nested lists of floats and ``math`` replaces numpy. The states come
    from the amplitudes, where a diagonal entry is a sum of positive terms:
    from n_i a nearly pure state's smaller entry (1 - (1 - p)|n_z|)/2 would cancel."""
    point = type(p) is float
    col = np.array([p]) if point else p
    proj = vectors[..., :, None] * vectors[..., None, :].conj()
    states = (1.0 - col)[:, None, None, None] * proj + col[:, None, None, None] * _HALF_IDENTITY
    average = 0.5 * (states[:, 0] + states[:, 1])
    states.flags.writeable = average.flags.writeable = False
    n = (proj.view(float).reshape(-1, 8) @ _PAULI.T).reshape(-1, 2, 3).T
    return (n[..., 0].tolist(), states, average, p, math) if point else (n, states, average, p, np)


# ---------------------------------------------------------------------------
# figures of merit


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[a b] of two broadcasting stacks of 2x2 matrices, as
    sum_ij Re(a_ij b_ji) with one real array operation per step, so every
    entry of a stack is computed exactly as it is alone."""
    bt = b.swapaxes(-1, -2)
    t = a.real * bt.real - a.imag * bt.imag
    t = t[..., 0, :] + t[..., 1, :]
    return t[..., 0] + t[..., 1]


def guessing_probability(ens: Ensemble, m: Povm) -> float:
    """Average probability that the conclusive outcome names the state.

    sum_i q_i Tr[rho_i pi_i].
    """
    hits = _traces(ens.states, m.elements[:2])
    return float(ens.priors[0] * hits[0] + ens.priors[1] * hits[1])


def inconclusive_rate(ens: Ensemble, m: Povm) -> float:
    """Tr[rho pi_0] under the prior-averaged state."""
    return float(_traces(ens.average, m.inconclusive()))


def confidence(ens: Ensemble, m: Povm, i: int) -> float:
    """Posterior probability that state i was prepared given outcome i."""
    outcome_prob = float(_traces(ens.average, m.conclusive(i)))
    if outcome_prob <= 0.0:
        raise UndefinedConfidenceError(f"outcome {i} has zero probability")
    joint = ens.priors[i - 1] * float(_traces(ens.states[i - 1], m.conclusive(i)))
    return joint / outcome_prob


# ---------------------------------------------------------------------------
# measurement stacks


@dataclass(frozen=True, eq=False)
class MeasurementStack:
    """Measurements of N equiprobable ensembles, each at F conclusive weights.

    ``states`` (N, 2, 2, 2) holds each ensemble's two density operators and
    ``average`` (N, 2, 2) their even mixtures. ``elements``
    (N, F, 3, 2, 2) holds the measurements (pi_1, pi_2, pi_0), with
    ``weights`` (N, F, 2) their conclusive weights (gamma_1, gamma_2), 1 for
    a projective measurement; they were validated as one stack when built.
    ``outcome_probs`` and ``hits`` are the traces every figure of merit reads,
    each formed once, in the arithmetic of the scalar ``confidence``,
    ``guessing_probability`` and ``inconclusive_rate``, so a measurement and
    its figures cannot disagree; each figure is formed once too. Indexing by
    a slice or a mask of rows gives the stack of those rows. All arrays are
    read-only.
    """

    states: np.ndarray
    average: np.ndarray
    weights: np.ndarray
    elements: np.ndarray

    def __getitem__(self, rows) -> "MeasurementStack":
        return MeasurementStack(self.states[rows], self.average[rows], self.weights[rows],
                                self.elements[rows])

    @cached_property
    def outcome_probs(self) -> np.ndarray:
        """(N, F, 3) Tr[rho pi] of every element under the average state."""
        return _read_only(_traces(self.average[:, None, None], self.elements))

    @cached_property
    def hits(self) -> np.ndarray:
        """(N, F, 2) Tr[rho_i pi_i] of both conclusive outcomes."""
        return _read_only(_traces(self.states[:, None], self.elements[:, :, :2]))

    @cached_property
    def _posteriors(self) -> np.ndarray:
        """(N, F, 2) both confidences, inf or NaN where the outcome never fires."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return _read_only(0.5 * self.hits / self.outcome_probs[..., :2])

    @cached_property
    def _guessing(self) -> np.ndarray:
        return _read_only(0.5 * self.hits[..., 0] + 0.5 * self.hits[..., 1])

    def confidence(self, i: int) -> np.ndarray:
        """(N, F) posterior probability of state i given outcome i."""
        if i not in (1, 2):
            raise ContractError(f"conclusive outcomes are 1 and 2, got {i}")
        prob = self.outcome_probs[..., i - 1]
        if not (prob > 0.0).all():
            raise UndefinedConfidenceError(
                f"outcome {i} has zero probability" + _row(~(prob > 0.0).all(axis=1)))
        return self._posteriors[..., i - 1]

    def confidences(self) -> np.ndarray:
        """(N, F, 2) the confidences of both outcomes."""
        for i in (1, 2):
            self.confidence(i)  # raises where outcome i never fires
        return self._posteriors

    def guessing_probability(self) -> np.ndarray:
        """(N, F) sum_i q_i Tr[rho_i pi_i]."""
        return self._guessing

    def inconclusive_rate(self) -> np.ndarray:
        """(N, F) Tr[rho pi_0] under the prior-averaged state."""
        return self.outcome_probs[..., 2]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _measurements(states: np.ndarray, average: np.ndarray, projectors: np.ndarray,
                  weights: np.ndarray) -> MeasurementStack:
    """The measurements with conclusive elements ``weights[n, f, i] *
    projectors[n, i]`` and pi_0 = 1 - pi_1 - pi_2, validated as one stack.

    The projectors are Hermitian and the weights real, so every element is
    Hermitian and the three sum to the identity by construction, to
    rounding. What the inputs decide is checked: every element positive
    semidefinite (NaN is not), and an indefinite pi_0 raises
    ``InfeasibleWeightsError`` naming the first bad row's weights.
    """
    elements = np.empty((*weights.shape[:2], 3, 2, 2), dtype=complex)
    np.multiply(weights[..., None, None], projectors[:, None], out=elements[:, :, :2])
    np.subtract(_IDENTITY - elements[:, :, 0], elements[:, :, 1], out=elements[:, :, 2])
    min_eigs = min_eig_2x2(elements)  # (N, F, 3)
    psd = min_eigs >= -PSD  # NaN is not
    if np.count_nonzero(psd) < psd.size:  # _check_psd's test, an indefinite pi_0 named first
        bad = ~psd[..., 2]
        if bad.any():
            raise InfeasibleWeightsError(
                f"weights {tuple(weights[bad][0].tolist())} make the inconclusive element "
                "indefinite" + _row(bad.any(axis=1)))
        _check_psd(min_eigs)
    weights.flags.writeable = elements.flags.writeable = False  # _ensembles froze the states
    return MeasurementStack(states, average, weights, elements)


def _projectors(dirs: np.ndarray) -> np.ndarray:
    """The projectors (I + m . sigma)/2 (..., 2, 2) of the unit Bloch vectors
    ``dirs`` (..., 3), formed from them by ``_PAULI``: the one place the
    route turns its coordinates into matrices. As the projector is rank one,
    its smaller diagonal entry (1 - |m_z|)/2 is taken as
    (m_x^2 + m_y^2) / (2 (1 + |m_z|)): towards the corner c -> 1, p -> 0 the
    directions are nearly pure states and 1 - |m_z| cancels."""
    flat = dirs.reshape(-1, 3) @ _HALF_PAULI
    flat += _HALF_DIAGONAL  # contiguous, so cheaper than adding 0.5 to the diagonal's view
    diag, x, y = flat[:, ::6], flat[:, 2], flat[:, 5]
    big = np.maximum(flat[:, 0], flat[:, 6])
    np.copyto(diag, ((x * x + y * y) / big)[:, None], where=diag < big[:, None])
    return flat.view(complex).reshape(*dirs.shape[:-1], 2, 2)


def _select(test, yes, no):
    """``yes`` where ``test`` holds, else ``no``: by a point's bool or row by row."""
    return (yes if test else no) if type(test) is bool else np.where(test, yes, no)


def _any(test):
    """Whether ``test`` holds anywhere: a point's bool, or a stack's count of rows."""
    return test if type(test) is bool else np.count_nonzero(test)


def _rows(vectors, xp) -> np.ndarray:
    """The directions ``vectors``, as components, as rows (N, ..., 3)."""
    return np.array(vectors)[None] if xp is math else np.moveaxis(np.array(vectors), -1, 0)


def _optimal_weight(m1, m2, xp) -> np.ndarray:
    """Largest w keeping 1 - w (P_1 + P_2) positive semidefinite for the
    projectors (I + m_i . sigma)/2 of the unit Bloch vectors m_1, m_2:
    1/(1 + |m_1 + m_2|/2), in [1/2, 1], as the weights (N, 1, 2) (w, w)."""
    s = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
    return (_UNIT_WEIGHTS.T / (1.0 + 0.5 * xp.sqrt(_dot(s, s)))).T


# ---------------------------------------------------------------------------
# minimum-error measurement

def _helstrom(ensembles: tuple) -> MeasurementStack:
    """Projective measurements onto the eigenspaces of q1 rho1 - q2 rho2 of
    the ``ensembles``, as ``_ensembles`` gives them.

    q1 rho1 - q2 rho2 = (1 - p) d . sigma/4, so outcome 1, its positive
    eigenspace, is (I + d/|d| . sigma)/2 and outcome 2 its complement. Where
    the eigenvalues +-(1 - p)|d|/2 of rho1 - rho2 vanish, a pure tie-break
    falls back to the computational basis: outcome 1 takes |0>, Bloch +z.
    """
    ((x1, x2), (y1, y2), (z1, z2)), states, average, p, xp = ensembles
    d = (x1 - x2, y1 - y2, z1 - z2)
    length = xp.sqrt(_dot(d, d))
    tie = 0.5 * (1.0 - p) * length <= 2.0 * NORM
    if tied := _any(tie):
        length = _select(tie, 1.0, length)  # the tied rows are replaced below
    top = _rows((d[0] / length, d[1] / length, d[2] / length), xp)
    if tied:
        top[tie] = (0.0, 0.0, 1.0)  # a point's bool indexes its one row
    projectors = np.empty(states.shape, complex)  # outcome 2 the exact complement: pi_0 = 0
    projectors[:, 0] = _projectors(top)
    np.subtract(_IDENTITY, projectors[:, 0], out=projectors[:, 1])
    return _measurements(states, average, projectors, _UNIT_WEIGHTS.repeat(len(states), 0))


def helstrom_stack(theta) -> MeasurementStack:
    """Minimum-error measurements of the pure pairs make_pure_pair(theta[k])
    for every k at once, one measurement (F = 1) per pair.
    ``helstrom_povm`` runs the same construction as a batch of one, on any
    ensemble."""
    vectors = _pure_pairs(theta)
    return _helstrom(_ensembles(vectors, np.zeros(len(vectors))))


def helstrom_povm(ens: Ensemble) -> Povm:
    """Projective measurement onto the eigenspaces of q1 rho1 - q2 rho2,
    outcome 1 the positive one, with the computational basis as tie-break.
    A batch of one of the stacked construction."""
    return Povm._validated(_helstrom(ens._batch).elements[0, 0])


# ---------------------------------------------------------------------------
# unambiguous discrimination


def _usd(vectors: np.ndarray, ensembles: tuple, weights: np.ndarray,
         optimal: bool) -> MeasurementStack:
    """Unambiguous measurements of the pure pairs ``vectors`` (N, 2, 2), with
    their ``ensembles`` (as ``_helstrom`` takes them), at the weights ``weights`` (N, F, 2),
    after the optimal measurement of each pair if ``optimal``.

    pi_i = gamma_i |mirror(psi_j)><mirror(psi_j)| = gamma_i (I - n_j . sigma)/2,
    j != i: each conclusive element projects onto the ray orthogonal to the
    competing state, so a conclusive click identifies its state with
    certainty. For an equiprobable pure pair the inconclusive rate falls
    linearly in gamma_1 + gamma_2 while the feasible set is convex and
    symmetric under swapping the weights, so the optimum is the largest
    symmetric weight with pi_0 still positive semidefinite. Only coincident
    states (the same ray) admit no unambiguous measurement; any distinct
    pair has one.
    """
    ((x1, x2), (y1, y2), (z1, z2)), states, average, p, xp = ensembles
    if _any(p != 0.0):
        raise ContractError("pure-state ensemble required (noise = 0)")
    dirs = ((-x2, -y2, -z2), (-x1, -y1, -z1))  # outcome 1 takes mirror(psi_2), 2 mirror(psi_1)
    if optimal:
        coincident = vectors[:, 0, 0] * vectors[:, 1, 1] == vectors[:, 0, 1] * vectors[:, 1, 0]
        if np.count_nonzero(coincident):
            raise UsdImpossibleError("states are linearly dependent" + _row(coincident))
        weights = np.concatenate((_optimal_weight(*dirs, xp), weights), 1)
    return _measurements(states, average, _projectors(_rows(dirs, xp)), weights)


def usd_stack(theta, weights=None) -> MeasurementStack:
    """Unambiguous measurements of the pure pairs make_pure_pair(theta[k]) for
    every k at once: measurement 0 of each row is the optimal one, and
    ``weights`` (N, F, 2), the (gamma_1, gamma_2) of each further
    measurement, adds F more. A coincident pair raises
    ``UsdImpossibleError`` naming its row, and weights leaving pi_0
    indefinite raise ``InfeasibleWeightsError`` naming theirs.
    ``usd_optimal`` and ``usd_povm`` run the same construction as batches
    of one."""
    vectors = _pure_pairs(theta)
    n = len(vectors)
    weights = np.zeros((n, 0, 2)) if weights is None else np.asarray(weights)
    if weights.ndim != 3 or weights.shape[::2] != (n, 2):
        raise ContractError(f"weights must have shape ({n}, F, 2), got {weights.shape}")
    return _usd(vectors, _ensembles(vectors, np.zeros(n)), require_in(weights, "weights"),
                optimal=True)


def usd_povm(ens: Ensemble, gamma1: float, gamma2: float) -> Povm:
    """Unambiguous POVM pi_i = gamma_i |mirror(psi_j)><mirror(psi_j)|, j != i.

    Requires a pure ensemble and weights that leave pi_0 = 1 - pi_1 - pi_2
    positive semidefinite. A batch of one of the stacked construction.
    """
    weights = np.array([[[require_in(g, "weights", scalar=True) for g in (gamma1, gamma2)]]])
    stack = _usd(ens.vectors[None], ens._batch, weights, optimal=False)
    return Povm._validated(stack.elements[0, 0])


def usd_optimal(ens: Ensemble) -> tuple[Povm, float]:
    """Minimise the inconclusive rate over feasible unambiguous weights.

    The optimum is the largest symmetric weight with pi_0 still positive
    semidefinite, 1/lambda_max of the sum of the two mirror projectors. Only
    coincident states (the same ray, theta = 0) raise. A batch of one of the
    stacked construction.
    """
    stack = _usd(ens.vectors[None], ens._batch, _NO_WEIGHTS, optimal=True)
    povm = Povm._validated(stack.elements[0, 0])
    return povm, float(_traces(stack.average[0], povm.elements[2]))


# ---------------------------------------------------------------------------
# maximum-confidence measurement


# Bloch vectors of u = (1, -+1)/sqrt(2), outcome 1's then 2's, for coincident
# states, where every direction is optimal: the limit of the generic case, so
# the optimal inconclusive rate stays continuous in (theta, p).
_COINCIDENT_E = ((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def mcm_stack(theta, p, fractions=(1.0,)) -> MeasurementStack:
    """Maximum-confidence measurements of noisy_ensemble(theta[k], p[k]) for
    every k at once, at the conclusive weights ``fractions`` times each
    ensemble's optimal weight.

    ``theta`` and ``p`` are equal-length 1-D sequences. ``mcm_optimal`` runs
    the same construction as a batch of one.
    """
    vectors = _pure_pairs(theta)
    p, fractions = np.asarray(p), np.asarray(fractions)
    if p.shape != (len(vectors),):
        raise ContractError(f"theta and p must be 1-D of one length, got {len(vectors)}, {p.shape}")
    if fractions.ndim != 1 or not fractions.size:
        raise ContractError(f"weight fractions must be 1-D and not empty, got {fractions}")
    return _mcm(_ensembles(vectors, require_in(p, "noise")),
                require_in(fractions, "weight fractions", math.inf))


def _mcm(ensembles: tuple, fractions: np.ndarray,
         alpha: np.ndarray | None = None) -> MeasurementStack:
    """The construction for the ``ensembles`` (as ``_helstrom`` takes them), at
    the weights ``fractions * alpha``; ``alpha`` (N, 1, 2) defaults to the optimal weights.

    The direction pi = (I + m . sigma)/2 maximises the confidence
    q_i Tr[rho_i pi] / Tr[rho pi]. As rho_i - rho = +-(1 - p) d . sigma/4,
    outcome 1 maximises and outcome 2 minimises d . m / (1 + r . m) over
    unit m, at m_+ and m_- respectively, read from the pair so p -> 1
    cannot cancel them:

        m_+- = -r +- (lambda/|d|^2) d,    lambda = |d| sqrt(1 - |r|^2),

    as d . r = (1 - p)(|n_1|^2 - |n_2|^2)/2 = 0 for an equiprobable pair.

    These are the eigenvectors of A = adj(rho)(P_1 - P_2), whose gap is
    lambda/2. Coincident states, a gap lambda/2 <= 1e-12 det(rho), take W u
    for the fixed u of Bloch vector e in ``_COINCIDENT_E``, with
    W ~ adj(rho + sqrt(det rho)) = w0 I + w . sigma, w0 = 1/2 + sqrt(det rho)
    and w = -r/2; by the product rule W (I + e . sigma) W has the Bloch vector

        (2 w0 w + (w0^2 - |w|^2) e + 2 (w . e) w) / (w0^2 + |w|^2 + 2 w0 w . e).
    """
    ((x1, x2), (y1, y2), (z1, z2)), states, average, p, xp = ensembles
    keep, d = 1.0 - p, (x1 - x2, y1 - y2, z1 - z2)
    rx, ry, rz = 0.5 * keep * (x1 + x2), 0.5 * keep * (y1 + y2), 0.5 * keep * (z1 + z2)
    dd = _dot(d, d)
    det = 0.25 * p * (2.0 - p) + 0.25 * keep * (0.25 * keep) * dd  # (1 - |r|^2)/4 for unit n_i
    # lambda_min(rho) = (1 - sqrt(1 - 4 det))/2, in a form that does not cancel; never NaN
    root = xp.sqrt(_select(4.0 * det > 1.0, 0.0, 1.0 - 4.0 * det))
    singular = 2.0 * det / (1.0 + root) <= NORM
    if _any(singular):
        raise DegenerateEnsembleError(
            "average state is singular (no noise and coincident or antipodal pair)"
            + _row(singular))
    lam = xp.sqrt(4.0 * det * dd)
    coincident = 0.5 * lam <= 1e-12 * det
    if fallback := _any(coincident):
        dd = _select(coincident, 1.0, dd)  # the coincident rows are replaced below
    scale = lam / dd
    dirs = [(scale * d[0] - rx, scale * d[1] - ry, scale * d[2] - rz),  # m_+ for outcome 1
            (-scale * d[0] - rx, -scale * d[1] - ry, -scale * d[2] - rz)]  # m_- for outcome 2
    if fallback:  # W u, as above
        w0, w = 0.5 + xp.sqrt(det), (-0.5 * rx, -0.5 * ry, -0.5 * rz)
        ww = _dot(w, w)
        for i, e in enumerate(_COINCIDENT_E):
            we = _dot(w, e)
            den = w0 * w0 + ww + 2.0 * w0 * we
            dirs[i] = _select(coincident, [(2.0 * w0 * wk + (w0 * w0 - ww) * ek + 2.0 * we * wk)
                                           / den for wk, ek in zip(w, e)], dirs[i])
    weights = (_optimal_weight(*dirs, xp) if alpha is None else alpha) * fractions[:, None]
    return _measurements(states, average, _projectors(_rows(dirs, xp)), weights)


def mcm_povm(ens: Ensemble, alpha: float) -> Povm:
    """Maximum-confidence POVM with conclusive elements alpha |phi_i><phi_i|.

    The achieved confidence does not depend on alpha; alpha only scales the
    conclusive rate, and must leave pi_0 = 1 - pi_1 - pi_2 positive
    semidefinite. A batch of one of the stacked construction.
    """
    stack = _mcm(ens._batch, _ONE, require_in(alpha, "alpha", scalar=True) * _UNIT_WEIGHTS)
    return Povm._validated(stack.elements[0, 0])


def mcm_optimal(theta: float, p: float) -> tuple[Povm, float]:
    """Largest feasible conclusive weight and the inconclusive rate it attains.

    The confidence is alpha-independent, so this is the measurement with
    maximal confidences and minimal inconclusive rate. A batch of one of
    ``mcm_stack``'s construction; its rate is one trace, as in ``usd_optimal``.
    """
    noise = require_in(p, "noise", scalar=True)
    stack = _mcm(_ensembles(_pure_pairs(theta, scalar=True), noise), _ONE)
    povm = Povm._validated(stack.elements[0, 0])
    return povm, float(_traces(stack.average[0], povm.elements[2]))
