"""Four-region ontological model for binary discrimination with mirrors.

Two preparations with confusability c, their mirror preparations, and the
even mixtures are all supported on four regions of the ontic space: the
pairwise intersections of the supports of the two preparations and of the
two mirrors. Every distribution and every response function appearing in
the model is constant on these regions, so epistemic states are length-4
weight vectors and measurement outcomes are length-4 response vectors; the
discretisation is lossless.

Region order used everywhere: (S12, S1m2, Sm12, Sm1m2) = (both supports,
first state + mirror of second, mirror of first + second state, both
mirrors).

The module provides the canonical weight assignment, the explicit
noncontextual strategies (omega-mixed guessing, unambiguous gamma-family),
their closed-form figures of merit, and brute-force oracles that optimise
each figure independently of those closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULTS
from .errors import (
    ContractError,
    DivergenceError,
    DomainError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
)

__all__ = [
    "Region",
    "EpistemicState",
    "ResponseSet",
    "NcScenario",
    "NcFigures",
    "canonical_scenario",
    "nc_prob",
    "confusability",
    "mesd_mixed_strategy",
    "usd_response",
    "nc_figures",
    "nc_mesd_confidences",
    "omega_star",
    "oracle_max_pg",
    "oracle_max_confidence",
    "oracle_min_p0_at_max_confidence",
    "nc_mcm_guessing",
]


class Region(IntEnum):
    """The four support intersections partitioning the ontic space."""

    S12 = 0
    S1m2 = 1
    Sm12 = 2
    Sm1m2 = 3


class EpistemicState:
    """Probability weights over the four regions."""

    __slots__ = ("_w",)

    def __init__(self, weights) -> None:
        w = np.array(weights, dtype=float)
        if w.shape != (4,):
            raise ContractError(f"expected 4 region weights, got shape {w.shape}")
        if not np.all(w >= 0.0):
            raise DomainError("region weights must be nonnegative")
        if not abs(float(w.sum()) - 1.0) <= DEFAULTS.norm:
            raise DomainError(f"region weights sum to {w.sum()}, expected 1")
        w.flags.writeable = False
        self._w = w

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of regions carrying strictly positive mass."""
        return self._w > 0.0

    def __repr__(self) -> str:
        return f"EpistemicState({self._w.tolist()!r})"


class ResponseSet:
    """Response vectors for outcomes "1", "2" and the inconclusive "0".

    A valid measurement responds with probabilities in [0, 1] that sum to
    one region by region.
    """

    __slots__ = ("_xi1", "_xi2", "_xi0")

    def __init__(self, xi1, xi2, xi0) -> None:
        vecs = []
        for name, raw in (("1", xi1), ("2", xi2), ("0", xi0)):
            v = np.array(raw, dtype=float)
            if v.shape != (4,):
                raise ContractError(f"response {name} must have 4 entries")
            if not np.all((v >= -DEFAULTS.norm) & (v <= 1.0 + DEFAULTS.norm)):
                raise DomainError(f"response {name} leaves [0, 1]")
            v.flags.writeable = False
            vecs.append(v)
        total = vecs[0] + vecs[1] + vecs[2]
        if not np.max(np.abs(total - 1.0)) <= DEFAULTS.norm:
            raise DomainError("responses must sum to 1 pointwise")
        self._xi1, self._xi2, self._xi0 = vecs

    @property
    def xi1(self) -> np.ndarray:
        return self._xi1

    @property
    def xi2(self) -> np.ndarray:
        return self._xi2

    @property
    def xi0(self) -> np.ndarray:
        return self._xi0

    def __repr__(self) -> str:
        return (
            f"ResponseSet(xi1={self._xi1.tolist()!r}, "
            f"xi2={self._xi2.tolist()!r}, xi0={self._xi0.tolist()!r})"
        )


@dataclass(frozen=True, eq=False)
class NcScenario:
    """Canonical epistemic states at confusability c and noise p."""

    c: float
    p: float
    prep1: EpistemicState
    prep2: EpistemicState
    mirror1: EpistemicState
    mirror2: EpistemicState
    mixed: EpistemicState
    noisy1: EpistemicState
    noisy2: EpistemicState

    def __post_init__(self) -> None:
        left = 0.5 * self.prep1.weights + 0.5 * self.mirror1.weights
        right = 0.5 * self.prep2.weights + 0.5 * self.mirror2.weights
        if not np.array_equal(left, right):
            raise ContractError("mirror preparation equivalence violated")
        if self.prep1.weights[Region.S12] != self.prep2.weights[Region.S12]:
            raise ContractError("preparations must agree on the shared support")


class NcFigures(NamedTuple):
    """Figures of merit of one response set; None marks an outcome that never fires."""

    p_g: float
    p_0: float
    c1: Optional[float]
    c2: Optional[float]


def canonical_scenario(c: float, p: float) -> NcScenario:
    """Canonical region weights induced by the mirror equivalence.

    prep1 = (c, 1-c, 0, 0) and prep2 = (c, 0, 1-c, 0): each preparation puts
    mass c on the shared support and the rest on its private region. The
    mirrors swap private regions and place their shared mass c on Sm1m2, so
    the even mixture of a state with its mirror is the same vector for both
    pairs. Noisy states mix each preparation with that even mixture.
    """
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"confusability must lie in [0, 1], got {c}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"noise must lie in [0, 1], got {p}")
    prep1 = EpistemicState((c, 1.0 - c, 0.0, 0.0))
    prep2 = EpistemicState((c, 0.0, 1.0 - c, 0.0))
    mirror1 = EpistemicState((0.0, 0.0, 1.0 - c, c))
    mirror2 = EpistemicState((0.0, 1.0 - c, 0.0, c))
    mixed = EpistemicState(0.5 * prep1.weights + 0.5 * mirror1.weights)
    noisy1 = EpistemicState((1.0 - p) * prep1.weights + p * mixed.weights)
    noisy2 = EpistemicState((1.0 - p) * prep2.weights + p * mixed.weights)
    return NcScenario(c, p, prep1, prep2, mirror1, mirror2, mixed, noisy1, noisy2)


def nc_prob(mu: EpistemicState, xi) -> float:
    """Outcome probability: the inner product of weights and responses."""
    v = np.asarray(xi, dtype=float)
    if v.shape != (4,):
        raise ContractError("response vector must have 4 entries")
    if not np.all((v >= -DEFAULTS.norm) & (v <= 1.0 + DEFAULTS.norm)):
        raise DomainError("response values must lie in [0, 1]")
    return float(mu.weights @ v)


def confusability(a: EpistemicState, b: EpistemicState) -> float:
    """Mass of b on the support of a."""
    return float(b.weights[a.support].sum())


def mesd_mixed_strategy(omega: float) -> ResponseSet:
    """Omega-mixture of the two optimal-guessing strategies.

    The first strategy answers "1" exactly on the support of preparation 1,
    the second answers "2" exactly on the support of preparation 2; mixing
    with weight omega yields xi1 = (omega, 1, 0, 1-omega) and
    xi2 = (1-omega, 0, 1, omega). There is no inconclusive response.
    """
    if not 0.0 <= omega <= 1.0:
        raise DomainError(f"omega must lie in [0, 1], got {omega}")
    xi1 = np.array([omega, 1.0, 0.0, 1.0 - omega])
    xi2 = np.array([1.0 - omega, 0.0, 1.0, omega])
    return ResponseSet(xi1, xi2, np.zeros(4))


def usd_response(gamma1: float, gamma2: float) -> ResponseSet:
    """Unambiguous-form responses: xi_i = gamma_i on the identifying support.

    Outcome 1 responds uniformly on the mirror-2 support (S1m2, Sm1m2),
    outcome 2 on the mirror-1 support (Sm12, Sm1m2); the inconclusive
    response absorbs the rest, which forces gamma1 + gamma2 <= 1 on the
    shared mirror region.
    """
    for g in (gamma1, gamma2):
        if not 0.0 <= g <= 1.0:
            raise DomainError(f"weights must lie in [0, 1], got {g}")
    if gamma1 + gamma2 > 1.0 + DEFAULTS.norm:
        raise InfeasibleWeightsError(
            f"gamma1 + gamma2 = {gamma1 + gamma2} exceeds 1"
        )
    xi1 = np.array([0.0, gamma1, 0.0, gamma1])
    xi2 = np.array([0.0, 0.0, gamma2, gamma2])
    xi0 = np.array([1.0, 1.0 - gamma1, 1.0 - gamma2, 1.0 - gamma1 - gamma2])
    return ResponseSet(xi1, xi2, xi0)


def nc_figures(scn: NcScenario, rs: ResponseSet, noisy: bool = False) -> NcFigures:
    """Evaluate all four figures of merit for the equiprobable pair.

    Confidences come back as None for an outcome with zero probability.
    """
    s1 = scn.noisy1 if noisy else scn.prep1
    s2 = scn.noisy2 if noisy else scn.prep2
    avg = 0.5 * (s1.weights + s2.weights)
    p_g = 0.5 * (float(s1.weights @ rs.xi1) + float(s2.weights @ rs.xi2))
    p_0 = float(avg @ rs.xi0)

    def conf(own: EpistemicState, xi: np.ndarray) -> Optional[float]:
        den = float(avg @ xi)
        if den <= 0.0:
            return None
        return 0.5 * float(own.weights @ xi) / den

    return NcFigures(p_g, p_0, conf(s1, rs.xi1), conf(s2, rs.xi2))


def _in_unit(x) -> bool:
    """Whether a float, or every entry of an array, lies in [0, 1]."""
    if isinstance(x, np.ndarray):
        return bool(((0.0 <= x) & (x <= 1.0)).all())
    return 0.0 <= x <= 1.0


def _where(mask, a, b):
    """``np.where`` for array masks; a plain choice for a scalar mask."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def nc_mesd_confidences(c: float | np.ndarray, omega: float | np.ndarray) -> tuple:
    """Closed-form confidences of the omega-mixed guessing strategies.

    C(1) = (1 - (1-omega)c) / (1 - (1-2*omega)c) and
    C(2) = (1 - omega*c) / (1 + (1-2*omega)c). Coincident preparations
    (c = 1) give (1/2, 1/2), the value forced by the canonical model
    whenever the outcome fires at all. ``c`` and ``omega`` may be floats
    or numpy arrays.
    """
    if not _in_unit(c):
        raise DomainError(f"confusability must lie in [0, 1], got {c}")
    if not _in_unit(omega):
        raise DomainError(f"omega must lie in [0, 1], got {omega}")
    coincident = c == 1.0
    # at c = 1 a denominator can vanish; divide by 1 there, then discard
    den1 = _where(coincident, 1.0, 1.0 - (1.0 - 2.0 * omega) * c)
    den2 = _where(coincident, 1.0, 1.0 + (1.0 - 2.0 * omega) * c)
    c1 = _where(coincident, 0.5, (1.0 - (1.0 - omega) * c) / den1)
    c2 = _where(coincident, 0.5, (1.0 - omega * c) / den2)
    return c1, c2


def omega_star(c: float) -> float:
    """Mixing weight at which the first arm's confidence drops to the
    optimal guessing probability.

    Written as sqrt(1-c) / (2 (1 + sqrt(1-c))), which is algebraically
    equal to the textbook form (1-c)(1 - sqrt(1-c)) / (2 c sqrt(1-c)) but
    stable as c -> 0, where the value tends to 1/4. Bounded by 1/4 on
    [0, 1); undefined for coincident preparations.
    """
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"confusability must lie in [0, 1], got {c}")
    if c == 1.0:
        raise DivergenceError("threshold undefined for coincident preparations")
    t = math.sqrt(1.0 - c)
    return t / (2.0 * (1.0 + t))


# ---------------------------------------------------------------------------
# brute-force oracles

_VERTEX_CHOICES = ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0))

# Region patterns of the responses available to a conclusive outcome: a
# conclusive response is a scaled copy of the indicator of the identifying
# mirror support, uniformly across it (it represents a rescaling of the
# measurement that separates the competing preparation from its mirror).
_IDENTIFYING = {
    1: np.array([0.0, 1.0, 0.0, 1.0]),
    2: np.array([0.0, 0.0, 1.0, 1.0]),
}


def oracle_max_pg(scn: NcScenario, noisy: bool = False) -> tuple[ResponseSet, float]:
    """Maximise the guessing probability over every valid response set.

    The objective is linear in the two conclusive responses region by
    region, and the per-region feasible set {xi1, xi2 >= 0, xi1 + xi2 <= 1}
    is a triangle, so an optimum sits on one of the 3^4 assignments of its
    corners; all 81 are enumerated.
    """
    s1 = (scn.noisy1 if noisy else scn.prep1).weights
    s2 = (scn.noisy2 if noisy else scn.prep2).weights
    best = -1.0
    best_assign = None
    for assign in itertools.product(_VERTEX_CHOICES, repeat=4):
        p_g = 0.5 * sum(s1[r] * a[0] + s2[r] * a[1] for r, a in enumerate(assign))
        if p_g > best:
            best = p_g
            best_assign = assign
    xi1 = np.array([a[0] for a in best_assign])
    xi2 = np.array([a[1] for a in best_assign])
    return ResponseSet(xi1, xi2, 1.0 - xi1 - xi2), best


def oracle_max_confidence(
    scn: NcScenario, outcome: int, noisy: bool = False
) -> tuple[np.ndarray, float]:
    """Maximise one conclusive confidence over that outcome's responses.

    Candidates are the one-parameter family gamma * identifying-indicator
    (see ``usd_response``). The confidence is a ratio of two terms linear
    in gamma, so gamma cancels and the family is one vertex: the gamma = 1
    representative, the member with the largest outcome probability, is
    returned.
    """
    if outcome not in (1, 2):
        raise ContractError(f"outcome must be 1 or 2, got {outcome}")
    own = (scn.noisy1 if noisy else scn.prep1) if outcome == 1 else (
        scn.noisy2 if noisy else scn.prep2
    )
    other = (scn.noisy2 if noisy else scn.prep2) if outcome == 1 else (
        scn.noisy1 if noisy else scn.prep1
    )
    pattern = _IDENTIFYING[outcome]
    num = float(own.weights @ pattern)
    den = 0.5 * (num + float(other.weights @ pattern))
    if den <= 0.0:
        raise UndefinedConfidenceError(
            f"outcome {outcome} never fires on this scenario"
        )
    return pattern.copy(), 0.5 * num / den


# Vertices of the triangle {gamma1, gamma2 >= 0, gamma1 + gamma2 <= 1}, plus
# the symmetric point of the hypotenuse, which the minimiser prefers on ties.
_FACE_CANDIDATES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5))

# How far a confidence may sit from its maximum on the returned point.
_CONFIDENCE_FACE = 1e-10


def oracle_min_p0_at_max_confidence(scn: NcScenario) -> tuple[ResponseSet, float]:
    """Smallest inconclusive rate among response sets with both conclusive
    confidences at their maxima.

    Both confidences are constant along the identifying family, so the
    maximal-confidence face is the triangle {gamma_i > 0,
    gamma1 + gamma2 <= 1} and the rate is linear on it; vertex enumeration
    of the triangle finds the minimum, preferring the symmetric point of
    the hypotenuse among ties. Membership of the face is re-checked on the
    returned point.
    """
    target1 = oracle_max_confidence(scn, 1, noisy=True)[1]
    target2 = oracle_max_confidence(scn, 2, noisy=True)[1]
    avg = 0.5 * (scn.noisy1.weights + scn.noisy2.weights)
    mass1 = float(avg @ _IDENTIFYING[1])
    mass2 = float(avg @ _IDENTIFYING[2])

    best_p0 = math.inf
    best_pair = (0.0, 0.0)
    for g1, g2 in _FACE_CANDIDATES:
        p_0 = 1.0 - g1 * mass1 - g2 * mass2
        better = p_0 < best_p0 - 1e-15
        tie = abs(p_0 - best_p0) <= 1e-15 and min(g1, g2) > min(*best_pair)
        if better or tie:
            best_p0 = p_0
            best_pair = (g1, g2)

    rs = usd_response(*best_pair)
    figs = nc_figures(scn, rs, noisy=True)
    for got, want in ((figs.c1, target1), (figs.c2, target2)):
        if got is None or abs(got - want) > _CONFIDENCE_FACE:
            raise ContractError("minimiser left the maximal-confidence face")
    return rs, figs.p_0


def nc_mcm_guessing(c: float | np.ndarray, p: float | np.ndarray) -> float | np.ndarray:
    """Closed-form guessing probability of the maximal-confidence strategy:
    (1 - p/2 - (1-p) c) / 2. ``c`` and ``p`` may be floats or numpy arrays."""
    if not _in_unit(c):
        raise DomainError(f"confusability must lie in [0, 1], got {c}")
    if not _in_unit(p):
        raise DomainError(f"noise must lie in [0, 1], got {p}")
    return 0.5 * (1.0 - 0.5 * p - (1.0 - p) * c)
