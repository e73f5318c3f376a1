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
the figures of merit of any response set (``nc_figures``), and brute-force
oracles that optimise each figure. The closed forms they are checked
against are the closed-form route's, in ``bounds``. ``oracle_max_pg``
takes the pure pair (prep1, prep2), as minimum-error P_g has no noise p;
``nc_figures`` and the maximum-confidence oracles take the noisy pair
(noisy1, noisy2), which at p = 0 is the pure pair bit for bit.

The model is array-aware, with one code path. ``canonical_scenario`` given
equal-shape arrays of c and p builds a stack of scenarios, indexed like an
array; its epistemic states hold (..., 4) weight arrays, response sets hold
(..., 4) response arrays, and every function and oracle broadcasts over
those leading axes. Floats in give floats out: a point is a stack of one.
Inner products over the regions are summed in region order, so a stack and
each of its points agree bit for bit, and a typed error raised for a stack
names its first offending point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .config import NORM
from .errors import (
    ContractError,
    DomainError,
    InfeasibleWeightsError,
    UndefinedConfidenceError,
    require_in,
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
    "oracle_max_pg",
    "oracle_max_confidence",
    "oracle_min_p0_at_max_confidence",
]


class Region(IntEnum):
    """The four support intersections partitioning the ontic space."""

    S12 = 0
    S1m2 = 1
    Sm12 = 2
    Sm1m2 = 3


def _dot(w, v):
    """Inner product over the last (region) axis, broadcast over the leading
    axes and summed in region order, so a stack and each of its points agree
    bit for bit."""
    try:
        t = (w * v).T  # regions first, so a point's terms are numpy scalars
    except ValueError:  # leading axes that do not broadcast
        raise ContractError(f"region arrays of shapes {np.shape(w)} and {np.shape(v)} do not "
                            "broadcast") from None
    return (t[0] + t[1] + t[2] + t[3]).T


def _value(x):
    """A result over no leading axes as a float; a stack's as its array."""
    return float(x) if x.ndim == 0 else x  # a numpy scalar or an array


def _first(x, bad) -> float:
    """The entry of ``x`` (broadcast over ``bad``) at the first True of ``bad``."""
    k = np.unravel_index(np.argmax(bad), np.shape(bad))
    return float(np.broadcast_to(x, np.shape(bad))[k])


class EpistemicState:
    """Probability weights over the four regions: a (4,) array, or a (..., 4)
    stack of them."""

    __slots__ = ("_w",)

    def __init__(self, weights) -> None:
        try:
            w = np.array(weights, dtype=float)
        except (ValueError, TypeError) as exc:  # a non-numeric entry, or a ragged stack
            raise ContractError(f"region weights must be real numbers: {exc}") from None
        if w.shape[-1:] != (4,):
            raise ContractError(f"expected 4 region weights, got shape {w.shape}")
        if np.count_nonzero(w >= 0.0) < w.size:  # NaN is not >=
            raise DomainError("region weights must be nonnegative")
        total = w.sum(axis=-1)
        normalised = np.abs(total - 1.0) <= NORM
        if np.count_nonzero(normalised) < normalised.size:
            raise DomainError(f"region weights sum to {_first(total, ~normalised)}, expected 1")
        w.flags.writeable = False
        self._w = w

    @classmethod
    def _part(cls, weights: np.ndarray) -> "EpistemicState":
        """A read-only part of weights already validated as a larger stack."""
        state = object.__new__(cls)
        state._w = weights
        return state

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
    """Response vectors for outcomes "1", "2" and the inconclusive "0", each
    a (4,) array or a (..., 4) stack of equal shape.

    A valid measurement responds with probabilities in [0, 1] that sum to
    one region by region.
    """

    __slots__ = ("_xi1", "_xi2", "_xi0")

    def __init__(self, xi1, xi2, xi0) -> None:
        try:
            xi = np.array((xi1, xi2, xi0), dtype=float)
        except (ValueError, TypeError):  # a non-real entry, or unequal shapes
            for name, x in zip(("1", "2", "0"), (xi1, xi2, xi0)):
                try:
                    np.array(x, dtype=float)
                except (ValueError, TypeError) as exc:
                    raise ContractError(f"response {name} must hold real numbers: {exc}") from None
            raise ContractError("responses 1, 2 and 0 must have equal shapes") from None
        if xi.shape[-1:] != (4,):
            raise ContractError(f"responses must have 4 entries per point, got {xi.shape[1:]}")
        inside = (xi >= -NORM) & (xi <= 1.0 + NORM)
        if not inside.all():
            name = ("1", "2", "0")[np.argmin(inside.reshape(3, -1).all(axis=1))]
            raise DomainError(f"response {name} leaves [0, 1]")
        if not (np.abs(xi[0] + xi[1] + xi[2] - 1.0) <= NORM).all():
            raise DomainError("responses must sum to 1 pointwise")
        xi.flags.writeable = False
        self._xi1, self._xi2, self._xi0 = xi

    def __getitem__(self, k) -> "ResponseSet":
        """The responses (or stack) at the index ``k`` of the leading axes."""
        rs = object.__new__(ResponseSet)
        rs._xi1, rs._xi2, rs._xi0 = self._xi1[k], self._xi2[k], self._xi0[k]
        return rs

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


_STATES = ("prep1", "prep2", "mirror1", "mirror2", "mixed", "noisy1", "noisy2")
# The first five states' weights are c * _SLOPES + _OFFSETS, each entry as the
# textbook form rounds it: c (plus -0.0, which keeps even c = -0.0), 1 - c,
# 0, and, for the even mixture of prep1 and mirror1, c/2 and (1 - c)/2.
_SLOPES = np.array(((1.0, -1.0, 0.0, 0.0), (1.0, 0.0, -1.0, 0.0), (0.0, 0.0, -1.0, 1.0),
                    (0.0, -1.0, 0.0, 1.0), (0.5, -0.5, -0.5, 0.5)))
_OFFSETS = np.array(((-0.0, 1.0, 0.0, 0.0), (-0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, -0.0),
                     (0.0, 1.0, 0.0, -0.0), (0.0, 0.5, 0.5, 0.0)))


@dataclass(frozen=True, eq=False)
class NcScenario:
    """Canonical epistemic states at confusability c and noise p.

    ``c`` and ``p`` are floats, or equal-shape arrays for a stack of
    scenarios; ``scn[k]`` is the scenario (or stack) at the index ``k`` of
    those leading axes.
    """

    c: float | np.ndarray
    p: float | np.ndarray
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
        apart = self.prep1.weights[..., Region.S12] != self.prep2.weights[..., Region.S12]
        if np.count_nonzero(left != right) or np.count_nonzero(apart):
            broken = ~(left == right).all(axis=-1)
            if broken.any():
                raise ContractError("mirror preparation equivalence violated" + _at(broken, self))
            raise ContractError("preparations must agree on the shared support" + _at(apart, self))

    def __getitem__(self, k) -> "NcScenario":
        return NcScenario(np.asarray(self.c)[k], np.asarray(self.p)[k],
                          *(EpistemicState._part(getattr(self, s).weights[k]) for s in _STATES))


def _at(bad, scn: NcScenario) -> str:
    """Where a stacked check failed: the (c, p) of the first True of ``bad``."""
    return f" at c={_first(scn.c, bad)!r}, p={_first(scn.p, bad)!r}"


class NcFigures(NamedTuple):
    """Figures of merit of one response set: floats, or arrays for a stack.
    A confidence is None for an outcome that never fires (NaN in a stack)."""

    p_g: float | np.ndarray
    p_0: float | np.ndarray
    c1: Optional[float] | np.ndarray
    c2: Optional[float] | np.ndarray


def canonical_scenario(c: float | np.ndarray, p: float | np.ndarray) -> NcScenario:
    """Canonical region weights induced by the mirror equivalence.

    prep1 = (c, 1-c, 0, 0) and prep2 = (c, 0, 1-c, 0): each preparation puts
    mass c on the shared support and the rest on its private region. The
    mirrors swap private regions and place their shared mass c on Sm1m2, so
    the even mixture of a state with its mirror is the same vector for both
    pairs. Noisy states mix each preparation with that even mixture.

    ``c`` and ``p`` are floats, or equal-shape arrays for a stack of
    scenarios. The seven weight vectors are built as one (..., 7, 4) array
    and validated once: nonnegative with unit sums here, mirror equivalence
    and the shared support by ``NcScenario``.
    """
    c, p = require_in(c, "confusability"), require_in(p, "noise")
    cs, ps = np.asarray(c), np.asarray(p)
    if cs.shape != ps.shape:
        raise ContractError(f"c and p must have equal shapes, got {cs.shape} and {ps.shape}")
    w = np.empty((*cs.shape, 7, 4))
    np.add(cs[..., None, None] * _SLOPES, _OFFSETS, out=w[..., :5, :])  # prep1 to mixed
    q = ps[..., None, None]
    np.add((1.0 - q) * w[..., :2, :], q * w[..., 4:5, :], out=w[..., 5:, :])  # noisy1, noisy2
    w = EpistemicState(w).weights
    return NcScenario(c, p, *[EpistemicState._part(w[..., i, :]) for i in range(len(_STATES))])


def nc_prob(mu: EpistemicState, xi) -> float | np.ndarray:
    """Outcome probability: the inner product of weights and responses."""
    try:
        v = np.asarray(xi, dtype=float)
    except (ValueError, TypeError) as exc:  # a non-numeric entry, or a ragged stack
        raise ContractError(f"response vector must hold real numbers: {exc}") from None
    if v.shape[-1:] != (4,):
        raise ContractError("response vector must have 4 entries")
    if not ((v >= -NORM) & (v <= 1.0 + NORM)).all():
        raise DomainError("response values must lie in [0, 1]")
    return _value(_dot(mu.weights, v))


def confusability(a: EpistemicState, b: EpistemicState) -> float | np.ndarray:
    """Mass of b on the support of a."""
    return _value(_dot(a.support, b.weights))


def mesd_mixed_strategy(omega: float | np.ndarray) -> ResponseSet:
    """Omega-mixture of the two optimal-guessing strategies.

    The first strategy answers "1" exactly on the support of preparation 1,
    the second answers "2" exactly on the support of preparation 2; mixing
    with weight omega yields xi1 = (omega, 1, 0, 1-omega) and
    xi2 = (1-omega, 0, 1, omega). There is no inconclusive response.
    """
    w = np.asarray(require_in(omega, "omega"))[..., None]
    # omega times 1, -1 or 0 is exact, so each entry is omega, a constant or
    # 1 - omega rounded once, as 1.0 - omega is
    xi1 = w * np.array([1.0, 0.0, 0.0, -1.0]) + np.array([0.0, 1.0, 0.0, 1.0])
    xi2 = w * np.array([-1.0, 0.0, 0.0, 1.0]) + np.array([1.0, 0.0, 1.0, 0.0])
    return ResponseSet(xi1, xi2, np.zeros_like(xi1))


# Region patterns of the responses available to a conclusive outcome: a
# conclusive response is a scaled copy of the indicator of the identifying
# mirror support, uniformly across it (it represents a rescaling of the
# measurement that separates the competing preparation from its mirror).
_IDENTIFYING = np.array(((0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)))  # row i - 1 outcome i's
_PAIR_PATTERNS = np.concatenate((_IDENTIFYING, _IDENTIFYING))


def usd_response(gamma1: float | np.ndarray, gamma2: float | np.ndarray) -> ResponseSet:
    """Unambiguous-form responses: xi_i = gamma_i on the identifying support.

    Outcome 1 responds uniformly on the mirror-2 support (S1m2, Sm1m2),
    outcome 2 on the mirror-1 support (Sm12, Sm1m2); the inconclusive
    response absorbs the rest, which forces gamma1 + gamma2 <= 1 on the
    shared mirror region.
    """
    g1, g2 = require_in(gamma1, "weights"), require_in(gamma2, "weights")
    shape1, shape2 = getattr(g1, "shape", ()), getattr(g2, "shape", ())
    if shape1 != shape2:
        raise ContractError(f"gamma1 and gamma2 must have equal shapes, got {shape1} and {shape2}")
    g1, g2 = np.broadcast_arrays(g1, g2)
    total = g1 + g2
    over = total > 1.0 + NORM
    if over.any():
        raise InfeasibleWeightsError(f"gamma1 + gamma2 = {_first(total, over)} exceeds 1")
    xi1, xi2 = g1[..., None] * _IDENTIFYING[0], g2[..., None] * _IDENTIFYING[1]
    return ResponseSet(xi1, xi2, 1.0 - xi1 - xi2)


def nc_figures(scn: NcScenario, rs: ResponseSet) -> NcFigures:
    """Evaluate all four figures of merit for the equiprobable noisy pair.

    A scenario stack and a response stack broadcast against each other.
    Confidences come back as None for an outcome with zero probability, as
    NaN at such a point of a stack.
    """
    s1, s2 = scn.noisy1.weights, scn.noisy2.weights
    avg = 0.5 * (s1 + s2)
    hit1, hit2 = _dot(s1, rs.xi1), _dot(s2, rs.xi2)

    def conf(hit, den):
        fires = den > 0.0
        if fires.ndim == 0:  # a point
            return float(0.5 * hit / den) if fires else None
        return np.where(fires, 0.5 * hit / np.where(fires, den, 1.0), math.nan)

    return NcFigures(_value(0.5 * (hit1 + hit2)), _value(_dot(avg, rs.xi0)),
                     conf(hit1, _dot(avg, rs.xi1)), conf(hit2, _dot(avg, rs.xi2)))


# ---------------------------------------------------------------------------
# brute-force oracles

# The 3^4 assignments of a corner of the triangle {xi1, xi2 >= 0,
# xi1 + xi2 <= 1} (with xi0 = 1 - xi1 - xi2) to each region, the first region
# varying slowest, as a stack of 81 response sets validated once.
_VERTICES = np.array(list(itertools.product(np.eye(3), repeat=4)))  # (81, 4, 3)
_VERTEX_RESPONSES = ResponseSet(*np.moveaxis(_VERTICES, -1, 0))


def oracle_max_pg(scn: NcScenario) -> tuple[ResponseSet, float | np.ndarray]:
    """Maximise the pure pair's guessing probability over every valid response set.

    The objective is linear in the two conclusive responses region by
    region, and the per-region feasible set {xi1, xi2 >= 0, xi1 + xi2 <= 1}
    is a triangle, so an optimum sits on one of the 3^4 assignments of its
    corners; all 81 are enumerated, and the first of equal maxima wins.
    """
    s1, s2 = scn.prep1.weights[..., None, :], scn.prep2.weights[..., None, :]
    terms = s1 * _VERTEX_RESPONSES.xi1 + s2 * _VERTEX_RESPONSES.xi2
    p_g = 0.5 * (terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3])
    return _VERTEX_RESPONSES[p_g.argmax(axis=-1)], _value(p_g.max(axis=-1))


def oracle_max_confidence(scn: NcScenario, outcome: int) -> tuple[np.ndarray, float | np.ndarray]:
    """Maximise one conclusive confidence of the noisy pair over that outcome's responses.

    Candidates are the one-parameter family gamma * identifying-indicator
    (see ``usd_response``). The confidence is a ratio of two terms linear
    in gamma, so gamma cancels and the family is one vertex: the gamma = 1
    representative, the member with the largest outcome probability, is
    returned for each point.
    """
    if outcome not in (1, 2):
        raise ContractError(f"outcome must be 1 or 2, got {outcome}")
    value = _max_confidences(scn, (outcome,))[outcome - 1]
    return _IDENTIFYING[outcome - 1] + np.zeros_like(scn.prep1.weights), _value(value)


def _max_confidences(scn: NcScenario, outcomes: tuple) -> np.ndarray:
    """(2, ...) the confidences of outcomes 1 and 2 from one pass over the noisy pair:
    an outcome of ``outcomes`` that never fires raises, one not asked for is NaN."""
    s1, s2 = scn.noisy1.weights, scn.noisy2.weights
    # psi_i on outcome i's support (row i - 1), then the other state (row i + 1)
    onto = _dot(np.array((s1, s2, s2, s1)), _PAIR_PATTERNS.reshape(4, *(1,) * (s1.ndim - 1), 4))
    den = 0.5 * (onto[:2] + onto[2:])
    dead = den <= 0.0
    for i in outcomes:
        if np.count_nonzero(dead[i - 1]):
            raise UndefinedConfidenceError(f"outcome {i} never fires" + _at(dead[i - 1], scn))
    return 0.5 * onto[:2] / np.where(dead, math.nan, den)


# The symmetric point of the hypotenuse, then the vertices of the triangle
# {gamma1, gamma2 >= 0, gamma1 + gamma2 <= 1}: the minimiser's order on ties.
_FACE_CANDIDATES = np.array(((0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
_FACE_RESPONSES = usd_response(_FACE_CANDIDATES[:, 0], _FACE_CANDIDATES[:, 1])

# How far a confidence may sit from its maximum on the returned point.
_CONFIDENCE_FACE = 1e-10


def oracle_min_p0_at_max_confidence(scn: NcScenario) -> tuple[ResponseSet, float | np.ndarray]:
    """Smallest inconclusive rate among response sets with both conclusive
    confidences at their maxima.

    Both confidences are constant along the identifying family, so the
    maximal-confidence face is the triangle {gamma_i > 0,
    gamma1 + gamma2 <= 1} and the rate is linear on it; vertex enumeration
    of the triangle finds the minimum. Among the candidates whose rate is
    within 1e-15 of the smallest, the symmetric point of the hypotenuse wins,
    then (0, 0), (1, 0) and (0, 1) in that order. Membership of the face is
    re-checked on the returned point.
    """
    targets = _max_confidences(scn, (1, 2))
    avg = 0.5 * (scn.noisy1.weights + scn.noisy2.weights)
    mass = _dot(avg[..., None, :], _IDENTIFYING)  # (..., 2)
    rates = 1.0 - _FACE_CANDIDATES[:, 0] * mass[..., :1] - _FACE_CANDIDATES[:, 1] * mass[..., 1:]
    near = rates <= rates.min(axis=-1, keepdims=True) + 1e-15
    rs = _FACE_RESPONSES[near.argmax(axis=-1)]
    figs = nc_figures(scn, rs)
    # a point whose outcome never fires (None, or NaN in a stack) is off
    off = ~(np.abs(np.array((figs.c1, figs.c2), dtype=float) - targets) <= _CONFIDENCE_FACE)
    if np.count_nonzero(off):
        raise ContractError("minimiser left the maximal-confidence face" + _at(off.any(0), scn))
    return rs, figs.p_0
