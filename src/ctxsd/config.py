"""Numeric thresholds: the comparison tolerances and the structural constants.

``Tolerances`` holds the three limits within which two routes to the same
number must agree; ``DEFAULTS`` is its default value, and the ``CTXSD_TOL``
environment variable floors all three (``from_env``, read by ``verify``
alone). No tolerance decides an advantage: ``bounds`` reads each verdict
from the signs of its gap's factors.
The type invariants read the constants ``NORM``, ``PSD`` and
``COMPLETENESS``, which no setting changes: a construction either is a
state, a response or a POVM to these limits or raises. The route-local
windows (tie-breaks and coincidence tests) are listed in the README's
"Tolerances" section, each beside its reason.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass

from .errors import DomainError

ENV_TOL = "CTXSD_TOL"

NORM = 1e-12           # normalisation, Hermiticity, weight sums, singular denominators
PSD = 1e-10            # smallest admissible POVM eigenvalue
COMPLETENESS = 1e-10   # entrywise |sum of elements - identity|


@dataclass(frozen=True)
class Tolerances:
    """How closely independent routes to the same number must agree."""

    exact: float = 1e-12           # identities that hold to rounding error
    closed_form: float = 1e-9      # measurement construction vs closed form
    oracle: float = 1e-9           # brute-force oracle vs closed form


DEFAULTS = Tolerances()


def from_env() -> Tolerances:
    """Return the defaults with every tolerance floored at CTXSD_TOL.

    The override can only loosen checks (useful on platforms with a weaker
    libm); the structural constants are untouched.
    """
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULTS
    try:
        floor = float(raw)
    except ValueError:
        raise DomainError(f"{ENV_TOL} must be a number, got {raw!r}") from None
    if not 0.0 < floor < math.inf:
        raise DomainError(f"{ENV_TOL} must be positive and finite, got {floor}")
    return Tolerances(*(max(limit, floor) for limit in astuple(DEFAULTS)))
