"""Central tolerance record.

Every numeric comparison in the package reads its tolerance from a single
``Tolerances`` value, so tests can pin the defaults and the CLI can relax
the comparison thresholds uniformly through the ``CTXSD_TOL`` environment
variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .errors import DomainError

ENV_TOL = "CTXSD_TOL"


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the package.

    The first group guards type invariants, the second sets how closely
    independent routes to the same number must agree.
    """

    norm: float = 1e-12            # normalisation, Hermiticity, weight sums
    psd: float = 1e-10             # smallest admissible POVM eigenvalue
    completeness: float = 1e-10    # entrywise |sum of elements - identity|

    exact: float = 1e-12           # identities that hold to rounding error
    closed_form: float = 1e-9      # measurement construction vs closed form
    oracle: float = 1e-9           # brute-force oracle vs closed form
    advantage: float = 1e-12       # strict-gap threshold for advantage flags


DEFAULTS = Tolerances()


def from_env() -> Tolerances:
    """Return the defaults with the comparison tolerances floored at CTXSD_TOL.

    The override can only loosen checks (useful on platforms with a weaker
    libm); the structural tolerances are untouched.
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
    return replace(
        DEFAULTS,
        exact=max(DEFAULTS.exact, floor),
        closed_form=max(DEFAULTS.closed_form, floor),
        oracle=max(DEFAULTS.oracle, floor),
        advantage=max(DEFAULTS.advantage, floor),
    )
