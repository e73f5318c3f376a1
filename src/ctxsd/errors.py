"""Exception types shared across the package, the one range check of its
parameters and the one type check of its counts."""

import math
import operator

import numpy as np


class CtxsdError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CtxsdError, ValueError):
    """A numeric argument lies outside its mathematical domain."""


class ContractError(CtxsdError, TypeError):
    """Arguments are individually valid but jointly inconsistent."""


class UndefinedConfidenceError(CtxsdError):
    """Confidence requested for an outcome that never fires."""


class InfeasibleWeightsError(CtxsdError):
    """Requested weights leave the inconclusive element indefinite."""


class UsdImpossibleError(CtxsdError):
    """Unambiguous discrimination impossible: states linearly dependent."""


class DegenerateEnsembleError(CtxsdError):
    """Average state is singular; maximum-confidence directions undefined."""


class DivergenceError(CtxsdError):
    """A closed-form expression diverges at the requested parameter."""


_FLOAT = np.dtype(float)  # float64 input skips astype: a batch of one is priced per numpy call


def require_in(x, name: str, hi: float = 1.0, scalar: bool = False):
    """``x`` as a parameter in [0, hi]: a float for a scalar, a float array
    for an array or a sequence.

    Python ints and floats, numpy integer and floating scalars, and arrays or
    sequences of them pass. Anything else (a str, None, a bool, a complex
    value, or an array of them) raises ContractError, as does an array or a
    sequence for a parameter that is one number by nature (``scalar``). A
    value outside [0, hi], NaN included, raises DomainError naming the first
    one and, when ``x`` has several rows, its row.
    """
    if type(x) is float or type(x) is int:  # the scalar fast path
        if 0.0 <= x <= hi:  # false for NaN
            return float(x)
        bad = x
    else:
        try:
            a = np.asarray(x)
        except ValueError:  # a ragged sequence
            a = None
        if a is None or a.dtype.kind not in "fiu":
            raise ContractError(f"{name} must be a real number or an array of them, got {x!r}")
        if scalar and a.ndim:
            raise ContractError(f"{name} must be a single number, got shape {a.shape}")
        if a.dtype is not _FLOAT:
            a = a.astype(float)
        inside = (0.0 <= a) & (a <= hi)
        if inside.all():
            return a if a.ndim else float(a)
        rows = ~inside.reshape(len(a), -1).all(axis=1) if a.ndim else inside
        bad = f"{a[~inside][0]}" + (f" (row {int(rows.argmax())})" if rows.size > 1 else "")
    raise DomainError(f"{name} must lie in [0, {'pi' if hi == math.pi else f'{hi:g}'}], got {bad}")


def require_int(x, name: str) -> int:
    """``x`` as an int: a Python or numpy integer. Anything else (a float, a
    str, None, a bool) raises ContractError."""
    if not isinstance(x, bool):  # operator.index takes True as 1
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ContractError(f"{name} must be an integer, got {x!r}")
