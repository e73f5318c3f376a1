"""A budget on the calls that one scalar point query makes.

At a batch of one, a construction or an oracle is priced by how many calls
it makes, not by its arithmetic: each numpy call on a tiny array costs about
a microsecond. This test counts the ``call`` (Python) and ``c_call`` (C
function) events that ``sys.setprofile`` sees during one warm call of each
of the eight functions of a point query at (c, p, omega) = (0.3, 0.4, 0.2),
and fails, printing the table, if any function goes over its budget.

Operator ufuncs (``a * b``, ``a + b``, ``a <= b``), named ufuncs such as
``np.multiply`` and indexing run no profiled call, so they do not show up
in these counts; a builtin, a method such as ``.any()`` and a Python helper
do. So ``math.sqrt`` is counted, while ``np.sqrt`` and operator ufuncs are
invisible. The budgets are the counts of the current code plus 10%, set on
Python 3.11.7 with numpy 2.4.6; another numpy can move the counts of its
own Python-level functions.
"""

import math
import sys
from collections import Counter

from ctxsd import bounds, ncmodel, qtheory

_C, _P, _OMEGA = 0.3, 0.4, 0.2
_THETA = math.acos(math.sqrt(_C))

# (Python calls, C calls) of one warm call, as counted when the budgets were set.
_COUNTS = {
    "table1_report": (56, 35),
    "mcm_optimal": (23, 19),
    "noisy_ensemble": (10, 19),
    "helstrom_povm": (14, 11),
    "usd_optimal": (18, 10),
    "canonical_scenario": (30, 19),
    "oracle_max_pg": (8, 5),
    "oracle_min_p0_at_max_confidence": (35, 12),
}
_BUDGETS = {name: tuple(math.ceil(1.1 * n) for n in counts) for name, counts in _COUNTS.items()}


def _calls():
    pure = qtheory.noisy_ensemble(_THETA, 0.0)
    scenario = ncmodel.canonical_scenario(_C, _P)
    return {
        "table1_report": (bounds.table1_report, (_C, _P, _OMEGA)),
        "mcm_optimal": (qtheory.mcm_optimal, (_THETA, _P)),
        "noisy_ensemble": (qtheory.noisy_ensemble, (_THETA, _P)),
        "helstrom_povm": (qtheory.helstrom_povm, (pure,)),
        "usd_optimal": (qtheory.usd_optimal, (pure,)),
        "canonical_scenario": (ncmodel.canonical_scenario, (_C, _P)),
        "oracle_max_pg": (ncmodel.oracle_max_pg, (scenario,)),
        "oracle_min_p0_at_max_confidence": (ncmodel.oracle_min_p0_at_max_confidence, (scenario,)),
    }


def _count(fn, args) -> tuple[int, int]:
    """(Python, C) calls of one call of ``fn(*args)`` after a warm-up call."""
    seen = Counter()

    def profile(frame, event, arg):
        seen[event] += 1

    fn(*args)
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen["call"], seen["c_call"]


def test_every_point_query_call_is_within_its_budget():
    counts = {name: _count(fn, args) for name, (fn, args) in _calls().items()}
    over = {name for name, got in counts.items()
            if any(n > limit for n, limit in zip(got, _BUDGETS[name]))}
    table = "\n".join(f"{'*' if name in over else ' '} {name:34s} {got[0]:4d}/{got[1]:<4d}"
                      f" budget {_BUDGETS[name][0]}/{_BUDGETS[name][1]}"
                      for name, got in counts.items())
    assert not over, "calls (Python/C) over budget:\n" + table
