"""What the eight scalar calls of a point query return, pinned bit for bit.

A point query (``perfbench`` point-queries) calls ``table1_report``,
``mcm_optimal``, ``noisy_ensemble``, ``helstrom_povm``, ``usd_optimal``,
``canonical_scenario``, ``oracle_max_pg`` and
``oracle_min_p0_at_max_confidence`` at one (c, p, omega), with
theta = acos(sqrt(c)). ``tests/data/point_queries.json`` holds what they
returned at 64 fixed points: 48 seeded interior points and 16 corner points,
log-spaced in 1 - c and p over [1e-12, 1e-1]. Every number is stored as
``float.hex``, and a call that raised as its error class. A speed-up must
pass this test without regenerating the file.

Regenerate only for an intended change of results, with
``PYTHONPATH=src python tests/test_pinned_points.py``.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ctxsd import bounds, ncmodel, qtheory
from ctxsd.errors import CtxsdError

_FILE = Path(__file__).parent / "data" / "point_queries.json"


def _points() -> list[tuple[float, float, float]]:
    rng = random.Random(18)
    interior = [(rng.random(), rng.random(), rng.random()) for _ in range(48)]
    decades = np.linspace(1.0, 12.0, 4)
    corner = [(1.0 - 10.0 ** -a, 10.0 ** -b, rng.random()) for a in decades for b in decades]
    return interior + corner


def _hex(x):
    """Numbers as ``float.hex`` (complex as [real, imag]), nested like ``x``."""
    if isinstance(x, np.ndarray):
        return _hex(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    return float(x).hex()


def _cell(cell):
    if isinstance(cell, bounds.GapCertificate):
        return {"q": cell.quantum_value, "nc": cell.noncontextual_value, "gap": cell.gap,
                "advantage": cell.advantage}
    if isinstance(cell, bounds.ConfidencePairCell):
        return {"arm1": _cell(cell.arm1), "arm2": _cell(cell.arm2), "window": cell.window,
                "advantage": cell.advantage}
    return {"value": cell.value, "note": cell.note}


def _report(c, p, omega, theta):
    r = bounds.table1_report(c, p, omega)
    return {"usd_possible": r.usd_possible,
            **{f"{s} {f}": _cell(cell) for (s, f), cell in r.cells.items()}}


def _ensemble(ens):
    return {"pair": [[s.amp0, s.amp1] for s in ens.pair], "noise": ens.noise,
            "vectors": ens.vectors, "states": ens.states, "average": ens.average}


def _measured(povm_and_rate):
    povm, rate = povm_and_rate
    return {"elements": povm.elements, "p_0": rate}


def _responses(rs, value):
    return {"xi1": rs.xi1, "xi2": rs.xi2, "xi0": rs.xi0, "value": value}


def _scenario(scn):
    return {"c": scn.c, "p": scn.p, **{s: getattr(scn, s).weights for s in ncmodel._STATES}}


_CALLS = {
    "table1_report": _report,
    "mcm_optimal": lambda c, p, omega, theta: _measured(qtheory.mcm_optimal(theta, p)),
    "noisy_ensemble": lambda c, p, omega, theta: _ensemble(qtheory.noisy_ensemble(theta, p)),
    "helstrom_povm": lambda c, p, omega, theta: {"elements": qtheory.helstrom_povm(
        qtheory.noisy_ensemble(theta, 0.0)).elements},
    "usd_optimal": lambda c, p, omega, theta: _measured(
        qtheory.usd_optimal(qtheory.noisy_ensemble(theta, 0.0))),
    "canonical_scenario": lambda c, p, omega, theta: _scenario(ncmodel.canonical_scenario(c, p)),
    "oracle_max_pg": lambda c, p, omega, theta: _responses(
        *ncmodel.oracle_max_pg(ncmodel.canonical_scenario(c, p))),
    "oracle_min_p0_at_max_confidence": lambda c, p, omega, theta: _responses(
        *ncmodel.oracle_min_p0_at_max_confidence(ncmodel.canonical_scenario(c, p))),
}


def _result(name: str, c: float, p: float, omega: float):
    """What the call ``name`` returns at one point, or the class of the error
    it raised."""
    try:
        return _hex(_CALLS[name](c, p, omega, math.acos(math.sqrt(c))))
    except CtxsdError as exc:
        return {"raises": type(exc).__name__}


def _record(c: float, p: float, omega: float) -> dict:
    return {"point": _hex([c, p, omega]), **{name: _result(name, c, p, omega) for name in _CALLS}}


def _pinned() -> list[dict]:
    return json.loads(_FILE.read_text(encoding="utf-8"))


def test_the_pinned_points_are_the_fixed_points():
    assert [e["point"] for e in _pinned()] == [_hex(list(pt)) for pt in _points()]


@pytest.mark.parametrize("name", list(_CALLS))
def test_every_call_returns_its_pinned_result(name):
    wrong = [(entry["point"], entry[name]) for entry, pt in zip(_pinned(), _points())
             if _result(name, *pt) != entry[name]]
    assert not wrong, f"{len(wrong)} points differ; first at {wrong[0][0]}"


if __name__ == "__main__":
    lines = (json.dumps(_record(*pt)) for pt in _points())
    _FILE.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
