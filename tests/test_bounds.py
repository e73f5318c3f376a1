import json
import math
from pathlib import Path

import numpy as np
import pytest

from ctxsd import bounds
from ctxsd.bounds import (
    CELLS,
    BoundSpec,
    ConfidencePairCell,
    DefinitionalCell,
    NONCONTEXTUAL,
    QUANTUM,
    eval_bound,
    eval_column,
    gap,
    is_advantage,
    nc_mesd_confidences,
    omega_star,
    oriented_gap,
    table1_report,
)
from ctxsd.config import DEFAULTS, Tolerances
from ctxsd.errors import ContractError, CtxsdError, DivergenceError, DomainError

SQRT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# spec validation


# The specs these parameters make invalid are rows of
# tests/test_harness.py::test_each_typed_error_path_raises_its_error.
def test_spec_requires_p_only_for_mcm():
    BoundSpec("MCM", "P_g", QUANTUM, c=0.5, p=0.5)  # fine


def test_spec_requires_omega_only_for_nc_mesd_confidence():
    BoundSpec("MESD", "C", NONCONTEXTUAL, c=0.5, omega=0.5, outcome=2)  # fine


# ---------------------------------------------------------------------------
# closed-form values


def test_mesd_values_at_half():
    assert eval_bound(BoundSpec("MESD", "P_g", QUANTUM, c=0.5)) == pytest.approx(
        0.8535533905932738, abs=1e-12
    )
    assert eval_bound(BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=0.5)) == 0.75
    assert eval_bound(BoundSpec("MESD", "P_0", QUANTUM, c=0.5)) == 0.0
    assert eval_bound(BoundSpec("MESD", "C", QUANTUM, c=0.5)) == pytest.approx(
        0.8535533905932738, abs=1e-12
    )


def test_mesd_nc_confidence_arms():
    c = 0.5
    spec1 = BoundSpec("MESD", "C", NONCONTEXTUAL, c=c, omega=0.2, outcome=1)
    spec2 = BoundSpec("MESD", "C", NONCONTEXTUAL, c=c, omega=0.2, outcome=2)
    want = nc_mesd_confidences(c, 0.2)
    assert eval_bound(spec1) == want[0]
    assert eval_bound(spec2) == want[1]


def test_usd_values_at_half():
    assert eval_bound(BoundSpec("USD", "P_0", QUANTUM, c=0.5)) == pytest.approx(
        SQRT_HALF, abs=1e-12
    )
    assert eval_bound(BoundSpec("USD", "P_0", NONCONTEXTUAL, c=0.5)) == 0.75
    assert eval_bound(BoundSpec("USD", "P_g", QUANTUM, c=0.5)) == pytest.approx(
        1.0 - SQRT_HALF, abs=1e-12
    )
    assert eval_bound(BoundSpec("USD", "P_g", NONCONTEXTUAL, c=0.5)) == 0.25
    assert eval_bound(BoundSpec("USD", "C", QUANTUM, c=0.5)) == 1.0


def test_mcm_values():
    assert eval_bound(
        BoundSpec("MCM", "P_g", QUANTUM, c=0.5, p=0.5)
    ) == pytest.approx(0.44539023072987066, abs=1e-12)
    assert eval_bound(
        BoundSpec("MCM", "P_g", NONCONTEXTUAL, c=0.5, p=0.5)
    ) == pytest.approx(0.25, abs=1e-15)
    assert eval_bound(
        BoundSpec("MCM", "P_0", QUANTUM, c=0.5, p=0.75)
    ) == pytest.approx(0.25 * SQRT_HALF, abs=1e-15)
    assert eval_bound(
        BoundSpec("MCM", "P_0", NONCONTEXTUAL, c=0.5, p=0.75)
    ) == pytest.approx(0.5625, abs=1e-15)
    assert eval_bound(BoundSpec("MCM", "C", QUANTUM, c=0.5, p=0.75)) == pytest.approx(
        0.5898026510133875, abs=1e-12
    )
    assert eval_bound(
        BoundSpec("MCM", "C", NONCONTEXTUAL, c=0.5, p=0.75)
    ) == pytest.approx(4.0 / 7.0, abs=1e-15)


def test_mcm_confidence_divergent_corner():
    with pytest.raises(DivergenceError):
        eval_bound(BoundSpec("MCM", "C", QUANTUM, c=1.0, p=0.0))
    with pytest.raises(DivergenceError):
        eval_bound(BoundSpec("MCM", "C", NONCONTEXTUAL, c=1.0, p=0.0))


@pytest.mark.parametrize("c,p", [(1.0 - 1e-10, 1e-12), (1.0 - 1e-8, 1e-8)])
def test_mcm_quantum_confidence_near_singular_corner(c, p):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c_, p_ = mpmath.mpf(c), mpmath.mpf(p)
        ref = (1 + (1 - p_) * mpmath.sqrt((1 - c_) / (1 - (1 - p_) ** 2 * c_))) / 2
    got = eval_bound(BoundSpec("MCM", "C", QUANTUM, c=c, p=p))
    assert abs(got - float(ref)) <= DEFAULTS.closed_form


@pytest.mark.parametrize("c,p", [(1.0 - 1e-12, 1e-12), (1.0 - 1e-10, 1e-10)])
def test_mcm_closed_forms_do_not_cancel_near_singular_corner(c, p):
    # 1 - (1-p) c and 1 - (1-p) sqrt(c) lose all their digits here when
    # formed by subtraction
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c_, p_ = mpmath.mpf(c), mpmath.mpf(p)
        conf_nc = (1 + (1 - p_) * (1 - c_) / (1 - (1 - p_) * c_)) / 2
        t = (1 - p_) * mpmath.sqrt(c_)
        pg_q = (1 - t + (1 - p_) * mpmath.sqrt((1 - t) / (1 + t)) * mpmath.sqrt(1 - c_)) / 2
    for theory, figure, ref in ((NONCONTEXTUAL, "C", conf_nc), (QUANTUM, "P_g", pg_q)):
        got = eval_bound(BoundSpec("MCM", figure, theory, c=c, p=p))
        assert abs(got - float(ref)) <= DEFAULTS.closed_form, (theory, figure)


def test_cells_enumerate_the_table_once():
    assert len(CELLS) == 19
    assert len(set(CELLS)) == 19
    labels = [cell.label for cell in CELLS]
    assert labels[4:7] == ["MESD_C_Q", "MESD_C1_NC", "MESD_C2_NC"]


_EDGES = (0.0, 1.0)
_SEEDED = tuple(np.random.default_rng(20240611).uniform(0.0, 1.0, 4))


@pytest.mark.parametrize("variable", ["c", "p", "omega"])
def test_columns_equal_scalar_cells_exactly(variable):
    xs = np.array(sorted(_EDGES + _SEEDED + (0.5,)))
    fixed_values = _EDGES + _SEEDED[:2]
    others = [v for v in ("c", "p", "omega") if v != variable]
    compared = 0
    for cell in CELLS:
        for a in fixed_values:
            for b in fixed_values:
                fixed = {variable: 0.5, others[0]: a, others[1]: b}
                try:
                    want = [eval_bound(cell.spec(**{**fixed, variable: float(x)}))
                            for x in xs]
                except DivergenceError:
                    with pytest.raises(DivergenceError):
                        eval_column(cell.spec(**fixed), variable, xs)
                    continue
                got = eval_column(cell.spec(**fixed), variable, xs)
                assert got.tolist() == want, (cell.label, fixed)
                compared += 1
    assert compared > 19 * len(fixed_values) ** 2 // 2


# The closed forms at the corner c -> 1, p -> 0 and on the domain's edges,
# pinned in tests/data/corner_cells.json: for each point, every cell's value
# as float.hex or the class of the error it raises. Regenerate only for an
# intended change of results (the edge rule of ROADMAP item 4 is one), with
# ``PYTHONPATH=src python tests/test_bounds.py``.
_CORNER_FILE = Path(__file__).parent / "data" / "corner_cells.json"


def _corner_points() -> list[tuple[float, float, float]]:
    decades = np.linspace(1.0, 12.0, 4)  # 1 - c and p log-spaced over [1e-12, 1e-1]
    corner = [(1.0 - 10.0 ** -a, 10.0 ** -b) for a in decades for b in decades]
    edges = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    edges += [(1.0, p) for p in (1e-300, 1e-15, 1e-12, 2.5e-12, 1e-8)]
    edges += [(1.0 - e, 0.0) for e in (1e-15, 1e-13)]
    return [(c, p, 0.3) for c, p in corner + edges]


def _pinned_cell(evaluate, cell, point):
    try:
        return float(evaluate(cell, point)).hex()
    except CtxsdError as exc:
        return {"raises": type(exc).__name__}


def _scalar(cell, point):
    return eval_bound(cell.spec(*point))


def _one_point_column(cell, point):
    grids = tuple(np.array([x]) for x in point)
    return eval_column(cell.spec(*point), ("c", "p", "omega"), grids)[0]


@pytest.mark.parametrize("evaluate", [_scalar, _one_point_column], ids=["math", "numpy"])
def test_closed_forms_meet_their_pins_at_the_corner_and_the_edges(evaluate):
    pinned = json.loads(_CORNER_FILE.read_text(encoding="utf-8"))
    assert [entry["point"] for entry in pinned] == [
        [float(x).hex() for x in point] for point in _corner_points()]
    wrong = [(entry["point"], label, got, want)
             for entry, point in zip(pinned, _corner_points())
             for cell in CELLS
             for label, want in [(cell.label, entry["cells"][cell.label])]
             if (got := _pinned_cell(evaluate, cell, point)) != want]
    assert not wrong, f"{len(wrong)} cells differ, first {wrong[0]}"


def test_column_rejects_bad_grid_and_variable():
    spec = BoundSpec("MESD", "P_g", QUANTUM, c=0.5)
    with pytest.raises(DomainError):
        eval_column(spec, "c", [0.0, 1.5])
    with pytest.raises(ContractError):
        eval_column(spec, "x", [0.5])


def test_two_parameter_column_rejects_each_bad_grid():
    spec = BoundSpec("MCM", "C", QUANTUM, c=0.5, p=0.5)
    c, p = np.array([0.1, 0.5]), np.array([0.2, 0.3])
    assert eval_column(spec, ("c", "p"), (c, p)).shape == (2,)
    for bad in ((np.array([0.1, 1.5]), p), (c, np.array([-0.1, 0.3]))):
        with pytest.raises(DomainError):
            eval_column(spec, ("c", "p"), bad)
    with pytest.raises(ContractError):
        eval_column(spec, ("c", "p"), (c, p[:1]))  # shapes differ
    with pytest.raises(ContractError):
        eval_column(spec, ("c", "p"), (c,))  # one grid too few
    with pytest.raises(ContractError):
        eval_column(spec, ("c", "x"), (c, p))


# ---------------------------------------------------------------------------
# gaps


def test_advantage_rule_of_a_column_is_the_rule_of_gap():
    cs = np.linspace(0.0, 1.0, 21)
    for scheme, figure in (("MESD", "P_g"), ("USD", "P_0")):
        specs = [BoundSpec(scheme, figure, theory, c=0.5) for theory in (QUANTUM, NONCONTEXTUAL)]
        signed = eval_column(specs[0], "c", cs) - eval_column(specs[1], "c", cs)
        flags = is_advantage(figure, signed)
        for c, flag, diff in zip(cs, flags, oriented_gap(figure, signed)):
            cert = gap(*(BoundSpec(scheme, figure, s.theory, c=float(c)) for s in specs))
            assert flag == cert.advantage
            assert diff == (-cert.gap if figure == "P_0" else cert.gap)


def _certificates(report):
    """The report's gap certificates by (scheme, figure, arm)."""
    certs = {}
    for (scheme, figure), cell in report.cells.items():
        if isinstance(cell, ConfidencePairCell):
            certs[scheme, figure, 1], certs[scheme, figure, 2] = cell.arm1, cell.arm2
        elif not isinstance(cell, DefinitionalCell):
            certs[scheme, figure, 1] = cell
    return certs


_TIE_KEYS = list(_certificates(table1_report(0.3, 0.4, 0.2)))


@pytest.mark.parametrize("key", _TIE_KEYS, ids=[f"{s}-{f}-{arm}" for s, f, arm in _TIE_KEYS])
def test_an_exact_tie_is_no_advantage(key):
    # at a threshold equal to the oriented gap the rule reports no advantage,
    # and one ulp below it one, in table1_report, gap and is_advantage alike
    point, figure = (0.3, 0.4, 0.2), key[1]
    cert = _certificates(table1_report(*point))[key]
    tie = -cert.gap if figure == "P_0" else cert.gap
    for threshold, want in ((tie, False), (math.nextafter(tie, -math.inf), True)):
        tols = Tolerances(advantage=threshold)
        assert _certificates(table1_report(*point, tols))[key].advantage is want
        assert gap(cert.quantum, cert.noncontextual, tols).advantage is want
        assert is_advantage(figure, np.array([cert.gap]), tols).tolist() == [want]


def test_gap_confidence_arms_outside_window():
    c = 0.5
    w_star = omega_star(c)
    outside = 0.5 * w_star  # below the window: arm 1 favours the nc model
    cert1 = gap(
        BoundSpec("MESD", "C", QUANTUM, c=c),
        BoundSpec("MESD", "C", NONCONTEXTUAL, c=c, omega=outside, outcome=1),
    )
    cert2 = gap(
        BoundSpec("MESD", "C", QUANTUM, c=c),
        BoundSpec("MESD", "C", NONCONTEXTUAL, c=c, omega=outside, outcome=2),
    )
    assert not cert1.advantage
    assert cert2.advantage


def test_gap_rejects_mismatched_specs():
    with pytest.raises(ContractError):
        gap(
            BoundSpec("MESD", "P_g", QUANTUM, c=0.5),
            BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=0.6),
        )
    with pytest.raises(ContractError):
        gap(
            BoundSpec("MESD", "P_g", QUANTUM, c=0.5),
            BoundSpec("USD", "P_g", NONCONTEXTUAL, c=0.5),
        )
    with pytest.raises(ContractError):
        gap(
            BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=0.5),
            BoundSpec("MESD", "P_g", NONCONTEXTUAL, c=0.5),
        )


# ---------------------------------------------------------------------------
# table


def test_table_all_gap_cells_advantaged_at_centre():
    report = table1_report(0.5, 0.5, 0.5)
    for scheme, figure in (
        ("MESD", "P_g"),
        ("USD", "P_g"),
        ("USD", "P_0"),
        ("MCM", "P_g"),
        ("MCM", "P_0"),
        ("MCM", "C"),
    ):
        assert report.cell(scheme, figure).advantage, (scheme, figure)
    mesd_c = report.cell("MESD", "C")
    assert isinstance(mesd_c, ConfidencePairCell)
    assert mesd_c.advantage  # omega = 1/2 sits inside the window
    assert mesd_c.window == pytest.approx(
        (0.2071067811865475, 0.7928932188134525), abs=1e-12
    )


def test_table_definitional_cells():
    report = table1_report(0.3, 0.2, 0.4)
    mesd_p0 = report.cell("MESD", "P_0")
    usd_c = report.cell("USD", "C")
    assert isinstance(mesd_p0, DefinitionalCell) and mesd_p0.value == 0.0
    assert isinstance(usd_c, DefinitionalCell) and usd_c.value == 1.0


def test_table_degenerate_confusabilities():
    report = table1_report(0.0, 0.5, 0.5)
    assert report.cell("MESD", "P_g").gap == pytest.approx(0.0, abs=1e-12)
    assert report.cell("MCM", "C").gap == pytest.approx(0.0, abs=1e-12)
    # inconclusive-rate gaps do not close at c = 0: the nc rate stays 1/2
    assert report.cell("USD", "P_0").noncontextual_value == pytest.approx(0.5)
    assert report.cell("USD", "P_0").quantum_value == pytest.approx(0.0)
    assert report.cell("MESD", "C").window is None

    full = table1_report(1.0, 0.5, 0.5)
    assert not full.usd_possible
    assert full.cell("USD", "P_0").gap == pytest.approx(0.0, abs=1e-12)


def test_table_full_noise_mcm_confidence_gap_closes():
    report = table1_report(0.5, 1.0, 0.5)
    cell = report.cell("MCM", "C")
    assert cell.quantum_value == pytest.approx(0.5, abs=1e-15)
    assert cell.noncontextual_value == pytest.approx(0.5, abs=1e-15)
    assert not cell.advantage


def _report_values(report):
    """Every number of a report as ``float.hex`` (and every flag), in order."""
    values = [report.c, report.p, report.omega]
    for cell in report.cells.values():
        certs = (cell.arm1, cell.arm2) if isinstance(cell, ConfidencePairCell) else (cell,)
        for cert in certs:
            if isinstance(cert, DefinitionalCell):
                values.append(cert.value)
                continue
            values += [cert.quantum_value, cert.noncontextual_value, cert.gap, cert.advantage]
            values += [cert.quantum.c, cert.quantum.p, cert.noncontextual.omega]
        if isinstance(cell, ConfidencePairCell):
            values += [*(cell.window or ()), cell.advantage]
    return [type(v).__name__ + ":" + (repr(v) if v is None or isinstance(v, bool)
                                      else float.hex(v)) for v in values]


@pytest.mark.parametrize("make, point", [
    (np.float32, (0.3, 0.2, 0.4)),
    (np.float64, (0.3, 0.2, 0.4)),
    (np.float64, (1.0 - 1e-12, 1e-9, 0.7)),
    (int, (0, 1, 0)),
    (int, (1, 1, 0)),
])
def test_table_evaluates_its_cells_at_the_checked_floats(make, point):
    # a numpy or int argument gives the report of the Python float of the same
    # value, bit for bit: the cells read the floats that the range check returns
    given = tuple(make(x) for x in point)
    report = table1_report(*given)
    want = table1_report(*(float(x) for x in given))
    assert _report_values(report) == _report_values(want)
    assert report.usd_possible == want.usd_possible
    assert type(want.usd_possible) is bool
    assert type(report.usd_possible) is bool


class _NoNumpy:
    """Stands in for numpy where a float point must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"a float point used numpy (np.{name})")


def test_a_float_point_runs_no_numpy(monkeypatch):
    points = [(0.3, 0.4, 0.2), (0.7, 0.1, 0.6), (0.05, 0.9, 0.45), (0.0, 0.5, 0.5)]
    specs = {point: [cell.spec(*point) for cell in CELLS] for point in points}
    want = {point: ([eval_bound(spec) for spec in specs[point]], table1_report(*point))
            for point in points}
    monkeypatch.setattr(bounds, "np", _NoNumpy())
    for point in points:
        values = [eval_bound(spec) for spec in specs[point]]
        assert values == want[point][0]
        report = table1_report(*point)
        assert report == want[point][1]
        numbers = values + [getattr(cert, name) for cert in _certificates(report).values()
                            for name in ("quantum_value", "noncontextual_value", "gap")]
        assert all(type(x) is float for x in numbers), point


if __name__ == "__main__":
    entries = (json.dumps({"point": [float(x).hex() for x in point],
                           "cells": {cell.label: _pinned_cell(_scalar, cell, point)
                                     for cell in CELLS}})
               for point in _corner_points())
    _CORNER_FILE.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
