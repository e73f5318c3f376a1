import collections
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np
import pytest

import ctxsd
from ctxsd import bounds, cli, config, csvout, errors, harness, ncmodel, qtheory, sweeps
from ctxsd.bounds import CELLS, NONCONTEXTUAL, QUANTUM
from ctxsd.csvout import _chunk_rows
from ctxsd.errors import ContractError, CtxsdError, DomainError, UsdImpossibleError
from ctxsd.harness import verify_all
from ctxsd.sweeps import (
    FIGURE_IDS,
    FigureJob,
    Substitution,
    SweepSpec,
    Target,
    emit_figure,
    run_sweep,
    table_cmd,
)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    return header, rows


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_mesd_guessing_monotone():
    spec = SweepSpec(
        variable="c",
        start=0.0,
        stop=1.0,
        points=11,
        fixed={},
        targets=(
            Target("MESD", "P_g", QUANTUM),
            Target("MESD", "P_g", NONCONTEXTUAL),
        ),
    )
    result = run_sweep(spec)
    assert result.header == ("c", "MESD_Pg_Q", "MESD_Pg_NC")
    assert len(result.rows) == 11
    for col in (1, 2):
        values = [row[col] for row in result.rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_single_point():
    spec = SweepSpec(
        variable="c",
        start=0.5,
        stop=0.5,
        points=1,
        fixed={},
        targets=(Target("MESD", "P_g", QUANTUM),),
    )
    result = run_sweep(spec)
    assert len(result.rows) == 1
    assert result.rows[0] == (0.5, pytest.approx(0.8535533905932738))


def test_sweep_confidence_columns_cross_at_midpoint():
    spec = SweepSpec(
        variable="omega",
        start=0.0,
        stop=1.0,
        points=21,
        fixed={"c": 0.5},
        targets=(
            Target("MESD", "C", NONCONTEXTUAL, outcome=1),
            Target("MESD", "C", NONCONTEXTUAL, outcome=2),
        ),
    )
    result = run_sweep(spec)
    assert result.header == ("omega", "MESD_C1_NC", "MESD_C2_NC")
    mid = result.rows[10]
    assert mid[0] == pytest.approx(0.5)
    assert mid[1] == pytest.approx(0.75, abs=1e-12)
    assert mid[2] == pytest.approx(0.75, abs=1e-12)


def test_sweep_shifts_singular_endpoint_inward():
    # MCM confidence diverges at (c, p) = (1, 0); the endpoint moves in by
    # half a step instead of emitting NaN
    spec = SweepSpec(
        variable="c",
        start=0.0,
        stop=1.0,
        points=11,
        fixed={"p": 0.0},
        targets=(Target("MCM", "C", QUANTUM),),
    )
    result = run_sweep(spec)
    assert result.rows[-1][0] == pytest.approx(0.95)
    assert all(math.isfinite(v) for row in result.rows for v in row)
    assert result.substitutions == (Substitution(10, 1.0, result.rows[-1][0]),)


def test_sweep_table_equals_the_column_stack_of_its_columns():
    # the table is laid out column by column in memory; as an array it is
    # still the row table of x and one column per target
    targets = tuple(t for t in CELLS if t.figure == "P_g")
    spec = SweepSpec("c", 0.0, 1.0, 101, {"p": 0.25}, targets)
    result = run_sweep(spec)
    xs = np.linspace(0.0, 1.0, 101)
    want = np.column_stack([xs, *(bounds.eval_column(t.spec(**spec.fixed), "c", xs)
                                  for t in targets)])
    assert result.substitutions == ()
    assert result.table.shape == want.shape and np.array_equal(result.table, want)
    assert result.rows == tuple(map(tuple, want.tolist()))


def test_sweep_points_must_be_an_integer():
    targets = (Target("MESD", "P_g", QUANTUM),)
    with pytest.raises(ContractError, match="2.5"):
        SweepSpec("c", 0.0, 1.0, 2.5, {}, targets)
    spec = SweepSpec("c", 0.0, 1.0, np.int64(5), {}, targets)
    assert type(spec.points) is int and len(run_sweep(spec).rows) == 5


@pytest.mark.parametrize("points", [True, "5", None])
def test_sweep_points_reject_a_bool_a_str_and_none(points):
    with pytest.raises(ContractError, match="sweep points must be an integer"):
        SweepSpec("c", 0.0, 1.0, points, {}, (Target("MESD", "P_g", QUANTUM),))


_SWEPT_CELLS = tuple(t for t in CELLS if (t.scheme, t.figure) not in bounds._DEFINITIONAL)


@pytest.mark.parametrize("variable", ["c", "p"])
def test_sweep_holds_its_table_once(variable):
    # one table plus the temporaries of a column; a copy of the table would
    # take the peak to about twice its size
    spec = SweepSpec(variable, 0.0, 1.0, 100_001, {}, _SWEPT_CELLS)
    tracemalloc.start()
    try:
        result = run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * result.table.nbytes
    assert result.table.T.flags.c_contiguous  # the CSV kernel reads it column by column


@pytest.mark.parametrize("fixed, targets, substitutions, constant", [
    # most cells do not read p: eval_column returns them as broadcast views
    ({"c": 0.3, "omega": 0.6}, _SWEPT_CELLS, (), 9),
    # the MCM confidence is singular at (c, p) = (1, 0): p = 0 moves in half a step
    ({"c": 1.0}, tuple(t for t in _SWEPT_CELLS if t.scheme == "MCM"),
     (Substitution(0, 0.0, 0.0125),), 0),
])
def test_sweep_fills_each_column_from_eval_column_at_the_points_used(
        fixed, targets, substitutions, constant):
    spec = SweepSpec("p", 0.0, 1.0, 41, fixed, targets)
    result = run_sweep(spec)
    assert result.substitutions == substitutions
    used = np.linspace(0.0, 1.0, 41)
    for sub in substitutions:
        used[sub.index] = sub.used_x
    assert result.table[:, 0].tobytes() == used.tobytes()
    columns = [bounds.eval_column(t.spec(**spec.fixed), "p", used) for t in targets]
    assert sum(col.strides == (0,) for col in columns) == constant
    for k, (t, col) in enumerate(zip(targets, columns), 1):
        assert result.table[:, k].tobytes() == col.tobytes(), t.label


# ---------------------------------------------------------------------------
# figures


def test_fig2_contents(tmp_path):
    path = emit_figure(FigureJob("fig2", tmp_path / "fig2.csv"))
    header, rows = read_csv(path)
    assert header == ["omega", "C_Q", "C_NC_1", "C_NC_2"]
    assert len(rows) == 201
    for row in rows:
        assert row[1] == pytest.approx(0.853553391, abs=1e-6)
    # nc curves cross the quantum line near the window boundaries
    diffs = [row[2] - row[1] for row in rows]
    sign_changes = sum(
        1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
    )
    assert sign_changes == 1
    crossing = next(row[0] for row, a, b in zip(rows, diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert abs(crossing - 0.2071068) < 0.006


def test_fig3b_endpoint_values(tmp_path):
    path = emit_figure(FigureJob("fig3b", tmp_path / "fig3b.csv"))
    header, rows = read_csv(path)
    assert header == ["c", "P0_Q", "P0_NC"]
    last = rows[-1]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(0.25, abs=1e-9)
    assert last[2] == pytest.approx(0.625, abs=1e-9)


def test_fig4_endpoint_values(tmp_path):
    path = emit_figure(FigureJob("fig4", tmp_path / "fig4.csv"))
    header, rows = read_csv(path)
    assert header == ["c", "Pg_Q", "Pg_NC"]
    first = rows[0]
    assert first[1] == pytest.approx(0.75, abs=1e-9)
    assert first[2] == pytest.approx(0.375, abs=1e-9)


def test_all_figures_emit_finite_unit_interval_values(tmp_path):
    for figure_id in sweeps.FIGURE_IDS:
        path = emit_figure(FigureJob(figure_id, tmp_path / f"{figure_id}.csv"))
        _, rows = read_csv(path)
        assert len(rows) == 201
        for row in rows:
            for v in row:
                assert math.isfinite(v)
                assert -1e-12 <= v <= 1.0 + 1e-12


def test_csv_significant_digits(tmp_path):
    path = emit_figure(FigureJob("fig2", tmp_path / "fig2.csv"))
    text = path.read_text(encoding="utf-8")
    for token in text.split("\n")[1].split(","):
        mantissa = token.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa.split("e")[0]) <= 9


# ---------------------------------------------------------------------------
# CSV writer


def printf_csv(header, rows):
    """The CSV text of ``rows`` with every cell formatted by ``"%.9g"``."""
    lines = [",".join(header)] + [",".join("%.9g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def csv_text(rows):
    """What ``write_csv_to`` writes for ``rows``, and the ``"%.9g"`` text of them."""
    header = [f"x{i}" for i in range(np.shape(rows)[1])]
    out = io.StringIO()
    csvout.write_csv_to(out, header, rows)
    return out.getvalue(), printf_csv(header, np.asarray(rows, dtype=float).tolist())


def assert_same_text(got: str, want: str) -> None:
    """Fail unless got == want, naming the first line that differs, its index
    and both texts, rather than rendering a diff of two whole tables."""
    if got == want:
        return
    a, b = got.split("\n"), want.split("\n")
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = [repr(lines[i]) if i < len(lines) else "the end of the text" for lines in (a, b)]
    pytest.fail(f"line {i} differs: got {line[0]}, want {line[1]} "
                f"({len(a)} lines against {len(b)})")


def test_csv_cells_at_the_edges_of_the_fast_path(tmp_path):
    powers = [10.0 ** -k for k in range(6)]
    edges = [v for p in powers for v in (np.nextafter(p, 0.0), p, np.nextafter(p, 2.0))]
    # within 5e-10 (relative) of a ninth-digit tie (m + 1/2) 10^-k, and on it
    rng = np.random.default_rng(20250809)
    ties = np.concatenate([(rng.integers(10**8, 10**9, 40) + 0.5) / 10.0**k for k in (9, 10, 11, 12)])
    near_ties = np.outer(ties, 1.0 + np.linspace(-5e-10, 5e-10, 41)).ravel()
    exact_ties = np.arange(103, 1024, 2) / 1024.0  # x 10^9 is a half-integer
    # 1 - 5e-10 is a double just below the tie; the others round up to a power
    carries = [1.0 - 5e-10, 1.0 - 4e-10, 0.1 - 4e-11, 0.01 - 4e-12, 1e-4 - 4e-14]
    # exact 0 and 1 take their own path; -0.0 and the rest are printed per cell
    special = [0.0, -0.0, 1.0, -1.0, 2.0, -0.5, math.nan, math.inf, -math.inf, 5e-324,
               -1.2345678912345e-100, 1.7976931348623157e308]
    values = np.concatenate([edges, ties, near_ties, exact_ties, carries, special])
    # a nonzero tenth digit just above and below each decade threshold
    decades = np.array([10.0**-k * (1 + s * 1.234e-8) for k in range(1, 5) for s in (1, -1)])
    # the longest texts, 16 bytes, in the first, a middle and the last column,
    # at the first and last row of a chunk; the middle chunk holds none
    wide = np.array([-1.34077881e154, -1.23456789e-100, -2.22507386e-308])
    assert {len("%.9g" % v) for v in wide} == {16}
    chunk = _chunk_rows(5)
    spread = np.random.default_rng(3).random((2 * chunk + 1, 5))
    for i, row in enumerate((0, chunk - 1, 2 * chunk)):
        spread[row, [0, 2, 4]] = np.roll(wide, i)
    for table in (values.reshape(-1, 1), values[: len(values) // 4 * 4].reshape(-1, 4),
                  decades.reshape(-1, 1), wide.reshape(-1, 1), wide.reshape(1, -1), spread):
        got, want = csv_text(table)
        assert_same_text(got, want)
        # the file sink writes the same bytes as the text sink
        csvout.write_csv(tmp_path / "edges.csv", got.split("\n", 1)[0].split(","), table)
        assert (tmp_path / "edges.csv").read_bytes() == got.encode("ascii")
    assert csv_text([[1.0 - 5e-10, 1.0 - 4e-10, 1e-5]])[0].endswith("\n0.999999999,1,1e-05\n")
    # with no 16-byte text a cell is four words; the clamp keeps 1e-4 and the
    # cells below the tie 1 - 5e-10, which its tie margin alone sends to printf
    writer = csvout._CsvTable(4)
    block = np.array([[1e-4, 1.0 - 6e-10, 0.5, 1.0 - 5e-10]])
    writer._reserve(block.size)
    rows = writer._cells(block, [(0, 4, None)])
    assert rows.shape == (1, 16) and _printf_cells(rows, 4).tolist() == [[False] * 3 + [True]]


def _printf_cells(rows: np.ndarray, width: int) -> np.ndarray:
    """Which cells of the kernel's words ``rows`` (all varying, ``width``
    words a cell) left its fast path: a fast cell's first word is its
    separator, a NUL and "0.", and a printed or one-digit cell's is not."""
    lead = rows.reshape(len(rows), -1, width)[:, :, 0]  # little-endian: byte k is >> 8k
    return (lead >> 8 & 0xFF != 0) | (lead >> 24 != ord("."))


def test_csv_digit_table_holds_every_group_plain_and_stripped():
    plain = [f"{i:04d}".encode() for i in range(10_000)]
    stripped = [d.rstrip(b"0").ljust(4, b"\0") for d in plain]
    assert csvout._csv_digits().tobytes() == b"".join(plain + stripped)


def test_csv_chunks_join_seamlessly():
    rng = np.random.default_rng(1)
    chunk = _chunk_rows(3)
    table = rng.random((2 * chunk + 123, 3))
    table[::1000, 0] = 0.0
    table[chunk - 1:chunk + 1, 1] = [1e-5, 1.0]  # fallback cells at a chunk boundary
    got, want = csv_text(table)
    assert_same_text(got, want)


@pytest.mark.parametrize("value", [0.0, 1.0, -0.0, 1e-5, math.nan, -1.23456789e-100])
def test_csv_constant_columns(value):
    # whole columns of one value, as a sweep of a definitional target or at p = 1 writes
    # past a chunk of the narrowest table, three columns: so past one of every table
    chunk = _chunk_rows(3)
    n = chunk + 5
    varying = np.linspace(0.0, 1.0, n)
    wide = np.where(np.arange(n) % 7 == 3, -2.22507386e-308, varying)  # some 16-byte texts
    constant = np.full(n, value)
    # equal as floats, so a float == test would merge them, but printed "0" and "-0"
    signed_zeros = np.where(np.arange(n) % 2 == 1, -0.0, 0.0)
    assert (signed_zeros == signed_zeros[0]).all()
    first_chunk_only = np.where(np.arange(n) < chunk, value, varying)  # in a 3-column table
    tables = [
        np.column_stack([constant, varying, constant]),
        np.column_stack([signed_zeros, constant, varying, constant, signed_zeros]),
        np.column_stack([constant, first_chunk_only, constant]),
        np.column_stack([constant, wide, constant, varying]),
        np.column_stack([wide, constant, np.full(n, -1.34077881e154)]),
        np.full((n, 3), value),  # every column constant
        np.full((1, 3), value),  # one row: every column is constant in its chunk
        [[value, 0.25, -0.0, 1e-5]],
    ]
    for table in tables:
        got, want = csv_text(table)
        assert_same_text(got, want)


def test_csv_rejects_a_table_that_does_not_fit_its_header(tmp_path):
    path = tmp_path / "kept.csv"
    path.write_text("kept\n")
    for rows in ([[0.5, 0.25], [0.5]], np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 1)),
                 [["a", "b"]]):
        with pytest.raises(ContractError):
            csvout.write_csv_to(io.StringIO(), ["a", "b"], rows)
        with pytest.raises(ContractError):
            csvout.write_csv(path, ["a", "b"], rows)
    assert path.read_text() == "kept\n"  # rejected before the file is opened
    out = io.StringIO()
    csvout.write_csv_to(out, ["a", "b"], [])  # no rows: the header alone
    assert out.getvalue() == "a,b\n"


# ---------------------------------------------------------------------------
# table rendering


def test_table_cmd_lists_all_cells():
    text = table_cmd(0.5, 0.5, 0.5)
    for needle in (
        "MESD",
        "USD",
        "MCM",
        "P_g",
        "P_0",
        "C(1)",
        "C(2)",
        "definitional",
        "advantage window",
    ):
        assert needle in text
    # stable figure order inside each scheme block
    mesd_lines = [ln for ln in text.split("\n") if ln.startswith("MESD")]
    assert [ln.split()[1] for ln in mesd_lines] == ["P_g", "P_0", "C(1)", "C(2)"]


def test_table_cmd_flags_impossible_usd():
    text = table_cmd(1.0, 0.5, 0.5)
    assert "impossible" in text


# ---------------------------------------------------------------------------
# verify


def test_verify_all_refuses_a_density_whose_pass_would_not_fit(capsys):
    # refused before any grid is built (one 10^7 x 10^7 grid alone is 728 TiB)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="grid density must be at most 750, got 10000000"):
            verify_all(10**7)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert cli.main(["verify", "--points", "10000000"]) == 2
    assert "at most 750" in capsys.readouterr().err


@pytest.mark.parametrize("points", [5.0, "21", None, True])
def test_verify_all_rejects_a_grid_density_that_is_not_an_integer(points):
    with pytest.raises(ContractError, match="grid density must be an integer"):
        verify_all(points)


def test_verify_all_density_rule_is_the_sweep_points_rule():
    # a numpy integer is taken as an int; one below the minimum keeps its message
    assert verify_all(np.int64(5)).points == 5
    with pytest.raises(DomainError, match="grid density must be at least 5, got 4"):
        verify_all(np.int64(4))


def test_verify_all_reports_failure_with_corrupted_tolerances():
    broken = replace(
        config.DEFAULTS, closed_form=1e-18, oracle=1e-18, exact=1e-18
    )
    report = verify_all(5, broken)
    assert not report.passed
    rendered = report.render()
    assert "FAIL" in rendered
    assert "check(s) failed" in rendered


def _inject(monkeypatch, where: str, fault) -> None:
    """Replace the function ``where`` names with ``fault(real)`` as the
    harness sees it: ``module.name`` in a copy of the module that only the
    harness holds, so the routes' own calls keep the real function; a bare
    name in the harness; ``ctxsd.module.name`` in the module itself."""
    *owner, name = where.split(".")
    if owner[:1] == ["ctxsd"]:
        module = sys.modules[".".join(owner)]
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
    elif owner:
        real = getattr(harness, owner[0])
        monkeypatch.setattr(harness, owner[0], types.SimpleNamespace(
            **{**vars(real), name: fault(getattr(real, name))}))
    else:
        monkeypatch.setattr(harness, name, fault(getattr(harness, name)))


def _then(change):
    """The fault that applies ``change`` to what the real function returns."""
    return lambda real: lambda *args, **kwargs: change(real(*args, **kwargs))


def _moved(value, eps=1e-6):
    """``value`` with its number moved by ``eps``: a number or an array, the
    second of a pair (a witness and its number, or the two MESD arms), a gap
    certificate's quantum value and gap, or a POVM or stack of them whose
    conclusive elements each take ``eps`` of the other."""
    if isinstance(value, (float, np.ndarray)):
        return value + eps
    if isinstance(value, tuple):
        return value[0], value[1] + eps
    if isinstance(value, bounds.GapCertificate):
        return replace(value, quantum_value=value.quantum_value + eps, gap=value.gap + eps)
    e = value.elements
    pi1, pi2, pi0 = e[..., 0, :, :], e[..., 1, :, :], e[..., 2, :, :]
    moved = np.stack(((1 - eps) * pi1 + eps * pi2, (1 - eps) * pi2 + eps * pi1, pi0), axis=-3)
    if isinstance(value, qtheory.Povm):
        return qtheory.Povm(moved)
    return replace(value, elements=moved)


_OFF = _then(_moved)


def _rotated(a0, a1, eps=1e-9):
    """The amplitudes (a0, a1) turned by the angle ``eps``: still a unit vector."""
    c, s = np.cos(eps), np.sin(eps)
    return c * a0 - s * a1, s * a0 + c * a1


def _turned(state):
    return qtheory.PureState(*_rotated(*astuple(state)))


def _pairs_turned(eps):
    """Stacked pure pairs with psi2 turned by ``eps(theta)``."""
    def fault(real):
        def pure_pairs(theta):
            v = real(theta).copy()
            v[:, 1, 0], v[:, 1, 1] = _rotated(v[:, 1, 0], v[:, 1, 1], eps(theta))
            return v
        return pure_pairs
    return fault


def _mirrors_off(turn):
    """Stacked mirrors off by 1e-9 |sin(2 theta)| for the pure pair at theta
    and for its mirrors: turned, or scaled if not ``turn``; exact at theta =
    0, pi/2 and pi, the rows the scalar operations rebuild, so only a
    relation can fail."""
    def fault(real):
        def mirrors(vectors):
            a0, a1 = np.abs(vectors[..., 0]), np.abs(vectors[..., 1])
            eps = 4e-9 * a0 * a1 * np.abs(a0 * a0 - a1 * a1)
            m = real(vectors)
            if not turn:
                return m * (1.0 + eps[..., None])
            m[..., 0], m[..., 1] = _rotated(m[..., 0], m[..., 1], eps)
            return m
        return mirrors
    return fault


def _elements(change):
    """The real stack with its elements changed, in a copy, by ``change``."""
    return _then(lambda stack: replace(stack, elements=change(stack.elements.copy())))


def _skewed(e):
    # pi_1 and pi_0 take opposite skew parts: still complete, and positive
    # semidefinite by their lower triangles, but not Hermitian
    e[..., 0, 0, 1] += 1e-9j
    e[..., 2, 0, 1] -= 1e-9j
    return e


def _leaky(e):
    # 1e-9 |u><u| moves from pi_1 to pi_0, u the null vector of pi_1: still
    # Hermitian and complete, but pi_1 has the eigenvalue -1e-9
    u = np.linalg.eigh(e[..., 0, :, :])[1][..., :, 0]
    leak = 1e-9 * u[..., :, None] * u[..., None, :].conj()
    e[..., 0, :, :] -= leak
    e[..., 2, :, :] += leak
    return e


def _overfull(e):
    # pi_0 gains 1e-9 |1><1|: still Hermitian and positive semidefinite, but
    # the elements sum to the identity off by 1e-9 in their last entry
    e[..., 2, 1, 1] += 1e-9
    return e


def _returns_none(real):
    """usd_optimal returning at the coincident pair instead of raising."""
    def usd_optimal(ens):
        try:
            return real(ens)
        except UsdImpossibleError:
            return None
    return usd_optimal


def _figure(name, change):
    """nc_figures with the figure ``name`` changed by ``change``."""
    return _then(lambda figs: figs._replace(**{name: change(getattr(figs, name))}))


def _at_pure_pair(ch):
    return ch.max_dev >= 5e-10 and ch.worst.startswith("theta=")


def _near_1e_9(ch):
    return ch.max_dev == pytest.approx(1e-9, rel=1e-6)


_PAIR, _POVMS, _MCM_C = ("qtheory/pure-pair-and-mirror", "qtheory/povm-completeness",
                         "qtheory/mcm-confidence")
_MESD_C, _OMEGA, _MIN_P0 = "ncmodel/mesd-confidences", "ncmodel/omega-star", "ncmodel/oracle-min-p0"
_BUILT, _WINDOW = "bounds/construction-consistency", "bounds/mesd-confidence-window"

# The fault table: for each verify check, its home, the faults it must
# catch. A row names the function it patches (as ``_inject`` reads the
# name), the fault made of the real function, the set of checks that must
# then fail in a 5-point verify, and any further assertion on the home
# check's result.
_FAULTS = {
    _BUILT: [("qtheory.helstrom_stack", _OFF, {_BUILT, _POVMS}, None),
             ("qtheory.usd_stack", _OFF, {_BUILT, _POVMS}, None),
             ("qtheory.mcm_stack", _OFF, {_BUILT, _MCM_C}, None)],
    _PAIR: [
        ("qtheory._pure_pairs", _pairs_turned(lambda theta: 1e-9), {_PAIR}, _at_pure_pair),
        # exact at theta = 0, pi/2 and pi: only <psi1|psi2> = cos(theta) can fail
        ("qtheory._pure_pairs", _pairs_turned(lambda theta: 1e-9 * np.sin(2 * theta)), {_PAIR},
         _at_pure_pair),
        ("qtheory._mirrors", _mirrors_off(turn=True), {_PAIR}, _at_pure_pair),  # not orthogonal
        # orthogonal, but not an involution
        ("qtheory._mirrors", _mirrors_off(turn=False), {_PAIR}, _at_pure_pair),
        ("qtheory.make_pure_pair", _then(lambda pair: (pair[0], _turned(pair[1]))), {_PAIR},
         _at_pure_pair),
        ("qtheory.mirror", _then(_turned), {_PAIR}, _at_pure_pair),
    ],
    # the scalar constructions rebuild a stack row in the spot check, and the
    # scalar figures of merit read that row's figures
    _POVMS: [
        *((f"qtheory.{name}", _OFF, {_POVMS}, None)
          for name in ("helstrom_povm", "usd_optimal", "usd_povm", "guessing_probability",
                       "inconclusive_rate")),
        ("qtheory.confidence", _OFF, {_POVMS, _MCM_C}, None),
        ("qtheory.helstrom_stack", _elements(_skewed), {_POVMS},
         lambda ch: ch.worst.endswith("pi_1")),
        ("qtheory.mcm_stack", _elements(_leaky), {_POVMS, _MCM_C, _BUILT},
         lambda ch: ch.worst.endswith("pi_1") and _near_1e_9(ch)),
        ("qtheory.mcm_stack", _elements(_overfull), {_POVMS, _MCM_C},  # at a point
         lambda ch: not ch.worst.endswith(harness._ELEMENTS) and _near_1e_9(ch)),
        ("qtheory.usd_optimal", _returns_none, {_POVMS}, lambda ch: ch.worst == "c=1"),
    ],
    _MCM_C: [("qtheory.mcm_optimal", _OFF, {_MCM_C}, None),
             ("qtheory.mcm_povm", _OFF, {_MCM_C}, None)],
    "ncmodel/confusability": [("ncmodel.confusability", _OFF, {"ncmodel/confusability"}, None)],
    # outcome 1 never fires only at (c, omega) = (1, 0) and outcome 2 only at
    # (1, 1): a NaN anywhere else, or a number there, fails the check
    _MESD_C: [
        ("bounds.nc_mesd_confidences", _OFF, {_MESD_C}, None),
        # P_g alone moves; the confidences stay
        ("ncmodel.nc_figures", _figure("p_g", lambda x: x + 1e-6), {_MESD_C}, None),
        *(("ncmodel.nc_figures", _figure(arm, lambda c: np.full_like(c, math.nan)), {_MESD_C},
           None) for arm in ("c1", "c2")),  # every outcome of the arm reported as never firing
        # the dead outcome at its closed form's 1/2
        ("ncmodel.nc_figures", _figure("c1", lambda c: np.nan_to_num(c, nan=0.5)),
         {_MESD_C}, None),
    ],
    _OMEGA: [("bounds.omega_star", _OFF, {_OMEGA}, None)],
    "ncmodel/oracle-max-pg": [("ncmodel.oracle_max_pg", _OFF, {"ncmodel/oracle-max-pg"}, None)],
    "ncmodel/oracle-max-confidence": [
        ("ncmodel.oracle_max_confidence", _OFF, {"ncmodel/oracle-max-confidence", _MIN_P0}, None)],
    _MIN_P0: [("ncmodel.oracle_min_p0_at_max_confidence", _OFF, {_MIN_P0}, None)],
    "ncmodel/hand-integrals": [  # a feasible weight, off by a factor of 1 - 1e-6
        ("ncmodel.usd_response", lambda real: lambda g1, g2: real(g1 * (1.0 - 1e-6), g2),
         {"ncmodel/hand-integrals"}, None)],
    "bounds/inequality-suite": [  # forgets that a smaller P_0 is the better one
        ("bounds._gap", _then(lambda gap: (gap[0], gap[0] > 0.0)),  # the sign of qv - nv
         {"bounds/inequality-suite"}, None)],
    # At 5 points the window check's omega grid has step 0.05 and leaves the
    # half step on each side of omega_star unresolved: 0.01 is inside that band.
    _WINDOW: [("bounds.omega_star", _then(lambda w: w + 0.1), {_WINDOW, _OMEGA}, None),
              ("bounds.omega_star", _then(lambda w: w + 0.06), {_WINDOW, _OMEGA}, None),
              ("bounds.omega_star", _then(lambda w: w + 0.01), {_OMEGA}, None)],
    "bounds/factorisation": [("bounds.nc_mcm_guessing", _OFF, {"bounds/factorisation"}, None)],
    "bounds/table-report": [("bounds.gap", _OFF, {"bounds/table-report"}, None),
                            # the harness reaches eval_bound only through gap
                            ("ctxsd.bounds.eval_bound", _OFF, {"bounds/table-report"}, None)],
}


def _fault_rows():
    """Every row of the fault table with its check, its id the function it
    patches, numbered from its second row."""
    seen = collections.Counter()
    for check, rows in _FAULTS.items():
        for row in rows:
            name = row[0].removeprefix("ctxsd.").replace(".", "-")
            seen[name] += 1
            yield pytest.param(check, *row, id=name if seen[name] == 1 else f"{name}-{seen[name]}")


def test_every_check_has_a_fault():
    assert set(_FAULTS) == {name for name, _, _ in harness._CHECKS}
    assert all(any(check in failing for _, _, failing, _ in rows) for check, rows in _FAULTS.items())


@pytest.mark.parametrize("check, where, fault, failing, extra", _fault_rows())
def test_fault_in_a_route_fails_its_home_check(monkeypatch, check, where, fault, failing, extra):
    _inject(monkeypatch, where, fault)
    checks = {ch.name: ch for ch in verify_all(5).checks}
    assert {name for name, ch in checks.items() if not ch.passed} == failing
    assert extra is None or extra(checks[check]), checks[check]
    op = where.removeprefix("ctxsd.")
    if op in harness._ALL_OPS and check in failing:  # the audit counts it where it fails
        assert op in {name: ops for name, ops, _ in harness._CHECKS}[check]


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e3])
def test_psd_audit_formula_agrees_with_lapack(scale):
    # LAPACK is the judge here only; the audit itself calls neither it nor
    # qtheory.min_eig_2x2
    rng = np.random.default_rng(20261018)
    x = rng.normal(size=(4000, 2, 2)) + 1j * rng.normal(size=(4000, 2, 2))
    v = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    for m in (0.5 * (x + x.conj().swapaxes(-1, -2)), v[:, :, None] * v[:, None, :].conj()):
        m = scale * m
        want = np.linalg.eigvalsh(m)
        size = np.abs(m).max(axis=(-2, -1))
        # t/2 - sqrt(t^2/4 - d): rounding in t^2/4 - d, over the eigenvalue gap
        bound = 8 * np.finfo(float).eps * size * (1.0 + size / (want[:, 1] - want[:, 0]))
        assert (np.abs(harness._min_eigs(m) - want[:, 0]) <= bound).all()
    diagonal = scale * rng.normal(size=(100, 1, 1)) * np.eye(2, dtype=complex)
    assert np.array_equal(harness._min_eigs(diagonal), diagonal[:, 0, 0].real)
    assert np.array_equal(harness._min_eigs(np.zeros((3, 2, 2), complex)), np.zeros(3))
    assert np.isnan(harness._min_eigs(np.array([[[np.nan, 0], [0, 1]]], complex))).all()
    # it reads both off-diagonals: on a triangular matrix, not Hermitian, it
    # gives the smaller diagonal entry, the smaller eigenvalue
    a, b, u = scale * rng.normal(size=(3, 1000))
    size = np.maximum(np.maximum(abs(a), abs(b)), abs(u))
    bound = 8 * np.finfo(float).eps * size * (1.0 + size / abs(a - b))
    for m in (np.array([[a, u], [0 * u, b]]), np.array([[a, 0 * u], [u, b]])):
        got = harness._min_eigs(np.moveaxis(m, -1, 0).astype(complex))
        assert (np.abs(got - np.minimum(a, b)) <= bound).all()


def test_hermiticity_audit_equals_the_largest_skew_entry():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 500, 2, 2)) + 1j * rng.normal(size=(3, 500, 2, 2))
    m[0] = 0.5 * (m[0] + m[0].conj().swapaxes(-1, -2))  # Hermitian
    m[1, ..., 0, 1] = m[1, ..., 1, 0].conj()  # skew on the diagonal only
    want = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    assert np.array_equal(harness._skew(m), want)


def test_error_inside_a_check_is_its_failure(monkeypatch, capsys):
    def broken(*args):
        raise DomainError("closed form broken")

    # a closed form the checks call by name, broken where the harness looks
    # it up: the checks that list it fail, every other check still runs and
    # passes
    for name in ("nc_mesd_confidences", "nc_mcm_guessing", "omega_star"):
        monkeypatch.setattr(harness, "bounds", types.SimpleNamespace(**{
            **vars(bounds), name: broken}))
        report = verify_all(5)
        failed = {ch.name: ch for ch in report.checks if not ch.passed}
        assert set(failed) == {check for check, ops, _ in harness._CHECKS
                               if f"bounds.{name}" in ops}, name
        assert all(ch.worst == "DomainError: closed form broken" for ch in failed.values())
        assert len(report.checks) == len(harness._CHECKS)
    # the last, omega_star, is called by these two checks
    assert set(failed) == {"ncmodel/omega-star", "bounds/mesd-confidence-window"}
    assert cli.main(["verify", "--points", "5"]) == 1
    assert "FAIL ncmodel/omega-star" in capsys.readouterr().out


def test_error_building_the_shared_pass_fails_every_check(monkeypatch, capsys):
    def broken(c, p):
        raise DomainError("no scenario")

    monkeypatch.setattr(ncmodel, "canonical_scenario", broken)
    report = verify_all(5)
    assert len(report.checks) == len(harness._CHECKS)
    assert all(not ch.passed and ch.worst == "DomainError: no scenario" for ch in report.checks)
    assert not report.missing_ops  # the operation audit still counts every check
    assert cli.main(["verify", "--points", "5"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL ") == len(harness._CHECKS)
    assert "operations exercised: 26/26" in out


def test_verify_formats_only_the_reported_points(monkeypatch):
    calls = []
    label = harness._label
    monkeypatch.setattr(harness, "_label", lambda point: calls.append(point) or label(point))
    assert verify_all(5).passed
    assert len(calls) <= len(harness._CHECKS)  # one worst point per check


def test_check_accumulator_reports_its_first_worst_entry_and_formats_only_its_point():
    calls = []

    def points(tag):
        return lambda k: calls.append((tag, k)) or {"at": f"{tag} {tuple(map(int, k))}"}

    acc = harness._Acc()
    acc.add(np.array([1.0, -3.0, 3.0]), 4.0, points("a"))  # a tie: the first entry is reported
    acc.add(-3.0, 4.0, "b")  # as severe, but later
    acc.add(np.zeros((2, 3)), 0.0, points("c"))  # no deviation from a zero limit
    acc.ok(np.array([True, True]), points("d"))
    ch = acc.result("x", (), 0.0)
    assert (ch.passed, ch.max_dev, ch.limit, ch.headroom, ch.items) == (True, 3.0, 4.0, 0.75, 12)
    assert ch.worst == "a (1,)" and calls == [("a", (1,))]

    calls.clear()
    acc = harness._Acc()
    acc.add(np.array([1.0, 5.0]), 1.0, points("a"))
    acc.add(np.array([[0.0, np.nan], [np.nan, 9.0]]), 1.0, points("n"))  # NaN: infinitely severe
    acc.add(math.inf, 1.0, "later")
    acc.ok(np.array([True, False, False]), points("f"))
    ch = acc.result("x", (), 0.0)
    assert not ch.passed and ch.headroom == math.inf and math.isnan(ch.max_dev)
    assert ch.worst == "n (0, 1)" and calls == [("n", (0, 1))]
    assert ch.items == 2 + 4 + 1 + 3

    calls.clear()
    acc = harness._Acc()
    acc.add(np.array([0.0, 1e-12]), 1e-12, points("a"))
    acc.ok(np.array([True, False, False]), points("f"))  # fails at its first False
    ch = acc.result("x", (), 0.0)
    assert (ch.passed, ch.max_dev, ch.limit, ch.worst) == (False, math.inf, 0.0, "f (1,)")
    assert calls == [("f", (1,))]

    ch = harness._Acc().result("x", (), 0.0)  # a check that compared nothing fails
    assert (ch.passed, ch.items, ch.headroom, ch.worst) == (False, 0, math.inf, "no value compared")


def test_check_accumulator_passes_a_deviation_equal_to_its_limit():
    acc = harness._Acc()
    acc.add(np.array([0.0, 1e-9]), 1e-9, "at the limit")
    ch = acc.result("x", (), 0.0)
    assert (ch.passed, ch.headroom) == (True, 1.0)
    acc = harness._Acc()
    acc.add(1e-9 * (1.0 + 1e-7), 1e-9, "past the limit")
    assert not acc.result("x", (), 0.0).passed


def test_verify_builds_the_mcm_measurements_in_one_stack(monkeypatch):
    calls = {"mcm_stack": 0, "noisy_ensemble": 0}

    def counted(name):
        original = getattr(qtheory, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(harness, "qtheory", types.SimpleNamespace(**{
        **vars(qtheory), **{name: counted(name) for name in calls}}))
    assert verify_all(21).passed
    assert calls["mcm_stack"] == 1
    assert calls["noisy_ensemble"] <= 21 + 1


def test_verify_builds_the_pure_measurements_in_one_stack(monkeypatch):
    stacks = ("helstrom_stack", "usd_stack")
    scalars = ("helstrom_povm", "usd_optimal", "usd_povm")
    seen = {}
    for points in (5, 21):
        calls = dict.fromkeys(stacks + scalars, 0)

        def counted(name):
            original = getattr(qtheory, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(harness, "qtheory", types.SimpleNamespace(**{
            **vars(qtheory), **{name: counted(name) for name in calls}}))
        assert verify_all(points).passed
        seen[points] = calls
    assert seen[5] == seen[21]  # independent of the grid density
    assert all(1 <= seen[21][name] <= 2 for name in stacks), seen
    # only the spot check of qtheory/povm-completeness: one row (the
    # Helstrom measurement, the optimal and the four further USD ones) and
    # the two typed errors
    assert {name: seen[21][name] for name in scalars} == {
        "helstrom_povm": 1, "usd_optimal": 2, "usd_povm": len(harness._USD_FRACTIONS) + 1}


def test_verify_builds_the_nc_scenarios_in_one_stack(monkeypatch):
    names = ("canonical_scenario", "oracle_max_pg", "oracle_max_confidence",
             "oracle_min_p0_at_max_confidence")
    seen = {}
    for points in (5, 21):
        calls = dict.fromkeys(names, 0)

        def counted(name):
            original = getattr(ncmodel, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(harness, "ncmodel", types.SimpleNamespace(**{
            **vars(ncmodel), **{name: counted(name) for name in names}}))
        assert verify_all(points).passed
        seen[points] = calls
    assert seen[5] == seen[21]  # independent of the grid density
    assert all(1 <= count <= 3 for count in seen[21].values()), seen


def test_constructions_and_verify_run_without_lapack(monkeypatch):
    # the construction route and verify's audits use closed-form 2x2
    # algebra; any LAPACK eigensolver or inverse call would raise here
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("eigh", "eigvalsh", "inv"):
        monkeypatch.setattr(np.linalg, name, lapack)
    theta = np.linspace(0.0, math.pi, 9)
    qtheory.helstrom_stack(theta)
    qtheory.usd_stack(theta[1:])
    qtheory.mcm_stack(theta[1:-1], np.linspace(0.0, 1.0, 7))
    assert verify_all(5).passed


def test_verify_all_passes_at_101_points():
    report = verify_all(101)
    assert report.passed, report.render()
    assert len(report.covered_ops) == 26


def test_check_results_report_limit_headroom_and_wall_time():
    for tols, passed in ((config.DEFAULTS, True), (replace(config.DEFAULTS, exact=1e-18), False)):
        report = verify_all(5, tols)
        assert report.passed is passed
        for ch in report.checks:
            assert ch.wall_s >= 0.0
            assert ch.passed == (ch.headroom <= 1.0)
            if ch.limit > 0.0:
                assert ch.headroom == ch.max_dev / ch.limit
            else:
                assert ch.headroom == (math.inf if ch.max_dev > 0.0 else 0.0)


def test_cli_verify_json(capsys):
    assert cli.main(["verify", "--points", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["points"] == 5
    assert report["operations_exercised"] == 26 and report["missing_ops"] == []
    assert [ch["name"] for ch in report["checks"]] == [name for name, _, _ in harness._CHECKS]
    closest = max(report["checks"], key=lambda ch: ch["headroom"])
    assert 0.0 < closest["headroom"] <= 1.0 and closest["worst"]
    assert all(set(ch) == {"name", "passed", "max_dev", "limit", "headroom", "worst",
                           "items", "wall_s", "ops"} for ch in report["checks"])


def test_check_results_count_the_values_they_compare(capsys):
    for points in (5, 21):
        checks = {ch.name: ch for ch in verify_all(points).checks}
        assert checks["ncmodel/oracle-max-pg"].items == points  # one P_g per value of c
        # 4 values and 9 pass/fail items, and gap's certificate for each of 8 pairs
        assert checks["bounds/table-report"].items == 21
        assert all(ch.items >= 1 for ch in checks.values())
    assert cli.main(["verify", "--points", "21", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [ch["items"] for ch in report["checks"]] == [ch.items for ch in checks.values()]


def test_pass_columns_equal_the_per_c_rows():
    # one eval_column call over a grid's (c, p) arrays gives, bit for bit, the
    # columns of one call over p per value of c
    ev = harness._Pass(21)
    c, p = ev.grids["nc"]
    for cell in (cell for cell in CELLS if not cell.has_arms):
        rows = [bounds.eval_column(cell.spec(x, 0.5, 0.5), "p", p[c == x]) for x in ev.cs]
        assert np.array_equal(ev.closed(cell.label, "nc"), np.concatenate(rows)), cell.label


def test_cli_verify_json_writes_null_for_a_failed_pass_fail_item(monkeypatch, capsys):
    def broken(c):
        raise DomainError("omega* broken")

    monkeypatch.setattr(harness, "bounds", types.SimpleNamespace(**{
        **vars(bounds), "omega_star": broken}))
    assert cli.main(["verify", "--points", "5", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [ch for ch in report["checks"] if not ch["passed"]]
    assert {ch["name"] for ch in failed} == {"ncmodel/omega-star", "bounds/mesd-confidence-window"}
    assert all(ch["headroom"] is None and ch["max_dev"] is None for ch in failed)


def test_relation_table_homes_each_route_once():
    # every quantum cell is read from the measurement stacks alone, every
    # noncontextual cell from the oracle results alone
    ev = harness._Pass(5)
    stacks = types.SimpleNamespace(pure=ev.pure, povms=ev.povms, mcm=ev.mcm)
    oracles = types.SimpleNamespace(max_pg=ev.max_pg, min_p0=ev.min_p0, max_conf=ev.max_conf,
                                    pure_nc=ev.pure_nc)
    quantum = {cell.label for cell in CELLS if cell.theory == QUANTUM}
    for _, cell, grid, read, _ in harness._RELATIONS:
        values = read(stacks if cell in quantum else oracles)
        assert len(values) == len(ev.grids[grid][0]), cell
    assert quantum <= {cell for _, cell, _, _, _ in harness._RELATIONS}
    registered = {name for name, _, _ in harness._CHECKS}
    assert {check for check, _, _, _, _ in harness._RELATIONS} <= registered


# The cells with no relation row, each held by a named check.
_STRUCTURAL_CELLS = {
    "MESD_P0_NC": "bounds/table-report",
    "USD_C_NC": "bounds/table-report",
    "MESD_C1_NC": "ncmodel/mesd-confidences",
    "MESD_C2_NC": "ncmodel/mesd-confidences",
}


def test_every_cell_has_a_relation_row_or_is_structural():
    related = {cell for _, cell, _, _, _ in harness._RELATIONS}
    assert related == {cell.label for cell in CELLS} - set(_STRUCTURAL_CELLS)
    registered = {name for name, _, _ in harness._CHECKS}
    assert set(_STRUCTURAL_CELLS.values()) <= registered


def test_render_lists_every_check_once():
    report = verify_all(5)
    rendered = report.render()
    for ch in report.checks:
        assert rendered.count(f" {ch.name} ") == 1
    assert "operations exercised: 26/26" in rendered


def test_the_audit_is_every_public_function_of_the_routes():
    # every non-class callable ``import ctxsd`` exports that a route defines
    routes = {f"ctxsd.{module}": module for module in ("qtheory", "ncmodel", "bounds")}
    exported = [(name, getattr(ctxsd, name)) for name in ctxsd.__all__]
    public = {f"{routes[obj.__module__]}.{name}" for name, obj in exported
              if callable(obj) and not isinstance(obj, type)
              and getattr(obj, "__module__", None) in routes}
    audited = {f"{module}.{op}" for module, ops in harness.OPERATIONS.items() for op in ops}
    assert audited == public


def test_an_operation_no_check_declares_fails_verify(monkeypatch):
    checks = [(name, tuple(op for op in ops if op != "qtheory.mirror"), fn)
              for name, ops, fn in harness._CHECKS]
    assert checks != harness._CHECKS
    monkeypatch.setattr(harness, "_CHECKS", checks)
    report = verify_all(5)
    assert all(ch.passed for ch in report.checks)
    assert not report.passed
    assert report.missing_ops == ("qtheory.mirror",)
    rendered = report.render()
    assert "operations exercised: 25/26" in rendered
    assert "not exercised: qtheory.mirror" in rendered.splitlines()


# ---------------------------------------------------------------------------
# CLI


def test_cli_table_and_bounds_run(capsys):
    assert cli.main(["table", "--c", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "MCM" in out
    assert cli.main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "0.853553391" in out


def test_cli_sweep_stdout_matches_file(tmp_path, capsys):
    argv = ["sweep", "--variable", "c", "--p", "0", "--points", "11",
            "--target", "MCM:C:Q", "--target", "MESD:C2:NC"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    path = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert captured.out.encode("utf-8") == path.read_bytes()
    # the shifted endpoint is reported on stderr, once per substitution
    note = [line for line in captured.err.splitlines() if line.startswith("note:")]
    assert note == ["note: row 10: c = 1 is singular; evaluated at 0.95"]


def _without_wall_times(out):
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return out
    for ch in report["checks"]:
        del ch["wall_s"]
    return report


def test_cli_parser_is_built_once_and_keeps_no_parsed_state(capsys):
    # one parser serves every main() call of a process, and each call behaves
    # as it does in a fresh process
    assert cli._build_parser() is cli._build_parser()
    for argv in (["verify", "--json", "--points", "x"], ["verify", "--points", "5", "--json"],
                 ["verify", "--points", "5"]):
        fresh = subprocess.run([sys.executable, "-m", "ctxsd", *argv], capture_output=True,
                               text=True, env=subprocess_env())
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        got = capsys.readouterr()
        assert rc == fresh.returncode == (2 if argv[-1] == "x" else 0)
        assert _without_wall_times(got.out) == _without_wall_times(fresh.stdout)
        assert got.err == fresh.stderr


def test_cli_sweep_interior_singular_point_exits_2(capsys):
    rc = cli.main(["sweep", "--variable", "omega", "--c", "1", "--p", "0",
                   "--target", "MCM:C:Q"])
    assert rc == 2
    assert "error: confidence undefined for a pure coincident pair" in capsys.readouterr().err


# sha256 of the CSV bytes the closed forms produced before they were vectorised
_PINNED_SHA256 = {
    "fig2.csv": "1ff782d7a3d2b7ecf639bc64ebfb6239573e574fe9d871c0250e26f134252819",
    "fig3a.csv": "314d581dda10d21bc8b8ecc72af67260aeafc57ddfa1e5ce899c906788097a93",
    "fig3b.csv": "a3481f31a8e04e1ebcc5a722628fd4252fe30fa593502b319b2d1fbe1a20ab27",
    "fig4.csv": "bc3dd0d8fbaf7a78809ffe90ec5f6127d5b7b5226bb15637d6199d66710f1d46",
    "sweep-c-101.csv": "179ec0f05a5101f5f5de9a0ed9d5cb8b7033a8bec0c39033f4b4a783d5f96c20",
    "sweep-p-101.csv": "3997f352001a5a2ee618844acfb50bc884b8fdfc20d8225f732ea2bd67ad2aaf",
}
_NON_DEFINITIONAL_TARGETS = (
    "MESD:Pg:Q", "MESD:Pg:NC", "MESD:C:Q", "MESD:C1:NC", "MESD:C2:NC",
    "USD:Pg:Q", "USD:Pg:NC", "USD:P0:Q", "USD:P0:NC",
    "MCM:Pg:Q", "MCM:Pg:NC", "MCM:P0:Q", "MCM:P0:NC", "MCM:C:Q", "MCM:C:NC",
)


def test_csv_bytes_match_stored_checksums(tmp_path):
    for figure_id in FIGURE_IDS:
        emit_figure(FigureJob(figure_id, tmp_path / f"{figure_id}.csv"))
    for variable in ("c", "p"):
        argv = ["sweep", "--variable", variable, "--points", "101",
                "--out", str(tmp_path / f"sweep-{variable}-101.csv")]
        for target in _NON_DEFINITIONAL_TARGETS:
            argv += ["--target", target]
        assert cli.main(argv) == 0
    for name, digest in _PINNED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_dense_sweep_bytes_match_the_benchmark_digests(tmp_path, monkeypatch):
    # 100 001 points reach the exponent-form x (1e-05 ...) and cross CSV chunks
    pinned = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
                        .read_text())
    patched, cells = [], csvout._CsvTable._cells

    def counted(self, block, spans):  # and the cells it sent off the fast path
        rows = cells(self, block, spans)
        if all(text is None for _, _, text in spans):  # no constant run
            width = rows.shape[1] // sum(m for _, m, _ in spans)  # words a cell
            patched.append(int(_printf_cells(rows, width).sum()))
        return rows

    monkeypatch.setattr(csvout._CsvTable, "_cells", counted)
    for variable in ("c", "p"):
        name = f"sweep-{variable}-100001.csv"
        argv = ["sweep", "--variable", variable, "--points", "100001",
                "--out", str(tmp_path / name)]
        for target in _NON_DEFINITIONAL_TARGETS:
            argv += ["--target", target]
        assert cli.main(argv) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned[name], name
        if variable == "c":  # only the end rows of the sweep go to printf
            assert patched == [18] + [0] * 47 + [44]


def test_cli_rejects_bad_target(capsys):
    rc = cli.main(["sweep", "--variable", "c", "--target", "nope"])
    assert rc == 2


@pytest.mark.parametrize("token", ["MCM:C2:Q", "USD:C1:NC"])
def test_cli_rejects_arm_on_cell_without_arms(token, capsys):
    rc = cli.main(["sweep", "--variable", "c", "--points", "3", "--target", token])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ContractError):
        Target("MCM", "C", QUANTUM, outcome=2)
    # the noncontextual MESD confidence keeps its arms; plain C means arm 1
    argv = ["sweep", "--variable", "omega", "--points", "3"]
    for arm in ("C1", "C2", "C"):
        argv += ["--target", f"MESD:{arm}:NC"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "omega,MESD_C1_NC,MESD_C2_NC,MESD_C1_NC"


def test_cli_figure_to_unwritable_path_exits_2(tmp_path):
    rc = cli.main(["figure", "--id", "fig2", "--out", str(tmp_path / "no" / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("module, name, argv", [
    (harness, "verify_all", ["verify", "--points", "10000000"]),
    (sweeps, "_stream", ["sweep", "--variable", "c", "--points", "1000000000000",
                         "--target", "MESD:Pg:Q"]),
])
def test_cli_out_of_memory_exits_2(module, name, argv, monkeypatch, tmp_path, capsys):
    # inputs too large to hold: the stand-in raises as numpy does, allocating nothing
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(module, name, out_of_memory)
    path = tmp_path / "kept.csv"
    path.write_bytes(b"kept\n")
    for out in (["--out", str(path)], []) if argv[0] == "sweep" else ([],):
        assert cli.main(argv + out) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == ("error: out of memory: Unable to allocate 7.28 TiB for an array "
                           "with shape (1000000000000,)\n")
    assert path.read_bytes() == b"kept\n"


def subprocess_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ctxsd", "figure", "--id", "fig3a", "--out",
         str(tmp_path / "f.csv")],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "f.csv").exists()


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv(config.ENV_TOL, "1e-6")
    assert asdict(config.from_env()) == dict.fromkeys(asdict(config.DEFAULTS), 1e-6)
    monkeypatch.setenv(config.ENV_TOL, "junk")
    with pytest.raises(DomainError):
        config.from_env()
    for raw in ("-1", "inf", "1e400"):
        monkeypatch.setenv(config.ENV_TOL, raw)
        with pytest.raises(DomainError):
            config.from_env()


def test_env_tolerance_only_loosens(monkeypatch):
    monkeypatch.setenv(config.ENV_TOL, "1e-30")
    tols = config.from_env()
    assert tols == config.DEFAULTS


def test_tolerance_defaults_are_pinned():
    assert asdict(config.DEFAULTS) == {
        "exact": 1e-12,
        "closed_form": 1e-9,
        "oracle": 1e-9,
    }
    assert (config.NORM, config.PSD, config.COMPLETENESS) == (1e-12, 1e-10, 1e-10)


def test_only_verify_reads_the_env_tolerance(monkeypatch, capsys, tmp_path):
    for argv in (["bounds"], ["sweep", "--variable", "c", "--points", "5", "--target", "MCM:C:Q"],
                 ["figure", "--id", "fig2", "--out", str(tmp_path / "fig2.csv")], ["table"]):
        monkeypatch.delenv(config.ENV_TOL, raising=False)
        assert cli.main(argv) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv(config.ENV_TOL, "junk")
        assert cli.main(argv) == 0
        assert capsys.readouterr() == unset, argv
    assert cli.main(["verify", "--points", "5"]) == 2
    assert capsys.readouterr().err == "error: CTXSD_TOL must be a number, got 'junk'\n"


def test_cli_honours_env_tolerance(monkeypatch, capsys):
    # verify floors its limits at CTXSD_TOL: a check's reported limit reads 0.5
    monkeypatch.delenv(config.ENV_TOL, raising=False)
    limits = []
    for raw in (None, "0.5"):
        if raw is not None:
            monkeypatch.setenv(config.ENV_TOL, raw)
        assert cli.main(["verify", "--points", "5", "--json"]) == 0
        limits.append({ch["limit"] for ch in json.loads(capsys.readouterr().out)["checks"]})
    assert 0.5 not in limits[0] and 0.5 in limits[1]


# ---------------------------------------------------------------------------
# package boundary


@pytest.mark.parametrize("module", [ctxsd, qtheory, ncmodel, bounds, csvout, sweeps, harness],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # perfbench/run.py --trace 1 looks up each name of __all__ with getattr
    for name in module.__all__:
        assert hasattr(module, name), name


def test_harness_reexports_the_sweep_and_csv_functions_it_traces():
    # perfbench/run.py traces each function of harness.__all__ by identity,
    # in every module that binds it
    for module in (sweeps, csvout):
        for name in module.__all__:
            assert name in harness.__all__, name
            assert getattr(harness, name) is getattr(module, name), name


_NAN = math.nan
_PREP = ncmodel.canonical_scenario(0.5, 0.0).prep1


@pytest.mark.parametrize(
    "build",
    [
        lambda: qtheory.PureState(_NAN, 0),
        lambda: qtheory.Operator2([[_NAN, 0], [0, 1]]),
        lambda: ncmodel.EpistemicState([_NAN, 0.5, 0.5, 0]),
        lambda: ncmodel.ResponseSet([_NAN, 0, 0, 0], [0] * 4, [1] * 4),
        lambda: ncmodel.nc_prob(_PREP, [_NAN, 0, 0, 0]),
    ],
    ids=["PureState", "Operator2", "EpistemicState", "ResponseSet", "nc_prob"],
)
def test_validators_reject_nan(build):
    with pytest.raises(DomainError):
        build()


_SCN = ncmodel.canonical_scenario(0.5, 0.0)
_SCN3 = ncmodel.canonical_scenario(np.linspace(0.0, 1.0, 3), np.zeros(3))  # a stack of 3
_THETA_HALF = math.acos(math.sqrt(0.5))  # the angle of c = 0.5
_BASIS = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)  # |0><0|, |1><1|
_ONE, _HALF, _ZERO = np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2))
_NAN_ELEMENT = np.array([[np.nan, 0.0], [0.0, 1.0]])
_PG = Target("MESD", "P_g", QUANTUM)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: bounds.BoundSpec("MESD", "P_g", "classical", c=0.5), ContractError,
         "unknown theory"),
        (lambda: bounds.BoundSpec("MESD", "C", NONCONTEXTUAL, c=0.5, omega=0.5, outcome=3),
         ContractError, "outcome must be 1 or 2"),
        (lambda: ncmodel.EpistemicState([0.5, 0.5, 0.0]), ContractError, "4 region weights"),
        (lambda: ncmodel.ResponseSet([0.0] * 4, [0.0] * 3, [1.0] * 4), ContractError,
         "equal shapes"),
        (lambda: ncmodel.ResponseSet([0.0] * 3, [0.0] * 3, [1.0] * 3), ContractError,
         "4 entries"),
        (lambda: replace(_SCN, mirror1=_SCN.prep2), ContractError,
         r"mirror preparation equivalence violated at c=0\.5, p=0\.0"),
        (lambda: replace(_SCN, prep1=_SCN.mirror2, mirror1=_SCN.prep2), ContractError,
         r"agree on the shared support at c=0\.5, p=0\.0"),
        (lambda: ncmodel.nc_prob(_SCN.prep1, [0.0, 0.5, 1.0]), ContractError, "4 entries"),
        (lambda: ncmodel.oracle_max_confidence(_SCN, 3), ContractError, "outcome must be 1 or 2"),
        (lambda: qtheory.helstrom_stack([1.0]).confidence(3), ContractError, "1 and 2, got 3"),
        (lambda: qtheory.mcm_stack([1.0], [0.5], ()), ContractError, "not empty"),
        (lambda: qtheory._measurements(_BASIS, 0.5 * np.eye(2)[None], _BASIS,
                                       np.array([[[-0.1, 0.5]]])),
         ContractError, "element 0 has a negative eigenvalue"),
        (lambda: errors.require_in([[0.1], [0.1, 0.2]], "c"), ContractError, "real number"),
        (lambda: cli._parse_target("MESD:XX:Q"), CtxsdError, "unknown figure token"),
        (lambda: cli._parse_target("MESD:Pg:XX"), CtxsdError, "unknown theory token"),
        (lambda: ncmodel.usd_response([0.1, 0.2], [0.1, 0.2, 0.3]), ContractError,
         r"equal shapes, got \(2,\) and \(3,\)"),
        (lambda: SweepSpec("c", 0.0, 1.0, 5, {}, ("MESD:Pg:Q",)), ContractError,
         "target must be a table cell, got 'MESD:Pg:Q'"),
        (lambda: SweepSpec("c", 0.0, 1.0, 5, {"q": 0.3}, (Target("MESD", "P_g", QUANTUM),)),
         ContractError, r"unknown fixed parameter\(s\) \['q'\]"),
        (lambda: SweepSpec("c", 0.0, 1.0, 5, None, (Target("MESD", "P_g", QUANTUM),)),
         ContractError, "fixed must map"),
        (lambda: FigureJob("fig9", Path("fig9.csv")), ContractError, "unknown figure 'fig9'"),
        (lambda: qtheory.PureState(1.0, 1.0), DomainError, "squared norm 2.0, expected 1"),
        (lambda: qtheory.Operator2(np.array([[0.0, 1.0], [0.0, 0.0]])), DomainError,
         "not Hermitian"),
        (lambda: qtheory.usd_povm(qtheory.noisy_ensemble(_THETA_HALF, 0.2), 0.1, 0.1),
         ContractError, r"pure-state ensemble required \(noise = 0\)"),
        (lambda: qtheory.mcm_povm(qtheory.noisy_ensemble(_THETA_HALF, 0.75), 1.0),
         errors.InfeasibleWeightsError, r"weights \(1\.0, 1\.0\) make the inconclusive"),
        (lambda: qtheory.mcm_povm(qtheory.noisy_ensemble(0.0, 0.0), 0.1),
         errors.DegenerateEnsembleError, "average state is singular"),
        (lambda: qtheory.mcm_optimal(math.pi, 0.0), errors.DegenerateEnsembleError,
         "average state is singular"),
        (lambda: qtheory.mcm_stack([_THETA_HALF, 0.0, math.acos(math.sqrt(0.3))], [0.5, 0.0, 0.2]),
         errors.DegenerateEnsembleError, r"singular .*\(row 1\)$"),
        (lambda: ncmodel.EpistemicState([0.5, 0.5, 0.5, 0.0]), DomainError, "sum to 1.5"),
        (lambda: ncmodel.EpistemicState([-0.1, 0.6, 0.5, 0.0]), DomainError, "nonnegative"),
        (lambda: ncmodel.nc_prob(_SCN.prep1, [0.0, 1.5, 0.0, 0.0]), DomainError,
         r"response values must lie in \[0, 1\]"),
        (lambda: ncmodel.ResponseSet(np.ones(4), np.ones(4), np.ones(4)), DomainError,
         "sum to 1 pointwise"),
        (lambda: qtheory.Povm((_HALF, _HALF)), ContractError,
         r"\(3, 2, 2\) array of elements, got shape \(2, 2, 2\)"),
        (lambda: qtheory.Povm(([[0.0, 1.0], [0.0, 0.0]], _ZERO, [[1.0, -1.0], [0.0, 1.0]])),
         DomainError, "POVM elements are not Hermitian"),
        (lambda: qtheory.Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]), _ZERO)),
         ContractError, "negative eigenvalue"),
        (lambda: qtheory.Povm((_HALF, _ZERO, _ZERO)), ContractError, "do not sum to the identity"),
        (lambda: qtheory.Povm((_NAN_ELEMENT, _ZERO, _ONE - _NAN_ELEMENT)), DomainError,
         "POVM elements are not Hermitian"),
        (lambda: qtheory.Povm((_ONE, _ZERO, _ZERO)).conclusive(0), ContractError, "1 and 2, got 0"),
        (lambda: qtheory.Povm((_ONE, _ZERO, _ZERO)).conclusive(3), ContractError, "1 and 2, got 3"),
        (lambda: qtheory.mcm_stack([0.5, 0.5], [0.5], (1.0,)), ContractError,
         r"1-D of one length, got 2, \(1,\)"),
        (lambda: qtheory.mcm_stack([[0.5]], [[0.5]], (1.0,)), ContractError,
         r"1-D and not empty, got shape \(1, 1\)"),
        (lambda: qtheory.mcm_stack([], [], (1.0,)), ContractError,
         r"1-D and not empty, got shape \(0,\)"),
        (lambda: qtheory.mcm_stack([0.5, 4.0], [0.5, 0.5], (1.0,)), DomainError,
         r"theta must lie in \[0, pi\], got 4\.0 \(row 1\)"),
        (lambda: qtheory.mcm_stack([0.5], [1.5], (1.0,)), DomainError,
         r"noise must lie in \[0, 1\], got 1\.5"),
        (lambda: qtheory.mcm_stack([0.5], [np.nan], (1.0,)), DomainError,
         r"noise must lie in \[0, 1\], got nan"),
        (lambda: qtheory.mcm_stack([0.5], [0.5], (-0.5,)), DomainError,
         r"weight fractions must lie in \[0, inf\], got -0\.5"),
        (lambda: bounds.BoundSpec("MCM", "P_g", QUANTUM, c=0.5), ContractError,
         "MCM bounds require the noise level p"),
        (lambda: bounds.BoundSpec("MESD", "P_g", QUANTUM, c=0.5, p=0.5), ContractError,
         "p is not a parameter of MESD bounds"),
        (lambda: bounds.BoundSpec("MESD", "C", NONCONTEXTUAL, c=0.5), ContractError,
         "noncontextual MESD confidence requires omega"),
        (lambda: bounds.BoundSpec("MESD", "C", QUANTUM, c=0.5, omega=0.5), ContractError,
         "omega only parametrises the noncontextual MESD confidence"),
        (lambda: bounds.BoundSpec("MESD", "P_g", QUANTUM, c=0.5, omega=0.5), ContractError,
         "omega only parametrises the noncontextual MESD confidence"),
        (lambda: bounds.BoundSpec("XYZ", "P_g", QUANTUM, c=0.5), ContractError,
         "unknown scheme 'XYZ'"),
        (lambda: bounds.BoundSpec("MESD", "Pg", QUANTUM, c=0.5), ContractError,
         "unknown figure 'Pg'"),
        (lambda: bounds.BoundSpec("MCM", "C", QUANTUM, c=0.5, p=0.5, outcome=2), ContractError,
         "only the noncontextual MESD confidence has distinct arms"),
        (lambda: SweepSpec("x", 0.0, 1.0, 5, {}, (_PG,)), ContractError,
         "unknown sweep variable 'x'"),
        (lambda: SweepSpec("c", 0.0, 1.5, 5, {}, (_PG,)), DomainError,
         r"sweep stop must lie in \[0, 1\], got 1\.5"),
        (lambda: SweepSpec("c", 0.0, 1.0, 0, {}, (_PG,)), DomainError,
         "a sweep needs at least one grid point"),
        (lambda: SweepSpec("c", 0.0, 1.0, 5, {}, ()), ContractError,
         "a sweep needs at least one target"),
        (lambda: ncmodel.nc_prob(_SCN3.prep1, np.zeros((2, 4))), ContractError,
         r"shapes \(3, 4\) and \(2, 4\) do not broadcast"),
        (lambda: ncmodel.nc_figures(_SCN3, ncmodel.usd_response(np.array([0.1, 0.2]),
                                                                np.array([0.1, 0.2]))),
         ContractError, r"shapes \(3, 4\) and \(2, 4\) do not broadcast"),
        (lambda: ncmodel.confusability(_SCN3.prep1, _SCN3[:2].prep2), ContractError,
         r"shapes \(3, 4\) and \(2, 4\) do not broadcast"),
        (lambda: bounds.nc_mesd_confidences(np.linspace(0.0, 1.0, 3), np.array([0.1, 0.2])),
         ContractError, r"c and omega must broadcast, got shapes \(3,\) and \(2,\)"),
        (lambda: bounds.nc_mcm_guessing(np.linspace(0.0, 1.0, 3), np.array([0.1, 0.2])),
         ContractError, r"c and p must broadcast, got shapes \(3,\) and \(2,\)"),
        (lambda: ncmodel.EpistemicState(["a"] * 4), ContractError,
         "region weights must be real numbers: could not convert string to float: 'a'"),
        (lambda: ncmodel.nc_prob(_SCN.prep1, "abcd"), ContractError,
         "response vector must hold real numbers: could not convert string to float: 'abcd'"),
        (lambda: qtheory.Povm("x"), ContractError, "POVM elements must be complex numbers"),
        (lambda: qtheory.PureState("a", 0), ContractError,
         "amplitudes must be numbers, got 'a' and 0"),
        (lambda: ncmodel.ResponseSet([1j] * 4, [0] * 4, [1] * 4), ContractError,
         "response 1 must hold real numbers: .* not 'complex'"),
        (lambda: ncmodel.ResponseSet(["a"] * 4, [0] * 4, [1] * 4), ContractError,
         "response 1 must hold real numbers: could not convert string to float: 'a'"),
        (lambda: qtheory.Operator2("x"), ContractError,
         "operator entries must be numbers, got 'x'"),
        (lambda: qtheory.PureState(np.array([1.0, 0.0]), 0), ContractError,
         r"amplitudes must be numbers, got array\(\[1\., 0\.\]\) and 0"),
        (lambda: errors.require_in(np.array([2.0]), "c"), DomainError, r"got 2\.0$"),
        (lambda: bounds.table1_report(0.5, 0.5, 0.5).cell("MESD", "C(1)"), ContractError,
         r"no cell MESD C\(1\); the cells are MESD P_g, MESD P_0, MESD C, USD P_g, USD P_0, "
         "USD C, MCM P_g, MCM P_0, MCM C$"),
        (lambda: bounds.table1_report(0.5, 0.5, 0.5).cell(["MESD"], "P_g"), ContractError,
         r"no cell \['MESD'\] P_g; the cells are MESD P_g, .*, MCM C$"),
    ],
    ids=["spec-theory", "spec-outcome", "state-shape", "responses-unequal", "responses-3",
         "scenario-mirrors", "scenario-support", "nc_prob-3", "oracle-outcome",
         "stack-outcome", "mcm_stack-fractions", "psd-outside-pi0", "ragged", "cli-figure",
         "cli-theory", "usd_response-shapes", "sweep-target", "sweep-fixed-name",
         "sweep-fixed-mapping", "figure-id", "state-norm", "operator-hermitian", "usd-noisy",
         "mcm-alpha", "mcm_povm-singular", "mcm_optimal-singular", "mcm_stack-singular",
         "state-sum", "state-negative", "nc_prob-range", "responses-sum", "povm-shape",
         "povm-non-hermitian", "povm-indefinite", "povm-incomplete", "povm-nan",
         "povm-conclusive-0", "povm-conclusive-3", "mcm_stack-lengths", "mcm_stack-2-d",
         "mcm_stack-empty", "mcm_stack-theta", "mcm_stack-noise", "mcm_stack-nan",
         "mcm_stack-fraction", "spec-mcm-without-p", "spec-mesd-with-p",
         "spec-arms-without-omega", "spec-quantum-confidence-with-omega", "spec-pg-with-omega",
         "spec-scheme", "spec-figure", "spec-arm-outside-nc-mesd", "sweep-variable",
         "sweep-stop", "sweep-points", "sweep-no-target", "nc_prob-broadcast",
         "nc_figures-broadcast", "confusability-broadcast", "nc_mesd_confidences-broadcast",
         "nc_mcm_guessing-broadcast", "state-entry", "nc_prob-entry", "povm-entry",
         "pure-state-entry", "responses-complex", "responses-entry", "operator-entry",
         "pure-state-array", "require_in-one-row", "table-cell", "table-cell-unhashable"],
)
def test_each_typed_error_path_raises_its_error(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_responses_leave_their_range_only_beyond_the_norm_tolerance():
    norm = config.NORM  # exactly this far outside [0, 1] is inside; twice is not
    ncmodel.ResponseSet([-norm, 0, 0, 0], [0] * 4, [1.0 + norm, 1, 1, 1])
    for xi1 in ([-2.0 * norm, 0, 0, 0], [1.0 + 2.0 * norm, 0, 0, 0]):
        with pytest.raises(DomainError, match="response 1 leaves"):
            ncmodel.ResponseSet(xi1, [0] * 4, [1] * 4)


# The bounded parameters of the public API and the upper end of each range.
_BOUNDED = {"c": 1.0, "p": 1.0, "omega": 1.0, "theta": math.pi, "noise": 1.0, "alpha": 1.0,
            "gamma1": 1.0, "gamma2": 1.0, "start": 1.0, "stop": 1.0, "fixed": 1.0, "xs": 1.0}
_PURE = qtheory.noisy_ensemble(1.0, 0.0)
_NOISY = qtheory.noisy_ensemble(1.0, 0.2)

# Valid keyword arguments for every public callable with a bounded parameter:
# one dict per call, together naming each of its bounded parameters. None
# marks a callable whose such names are not parameters: the records that
# hold what a checked builder computed, and an enum's ``start`` numbering.
_BASE_ARGS = {
    "qtheory.Ensemble": [dict(pair=qtheory.make_pure_pair(1.0), noise=0.2)],
    "qtheory.make_pure_pair": [dict(theta=1.0)],
    "qtheory.noisy_ensemble": [dict(theta=1.0, p=0.2)],
    "qtheory.usd_povm": [dict(ens=_PURE, gamma1=0.3, gamma2=0.2)],
    "qtheory.mcm_povm": [dict(ens=_NOISY, alpha=0.2)],
    "qtheory.mcm_optimal": [dict(theta=1.0, p=0.2)],
    "qtheory.helstrom_stack": [dict(theta=[1.0, 2.0])],
    "qtheory.usd_stack": [dict(theta=[1.0, 2.0])],
    "qtheory.mcm_stack": [dict(theta=[1.0, 2.0], p=[0.2, 0.3])],
    "ncmodel.Region": None,
    "ncmodel.NcScenario": None,
    "ncmodel.canonical_scenario": [dict(c=0.3, p=0.2)],
    "ncmodel.mesd_mixed_strategy": [dict(omega=0.4)],
    "ncmodel.usd_response": [dict(gamma1=0.3, gamma2=0.2)],
    "bounds.BoundSpec": [dict(scheme="MCM", figure="C", theory=QUANTUM, c=0.3, p=0.2),
                         dict(scheme="MESD", figure="C", theory=NONCONTEXTUAL, c=0.3, omega=0.4)],
    "bounds.Table1Report": None,
    "bounds.eval_column": [dict(spec=bounds.BoundSpec("MCM", "C", QUANTUM, 0.3, p=0.2),
                                variable="p", xs=[0.1, 0.5])],
    "bounds.table1_report": [dict(c=0.3, p=0.2, omega=0.4)],
    "bounds.nc_mesd_confidences": [dict(c=0.3, omega=0.4)],
    "bounds.omega_star": [dict(c=0.3)],
    "bounds.nc_mcm_guessing": [dict(c=0.3, p=0.2)],
    "sweeps.SweepSpec": [dict(variable="c", start=0.2, stop=0.8, points=3, fixed={"p": 0.5},
                              targets=(CELLS[0],))],
    "sweeps.table_cmd": [dict(c=0.3, p=0.2, omega=0.4)],
}

# The scalar-only column of the table: the bounded parameters that are one
# number by nature, for which an array or a sequence is a ContractError.
# Every other bounded parameter takes an array: a grid, a stack, or the
# array-aware model and closed forms.
_SCALAR_ONLY = {
    "qtheory.Ensemble": ("noise",),
    "qtheory.make_pure_pair": ("theta",),
    "qtheory.noisy_ensemble": ("theta", "p"),
    "qtheory.usd_povm": ("gamma1", "gamma2"),
    "qtheory.mcm_povm": ("alpha",),
    "qtheory.mcm_optimal": ("theta", "p"),
    "bounds.BoundSpec": ("c", "p", "omega"),
    "bounds.table1_report": ("c", "p", "omega"),
    "sweeps.SweepSpec": ("start", "stop", "fixed"),
    "sweeps.table_cmd": ("c", "p", "omega"),
}


def _bounded_callables():
    """{"module.name": (callable, its bounded parameters)} found from the API."""
    found = {}
    for module in (qtheory, ncmodel, bounds, sweeps):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                params = [k for k in inspect.signature(obj).parameters if k in _BOUNDED]
                if params:
                    found[f"{module.__name__.rsplit('.', 1)[1]}.{name}"] = (obj, params)
    return found


_FOUND = _bounded_callables()
_CHECKED = [(key, name) for key, (_, params) in _FOUND.items() if _BASE_ARGS.get(key)
            for name in params]


def test_every_bounded_parameter_has_base_arguments():
    assert set(_FOUND) == set(_BASE_ARGS)  # a new entry point needs a row
    for key, (_, params) in _FOUND.items():
        if _BASE_ARGS[key] is not None:
            assert set(params) <= {k for kwargs in _BASE_ARGS[key] for k in kwargs}, key
    for key, names in _SCALAR_ONLY.items():
        assert _BASE_ARGS[key] and set(names) <= set(_FOUND[key][1]), key


def _put(base, value):
    """``base`` with ``value`` in place of each number: every entry of a
    list (a grid or a stack) or a mapping (the fixed values of a sweep)."""
    if isinstance(base, list):
        return [value] * len(base)
    if isinstance(base, dict):
        return dict.fromkeys(base, value)
    return value


def _bits(x):
    """What a result holds, recursively: an array by its dtype, shape and
    bytes, and a number, Python or numpy, by the bits of its value as a
    float (a complex by both parts)."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, float)):
        return float(x).hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    state = dict(getattr(x, "__dict__", {}))
    state.update((s, getattr(x, s)) for cls in type(x).__mro__
                 for s in getattr(cls, "__slots__", ()) if hasattr(x, s))
    return type(x).__name__, _bits(state)


def _outcome(fn, kwargs):
    """The bits of ``fn(**kwargs)``, or the class of the error it raised."""
    try:
        return _bits(fn(**kwargs))
    except Exception as exc:  # compared, not hidden: the float's call must raise it too
        return type(exc)


@pytest.mark.parametrize("key, name", _CHECKED, ids=[f"{k}-{n}" for k, n in _CHECKED])
def test_every_bounded_parameter_is_typed_and_range_checked(key, name):
    fn, hi = _FOUND[key][0], _BOUNDED[name]
    for kwargs in (kw for kw in _BASE_ARGS[key] if name in kw):
        def call(value):
            return {**kwargs, name: _put(kwargs[name], value)}

        for bad in ("0.3", None):
            with pytest.raises(ContractError):
                fn(**call(bad))
        for bad in (math.nan, -0.1, hi + 0.1, math.nextafter(hi, math.inf),
                    math.nextafter(0.0, -math.inf)):
            with pytest.raises(DomainError):
                fn(**call(bad))
        returned = False
        for k in (0, 1):
            want = _outcome(fn, call(float(k)))
            returned = returned or not isinstance(want, type)
            for same in (k, np.float64(k), np.int64(k)):
                assert _outcome(fn, call(same)) == want, (same, want)
        assert returned  # 0.0 or 1.0 gave a value, so the bits were compared
        # the scalar-only column: a shaped value is a ContractError there,
        # and an array is taken by every other parameter given as a number
        if name in _SCALAR_ONLY.get(key, ()):
            for shaped in (np.array([0.1, 0.2]), [0.1, 0.2], np.array([[0.3]])):
                with pytest.raises(ContractError):
                    fn(**call(shaped))
        elif not isinstance(kwargs[name], (list, dict)):
            fn(**{**kwargs, **{k: np.array([0.1, 0.2]) for k in kwargs if k in _BOUNDED}})
