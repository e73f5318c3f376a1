"""Property test of the CSV writer: every cell is the bytes of ``"%.9g"``.

Runs only where hypothesis is installed (the ``test`` extra); the
enumerated edge, chunk and digest tests in ``test_harness.py`` run
everywhere. Each property draws the same 100 examples in every run
(derandomized, with no example database), whatever ran before it.
"""

import io
import math
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctxsd import csvout  # noqa: E402

_FLOATS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),  # the sweep range
    st.floats(-12.0, 12.0).map(lambda t: 10.0 ** t),  # log-uniform
    st.floats(-12.0, 12.0).map(lambda t: -(10.0 ** t)),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072e-308]),
    st.sampled_from([-1.34077881e154, -1.23456789e-100, -2.22507386e-308]),  # 16-byte texts
    st.floats(),  # any double, subnormals included
)
# a constant column's value: any cell, or one the writer must print per bit pattern
_CONSTANTS = st.one_of(_FLOATS, st.sampled_from([0.0, -0.0, 1e-5, 1.0, math.nan]))


@st.composite
def _tables(draw):
    """A table whose columns are each arbitrary, constant, or a mix of 0.0
    and -0.0 (constant by float ``==`` but not by bit pattern)."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(["any", "any", "constant", "signed zeros"]))
        if kind == "constant":
            columns.append([draw(_CONSTANTS)] * rows)
        else:
            cells = st.sampled_from([0.0, -0.0]) if kind == "signed zeros" else _FLOATS
            columns.append(draw(st.lists(cells, min_size=rows, max_size=rows)))
    return np.array(columns, dtype=float).T


def _printf_csv(header, table):
    """The CSV text of ``table`` with every cell formatted by ``"%.9g"``."""
    lines = [",".join(header)] + [",".join("%.9g" % v for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


@settings(deadline=None, derandomize=True, database=None)
@given(_tables())
def test_csv_cells_are_printf_bytes(table):
    header = [f"x{i}" for i in range(table.shape[1])]
    out = io.StringIO()
    csvout.write_csv_to(out, header, table)
    assert out.getvalue() == _printf_csv(header, table)


@st.composite
def _chunked_tables(draw):
    """A cell budget of up to six rows, or less than one, and a table of up
    to 40 rows whose columns are each arbitrary, or constant within every
    chunk at a value drawn per chunk, so that a later chunk repeats an
    earlier value or changes it."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(1, 8))
    cells = draw(st.integers(1, 6 * cols))
    chunk = max(1, cells // cols)  # one row when the table is wider than the budget
    columns = []
    for _ in range(cols):
        if draw(st.booleans()):
            values = st.one_of(st.sampled_from([0.25, -0.0, 1e-5, -1.23456789e-100]), _CONSTANTS)
            per_chunk = [draw(values) for _ in range(0, rows, chunk)]
            columns.append([per_chunk[i // chunk] for i in range(rows)])
        else:
            columns.append(draw(st.lists(_FLOATS, min_size=rows, max_size=rows)))
    return cells, np.array(columns, dtype=float).reshape(cols, rows).T


@settings(deadline=None, derandomize=True, database=None)
@given(_chunked_tables())
def test_csv_rows_and_constant_runs_cross_chunk_edges(drawn):
    # each row carries its "\n" and each constant run's text is kept per table
    cells, table = drawn
    header = [f"x{i}" for i in range(table.shape[1])]
    out = io.StringIO()
    with patch.object(csvout, "_CELLS", cells):
        csvout.write_csv_to(out, header, table)
    assert out.getvalue() == _printf_csv(header, table)
