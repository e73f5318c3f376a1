"""Property test of the CSV writer: every cell is the bytes of ``"%.9g"``.

Runs only where hypothesis is installed (the ``test`` extra); the
enumerated edge, chunk and digest tests in ``test_harness.py`` run
everywhere.
"""

import io
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctxsd import harness  # noqa: E402

_FLOATS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),  # the sweep range
    st.floats(-12.0, 12.0).map(lambda t: 10.0 ** t),  # log-uniform
    st.floats(-12.0, 12.0).map(lambda t: -(10.0 ** t)),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072e-308]),
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


@settings(deadline=None)
@given(_tables())
def test_csv_cells_are_printf_bytes(table):
    header = [f"x{i}" for i in range(table.shape[1])]
    out = io.StringIO()
    harness.write_csv_to(out, header, table)
    want = [",".join(header)] + [",".join("%.9g" % v for v in row) for row in table.tolist()]
    assert out.getvalue() == "\n".join(want) + "\n"
