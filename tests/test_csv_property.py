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
from hypothesis.extra import numpy as hnp  # noqa: E402

from ctxsd import harness  # noqa: E402

_FLOATS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),  # the sweep range
    st.floats(-12.0, 12.0).map(lambda t: 10.0 ** t),  # log-uniform
    st.floats(-12.0, 12.0).map(lambda t: -(10.0 ** t)),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072e-308]),
    st.floats(),  # any double, subnormals included
)


@settings(deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                  elements=_FLOATS))
def test_csv_cells_are_printf_bytes(table):
    header = [f"x{i}" for i in range(table.shape[1])]
    out = io.StringIO()
    harness.write_csv_to(out, header, table)
    want = [",".join(header)] + [",".join("%.9g" % v for v in row) for row in table.tolist()]
    assert out.getvalue() == "\n".join(want) + "\n"
