"""A sweep is evaluated and written a block of rows at a time.

``ctxsd sweep`` and ``emit_figure`` stream a sweep through
``sweeps._stream``; ``run_sweep`` builds its table from the same blocks.
These tests hold the streamed bytes to those of the whole table, the
all-or-nothing rule for a singular point, and the memory of a sweep to its
block rather than its grid.
"""

import io
import tracemalloc

import numpy as np
import pytest

from ctxsd import bounds, cli, csvout
from ctxsd.config import NORM
from ctxsd.csvout import _chunk_rows
from ctxsd.errors import ContractError, DivergenceError
from ctxsd.sweeps import SweepSpec, _block_rows, run_sweep

# seven targets each: x and seven columns make 4096-row chunks
_SWEEPS = {
    # c up to 1 at p = 0: the MCM confidence is singular at c = 1, so the
    # last point moves in half a step
    "c": ["--variable", "c", "--p", "0", "--target", "MCM:C:Q", "--target", "MESD:C1:NC",
          "--target", "MCM:Pg:NC", "--target", "MESD:Pg:Q", "--target", "USD:P0:Q",
          "--target", "MCM:P0:NC", "--target", "MESD:C2:NC"],
    # most cells do not read p: constant columns, in runs between varying ones
    "p": ["--variable", "p", "--c", "0.3", "--target", "MESD:Pg:Q", "--target", "USD:P0:NC",
          "--target", "MCM:C:NC", "--target", "MESD:C2:NC", "--target", "MESD:C:Q",
          "--target", "USD:Pg:NC", "--target", "MCM:P0:Q"],
    "omega": ["--variable", "omega", "--c", "0.8", "--target", "MESD:C1:NC",
              "--target", "MESD:C2:NC", "--target", "MCM:P0:Q", "--target", "MESD:Pg:NC",
              "--target", "USD:Pg:Q", "--target", "MCM:C:NC", "--target", "MCM:Pg:Q"],
}


def _edges(case):
    """Grid sizes at the chunk and block edges of the sweep ``case``, whose
    width sets both: the edges of its first and second blocks, and a grid
    of four blocks and a row."""
    columns = 1 + _SWEEPS[case].count("--target")
    chunk, block = _chunk_rows(columns), _block_rows(columns)
    return (1, 2, chunk - 1, chunk, chunk + 1, block - 1, block, block + 1,
            2 * block - 1, 2 * block, 2 * block + 1, 4 * block + 1)


def _spec(argv):
    """The ``SweepSpec`` that ``ctxsd sweep`` builds from ``argv``."""
    args = cli._build_parser().parse_args(argv)
    return SweepSpec(args.variable, args.start, args.stop, args.points,
                     {"c": args.c, "p": args.p, "omega": args.omega},
                     tuple(cli._parse_target(tok) for tok in args.target))


@pytest.mark.parametrize("case, points", [(case, n) for case in _SWEEPS for n in _edges(case)])
def test_streamed_bytes_equal_the_bytes_of_the_whole_table(case, points, tmp_path, capsys):
    argv = ["sweep", "--points", str(points), *_SWEEPS[case]]
    result = run_sweep(_spec(argv))
    table_path = tmp_path / "table.csv"
    csvout.write_csv(table_path, result.header, result.table)
    want = table_path.read_bytes()
    assert cli.main(argv + ["--out", str(tmp_path / "streamed.csv")]) == 0
    to_file = capsys.readouterr()
    assert (tmp_path / "streamed.csv").read_bytes() == want
    assert cli.main(argv) == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out.encode("utf-8") == want
    notes = [f"note: row {sub.index}: {case} = {sub.grid_x:.9g} is singular; "
             f"evaluated at {sub.used_x:.9g}" for sub in result.substitutions]
    assert to_file.err.splitlines() == to_stdout.err.splitlines() == notes
    assert bool(notes) == (case == "c" and points > 1)


_LATE = ["sweep", "--variable", "c", "--start", "0.9999999999", "--stop", "1", "--p", "0",
         "--points", "100001", "--target", "MCM:C:Q"]


def test_a_late_singular_point_writes_nothing(tmp_path, capsys):
    # the grid is singular only in its last block, past its moved endpoint
    xs = np.linspace(0.9999999999, 1.0, 100_001)
    singular = np.flatnonzero(bounds._mcm_denominator(True, xs[:-1], 0.0) <= NORM)
    block = _block_rows(2)
    assert len(singular) and singular[0] >= block * (len(xs) // block)
    path = tmp_path / "kept.csv"
    path.write_bytes(b"kept\n")
    for argv in (_LATE + ["--out", str(path)], _LATE):
        assert cli.main(argv) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == "error: confidence undefined for a pure coincident pair\n"
    assert path.read_bytes() == b"kept\n"
    with pytest.raises(DivergenceError, match="pure coincident pair"):
        run_sweep(_spec(_LATE))


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variable", ["c", "p"])
def test_sweep_memory_does_not_grow_with_its_table(variable, tmp_path, capsys):
    # the grid itself is 8 bytes a point; a table of x and three columns
    # would add 32 more
    argv = ["sweep", "--variable", variable, "--target", "MESD:C1:NC", "--target", "MCM:C:Q",
            "--target", "MCM:Pg:Q", "--out", str(tmp_path / "sweep.csv")]
    assert cli.main(argv + ["--points", "101"]) == 0  # builds the parser and digit table
    small, large = (_traced_peak(argv + ["--points", str(n)]) for n in (100_001, 400_001))
    assert small < 4.5e6  # no more than the wide sweep below: blocks stop at 8192 rows
    assert large < 16e6
    assert large - small <= 16 * 300_000 + 2e6


# the 19 table columns less the four definitional ones, as sweep targets
_NON_DEFINITIONAL = tuple(t.label.replace("_", ":") for t in bounds.CELLS
                          if (t.scheme, t.figure) not in bounds._DEFINITIONAL)


def test_a_wide_sweep_holds_a_chunk_of_cells_not_of_rows(tmp_path, capsys):
    # 46 columns: a chunk of 712 rows, 2.5 MB of writer scratch; with chunks
    # of 4096 rows, whatever their width, this sweep peaked at 27.2 MB
    targets = [arg for target in _NON_DEFINITIONAL * 3 for arg in ("--target", target)]
    argv = ["sweep", "--variable", "c", *targets, "--out", str(tmp_path / "wide.csv")]
    assert cli.main(argv + ["--points", "101"]) == 0  # builds the parser and digit table
    assert _traced_peak(argv + ["--points", "100001"]) < 8e6


def test_csv_writes_an_iterator_of_blocks_as_one_table(tmp_path):
    rng = np.random.default_rng(7)
    chunk = _chunk_rows(3)
    table = rng.random((2 * chunk + 7, 3))
    table[:, 1] = 0.25  # constant across blocks
    cuts = [0, 1, 3, chunk + 3, chunk + 3, len(table)]  # an empty block too
    want = io.StringIO()
    csvout.write_csv_to(want, ["a", "b", "c"], table)
    got = io.StringIO()
    csvout.write_csv_to(got, ["a", "b", "c"], (table[lo:hi] for lo, hi in zip(cuts, cuts[1:])))
    assert got.getvalue() == want.getvalue()
    path = tmp_path / "blocks.csv"
    csvout.write_csv(path, ["a", "b", "c"], iter([table[:2], table[2:].tolist()]))
    assert path.read_text() == want.getvalue()
    empty = io.StringIO()
    csvout.write_csv_to(empty, ["a"], iter(()))
    assert empty.getvalue() == "a\n"


def test_csv_checks_the_first_block_before_writing(tmp_path):
    path = tmp_path / "kept.csv"
    path.write_text("kept\n")
    with pytest.raises(ContractError):
        csvout.write_csv(path, ["a", "b"], iter([np.zeros((2, 3)), np.zeros((2, 2))]))
    assert path.read_text() == "kept\n"
    out = io.StringIO()
    with pytest.raises(ContractError):
        csvout.write_csv_to(out, ["a", "b"], iter([np.zeros((2, 3))]))
    assert out.getvalue() == ""
