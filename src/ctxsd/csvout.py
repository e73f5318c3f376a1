"""CSV output is deterministic: comma separated, ``.`` decimal point, LF line
endings, header row first, every cell the bytes of ``"%.9g" % x``. One numpy
kernel writes a chunk of ``_CELLS`` cells at a time (whole rows, at least
one) as four uint32 words a cell: a lead word holding the separator before
the cell (``"\\n"`` for a row's first cell, so the header goes out without
its newline and one ``"\\n"`` ends the table), a NUL and "0.", then three
digit words; every byte it does not set is NUL, deleted by one
``bytes.translate``. Its fast path is the x that a clamp into [1e-4, _TIE]
leaves in place (NaN, +-0, +-inf, x >= 1 and the x that print as 1 move): y
= x 10^(9+k), k the decade thresholds above x, is in [10^8, 10^9] and within
2^-24 of exact, so rint(y) is the nine-digit mantissa unless |y - rint(y)|
>= 1/2 - 1e-6, and the fraction digits f = rint(y) 1e12 / 10^(9+k) are exact
and, as _TIE 10^9 rounds to a tie, below 10^12. They split exactly as hi =
floor(f 1e-8), rest = f - hi 1e8, mid = floor(rest 1e-4), lo = rest - mid
1e4: as fl(1e-8) and fl(1e-4) exceed their powers, no product is below its
integer part, nor (off by < 2e-12) reaches the next one, >= 1e-8 away. A
table holds each four-digit group and, in its second half, the group with
trailing "0"s as NUL, read by the lowest group and by a higher one where all
below are 0. Of the cells off the path, exact 0 and 1 are one digit and any
other is ``"%-15.9g"`` after its separator, spaces NUL; a call that holds a
16-byte text (as ``-1.23456789e-100``) gives every cell a fifth word and
prints ``"%-19.9g"``. A column whose 64-bit patterns are equal in every row
of a chunk (0.0 and -0.0 differ, as do NaN payloads; tested in the block's
own layout) skips the kernel: each run of such columns is formatted once per
output, keyed by its columns and patterns, and its text repeated down the
chunk. The kernel's scratch is allocated once per output, sized to its
longest chunk. An output may come as an iterator of row blocks (a sweep
writes its rows so): each block is written before the next is drawn, so the
writer holds one block at a time, and the first is drawn before a byte is
written or a file is opened.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import ContractError

__all__ = ["write_csv", "write_csv_to"]

_CELLS = 32_768  # cells formatted per write

# One table, or an iterator of them: its row blocks
_Rows = Union[Sequence, np.ndarray, Iterator[Union[Sequence, np.ndarray]]]

# A cell's lead word, after another cell and first in its row: separator, NUL, "0."
_CSV_LEAD = np.frombuffer(b",\x000.\n\x000.", np.uint32)
# The four words of an exact 0 or 1 less its separator: a NUL, the digit, NULs
_DIGIT_CELL = np.frombuffer(b"\0\x000" + bytes(14) + b"\x001" + bytes(13), np.uint32).reshape(2, 4)
_SCALE = 10.0 ** np.arange(9, 13)  # 10^(9+k)
_TIE = 1.0 - 5e-10  # the largest double below 0.9999999995, the last to print below 1


def _chunk_rows(columns: int) -> int:
    """The rows of a chunk of ``columns`` columns: ``_CELLS`` cells, or one row."""
    return max(1, _CELLS // columns)


@functools.cache
def _csv_digits() -> np.ndarray:
    """The CSV kernel's digit table, built on its first use: at i the four
    ASCII digits of i (0..9999) packed into a uint32, and at 10000 + i the
    same digits with the trailing "0"s set to NUL."""
    n = np.arange(10_000)[:, None]
    digits = n // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    trailing = n % 10 ** np.arange(4, 0, -1) == 0  # every digit after it is 0
    table = np.concatenate([digits, np.where(trailing, 0, digits)])
    return table.astype(np.uint8).view(np.uint32).ravel()


class _CsvTable:
    """The CSV writer of one output of ``columns`` columns: its kernel's
    scratch, sized to its longest chunk so far, into which every step of
    the kernel writes, and the text of each constant run."""

    def __init__(self, columns: int) -> None:
        self.size = 0  # cells the scratch holds
        self.lead = np.where(np.arange(columns) == 0, _CSV_LEAD[1], _CSV_LEAD[0])
        self.texts: dict[tuple, np.ndarray] = {}  # by columns and bit patterns

    def _reserve(self, size: int) -> None:
        """Scratch for ``size`` cells."""
        if size > self.size:
            self.size = size
            self.x, self.y, self.f, self.r = np.empty((4, size))
            self.off, self.b1, self.b2 = np.empty((3, size), bool)
            self.words = np.empty(5 * size, np.uint32)  # 4 or 5 words a cell

    def chunk(self, block: np.ndarray) -> bytes:
        """The CSV text of the rows ``block``, each led by its "\\n"."""
        n, m = block.shape
        self._reserve(n * m)
        bits = block.view(np.uint64)  # not float ==: 0.0 and -0.0 print apart
        same = np.equal(bits, bits[0]).all(axis=0)  # in the block's layout
        same &= n > 1  # one row is all constant: its texts would pile up, one per row
        spans, col = [], 0  # each run's first column, column count and text (None: varying)
        for const, run in itertools.groupby(same.tolist()):
            count = len(list(run))
            spans.append((col, count, self._text(block, col, count) if const else None))
            col += count
        return self._cells(block, spans).tobytes().translate(None, b"\0")

    def _text(self, block: np.ndarray, col: int, m: int) -> np.ndarray:
        """The words of the first row's ``m`` cells from column ``col``, NULs
        deleted and padded to a whole word; formatted on first use only."""
        key = (col, m, block[0, col:col + m].tobytes())
        text = self.texts.get(key)
        if text is None:
            text = self._cells(block[:1], [(col, m, None)]).tobytes().translate(None, b"\0")
            text = self.texts[key] = np.frombuffer(text + bytes(-len(text) % 4), np.uint32)
        return text

    def _cells(self, block: np.ndarray, spans: list) -> np.ndarray:
        """The kernel: the ``(rows, words)`` of ``block`` laid out as
        ``spans``, its runs of (first column, count, text). A run with a text
        is that text in each row; each cell of another is its column's lead
        word then ``b"%.9g" % x``, every byte it does not set NUL. A cell is
        four words; it is five in every cell if one cell's text is 16 bytes."""
        n = len(block)
        varying = [(col, m) for col, m, text in spans if text is None]  # its cells are x
        starts = [0, *itertools.accumulate(m for _, m in varying)]  # of each run in x
        mv = starts[-1]
        x, y, f, r = (a[:n * mv] for a in (self.x, self.y, self.f, self.r))
        off, b1, b2 = (a[:n * mv] for a in (self.off, self.b1, self.b2))
        k = r.view(np.intp)  # an index, in r while r is free
        for (col, m), at in zip(varying, starts):
            np.copyto(x.reshape(n, mv)[:, at:at + m], block[:, col:col + m])
        np.not_equal(np.fmin(np.fmax(x, 1e-4, out=y), _TIE, out=y), x, out=off)  # moved: off
        # k counts the thresholds above y, each the double just above 10^-j, so it is exact
        count = np.add(np.less(y, 0.1, out=b1).view(np.uint8),
                       np.less(y, 0.01, out=b2).view(np.uint8), out=b2.view(np.uint8))
        np.copyto(k, np.add(count, np.less(y, 0.001, out=b1).view(np.uint8), out=count))
        np.multiply(y, np.take(_SCALE, k, out=f, mode="wrap"), out=y)
        np.divide(1e12, f, out=f)  # exact
        np.rint(y, out=r)
        off |= np.greater_equal(np.abs(np.subtract(y, r, out=y), out=y), 0.5 - 1e-6, out=b1)
        np.multiply(r, f, out=f)  # the twelve fraction digits, an exact integer
        # off the path, exact 0 and 1 are one digit; any other cell is "%.9g" itself
        off = np.flatnonzero(off)
        x_off = x[off]
        one_digit = (x_off.view(np.uint64) == 0) | (x_off == 1.0)
        values = tuple(x_off[~one_digit].tolist())
        printed = (b"\0%-15.9g" * len(values)) % values
        width = 4
        if len(printed) > 16 * len(values):  # a 16-byte text: with its separator, 17
            width = 5
            printed = (b"\0%-19.9g" * len(values)) % values
        # each run in its place in a row: its text, or width words a cell
        total = sum(width * m if text is None else len(text) for _, m, text in spans)
        words = self.words[:n * total]
        rows = words.reshape(n, total)
        views, first, place = [], [], 0  # each varying run's cells; each x column's first word
        for col, m, text in spans:
            if text is None:
                cells = rows[:, place:place + width * m].reshape(n, m, width)
                cells[:, :, 0] = self.lead[col:col + m]
                cells[:, :, 4:] = 0
                views.append(cells)
                first.extend(range(place, place + width * m, width))
            else:
                rows[:, place:place + len(text)] = text
            place += width * m if text is None else len(text)
        # f = hi 10^8 + mid 10^4 + lo, split exactly into the spent x, r and y
        hi = np.floor(np.multiply(f, 1e-8, out=x), out=x)
        rest = np.subtract(f, np.multiply(hi, 1e8, out=r), out=r)
        mid = np.floor(np.multiply(rest, 1e-4, out=y), out=y)
        lo = np.subtract(rest, np.multiply(mid, 1e4, out=f), out=f)
        # each group's digits, its "0"s NUL from the lowest nonzero group down
        np.add(np.multiply(np.equal(rest, 0.0, out=b1), 1e4, out=rest), hi, out=hi)
        np.add(np.multiply(np.equal(lo, 0.0, out=b1), 1e4, out=rest), mid, out=mid)
        digits, group = _csv_digits(), x.view(np.uint32)[:n * mv]  # in x once hi is in k
        for word, index, table in ((1, hi, digits), (2, mid, digits), (3, lo, digits[10_000:])):
            np.copyto(k, index, casting="unsafe")
            groups = np.take(table, k, out=group, mode="wrap").reshape(n, mv)
            for (_, m), at, cells in zip(varying, starts, views):
                cells[:, :, word] = groups[:, at:at + m]
        # the one-digit and printed cells, each patched in at its first word
        if len(off):
            at = off // mv * total + np.array(first, np.intp)[off % mv]
            printed = np.frombuffer(printed.replace(b" ", b"\0"), np.uint32).reshape(-1, width)
            digit = _DIGIT_CELL[(x_off[one_digit] == 1.0).view(np.int8)]
            for at, text in ((at[one_digit], digit), (at[~one_digit], printed)):
                words[at] = words[at] & 0xFF | text[:, 0]
                for word in range(1, text.shape[1]):
                    words[at + word] = text[:, word]
        return rows


def _csv_table(header: Sequence[str], rows: Sequence | np.ndarray) -> np.ndarray:
    """``rows`` as a 2-D float array with one column per header name."""
    try:
        table = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"CSV rows must form a table of numbers: {exc}") from None
    if table.shape == (0,):  # no rows at all
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ContractError(
            f"CSV rows must form a table of {len(header)} columns, got shape {table.shape}"
        )
    return table


def _csv_chunks(header: Sequence[str], rows: _Rows) -> Iterator[bytes]:
    """The CSV bytes of ``rows``: the header, each chunk of rows (each row
    led by its "\\n"), then the last "\\n". ``rows`` is one table (an array
    or a sequence of rows) or an iterator of them, its row blocks; the first
    block is drawn and checked before the header is yielded."""
    if isinstance(rows, (np.ndarray, Sequence)):
        rows = (rows,)
    blocks = (_csv_table(header, block) for block in rows)
    first = list(itertools.islice(blocks, 1))
    yield ",".join(header).encode("utf-8")
    writer, chunk = _CsvTable(len(header)), _chunk_rows(len(header))
    for block in itertools.chain(first, blocks):
        for start in range(0, len(block), chunk):
            yield writer.chunk(block[start:start + chunk])
    yield b"\n"


def write_csv_to(stream: TextIO, header: Sequence[str], rows: _Rows) -> None:
    """Write a header line and ``rows`` to an open text stream, a chunk of
    rows at a time. ``rows`` is a 2-D array or a sequence of equal-length
    rows, one value per header column, or an iterator of such tables (row
    blocks, each written before the next is drawn)."""
    for chunk in _csv_chunks(header, rows):
        stream.write(chunk.decode("utf-8"))


def write_csv(path: Path, header: Sequence[str], rows: _Rows) -> None:
    """``write_csv_to`` into the file ``path``, which is opened only once
    the first block of ``rows`` is drawn and checked."""
    chunks = _csv_chunks(header, rows)
    head = next(chunks)  # a first block that does not fit leaves the file as it was
    with open(path, "wb") as fh:
        fh.write(head)
        fh.writelines(chunks)
