"""CSV output is deterministic: comma separated, ``.`` decimal point, LF line
endings, header row first, every cell the bytes of ``"%.9g" % x``. One numpy
kernel writes 4096 rows at a time as four uint32 words a cell: a lead word
holding the separator before the cell (``"\\n"`` for a row's first cell, so
the header goes out without its newline and one ``"\\n"`` ends the table), a
NUL and "0.", then three digit words; every byte it does not set is NUL,
deleted by one ``bytes.translate``. Its fast path covers 1e-4 <= x < 1: y =
x 10^k in [10^8, 10^9) is within 2^-24 of exact, so rint(y) is the
nine-digit mantissa unless |y - rint(y)| >= 1/2 - 1e-6; k indexes a power
table, and 1e12 / 10^k is exact for k = 9..12. The fraction digits f <
10^12 split exactly as hi = floor(f 1e-8), rest = f - hi 1e8, mid =
floor(rest 1e-4), lo = rest - mid 1e4: as fl(1e-8) and fl(1e-4) exceed their
powers, no product is below its integer part, nor (off by < 2e-12) reaches
the next one, >= 1e-8 away; the rest is integer arithmetic. A table holds
each four-digit group and, in its second half, the group with trailing "0"s
as NUL, read by the lowest group and by a higher one where all below are 0.
Exact 0 and 1 are one digit; any other cell is ``"%-15.9g"`` after its
separator, spaces NUL. The longest such texts are 16 bytes (as
``-1.23456789e-100``), so a call that holds one gives every cell a fifth
word, read from the data, and prints ``"%-19.9g"``. A column whose 64-bit
patterns are equal in every row of a chunk (0.0 and -0.0 differ, as do NaN
payloads) is not run through the kernel: each run of such columns is
formatted once per output, keyed by its columns and patterns, and repeated
down the chunk as its text. An output's kernel temporaries and word
buffers are allocated once, sized to its longest chunk, and every step
writes into them. An output may come as an iterator of row blocks (a sweep
writes its rows so): each block is formatted and written before the next is
drawn, so the writer holds one block at a time, and the first block is
drawn before a byte is written or a file is opened.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import ContractError

__all__ = ["write_csv", "write_csv_to"]

_CSV_CHUNK = 4096  # rows formatted per write

# One table, or an iterator of them: its row blocks
_Rows = Union[Sequence, np.ndarray, Iterator[Union[Sequence, np.ndarray]]]

# A cell's lead word: its separator, a NUL and "0.", after another cell and
# first in its row
_CSV_LEAD = np.frombuffer(b",\x000.\n\x000.", np.uint32)
# The lead word of an exact 0 or 1 less its separator: a NUL, the digit, a NUL
_DIGIT_LEAD = np.frombuffer(b"\0\x000\0\0\x001\0", np.uint32)
_POW10 = 10.0 ** np.arange(13)
_BELOW_1 = np.nextafter(1.0, 0.0)


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
    scratch, allocated at its first chunk, sized to that chunk and enlarged
    only for a longer one, into which every step of the kernel writes, and
    the text of each constant run."""

    def __init__(self, columns: int) -> None:
        self.size = 0  # cells the scratch holds
        self.lead = np.where(np.arange(columns) == 0, _CSV_LEAD[1], _CSV_LEAD[0])
        self.texts: dict[tuple, np.ndarray] = {}  # by columns and bit patterns

    def _reserve(self, size: int) -> None:
        """Scratch for ``size`` cells."""
        if size <= self.size:
            return
        self.size = size
        self.x, self.v, self.f, self.y, self.r = np.empty((5, size))
        self.fast, self.b1, self.b2 = np.empty((3, size), bool)
        self.count = np.empty(size, np.uint8)
        self.k = np.empty(size, np.intp)
        self.group = np.empty(size, np.uint32)
        self.words = np.empty(5 * size, np.uint32)  # four words a cell, or five
        self.rows = None  # a chunk's words with its constant runs, on first need

    def chunk(self, block: np.ndarray) -> bytes:
        """The CSV text of the rows ``block``, each led by its "\\n"."""
        n, m = block.shape
        self._reserve(n * m)
        bits = block.view(np.uint64)  # not float ==: 0.0 and -0.0 print apart
        same = np.equal(bits, bits[0], out=self.b1[:n * m].reshape(n, m)).all(axis=0)
        words = self._runs(block, same) if same.any() else self._cells(block)
        return words.tobytes().translate(None, b"\0")

    def _runs(self, block: np.ndarray, same: np.ndarray) -> np.ndarray:
        """The ``(rows, words)`` of a chunk ``block`` whose ``same`` columns
        are constant: each run of adjacent constant columns is its text,
        formatted once per output; the kernel writes the other cells."""
        n = len(block)
        spans, col = [], 0  # each run's first column, column count and text (None: varying)
        for const, run in itertools.groupby(same.tolist()):
            m = len(list(run))
            spans.append((col, m, self._text(block, col, m) if const else None))
            col += m
        varying = np.flatnonzero(~same)
        if len(varying):
            words = self._cells(block, varying)
            width = words.shape[1] // len(varying)
        pieces, v = [], 0
        for col, m, text in spans:
            if text is None:
                pieces.append(words[:, width * v:width * (v + m)])
                v += m
            else:
                pieces.append(np.broadcast_to(text, (n, len(text))))
        if self.rows is None:  # a run's text is at most five words a cell too
            self.rows = np.empty_like(self.words)
        total = sum(piece.shape[1] for piece in pieces)
        return np.concatenate(pieces, axis=1, out=self.rows[:n * total].reshape(n, total))

    def _text(self, block: np.ndarray, col: int, m: int) -> np.ndarray:
        """The words of the first row's ``m`` cells from column ``col``, NULs
        deleted and padded to a whole word; formatted on first use only."""
        key = (col, m, block[0, col:col + m].tobytes())
        text = self.texts.get(key)
        if text is None:
            text = self._cells(block[:1], slice(col, col + m)).tobytes().translate(None, b"\0")
            text = self.texts[key] = np.frombuffer(text + bytes(-len(text) % 4), np.uint32)
        return text

    def _cells(self, block: np.ndarray, columns: slice | np.ndarray = slice(None)) -> np.ndarray:
        """The kernel: the ``(rows, words)`` of ``block``'s ``columns`` (a
        slice or an index array), each cell its column's lead word, then
        ``b"%.9g" % x``, every byte it does not set NUL. A cell is four words;
        it is five in every cell if one cell's text is 16 bytes."""
        lead = self.lead[columns]
        n, m = len(block), len(lead)
        size = n * m
        x, v, f, y, r = (a[:size] for a in (self.x, self.v, self.f, self.y, self.r))
        fast, b1, b2, count, k, group = (
            a[:size] for a in (self.fast, self.b1, self.b2, self.count, self.k, self.group)
        )
        if isinstance(columns, slice):
            np.copyto(x.reshape(n, m), block[:, columns])
        else:
            np.take(block, columns, axis=1, out=x.reshape(n, m), mode="clip")
        np.greater_equal(x, 1e-4, out=fast)
        fast &= np.less(x, 1.0, out=b1)
        np.fmin(np.fmax(x, 1e-4, out=v), _BELOW_1, out=v)  # x, or any x off the path moved into it
        # x = y 10^-k with 10^8 <= y < 10^9: the thresholds are the doubles
        # nearest 10^-1..10^-3, each just above its power, so k is exact
        np.add(np.less(v, 0.1, out=b1).view(np.uint8), np.less(v, 0.01, out=b2).view(np.uint8),
               out=count)
        count += np.less(v, 0.001, out=b1).view(np.uint8)
        scale = np.take(_POW10, np.add(count, 9, out=k), out=f, mode="wrap")
        np.multiply(v, scale, out=y)
        np.rint(y, out=r)
        fast &= np.less(np.abs(np.subtract(y, r, out=y), out=y), 0.5 - 1e-6, out=b1)
        # the twelve fraction digits, an exact integer: 1e12 / 10^k is exact
        np.multiply(r, np.divide(1e12, scale, out=f), out=f)
        fast &= np.less(f, 1e12, out=b1)  # 10^12: x rounds to 1
        np.multiply(f, fast, out=f)  # 0 off the fast path: its digit words are NUL
        # exact 0 and 1 are one digit; every other cell is "%.9g" itself
        digit = np.greater(np.equal(x, 0.0, out=b1), np.signbit(x, out=b2), out=b1)
        digit |= np.equal(x, 1.0, out=b2)
        slow = np.flatnonzero(np.logical_not(np.logical_or(fast, digit, out=b2), out=b2))
        digit = np.flatnonzero(digit)
        values = tuple(x[slow].tolist())
        printed = (b"%-15.9g" * len(slow)) % values
        width = 4
        if len(printed) > 15 * len(slow):  # a 16-byte text: with its separator, 17
            width = 5
            printed = (b"%-19.9g" * len(slow)) % values
        cells = self.words[:width * size].reshape(size, width)
        cells.reshape(n, m, width)[:, :, 0] = lead
        cells[:, 4:] = 0
        # f = hi 10^8 + mid 10^4 + lo, split exactly
        hi = np.floor(np.multiply(f, 1e-8, out=y), out=y)
        rest = np.subtract(f, np.multiply(hi, 1e8, out=r), out=r)
        mid = np.floor(np.multiply(rest, 1e-4, out=v), out=v)
        lo = np.subtract(rest, np.multiply(mid, 1e4, out=f), out=f)
        # each group's digits, its "0"s NUL from the lowest nonzero group down
        np.add(np.multiply(np.equal(rest, 0.0, out=b1), 1e4, out=rest), hi, out=hi)
        np.add(np.multiply(np.equal(lo, 0.0, out=b1), 1e4, out=rest), mid, out=mid)
        np.add(lo, 1e4, out=lo)
        digits = _csv_digits()
        for word, index in ((1, hi), (2, mid), (3, lo)):
            np.copyto(k, index, casting="unsafe")
            cells[:, word] = np.take(digits, k, out=group, mode="wrap")
        cells[digit, 0] = cells[digit, 0] & 0xFF | _DIGIT_LEAD[(x[digit] == 1.0).view(np.int8)]
        text = cells.view(np.uint8)
        text[slow, 1:] = np.frombuffer(printed.replace(b" ", b"\0"), np.uint8).reshape(-1, 4 * width - 1)
        return cells.reshape(n, m * width)


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
    writer = _CsvTable(len(header))
    for block in itertools.chain(first, blocks):
        for start in range(0, len(block), _CSV_CHUNK):
            yield writer.chunk(block[start:start + _CSV_CHUNK])
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
