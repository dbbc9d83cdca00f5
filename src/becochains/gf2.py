"""Bit-packed linear algebra over the two-element field.

Every vector is a Python int with bit j as coordinate j. All eliminations go
through one incremental pivot basis: each row is reduced against the rows
kept so far, one slot per column indexed by their highest set bit (the "low"
of the standard column reduction of persistent homology), and kept when a
remainder survives.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

__all__ = ["BitMatrix", "rank", "solve", "rowspace_basis"]


class BitMatrix:
    """Matrix over GF(2) with rows packed into Python ints (bit j = column j)."""

    def __init__(self, rows: int, cols: int, data: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        # The rows are kept, not copied; min and max check every row in one C-level pass each.
        self.data = list(data)
        if len(self.data) != rows:
            raise ValueError("row count mismatch")
        if self.data and (min(self.data) < 0 or max(self.data) >> cols):
            raise ValueError(f"a row is not a bitset over {cols} columns")

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _bits(v: int) -> List[int]:
    """Indices of the set bits of v >= 0, ascending; linear time on wide ints."""
    digits = bin(v)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flags(v: int) -> bytes:
    """One byte per bit of v >= 0, lowest first, 1 where set: compress() selects by it."""
    return bin(v)[:1:-1].encode().translate(_FLAG_BYTES)


def _pivot_basis(rows: Iterable[int], width: int) -> List[int]:
    """Echelon basis of the span of rows over width columns, indexed by pivot.

    basis[p] is the kept row whose highest set bit is p, or 0 when no row has
    that pivot. A kept row has no bit above its pivot but may share lower bits
    with other kept rows; the rows are kept in the order given, so the result
    is deterministic.
    """
    basis = [0] * width
    for v in rows:
        while v:
            pivot = v.bit_length() - 1
            row = basis[pivot]
            if not row:
                basis[pivot] = v
                break
            v ^= row
    return basis


def rank(m: BitMatrix) -> int:
    """Row rank over GF(2); does not mutate the input."""
    return m.cols - _pivot_basis(m.data, m.cols).count(0)


def solve(m: BitMatrix, b: int) -> Optional[int]:
    """Some x with x.m = b, or None when no sum of rows of m is b.

    x has one bit per row of m and b one bit per column: b is the XOR of the
    rows that x picks. Each call eliminates the rows of m once, in the order
    given, so the result is deterministic.
    """
    if b < 0 or b >> m.cols:
        raise ValueError("right-hand side has bits beyond the column count")
    # Row i moves above m.rows tag bits and carries tag bit i, so a kept row
    # records which input rows it sums.
    n = m.rows
    basis = _pivot_basis((r << n | 1 << i for i, r in enumerate(m.data)), m.cols + n)
    v = b << n
    while v >> n:
        row = basis[v.bit_length() - 1]
        if not row:
            return None
        v ^= row
    return v


def rowspace_basis(m: BitMatrix) -> List[int]:
    """Echelon basis of the row space of m, sorted by descending pivot.

    Each row's highest set bit is its pivot column and the pivots decrease
    strictly, so one pass in order decides membership in the row space.
    """
    return list(filter(None, reversed(_pivot_basis(m.data, m.cols))))
