"""Filtered Barratt-Eccles simplicial sets: simplices, filtration, enumeration.

A simplex of degree l is a string of l+1 permutations with distinct adjacent
levels. The complexity-t stage keeps the strings in which every pair of labels
changes relative order at most t-1 times. Enumerated degrees are indexed in
the canonical order (lexicographic on concatenated one-line words).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import getitem, itemgetter, lshift, mul
from struct import Struct, pack
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .perms import Perm, all_perms, ordered_pairs, pair_flags, perm_from_text, perm_text

__all__ = [
    "Simplex",
    "is_nondegenerate",
    "Complex",
    "get_complex",
    "count_by_degree",
    "simplex_from_text",
    "simplex_text",
]

Simplex = Tuple[Perm, ...]
_Step = Tuple[bytes, Sequence[int]]

SUPPORTED_T = (2, 3)
MAX_ENUM_ARITY = 6
_CHUNK = 1 << 14  # entries per chunk of a pass over a table: small beside the table
_NO_CODES = array("Q")  # every degree above the top: empty, shared and never cached


def is_nondegenerate(s: Simplex) -> bool:
    return all(s[m] != s[m + 1] for m in range(len(s) - 1))


class _Walker:
    """The swap budgets of one (k, t), applied to a string one level at a time.

    How a string extends depends only on its key, one int: the index of its
    last level in the low `bits` bits, then for i = 1..t-1 a field of
    k(k-1)/2 bits, the mask of label pairs (bit b for pair b of
    ordered_pairs) whose order has changed at least i times along it.
    """

    def __init__(self, k: int, t: int):
        if t not in SUPPORTED_T:
            raise ValueError(f"complexity must be one of {SUPPORTED_T}")
        if not (2 <= k <= MAX_ENUM_ARITY):
            raise ValueError(f"arity must be between 2 and {MAX_ENUM_ARITY}")
        self.perms = all_perms(k)
        pairs = ordered_pairs(k)
        flags = [pair_flags(p, pairs) for p in self.perms]
        self.bits = max(1, (len(self.perms) - 1).bit_length())
        width = len(pairs)
        self.top_degree = (t - 1) * width  # every level step changes some pair's order
        self._width, self._top = width, width * (t - 2) + self.bits
        self._low = (1 << self.bits) - 1
        # Field 1 all set, and the level bits: what a move may pass into a key.
        self._ones = ((1 << width) - 1) << self.bits | self._low
        rep = sum(1 << (width * i + self.bits) for i in range(t - 1))
        self.levels = _typecode(len(self.perms) - 1)
        self._keys = _typecode((1 << (self._top + width)) - 1)
        # Per last level, an array of keys: one move per other level, by increasing index,
        # the mask of the pairs whose order changes on the way there (never 0: distinct levels
        # differ in some pair's order), copied into every field by rep, the level in the low bits.
        self._moves = [array(self._keys, [(there ^ here) * rep | nxt
                                          for nxt, there in enumerate(flags) if there != here])
                       for here in flags]

    def step(self, key: int) -> _Step:
        """The next levels the swap budgets allow (packed, by increasing index) and their keys."""
        fields, low = key >> self.bits << self.bits, self._low
        # The pairs out of budget, moved down to where field 1 of a move holds its pairs.
        spent = key >> self._top << self.bits
        # A pair that had changed order i-1 times and changes now has changed i times.
        carry = (fields << self._width) | self._ones
        nexts, keys = array(self.levels), array(self._keys)
        for move in self._moves[key ^ fields]:
            if not move & spent:
                nexts.append(move & low)
                keys.append(fields | (carry & move))
        return nexts.tobytes(), keys


class _FaceTable:
    """Faces of one degree: columns[m][i] indexes face m of simplex i below, -1 if degenerate.
    Its len is the simplex count, read by bench/workloads.py: a bare tuple's would be deg + 1."""

    def __init__(self, columns: Tuple[array, ...]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])


class Complex:
    """Ambient (arity k, complexity t) with lazily enumerated degree tables.

    The table of degree d is its sorted simplex codes: the perm indices of the
    d + 1 levels, bits bits each, the first level highest. Each per-simplex table
    is an array of the narrowest typecode it needs; codes past 64 bits raise a ValueError.
    """

    def __init__(self, k: int, t: int):
        self._walker = _Walker(k, t)
        self.k, self.t = k, t
        self.perms = self._walker.perms
        self.bits = self._walker.bits
        self.top_degree = self._walker.top_degree
        self._perm_index = {p: i for i, p in enumerate(self.perms)}
        self._tables: Dict[int, array] = {0: self._table(0, range(len(self.perms)))}
        self._built_to = 0
        # Per degree d >= 1: how many children in table d each simplex of table d-1
        # has, and the last level of each simplex of table d.
        self._children: Dict[int, array] = {}
        self._lasts: Dict[int, array] = {}
        self._face_tables: Dict[int, _FaceTable] = {}
        # Many strings share a key; _build frees the memo once a table passes one chunk.
        self._step = lru_cache(maxsize=None)(self._walker.step)

    def _table(self, deg: int, codes: Iterable[int] = ()) -> array:
        typecode = _typecode((1 << (deg + 1) * self.bits) - 1)
        if typecode is None:
            raise ValueError(f"codes of degree {deg} take {(deg + 1) * self.bits} bits, past 64")
        return _filled(typecode, codes)

    def index(self, deg: int) -> array:
        """The sorted codes of one degree, enumerating on first use.

        Degrees above the top share one empty 'Q' array, at any width: those cochain groups vanish.
        """
        if deg < 0:
            raise ValueError("degree must be non-negative")
        if deg > self.top_degree:
            return _NO_CODES
        if deg > self._built_to:
            self._build(deg)
        return self._tables[deg]

    def pack(self, s: Simplex) -> int:
        code = 0
        for level in s:
            code = (code << self.bits) | self._perm_index[level]
        return code

    def unpack(self, code: int, deg: int) -> Simplex:
        low = (1 << self.bits) - 1
        return tuple(self.perms[code >> self.bits * (deg - m) & low] for m in range(deg + 1))

    def simplex(self, deg: int, i: int) -> Simplex:
        return self.unpack(self.index(deg)[i], deg)

    def simplices(self, deg: int) -> List[Simplex]:
        return [self.unpack(c, deg) for c in self.index(deg)]

    def index_of(self, s: Simplex) -> int:
        """The position of s in the table of degree len(s) - 1, by bisecting its codes."""
        if s and self._perm_index.keys() >= set(s):
            codes, code = self.index(len(s) - 1), self.pack(s)
            i = bisect_left(codes, code)
            if i < len(codes) and codes[i] == code:
                return i
        raise ValueError(f"simplex not in the table: {simplex_text(s)}")

    def _build(self, up_to: int):
        """Extend the highest built degree one level at a time, walking from degree 0.

        A sorted table extended by increasing last level gives the next: its codes have one length.
        """
        self._table(up_to)  # codes past 64 bits raise here, before any degree is built
        levels, steps = self._walker.levels, [(b"", range(len(self.perms)))]
        for deg in range(1, up_to + 1):
            steps = map(self._step, chain.from_iterable(map(itemgetter(1), steps)))
            if deg <= self._built_to:  # built: walked lazily, for the keys of the degree above
                continue
            steps = list(steps)
            children = self._children[deg] = array(levels, map(len, map(itemgetter(1), steps)))
            lasts = self._lasts[deg] = array(levels)
            nexts = map(itemgetter(0), steps)
            for _ in range(0, len(steps), _CHUNK):  # a join also holds 80 bytes per piece
                lasts.frombytes(b"".join(islice(nexts, _CHUNK)))
            shifted = map(lshift, self._tables[deg - 1], repeat(self.bits))
            typecode = self._table(deg).typecode
            self._tables[deg] = _or_lanes(_spread(typecode, shifted, children), lasts)
            self._built_to = deg
        if max(map(len, self._tables.values())) > _CHUNK:
            self._step.cache_clear()

    def face_indices(self, deg: int) -> _FaceTable:
        """For each degree-deg simplex, its face index per position (-1 if degenerate)."""
        if deg < 1:
            raise ValueError("faces need a degree of at least 1")
        if deg > self.top_degree:  # no simplices: one empty column, shared and not cached
            return _FaceTable((array(_typecode(-1, signed=True)),) * (deg + 1))
        if deg not in self._face_tables:
            self._face_tables[deg] = _FaceTable(self._face_columns(deg))
        return self._face_tables[deg]

    def _face_columns(self, deg: int) -> Tuple[array, ...]:
        """The columns of face_indices(deg), from those of the degree below.

        A simplex is the extension (x, n) of its parent x by a last level n.
        Its last face is x, and for m < deg its face m is (d_m x, n), read
        off the slot table of the degree below, in one pass for all m < deg:
        no face code is rebuilt and no code is looked up.
        """
        parents = self._ancestors(deg - 1, deg)  # builds the table, child counts and last levels
        lasts, children = self._lasts[deg], self._children[deg]
        if deg == 1:
            return array(parents.typecode, lasts), parents
        below = self.face_indices(deg - 1).columns
        # slots[y][n]: the index of (y, n) in table deg-1, or -1. Simplices y without
        # children, and the trailing row read by a degenerate d_m x (-1), share one row.
        none = [-1] * len(self.perms)  # indexed by a last level
        slots = [[-1] * len(none) if c else none for c in self._children[deg - 1]] + [none]
        # Each row once per child in table deg-1 (compress skips the childless, most of a table).
        above = self._children[deg - 1]
        per_child = chain.from_iterable(map(repeat, compress(slots, above), filter(None, above)))
        for row, n, i in zip(per_child, self._lasts[deg - 1], count()):
            row[n] = i
        # For each parent with children, a tuple of its slot row of every face, once per child.
        per_parent = zip(*(map(slots.__getitem__, compress(column, children)) for column in below))
        rows = chain.from_iterable(map(mul, per_parent, filter(None, children)))
        cols = [array(parents.typecode, [0]) * len(lasts) for _ in below]
        for start in range(0, len(lasts), _CHUNK):
            chunk = lasts[start:start + _CHUNK]
            at = chunk * deg  # each last level once per face, interleaved
            for m in range(deg):
                at[m::deg] = chunk
            faces = map(getitem, islice(rows, len(at)), at)
            faces = array(parents.typecode, pack(f"{len(at)}{parents.typecode}", *faces))
            for m, col in enumerate(cols):
                col[start:start + len(chunk)] = faces[m::deg]
        return (*cols, parents)

    def front_back(self, p: int, q: int) -> Tuple[array, array]:
        """Front p-face and back q-face indices for every degree p+q simplex.

        The front is the last face applied q times and the back is face 0
        applied p times. Only the single steps are stored face columns; the
        other columns are built on each call and kept by the caller.
        """
        if p < 0 or q < 0:
            raise ValueError("degree must be non-negative")
        if p + q > self.top_degree:
            return array(_typecode(-1, signed=True)), array(_typecode(-1, signed=True))
        deg = p + q
        fronts = self.face_indices(deg).columns[-1] if q == 1 else self._ancestors(p, deg)
        if p == 0:
            return fronts, self._ancestors(deg, deg)
        backs = self.face_indices(q + 1).columns[0]
        if p > 1:
            # Face 0 composed from the low degrees up: each gather reads the column
            # below through one int object per simplex of table q, not per entry.
            values = list(range(len(self.index(q))))
            for d in range(q + 2, deg + 1):
                below = list(map(values.__getitem__, backs))
                face0 = self.face_indices(d).columns[0]
                backs = _filled(backs.typecode, map(below.__getitem__, face0), len(face0))
        return fronts, backs

    def _ancestors(self, p: int, deg: int) -> array:
        """For each simplex of table deg, the index of its ancestor in table p <= deg.

        The descendants of one simplex of table p form one block of table deg,
        its size summed from the child counts.
        """
        _, n = self.index(deg), len(self.index(p))  # builds the child counts
        typecode = _typecode(n - 1, signed=True)
        if p == deg:
            return array(typecode, range(n))
        sizes: Sequence[int] = self._children[deg]
        for d in range(deg - 1, p, -1):
            sizes = list(map(sum, map(islice, repeat(iter(sizes)), self._children[d])))
        return _spread(typecode, range(n), sizes)


def _typecode(largest: int, signed: bool = False) -> Optional[str]:
    """The narrowest typecode for 0..largest (signed: -1 too, from 'h'), None past 64 bits."""
    codes = "hiq" if signed else "BHIQ"
    return next((c for c in codes if largest < 1 << (8 * array(c).itemsize - signed)), None)


def _filled(typecode: str, values: Iterable[int], size: int = 0) -> array:
    """An array of values, packed by struct (twice as fast as array()), preallocated to size."""
    out, values, start = array(typecode, [0]) * size, iter(values), 0
    while chunk := list(islice(values, _CHUNK)):
        out[start:start + len(chunk)] = array(typecode, pack(f"{len(chunk)}{typecode}", *chunk))
        start += len(chunk)
    return out


def _spread(typecode: str, values: Iterable[int], counts: Sequence[int]) -> array:
    """An array of values, each counts[i] times: packed once, its bytes repeated."""
    # Only values with a count are packed: near the top degree most parents have no children.
    pieces = map(mul, map(Struct(typecode).pack, compress(values, counts)), filter(None, counts))
    # Each join holds about _CHUNK entries: all the pieces at once would hold their bytes twice.
    per_join = (len(counts) - counts.count(0)) * _CHUNK // (sum(counts) or 1) + 1
    out = array(typecode)
    while chunk := list(islice(pieces, per_join)):
        out.frombytes(b"".join(chunk))
    return out


def _or_lanes(codes: array, lasts: array) -> array:
    """codes[i] |= lasts[i] in place: levels in the low bytes of zero lanes, one OR per chunk."""
    size, width, order = codes.itemsize, lasts.itemsize, sys.byteorder
    low = 0 if order == "little" else size - width
    with memoryview(codes) as view, view.cast("B") as data:
        for start in range(0, len(codes), _CHUNK):
            chunk = lasts[start:start + _CHUNK].tobytes()
            lanes = bytearray(len(chunk) // width * size)
            for j in range(width):
                lanes[low + j::size] = chunk[j::width]
            span = slice(start * size, start * size + len(lanes))
            merged = int.from_bytes(data[span], order) | int.from_bytes(lanes, order)
            data[span] = merged.to_bytes(len(lanes), order)
    return codes


_COMPLEXES: Dict[Tuple[int, int], Complex] = {}


def get_complex(k: int, t: int) -> Complex:
    key = (k, t)
    if key not in _COMPLEXES:
        _COMPLEXES[key] = Complex(k, t)
    return _COMPLEXES[key]


def count_by_degree(k: int, t: int, max_degree: int) -> List[int]:
    """Simplex counts per degree 0..max_degree, without materializing tables.

    Counts only strings starting at the identity (the diagonal action is free,
    so every orbit has exactly one such string) and scales counts by k!. The
    strings of one degree are counted per key, since the key alone decides
    how a string extends.
    """
    w = _Walker(k, t)
    top = w.top_degree
    if max_degree < 0 or max_degree > top:
        raise ValueError(f"max degree must be in 0..{top}")
    level = {0: 1}  # the identity is lexicographically first, and its key is 0
    counts = [1]
    for _ in range(max_degree):
        nxt: Dict[int, int] = defaultdict(int)
        for key, n in level.items():
            for next_key in w.step(key)[1]:
                nxt[next_key] += n
        level = nxt
        counts.append(sum(level.values()))
    return [c * len(w.perms) for c in counts]


def simplex_from_text(text: str) -> Simplex:
    """Parse levels joined by "|", e.g. "132|312|231"."""
    levels = tuple(perm_from_text(part) for part in text.split("|"))
    if len({len(p) for p in levels}) != 1:
        raise ValueError("levels must share one arity")
    return levels


def simplex_text(s: Simplex) -> str:
    return "|".join(perm_text(p) for p in s)
