"""Filtered Barratt-Eccles simplicial sets: simplices, filtration, enumeration.

A simplex of degree l is a string of l+1 permutations with distinct adjacent
levels. The complexity-t stage keeps the strings in which every pair of labels
changes relative order at most t-1 times. Enumerated degrees are indexed in
the canonical order (lexicographic on concatenated one-line words).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import and_, getitem, itemgetter, lshift, or_
from typing import Dict, Iterable, Iterator, List, Tuple

from .perms import Perm, all_perms, ordered_pairs, pair_flags

__all__ = [
    "Simplex",
    "is_nondegenerate",
    "ComplexIndex",
    "Complex",
    "get_complex",
    "count_by_degree",
    "simplex_from_text",
    "simplex_text",
]

Simplex = Tuple[Perm, ...]
_Key = Tuple[int, ...]

SUPPORTED_T = (2, 3)
MAX_ENUM_ARITY = 6


def is_nondegenerate(s: Simplex) -> bool:
    return all(s[m] != s[m + 1] for m in range(len(s) - 1))


class _Walker:
    """The swap budgets of one (k, t), applied to a string one level at a time.

    How a string extends depends only on its key: the index of its last
    level, then for i = 1..t-1 the mask of label pairs (bit b for pair b of
    ordered_pairs) whose order has changed at least i times along it.
    """

    def __init__(self, k: int, t: int):
        if t not in SUPPORTED_T:
            raise ValueError(f"complexity must be one of {SUPPORTED_T}")
        if not (2 <= k <= MAX_ENUM_ARITY):
            raise ValueError(f"arity must be between 2 and {MAX_ENUM_ARITY}")
        self.perms = all_perms(k)
        pairs = ordered_pairs(k)
        self._flags = [pair_flags(p, pairs) for p in self.perms]
        self.starts = [(i,) + (0,) * (t - 1) for i in range(len(self.perms))]

    def step(self, key: _Key) -> Tuple[Tuple[int, ...], Tuple[_Key, ...]]:
        """The next levels the swap budgets allow, by increasing index, and their keys."""
        cur, *swapped = key
        here = self._flags[cur]
        nexts, keys = [], []
        for nxt, flags in enumerate(self._flags):
            changed = flags ^ here
            if nxt == cur or changed & swapped[-1]:
                continue
            # A pair that had changed order i-1 times and changes now has changed i times.
            masks = [m | (fewer & changed) for fewer, m in zip([-1] + swapped, swapped)]
            nexts.append(nxt)
            keys.append((nxt, *masks))
        return tuple(nexts), tuple(keys)


class ComplexIndex:
    """Canonically ordered table of the filtered nondegenerate simplices of one degree."""

    def __init__(self, k: int, t: int, deg: int, perms: Tuple[Perm, ...], bits: int,
                 codes: List[int], ids: List[int]):
        self.k = k
        self.t = t
        self.degree = deg
        self.perms = perms
        self.bits = bits
        self.codes = codes
        self._perm_index = {p: i for i, p in enumerate(perms)}
        self._ids = ids

    @cached_property
    def pos(self) -> Dict[int, int]:
        """Code -> index, built on the first lookup."""
        return dict(zip(self.codes, _grown(self._ids, len(self.codes))))

    def __len__(self) -> int:
        return len(self.codes)

    def pack(self, s: Simplex) -> int:
        code = 0
        for level in s:
            code = (code << self.bits) | self._perm_index[level]
        return code

    def unpack(self, code: int) -> Simplex:
        mask = (1 << self.bits) - 1
        idxs = []
        for _ in range(self.degree + 1):
            idxs.append(code & mask)
            code >>= self.bits
        return tuple(self.perms[i] for i in reversed(idxs))

    def simplex(self, i: int) -> Simplex:
        return self.unpack(self.codes[i])

    def index_of(self, s: Simplex) -> int:
        try:
            return self.pos[self.pack(s)]
        except KeyError:
            raise ValueError(f"simplex not in the table: {simplex_text(s)}") from None

    def simplices(self) -> List[Simplex]:
        return [self.unpack(c) for c in self.codes]


class Complex:
    """Ambient (arity k, complexity t) with lazily enumerated degree tables."""

    def __init__(self, k: int, t: int):
        self._walker = _Walker(k, t)
        self.k = k
        self.t = t
        self.perms = self._walker.perms
        self.bits = max(1, (len(self.perms) - 1).bit_length())
        self.top_degree = (t - 1) * (k * (k - 1) // 2)
        # Index ints 0, 1, 2, ... shared by the position maps, face tables and
        # front/back lists, so that each index is one int object wherever it is held.
        self._ids: List[int] = []
        self._tables: Dict[int, ComplexIndex] = {0: self._table(0, list(range(len(self.perms))))}
        self._built_to = 0
        # Walker keys of the highest built table, one per simplex, for the next extension.
        self._frontier: List[_Key] = self._walker.starts
        # Per degree d >= 1: how many children in table d each simplex of table d-1 has.
        self._children: Dict[int, array] = {}
        self._face_idx: Dict[int, List[Tuple[int, ...]]] = {}
        self._iterated: Dict[Tuple[int, int, int], List[int]] = {}

    def _table(self, deg: int, codes: List[int]) -> ComplexIndex:
        return ComplexIndex(self.k, self.t, deg, self.perms, self.bits, codes, self._ids)

    def index(self, deg: int) -> ComplexIndex:
        """The canonical table for one degree, enumerating on first use.

        Degrees above the top are empty tables: those cochain groups vanish.
        """
        if deg < 0:
            raise ValueError("degree must be non-negative")
        if deg > self.top_degree:
            if deg not in self._tables:
                self._tables[deg] = self._table(deg, [])
            return self._tables[deg]
        if deg > self._built_to:
            self._build(deg)
        return self._tables[deg]

    def _build(self, up_to: int):
        """Extend the highest built degree one level at a time.

        Extending a sorted table by increasing last level gives the next
        sorted table, since all its codes have the same length.
        """
        # Many strings share a key; the memo lives for this build only.
        step = lru_cache(maxsize=None)(self._walker.step)
        for deg in range(self._built_to + 1, up_to + 1):
            steps = list(map(step, self._frontier))
            self._children[deg] = array("H", map(len, map(itemgetter(0), steps)))
            bases = map(lshift, self._tables[deg - 1].codes, repeat(self.bits))
            levels = chain.from_iterable(map(itemgetter(0), steps))
            codes = list(map(or_, self._per_child(deg, self._with_children(deg, bases)), levels))
            self._tables[deg] = self._table(deg, codes)
            self._frontier = list(chain.from_iterable(map(itemgetter(1), steps)))
            self._built_to = deg

    def face_indices(self, deg: int) -> List[Tuple[int, ...]]:
        """For each degree-deg simplex, its face index per position (-1 if degenerate)."""
        if deg < 1:
            raise ValueError("faces need a degree of at least 1")
        if deg not in self._face_idx:
            self._face_idx[deg] = list(self._faces(deg)) if deg <= self.top_degree else []
        return self._face_idx[deg]

    def _faces(self, deg: int) -> Iterator[Tuple[int, ...]]:
        """The rows of face_indices(deg), from those of the degree below.

        A simplex is the extension (x, n) of its parent x by a last level n.
        Its last face is x, and for m < deg its face m is (d_m x, n), read
        off the slot table of the degree below: no face code is rebuilt and
        no position map is read.
        """
        lasts = self._last_levels(deg)  # builds the table and its child counts
        ids = _grown(self._ids, len(self.index(deg - 1)))
        parents = self._per_child(deg, self._with_children(deg, ids))
        if deg == 1:
            return zip(lasts, parents)
        # Degree-1 faces are cheap to rebuild, so the recursion leaves them uncached.
        below = self.face_indices(deg - 1) if deg > 2 else self._faces(1)
        below = list(self._with_children(deg, below))
        slots = self._slots(deg - 1).__getitem__
        # A degenerate d_m x (-1) reads the trailing row of -1s.
        cols = [map(getitem, self._per_child(deg, map(slots, map(itemgetter(m), below))), lasts)
                for m in range(deg)]
        return zip(*cols, parents)

    def _last_levels(self, deg: int) -> List[int]:
        return list(map(and_, self.index(deg).codes, repeat((1 << self.bits) - 1)))

    def _with_children(self, deg: int, values: Iterable) -> Iterator:
        """Of values, one per simplex of table deg-1, those of the simplices with children."""
        return compress(values, self._children[deg])

    def _per_child(self, deg: int, values: Iterable) -> Iterator:
        """Of values, one per simplex of table deg-1 with children, each once per child."""
        return chain.from_iterable(map(repeat, values, filter(None, self._children[deg])))

    def _slots(self, deg: int) -> List[List[int]]:
        """Row i, entry n: the degree-deg simplex that extends simplex i below by level n, or -1.

        A simplex without children, and the trailing row, share one row of -1s.
        """
        none = [-1] * (1 << self.bits)
        rows = [[-1] * len(none) if c else none for c in self._children[deg]]
        rows.append(none)
        parent_rows = self._per_child(deg, self._with_children(deg, rows))
        ids = _grown(self._ids, len(self.index(deg)))
        for row, n, i in zip(parent_rows, self._last_levels(deg), ids):
            row[n] = i
        return rows

    def front_back(self, p: int, q: int) -> Tuple[List[int], List[int]]:
        """Front p-face and back q-face indices for every degree p+q simplex."""
        if p < 0 or q < 0:
            raise ValueError("degree must be non-negative")
        if p + q > self.top_degree:
            return [], []
        return self._iterated_face(p + q, q, -1), self._iterated_face(p + q, p, 0)

    def _iterated_face(self, deg: int, times: int, m: int) -> List[int]:
        """Face m (0 or -1, the last) applied `times` times to every degree-deg simplex.

        Each step is cached, so every (p, q) with one p + q shares them.
        """
        key = (deg, times, m)
        if key not in self._iterated:
            if times == 0:
                n = len(self.index(deg))
                self._iterated[key] = _grown(self._ids, n)[:n]
            else:
                col = list(map(itemgetter(m), self.face_indices(deg - times + 1)))
                if times > 1:
                    col = list(map(col.__getitem__, self._iterated_face(deg, times - 1, m)))
                self._iterated[key] = col
        return self._iterated[key]


def _grown(ids: List[int], n: int) -> List[int]:
    """The shared index ints, extended in place to hold at least 0..n-1."""
    if len(ids) < n:
        ids.extend(range(len(ids), n))
    return ids


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
    top = (t - 1) * (k * (k - 1) // 2)
    if max_degree < 0 or max_degree > top:
        raise ValueError(f"max degree must be in 0..{top}")
    level = {w.starts[0]: 1}  # the identity is lexicographically first
    counts = [1]
    for _ in range(max_degree):
        nxt: Dict[_Key, int] = defaultdict(int)
        for key, n in level.items():
            for next_key in w.step(key)[1]:
                nxt[next_key] += n
        level = nxt
        counts.append(sum(level.values()))
    return [c * len(w.perms) for c in counts]


def simplex_from_text(text: str) -> Simplex:
    """Parse levels joined by "|", e.g. "132|312|231"."""
    from .perms import perm_from_text

    levels = tuple(perm_from_text(part) for part in text.split("|"))
    if not levels:
        raise ValueError("empty simplex text")
    if len({len(p) for p in levels}) != 1:
        raise ValueError("levels must share one arity")
    return levels


def simplex_text(s: Simplex) -> str:
    from .perms import perm_text

    return "|".join(perm_text(p) for p in s)
