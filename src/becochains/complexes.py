"""Filtered Barratt-Eccles simplicial sets: simplices, filtration, enumeration.

A simplex of degree l is a string of l+1 permutations with distinct adjacent
levels. The complexity-t stage keeps the strings in which every pair of labels
changes relative order at most t-1 times. Enumerated degrees are indexed in
the canonical order (lexicographic on concatenated one-line words).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .perms import Perm, all_perms, ordered_pairs, pair_flags, project_pair

__all__ = [
    "Simplex",
    "swap_count",
    "in_filtration",
    "is_nondegenerate",
    "faces",
    "ComplexIndex",
    "Complex",
    "get_complex",
    "count_by_degree",
    "simplex_from_text",
    "simplex_text",
]

Simplex = Tuple[Perm, ...]

SUPPORTED_T = (2, 3)
MAX_ENUM_ARITY = 6


def degree(s: Simplex) -> int:
    return len(s) - 1


def is_nondegenerate(s: Simplex) -> bool:
    return all(s[m] != s[m + 1] for m in range(len(s) - 1))


def swap_count(s: Simplex, i: int, j: int) -> int:
    """Number of adjacent levels across which labels i and j change order."""
    if i == j:
        raise ValueError("labels must be distinct")
    flips = 0
    prev = project_pair(s[0], i, j)
    for level in s[1:]:
        cur = project_pair(level, i, j)
        if cur != prev:
            flips += 1
            prev = cur
    return flips


def in_filtration(s: Simplex, t: int) -> bool:
    """True when every pair of labels swaps at most t-1 times along s."""
    k = len(s[0])
    limit = t - 1
    return all(swap_count(s, i, j) <= limit for i, j in ordered_pairs(k))


def faces(s: Simplex) -> List[Tuple[int, Optional[Simplex]]]:
    """All codimension-1 faces (position, face), None marking a degenerate face."""
    l = degree(s)
    if l < 1:
        raise ValueError("0-simplices have no faces here")
    out: List[Tuple[int, Optional[Simplex]]] = []
    for m in range(l + 1):
        if 0 < m < l and s[m - 1] == s[m + 1]:
            out.append((m, None))
        else:
            out.append((m, s[:m] + s[m + 1:]))
    return out


def _lane_masks(npairs: int) -> Tuple[int, int]:
    lo = 0
    for b in range(npairs):
        lo |= 1 << (2 * b)
    return lo, lo << 1


def _expand_table(npairs: int) -> List[int]:
    """diff mask -> the same bits spread to the low bit of each 2-bit lane."""
    table = [0] * (1 << npairs)
    for mask in range(1 << npairs):
        acc = 0
        m = mask
        while m:
            low = m & -m
            acc |= 1 << (2 * (low.bit_length() - 1))
            m ^= low
        table[mask] = acc
    return table


class _Walker:
    """Shared pruning state for DFS over filtered strings of one (k, t)."""

    def __init__(self, k: int, t: int):
        if t not in SUPPORTED_T:
            raise ValueError(f"complexity must be one of {SUPPORTED_T}")
        if not (2 <= k <= MAX_ENUM_ARITY):
            raise ValueError(f"arity must be between 2 and {MAX_ENUM_ARITY}")
        self.k = k
        self.t = t
        self.perms = all_perms(k)
        self.nperms = len(self.perms)
        self.pairs = ordered_pairs(k)
        npairs = len(self.pairs)
        flags = [pair_flags(p, self.pairs) for p in self.perms]
        self.diffs = [
            [flags[a] ^ flags[b] for b in range(self.nperms)] for a in range(self.nperms)
        ]
        self.expand = _expand_table(npairs)
        lo, hi = _lane_masks(npairs)
        self.lane_lo = lo
        self.lane_hi = hi

    def children(self, cur: int, state: int) -> List[Tuple[int, int]]:
        """Extensions (next perm index, next state) allowed by the swap budgets."""
        out = []
        t = self.t
        expand = self.expand
        drow = self.diffs[cur]
        lane_hi = self.lane_hi
        lane_lo = self.lane_lo
        for nxt in range(self.nperms):
            if nxt == cur:
                continue
            new = state + expand[drow[nxt]]
            if t == 2:
                if new & lane_hi:
                    continue
            else:
                if new & (new >> 1) & lane_lo:
                    continue
            out.append((nxt, new))
        return out


class ComplexIndex:
    """Canonically ordered table of the filtered nondegenerate simplices of one degree."""

    def __init__(self, k: int, t: int, deg: int, perms: Tuple[Perm, ...], bits: int, codes: List[int]):
        self.k = k
        self.t = t
        self.degree = deg
        self.perms = perms
        self.bits = bits
        self.codes = codes
        self.pos: Dict[int, int] = {c: i for i, c in enumerate(codes)}
        self._perm_index = {p: i for i, p in enumerate(perms)}

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
            raise KeyError(f"simplex not in the table: {simplex_text(s)}") from None

    def contains(self, s: Simplex) -> bool:
        try:
            return self.pack(s) in self.pos
        except KeyError:
            return False

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
        self._tables: Dict[int, ComplexIndex] = {}
        self._built_to = -1
        self._face_idx: Dict[int, List[List[int]]] = {}
        self._front_back: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def index(self, deg: int) -> ComplexIndex:
        """The canonical table for one degree, enumerating on first use.

        Degrees above the top are empty tables: those cochain groups vanish.
        """
        if deg < 0:
            raise ValueError("degree must be non-negative")
        if deg > self.top_degree:
            if deg not in self._tables:
                self._tables[deg] = ComplexIndex(
                    self.k, self.t, deg, self.perms, self.bits, []
                )
            return self._tables[deg]
        if deg > self._built_to:
            self._build(deg)
        return self._tables[deg]

    def _build(self, up_to: int):
        w = self._walker
        bits = self.bits
        per_degree: List[List[int]] = [[] for _ in range(up_to + 1)]
        # DFS in index order; prefix order makes every degree table sorted.
        stack: List[Tuple[int, int, int, int]] = []
        for start in range(w.nperms - 1, -1, -1):
            stack.append((start, 0, start, 0))
        while stack:
            cur, state, code, deg = stack.pop()
            per_degree[deg].append(code)
            if deg == up_to:
                continue
            kids = w.children(cur, state)
            for nxt, new in reversed(kids):
                stack.append((nxt, new, (code << bits) | nxt, deg + 1))
        for deg, codes in enumerate(per_degree):
            self._tables[deg] = ComplexIndex(self.k, self.t, deg, self.perms, bits, codes)
        self._built_to = up_to
        self._face_idx.clear()
        self._front_back.clear()

    def face_indices(self, deg: int) -> List[List[int]]:
        """For each degree-deg simplex, its face index per position (-1 if degenerate)."""
        if deg not in self._face_idx:
            tbl = self.index(deg)
            below = self.index(deg - 1)
            bits = self.bits
            rows: List[List[int]] = []
            mask_all = (1 << (bits * (deg + 1))) - 1
            for code in tbl.codes:
                row = []
                for m in range(deg + 1):
                    # Delete level m: keep the high part above it and the low part below.
                    shift = bits * (deg - m)
                    high = code >> (shift + bits)
                    low = code & ((1 << shift) - 1)
                    fcode = ((high << shift) | low) & mask_all
                    if 0 < m < deg:
                        lvl_prev = (code >> (shift + bits)) & ((1 << bits) - 1)
                        lvl_next = (code >> (shift - bits)) & ((1 << bits) - 1)
                        if lvl_prev == lvl_next:
                            row.append(-1)
                            continue
                    row.append(below.pos[fcode])
                rows.append(row)
            self._face_idx[deg] = rows
        return self._face_idx[deg]

    def front_back(self, p: int, q: int) -> Tuple[List[int], List[int]]:
        """Front p-face and back q-face indices for every degree p+q simplex."""
        key = (p, q)
        if key not in self._front_back:
            tbl = self.index(p + q)
            front_tbl = self.index(p)
            back_tbl = self.index(q)
            bits = self.bits
            fronts = []
            backs = []
            shift = bits * q
            bmask = (1 << (bits * (q + 1))) - 1
            for code in tbl.codes:
                fronts.append(front_tbl.pos[code >> shift])
                backs.append(back_tbl.pos[code & bmask])
            self._front_back[key] = (fronts, backs)
        return self._front_back[key]


_COMPLEXES: Dict[Tuple[int, int], Complex] = {}


def get_complex(k: int, t: int) -> Complex:
    key = (k, t)
    if key not in _COMPLEXES:
        _COMPLEXES[key] = Complex(k, t)
    return _COMPLEXES[key]


def count_by_degree(k: int, t: int, max_degree: int) -> List[int]:
    """Simplex counts per degree 0..max_degree, without materializing tables.

    Walks only strings starting at the identity (the diagonal action is free,
    so every orbit has exactly one such string) and scales counts by k!.
    """
    w = _Walker(k, t)
    top = (t - 1) * (k * (k - 1) // 2)
    if max_degree < 0 or max_degree > top:
        raise ValueError(f"max degree must be in 0..{top}")
    orbit = len(w.perms)
    counts = [0] * (max_degree + 1)
    ident = 0  # identity is lexicographically first
    stack: List[Tuple[int, int, int]] = [(ident, 0, 0)]
    while stack:
        cur, state, deg = stack.pop()
        counts[deg] += 1
        if deg == max_degree:
            continue
        for nxt, new in w.children(cur, state):
            stack.append((nxt, new, deg + 1))
    return [c * orbit for c in counts]


def enumerate_complex(k: int, t: int, deg: int) -> ComplexIndex:
    """All filtered nondegenerate strings of length deg+1, canonically ordered."""
    return get_complex(k, t).index(deg)


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
