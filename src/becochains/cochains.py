"""Normalized chains and cochains of the filtered complexes over GF(2).

A cochain is stored as its support, an int bitset over the canonical degree
table of its ambient complex (bit i = simplex i). Chains share it; the
distinction is semantic (pairing treats one argument as each).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import and_, getitem, or_, xor
from typing import Iterable, List, Optional, Sequence, Tuple

from .complexes import Complex, Simplex, get_complex, simplex_from_text, simplex_text
from .gf2 import BitMatrix, _bits, _flags
from .perms import project

__all__ = [
    "F2Cochain",
    "from_simplices",
    "coboundary",
    "are_cocycles",
    "cup",
    "cup1",
    "pullback",
    "omega",
    "ar",
    "pair",
    "coboundary_matrix",
    "parse_cochain",
    "cochain_text",
]


class F2Cochain:
    """Degree-homogeneous GF(2) cochain of one ambient complex; bit i = simplex i.

    A cochain is never mutated after construction: its cup images are memoized
    on it, keyed by both factors' degrees and the side, and die with it.
    """

    __slots__ = ("cx", "degree", "support", "_images")

    def __init__(self, cx: Complex, degree: int, support: int = 0):
        if not isinstance(support, int):
            raise TypeError("support must be an int bitset")
        if not isinstance(degree, int):
            raise TypeError("degree must be an int")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        # Checked only when nonzero, so that a zero cochain builds no table.
        if support and (support < 0 or support >> len(cx.index(degree))):
            raise ValueError(f"support is not a bitset over the degree-{degree} table")
        self.cx = cx
        self.degree = degree
        self.support = support
        self._images = {}

    def __add__(self, other: "F2Cochain") -> "F2Cochain":
        _check_same(self, other)
        return F2Cochain(self.cx, self.degree, self.support ^ other.support)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Cochain)
            and self.cx is other.cx
            and self.degree == other.degree
            and self.support == other.support
        )

    def __hash__(self) -> int:
        return hash((id(self.cx), self.degree, self.support))

    def __bool__(self) -> bool:
        return bool(self.support)

    def __len__(self) -> int:
        return self.support.bit_count()

    def simplices(self) -> List[Simplex]:
        codes = self.cx.index(self.degree)
        return [self.cx.unpack(codes[i], self.degree) for i in _bits(self.support)]

    def __repr__(self) -> str:
        return f"F2Cochain(k={self.cx.k}, t={self.cx.t}, degree={self.degree}, {cochain_text(self)})"


def _check_same(a: F2Cochain, b: F2Cochain):
    if a.cx is not b.cx:
        raise ValueError("ambient complex mismatch")
    if a.degree != b.degree:
        raise ValueError("degree mismatch")


def from_simplices(cx: Complex, simplices: Iterable[Simplex]) -> F2Cochain:
    """The sum of the given simplices (all of one degree): a repeated simplex cancels."""
    sims = list(simplices)
    if not sims:
        raise ValueError("degree is ambiguous for an empty set; use F2Cochain(cx, degree)")
    degs = {len(s) - 1 for s in sims}
    if len(degs) != 1:
        raise ValueError("simplices must share one degree")
    return F2Cochain(cx, degs.pop(), reduce(xor, (1 << cx.index_of(s) for s in sims)))


def _masks(columns: Iterable[Sequence[int]], n: int) -> List[int]:
    """masks[v] for v < n: the int whose bit s is set when an odd number of columns hold v at s.

    A -1 (a degenerate face) lands in a trailing slot, dropped at the end.
    """
    masks = [0] * (n + 1)
    for column in columns:
        for s, v in enumerate(column):
            masks[v] ^= 1 << s
    masks.pop()
    return masks


@lru_cache(maxsize=None)
def _coface_masks(cx: Complex, deg: int) -> List[int]:
    """Per degree-deg simplex, the int bitset of its cofaces mod 2: n_deg x n_{deg+1} bits.

    A face occurring twice in one simplex cancels.
    """
    return _masks(cx.face_indices(deg + 1).columns, len(cx.index(deg)))


def coboundary(c: F2Cochain) -> F2Cochain:
    """(dc)(s) = sum of c over the faces of s, degenerate faces contributing zero."""
    if not c.support:  # a zero cochain reads no table, above the top degree too
        return F2Cochain(c.cx, c.degree + 1)
    masks = _coface_masks(c.cx, c.degree)
    return F2Cochain(c.cx, c.degree + 1, reduce(xor, compress(masks, _flags(c.support)), 0))


def are_cocycles(cs: Sequence[F2Cochain]) -> List[bool]:
    """Per cochain of one complex and degree, whether its coboundary is zero; bitsliced.

    Word i holds simplex i of every cochain, bit j for cochain j, so one pass
    over the faces of degree deg + 1 gives all the coboundaries, with no coface mask.
    """
    for c in cs:
        _check_same(c, cs[0])
    if not any(cs):  # the empty batch too; no batch above the top degree passes here
        return [True] * len(cs)
    cx, deg = cs[0].cx, cs[0].degree
    n = len(cx.index(deg)) + 1  # a trailing zero word, read by the degenerate face -1
    # Lane g holds cochains 8g..8g+7 as bits 0..7 of one byte per simplex.
    lanes = [sum(int.from_bytes(_flags(c.support), "little") << j
                 for j, c in enumerate(cs[g:g + 8])).to_bytes(n, "little")
             for g in range(0, len(cs), 8)]
    words = list(map(int.from_bytes, map(bytes, zip(*lanes)), repeat("little")))
    first, *rest = cx.face_indices(deg + 1).columns
    cofaces = map(words.__getitem__, first)
    for column in rest:  # at most top + 2 columns: a chain of lazy maps that shallow is safe
        cofaces = map(xor, cofaces, map(words.__getitem__, column))
    failed = reduce(or_, cofaces, 0)  # bit j: the coboundary of cochain j is nonzero
    return [not failed >> j & 1 for j in range(len(cs))]


@lru_cache(maxsize=None)
def _cup_masks(cx: Complex, p: int, q: int) -> Tuple[List[int], List[int]]:
    """Per p-simplex the degree p+q simplices with it in front, per q-simplex at the back."""
    fronts, backs = cx.front_back(p, q)
    # A column holds each position once, so the parity of a position is its presence.
    return _masks([fronts], len(cx.index(p))), _masks([backs], len(cx.index(q)))


def _image(c: F2Cochain, p: int, q: int, side: int) -> int:
    """Degree p+q simplices whose front p-face (side 0) or back q-face (side 1) lies in c."""
    key = (p, q, side)
    if key not in c._images:
        c._images[key] = reduce(or_, compress(_cup_masks(c.cx, p, q)[side], _flags(c.support)), 0)
    return c._images[key]


def cup(a: F2Cochain, b: F2Cochain) -> F2Cochain:
    """Alexander-Whitney product: the AND of a's front image and b's back image."""
    if a.cx is not b.cx:
        raise ValueError("ambient complex mismatch")
    p, q = a.degree, b.degree
    if not (a.support and b.support):  # a zero factor reads no mask table
        return F2Cochain(a.cx, p + q)
    return F2Cochain(a.cx, p + q, _image(a, p, q, 0) & _image(b, p, q, 1))


def cup1(a: F2Cochain, b: F2Cochain) -> F2Cochain:
    """Degree-1 cup-one product: the support intersection."""
    _check_same(a, b)
    if a.degree != 1:
        raise ValueError("cup1 is defined here for degree-1 cochains only")
    return F2Cochain(a.cx, 1, a.support & b.support)


@lru_cache(maxsize=None)
def _level_masks(cx: Complex, deg: int) -> List[List[int]]:
    """masks[m][a]: the degree-deg simplices whose level m is cx.perms[a]."""
    codes = cx.index(deg)
    low = (1 << cx.bits) - 1
    return [_masks([[code >> cx.bits * (deg - m) & low for code in codes]], len(cx.perms))
            for m in range(deg + 1)]


def pullback(target: Complex, tag: Sequence[int], c: F2Cochain) -> F2Cochain:
    """(f*c)(s) = c(f(s)) for the label-forgetting projection named by tag.

    tag (i, j) projects to arity 2; tag (a, b, c) records the pattern of the
    three labels, projecting to arity 3. The source cochain c lives on the
    smaller complex with the same complexity.
    """
    if len(tag) not in (2, 3):
        raise ValueError("projection tag must be a pair or a triple of labels")
    if c.cx.k != len(tag):
        raise ValueError(f"pullback source must have arity {len(tag)}")
    if c.cx.t != target.t:
        raise ValueError("complexity mismatch")
    # Projecting every target level once also checks the labels against the target arity.
    images = [project(p, tag) for p in target.perms]
    if not c.support:  # after every check; a zero cochain reads no mask table
        return F2Cochain(target, c.degree)
    # pulled[m][q]: the target simplices whose level m projects to q.
    pulled = []
    for row in _level_masks(target, c.degree):
        by_image = dict.fromkeys(c.cx.perms, 0)
        for q, mask in zip(images, row):
            by_image[q] |= mask
        pulled.append(by_image)
    # A target simplex lies in the AND for sigma exactly when its image is sigma.
    out = reduce(or_, (reduce(and_, map(getitem, pulled, sigma)) for sigma in c.simplices()), 0)
    return F2Cochain(target, c.degree, out)


@lru_cache(maxsize=None)
def omega(k: int, i: int, j: int) -> F2Cochain:
    """The 1-cocycle pulled back from the top cell of the two-label complex."""
    if i == j or not (1 <= i <= k) or not (1 <= j <= k):
        raise ValueError("labels must be distinct and within the arity")
    cx2 = get_complex(2, 2)
    top = from_simplices(cx2, [(((1, 2), (2, 1)))])
    return pullback(get_complex(k, 2), (i, j), top)


@lru_cache(maxsize=None)
def ar() -> F2Cochain:
    """The 1-cochain supported on the single arity-3 string 132|312."""
    return from_simplices(get_complex(3, 2), [((1, 3, 2), (3, 1, 2))])


def pair(c: F2Cochain, z: F2Cochain) -> int:
    """Evaluation of a cochain on a chain: |Supp(c) & Supp(z)| mod 2."""
    _check_same(c, z)
    return (c.support & z.support).bit_count() & 1


def coboundary_matrix(cx: Complex, deg: int) -> BitMatrix:
    """Matrix of d from degree deg to deg+1 in the canonical bases.

    Rows are indexed by the degree deg+1 table, columns by the degree deg
    table; entry (s, f) counts occurrences of face f of s, mod 2.
    """
    data = []
    for row in zip(*cx.face_indices(deg + 1).columns):
        r = 0
        for f in row:
            if f >= 0:
                r ^= 1 << f
        data.append(r)
    # BitMatrix checks the face table's shape: one row per simplex, faces within the columns.
    return BitMatrix(len(cx.index(deg + 1)), len(cx.index(deg)), data)


def parse_cochain(cx: Complex, text: str, degree: Optional[int] = None) -> F2Cochain:
    """Parse "+"-joined simplex strings, e.g. "132|312 + 123|321"; "0" is zero."""
    body = text.strip()
    if body == "0":
        if degree is None:
            raise ValueError("parsing the zero cochain needs an explicit degree")
        return F2Cochain(cx, degree)
    sims = [simplex_from_text(part.strip()) for part in body.split("+")]
    c = from_simplices(cx, sims)
    if degree is not None and c.degree != degree:
        raise ValueError("parsed degree does not match the requested one")
    return c


def cochain_text(c: F2Cochain) -> str:
    """Canonical text form; inverse of parse_cochain."""
    if not c.support:
        return "0"
    return " + ".join(simplex_text(s) for s in c.simplices())
