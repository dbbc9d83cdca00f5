"""Arnold cohomology ring, Yang-Baxter algebra, dual generators and twisting cochain.

Both algebras are handled in their admissible bases over GF(2), built by one
helper: Arnold monomials have strictly increasing second indices, Yang-Baxter
words non-decreasing ones. Elements are support sets of basis words. The
Arnold normalizer rewrites the leftmost tie of second indices and recurses; a
Yang-Baxter product is built by right multiplication with one generator at a
time, whose result on an admissible word is explicit. The twisting cochain tau
is the identity on generators.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .gf2 import _bits

__all__ = [
    "Pair",
    "Word",
    "arnold_normalize",
    "arnold_basis",
    "yb_basis",
    "w_basis",
    "coproduct",
    "coproduct_component",
    "d_w1",
    "HomWH",
    "tau",
    "convolution",
    "hochschild_d",
    "parse_word",
    "word_text",
]

Pair = Tuple[int, int]
Word = Tuple[Pair, ...]
Element = FrozenSet[Word]

def _normpair(a: int, b: int) -> Pair:
    if a == b:
        raise ValueError("generator indices must be distinct")
    return (a, b) if a < b else (b, a)


def arnold_normalize(raw: Sequence[Sequence[int]]) -> Element:
    """Admissible-basis expansion of a product of Arnold generators.

    Uses commutativity (sort by second index), squares vanishing, and the
    characteristic-two three-term relation to split equal second indices.
    A split lowers one second index, so the rewriting ends.
    """
    return _arnold_rewrite(tuple(_normpair(a, b) for a, b in raw))


def _arnold_rewrite(word: Word) -> Element:
    """arnold_normalize of a word of normalized pairs: order it, split its leftmost tie, recurse."""
    word = tuple(sorted(word, key=lambda p: (p[1], p[0])))
    if len(set(word)) != len(word):
        return frozenset()  # a squared generator kills the monomial
    for m in range(len(word) - 1):
        if word[m][1] == word[m + 1][1]:
            break
    else:
        return frozenset({word})
    (i1, j), (i2, _) = word[m], word[m + 1]
    rest = word[:m] + word[m + 2:]
    return _arnold_rewrite(rest + ((i1, i2), (i2, j))) ^ _arnold_rewrite(rest + ((i1, i2), (i1, j)))


def _yb_times(x: Word, g: Pair) -> Set[Word]:
    """The admissible words of x . g, for an admissible word x and a generator g = (u, v).

    g moves left past the trailing letters of x with a second index above v;
    passing a letter (i, j) that shares a label with g also puts the extra
    Yang-Baxter terms (u, j)(v, j) + (v, j)(u, j) in its place. Every word so
    formed is admissible, so nothing is left to rewrite.
    """
    u, v = g
    m = len(x)
    while m and x[m - 1][1] > v:
        m -= 1
    out = {x[:m] + (g,) + x[m:]}
    for t in range(m, len(x)):
        i, j = x[t]
        if i == u or i == v:  # j > v > u, so i alone can meet g
            head, tail = x[:t], x[t + 1:]
            out ^= {head + ((u, j), (v, j)) + tail, head + ((v, j), (u, j)) + tail}
    return out


@lru_cache(maxsize=None)
def _admissible_words(k: int, length: int, draw) -> Tuple[Word, ...]:
    """The words whose second indices are one draw from 2..k, lexicographically: draw is
    combinations (increasing) or combinations_with_replacement (non-decreasing)."""
    if k < 2:
        raise ValueError(f"arity {k} is below 2")
    if length < 0:
        raise ValueError(f"length {length} is negative")
    gens = [tuple((i, j) for i in range(1, j)) for j in range(k + 1)]
    return tuple(sorted(w for js in draw(range(2, k + 1), length)
                        for w in product(*(gens[j] for j in js))))


def arnold_basis(k: int, length: int) -> Tuple[Word, ...]:
    """Admissible Arnold monomials of the given length, lexicographically."""
    return _admissible_words(k, length, combinations)


def yb_basis(k: int, length: int) -> Tuple[Word, ...]:
    """Admissible Yang-Baxter words of the given length, lexicographically."""
    return _admissible_words(k, length, combinations_with_replacement)


def w_basis(k: int, level: int) -> Tuple[Word, ...]:
    """Dual generators at one resolution level are indexed by words of length level+1."""
    return yb_basis(k, level + 1)


@lru_cache(maxsize=None)
def _yb_index(k: int, length: int) -> Dict[Word, int]:
    """Position of each admissible Yang-Baxter word of the given length in yb_basis."""
    return {w: i for i, w in enumerate(yb_basis(k, length))}


@lru_cache(maxsize=None)
def _yb_products(k: int, lu: int, lv: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """products[a][b]: the positions in yb_basis(k, lu + lv) of the words of
    yb_basis(k, lu)[a] . yb_basis(k, lv)[b].

    With lv = 1 each product is one _yb_times; otherwise u . v = (u . v') . g
    for v = v'.g, read off the cached tables of lv - 1 and of one generator.
    """
    col = _yb_index(k, lu + lv)
    us, vs = yb_basis(k, lu), yb_basis(k, lv)
    if lv == 1:
        return tuple(tuple(tuple(map(col.__getitem__, _yb_times(u, g))) for (g,) in vs) for u in us)
    prefix, last = _yb_index(k, lv - 1), _yb_index(k, 1)
    times_gen = _yb_products(k, lu + lv - 1, 1)
    table = []
    for products in _yb_products(k, lu, lv - 1):
        row = []
        for v in vs:
            acc: Set[int] = set()
            for c in products[prefix[v[:-1]]]:
                acc.symmetric_difference_update(times_gen[c][last[v[-1:]]])
            row.append(tuple(acc))
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def _split_table(k: int, lu: int, lv: int) -> Dict[Word, Tuple[Tuple[Word, Word], ...]]:
    """For each admissible word, the (u, v) with given lengths whose product contains it."""
    us, vs, ws = yb_basis(k, lu), yb_basis(k, lv), yb_basis(k, lu + lv)
    table: Dict[Word, List[Tuple[Word, Word]]] = {w: [] for w in ws}
    for u, products in zip(us, _yb_products(k, lu, lv)):
        for v, positions in zip(vs, products):
            for c in positions:
                table[ws[c]].append((u, v))
    return {w: tuple(pairs) for w, pairs in table.items()}


def coproduct_component(k: int, w: Word, lu: int, lv: int) -> Tuple[Tuple[Word, Word], ...]:
    """Summands of the dualized multiplication landing in one length bidegree.

    A word that is not an admissible Yang-Baxter word of arity k raises ValueError.
    """
    if w not in _yb_index(k, len(w)):
        raise ValueError(f"not an admissible Yang-Baxter word of arity {k}: {w!r}")
    if lu + lv != len(w) or lu < 1 or lv < 1:
        return ()
    return _split_table(k, lu, lv)[w]


def coproduct(k: int, w: Word) -> FrozenSet[Tuple[Word, Word]]:
    """Outer part of the dual of multiplication: one tensor leg has length 1."""
    n = len(w)
    if n < 2:
        raise ValueError("coproduct needs a word of length at least 2")
    return frozenset(coproduct_component(k, w, n - 1, 1) + coproduct_component(k, w, 1, n - 1))


def d_w1(w: Word) -> FrozenSet[Tuple[Pair, Pair]]:
    """Differential of a level-1 dual generator as quadratic level-0 words.

    Four cases by the shape of the admissible word ((i,j),(k,l)): a square,
    distinct second indices (a commutator), or equal second indices with the
    extra Yang-Baxter correction terms.
    """
    if len(w) != 2:
        raise ValueError("expected a length-2 word")
    (i, j), (k, l) = w
    if (i, j) == (k, l):
        return frozenset({((i, j), (k, l))})
    if j < l:
        return frozenset({((i, j), (k, l)), ((k, l), (i, j))})
    if j != l:
        raise ValueError(f"word is not admissible: {w}")
    ki = _normpair(k, i)
    return frozenset({((i, j), (k, l)), ((i, l), ki), ((k, l), ki)})


class HomWH:
    """GF(2) linear map from one resolution level of W to one Arnold degree.

    Rows follow the canonical level basis; each row is a bitmask over the
    canonical Arnold basis of the target degree, and a row that is negative
    or has bits past that basis raises ValueError.
    """

    __slots__ = ("k", "level", "qdeg", "rows")

    def __init__(self, k: int, level: int, qdeg: int, rows: Sequence[int]):
        if level < 0:
            raise ValueError("a map starts at resolution level 0 or above")
        self.k = k
        self.level = level
        self.qdeg = qdeg
        expected = len(w_basis(k, level))
        if len(rows) != expected:
            raise ValueError(f"expected {expected} rows, got {len(rows)}")
        width = len(arnold_basis(k, qdeg))
        for r, row in enumerate(rows):
            if row < 0 or row >> width:
                raise ValueError(f"row {r} is {row}, not a bit row over the "
                                 f"{width} Arnold monomials of degree {qdeg}")
        self.rows = tuple(rows)

    def __add__(self, other: "HomWH") -> "HomWH":
        if (self.k, self.level, self.qdeg) != (other.k, other.level, other.qdeg):
            raise ValueError("bidegree mismatch")
        return HomWH(self.k, self.level, self.qdeg, [a ^ b for a, b in zip(self.rows, other.rows)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HomWH)
            and (self.k, self.level, self.qdeg) == (other.k, other.level, other.qdeg)
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.k, self.level, self.qdeg, self.rows))

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __repr__(self) -> str:
        return f"HomWH(k={self.k}, level={self.level}, qdeg={self.qdeg})"


@lru_cache(maxsize=None)
def tau(k: int) -> HomWH:
    """The twisting cochain: length-1 dual generators to the matching Arnold class.

    w_basis(k, 0) and arnold_basis(k, 1) are the same words in the same order.
    """
    return HomWH(k, 0, 1, [1 << c for c in range(len(w_basis(k, 0)))])


@lru_cache(maxsize=None)
def _product_table(k: int, p: int, q: int) -> Tuple[Tuple[int, ...], ...]:
    """table[i][j]: bitmask over the degree p+q basis of basis_p[i] . basis_q[j]."""
    col = {m: c for c, m in enumerate(arnold_basis(k, p + q))}
    return tuple(
        tuple(sum(1 << col[m] for m in arnold_normalize(a + b)) for b in arnold_basis(k, q))
        for a in arnold_basis(k, p)
    )


def convolution(f: HomWH, g: HomWH) -> HomWH:
    """Convolution product through the coproduct of W and the Arnold multiplication.

    Each f(u) . g(v) is formed once and added to the row of every word of u . v.
    """
    if f.k != g.k:
        raise ValueError("arity mismatch")
    k = f.k
    level = f.level + g.level + 1
    table = _product_table(k, f.qdeg, g.qdeg)
    g_bits = [_bits(row) for row in g.rows]
    rows = [0] * len(w_basis(k, level))
    for f_row, products in zip(f.rows, _yb_products(k, f.level + 1, g.level + 1)):
        left = [table[i] for i in _bits(f_row)]
        for js, positions in zip(g_bits, products):
            p = 0
            for j in js:
                for t in left:
                    p ^= t[j]
            for c in positions:
                rows[c] ^= p
    return HomWH(k, level, f.qdeg + g.qdeg, rows)


def hochschild_d(f: HomWH) -> HomWH:
    """Differential of the convolution complex: f * tau + tau * f."""
    t = tau(f.k)
    return convolution(f, t) + convolution(t, f)


def parse_word(text: str) -> Tuple[str, Word]:
    """Parse "B12.B23.B13" or "A12.A23" into (kind letter, factor pairs)."""
    parts = text.strip().split(".")
    kinds = {part[0] for part in parts if part}
    if len(kinds) != 1 or kinds - {"A", "B"}:
        raise ValueError(f"not a generator word: {text!r}")
    kind = kinds.pop()
    word = []
    for part in parts:
        if len(part) != 3 or not part[1:].isdigit():
            raise ValueError(f"bad factor {part!r} in {text!r}")
        word.append(_normpair(int(part[1]), int(part[2])))
    return kind, tuple(word)


def word_text(kind: str, word: Word) -> str:
    if kind not in ("A", "B"):
        raise ValueError("kind must be 'A' or 'B'")
    try:
        return ".".join(f"{kind}{i:d}{j:d}" for i, j in word)
    except (TypeError, ValueError):
        raise ValueError(f"not a word of label pairs: {word!r}") from None
