"""Obstruction data of the level-2 filtered model.

phi0 and phi1 send dual generators to explicit cochains; the error cocycle of
a level-2 generator is the cup-image of its coproduct. Its cohomology class
alpha lands in the Hochschild convolution complex, where solvability against
the twisting cochain decides formality. A dual-complex cycle beta certifies
the verdict through the pairing.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .algebras import (
    HomWH,
    Pair,
    Word,
    arnold_basis,
    arnold_normalize,
    coproduct_component,
    hochschild_d,
    w_basis,
)
from .cochains import (
    F2Cochain,
    ar,
    coboundary_matrix,
    cup,
    cup1,
    omega,
    pullback,
    zero,
)
from .complexes import get_complex
from .cycles import class_of_cocycle, omega_product
from .gf2 import BitMatrix, rank, rowspace_basis, solve

__all__ = [
    "DualElt",
    "ANCHOR_WORDS",
    "ANCHOR_VALUES",
    "phi0",
    "phi1",
    "phi_d",
    "alpha",
    "alpha_hom",
    "hochschild_matrix",
    "is_coboundary",
    "dual_d",
    "beta",
    "pair_alpha_beta",
    "gauge_shift",
    "random_gauge",
    "h2_dim_oracle",
    "validates_class",
    "triangle",
]

DualElt = FrozenSet[Tuple[Word, Word]]

# The six level-2 generators whose alpha values are published anchors.
ANCHOR_WORDS: Tuple[Word, ...] = (
    ((1, 2), (2, 3), (1, 3)),
    ((1, 2), (2, 4), (1, 4)),
    ((1, 2), (3, 4), (2, 4)),
    ((2, 3), (1, 3), (2, 4)),
    ((2, 3), (2, 4), (1, 4)),
    ((2, 3), (3, 4), (2, 4)),
)

ANCHOR_VALUES: Tuple[FrozenSet[Word], ...] = (
    frozenset({((1, 2), (1, 3)), ((1, 2), (2, 3))}),
    frozenset({((1, 2), (1, 4)), ((1, 2), (2, 4))}),
    frozenset(),
    frozenset(),
    frozenset(),
    frozenset({((2, 3), (2, 4)), ((2, 3), (3, 4))}),
)


def phi0(w: Word, k: int = 4) -> F2Cochain:
    """A length-1 dual generator goes to the pair-projection cocycle."""
    if len(w) != 1:
        raise ValueError("phi0 expects a length-1 word")
    return omega(k, *w[0])


@lru_cache(maxsize=None)
def phi1(w: Word, k: int = 4) -> F2Cochain:
    """Degree-1 cochain bounding the quadratic relation of a level-1 generator.

    Four cases by the shape of the admissible word: a square maps to zero,
    distinct second indices to a cup-1 product, equal second indices to a
    pullback of the three-letter bounding cochain, with one extra cup-1
    correction when the first indices are increasing.
    """
    if len(w) != 2:
        raise ValueError("phi1 expects a length-2 word")
    (i, j), (l, m) = w
    cx = get_complex(k, 2)
    if (i, j) == (l, m):
        return zero(cx, 1)
    if j < m:
        return cup1(omega(k, i, j), omega(k, l, m))
    if j != m:
        raise ValueError(f"word is not admissible: {w}")
    if i > l:
        return pullback(cx, (l, i, m), ar())
    return pullback(cx, (i, l, m), ar()) + cup1(omega(k, i, m), omega(k, l, m))


def _phi_d_with(phi1_fn: Callable[[Word], F2Cochain], w: Word, k: int) -> F2Cochain:
    if len(w) != 3:
        raise ValueError("expected a length-3 word")
    cx = get_complex(k, 2)
    acc = zero(cx, 2)
    for u, v in coproduct_component(k, w, 2, 1):
        acc = acc + cup(phi1_fn(u), phi0(v, k))
    for u, v in coproduct_component(k, w, 1, 2):
        acc = acc + cup(phi0(u, k), phi1_fn(v))
    return acc


@lru_cache(maxsize=None)
def phi_d(w: Word, k: int = 4) -> F2Cochain:
    """Error cocycle of a level-2 generator: cups of phi1 x phi0 over the coproduct."""
    return _phi_d_with(lambda u: phi1(u, k), w, k)


def alpha(w: Word) -> FrozenSet[Word]:
    """Cohomology class of the error cocycle, in the admissible quadratic basis."""
    return class_of_cocycle(phi_d(w))


@lru_cache(maxsize=None)
def alpha_hom() -> HomWH:
    """alpha on all 90 level-2 generators as a Hom(W2, H2) element."""
    return HomWH.from_map(4, 2, 2, alpha)


def _packed(h: HomWH) -> int:
    """Row-major bit vector of a Hom element (basis order on both sides)."""
    width = len(arnold_basis(h.k, h.qdeg))
    return sum(row << (r * width) for r, row in enumerate(h.rows))


@lru_cache(maxsize=None)
def hochschild_matrix(k: int = 4) -> BitMatrix:
    """Matrix of the convolution differential Hom(W1,H1) -> Hom(W2,H2).

    Columns run over elementary maps (one level-1 word to one degree-1
    class); rows over the packed target basis. For k = 4 this is 990x150.
    """
    nw1, nh1 = len(w_basis(k, 1)), len(arnold_basis(k, 1))
    cols = []
    for wi in range(nw1):
        for mi in range(nh1):
            f = HomWH(k, 1, 1, [(1 << mi) if r == wi else 0 for r in range(nw1)])
            cols.append(_packed(hochschild_d(f)))
    nrows = len(w_basis(k, 2)) * len(arnold_basis(k, 2))
    return BitMatrix(len(cols), nrows, cols).transpose()


def is_coboundary(a: HomWH) -> Optional[HomWH]:
    """Witness f with hochschild_d(f) = a, or None when no witness exists."""
    if not hochschild_d(a).is_zero():
        raise ValueError("input is not a cocycle of the convolution complex")
    x = solve(hochschild_matrix(a.k), _packed(a))
    if x is None:
        return None
    width = len(arnold_basis(a.k, 1))
    mask = (1 << width) - 1
    return HomWH(a.k, 1, 1, [x >> (wi * width) & mask for wi in range(len(w_basis(a.k, 1)))])


def _cap(a: Pair, h: Word, k: int) -> List[Word]:
    """Transpose of multiplication by one generator on dual-basis coordinates."""
    out = []
    for x in arnold_basis(k, len(h) - 1):
        if h in arnold_normalize(x + (a,)):
            out.append(x)
    return out


def dual_d(z: DualElt, k: int = 4) -> DualElt:
    """Differential of the dual complex W (x) H-dual.

    Applies the twisting cochain on the length-1 leg of the coproduct and
    caps it into the homology factor; the second coproduct piece contributes
    with its tensor factors interchanged.
    """
    acc: set = set()
    for word, h in z:
        n = len(word)
        for u, v in coproduct_component(k, word, n - 1, 1):
            for x in _cap(v[0], h, k):
                acc ^= {(u, x)}
        for u, v in coproduct_component(k, word, 1, n - 1):
            for x in _cap(u[0], h, k):
                acc ^= {(v, x)}
    return frozenset(acc)


def beta() -> DualElt:
    """The certifying cycle: 11 summands over 6 level-2 generators."""
    summands = [
        (((1, 2), (2, 3), (1, 3)), ((1, 3), (1, 4))),
        (((1, 2), (2, 3), (1, 3)), ((1, 3), (2, 4))),
        (((1, 2), (2, 4), (1, 4)), ((1, 2), (1, 4))),
        (((1, 2), (3, 4), (2, 4)), ((1, 2), (1, 3))),
        (((1, 2), (3, 4), (2, 4)), ((1, 2), (2, 3))),
        (((1, 2), (3, 4), (2, 4)), ((1, 2), (1, 4))),
        (((1, 2), (3, 4), (2, 4)), ((1, 2), (2, 4))),
        (((2, 3), (1, 3), (2, 4)), ((1, 3), (1, 4))),
        (((2, 3), (1, 3), (2, 4)), ((1, 3), (2, 4))),
        (((2, 3), (2, 4), (1, 4)), ((1, 2), (1, 4))),
        (((2, 3), (3, 4), (2, 4)), ((1, 2), (3, 4))),
    ]
    return frozenset(summands)


def pair_alpha_beta(a: HomWH, b: DualElt) -> int:
    """Sum over summands w (x) h of the h-coefficient of a(w)."""
    total = 0
    for word, h in b:
        if h in a.apply(word):
            total ^= 1
    return total


def gauge_shift(f: HomWH) -> HomWH:
    """alpha recomputed after perturbing phi1 by cocycle representatives of f.

    f sends level-1 generators to degree-1 classes; each class is realized
    by its product of pair-projection cocycles and added to phi1.
    """
    if (f.level, f.qdeg) != (1, 1):
        raise ValueError("gauge perturbation must map level 1 to degree 1")
    k = f.k

    def shifted(u: Word) -> F2Cochain:
        c = phi1(u, k)
        for m in f.apply(u):
            c = c + omega(k, *m[0])
        return c

    def new_alpha(w: Word) -> FrozenSet[Word]:
        return class_of_cocycle(_phi_d_with(shifted, w, k))

    return HomWH.from_map(k, 2, 2, new_alpha)


def random_gauge(seed: int, k: int = 4) -> HomWH:
    """Seeded pseudorandom perturbation Hom(W1, H1)."""
    rng = Random(seed)
    width = len(arnold_basis(k, 1))
    rows = [rng.getrandbits(width) for _ in w_basis(k, 1)]
    return HomWH(k, 1, 1, rows)


@lru_cache(maxsize=None)
def h2_dim_oracle(k: int = 4) -> int:
    """Quadratic cohomology dimension straight from coboundary matrix ranks."""
    cx = get_complex(k, 2)
    n2 = len(cx.index(2))
    return n2 - rank(coboundary_matrix(cx, 2)) - rank(coboundary_matrix(cx, 1))


@lru_cache(maxsize=None)
def _im_d1_basis(k: int = 4) -> Tuple[int, ...]:
    """Echelon row basis of the space of degree-2 coboundaries (as bit rows)."""
    cx = get_complex(k, 2)
    m1 = coboundary_matrix(cx, 1)
    return tuple(rowspace_basis(m1.transpose()))


def validates_class(c: F2Cochain, monomials: FrozenSet[Word]) -> bool:
    """Independent check that [c] equals the span element named by monomials.

    Forms c + the product cocycles of the named monomials and tests
    membership in the coboundary space by reduction against its row basis.
    """
    if c.degree != 2:
        raise ValueError("expected a degree-2 cochain")
    acc = c
    for m in monomials:
        acc = acc + omega_product(m, c.cx.k)
    v = acc.support
    for row in _im_d1_basis(c.cx.k):
        if v & (row & -row):
            v ^= row
    return v == 0


def triangle(a: Optional[HomWH] = None) -> Dict[str, bool]:
    """The three independent legs of the non-formality verdict.

    solve: alpha is not hit by the convolution differential; pairing: the
    certifying cycle is closed and pairs to 1; classes: alpha is a Hochschild
    cocycle and the six anchor classes validate against the coboundary space.
    """
    base = alpha_hom()
    if a is None:
        a = base
    b = beta()
    try:
        leg_solve = is_coboundary(a) is None
    except ValueError:
        # A non-cocycle is never hit by the differential; the classes leg fails on it.
        leg_solve = True
    leg_pairing = (not dual_d(b)) and pair_alpha_beta(a, b) == 1
    leg_classes = hochschild_d(a).is_zero() and all(
        validates_class(phi_d(w), base.apply(w)) for w in ANCHOR_WORDS
    )
    return {
        "solve": leg_solve,
        "pairing": leg_pairing,
        "classes": leg_classes,
        "agree": leg_solve and leg_pairing and leg_classes,
    }
