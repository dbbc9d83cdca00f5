"""Obstruction data of the level-2 filtered model of four points in the plane.

Everything here has arity 4; maps and cochains of another arity are
rejected with ValueError. phi0 and phi1 send dual generators to explicit cochains; the error cocycle of
a level-2 generator is the cup-image of its coproduct. Its cohomology class
alpha lands in the Hochschild convolution complex, where solvability against
the twisting cochain decides formality. A dual-complex cycle beta certifies
the verdict through the pairing. Dual elements are int bit rows in the layout
of _packed: bit r * width + c is quadratic monomial c on level-2 word r.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from random import Random
from typing import Dict, Optional, Sequence, Tuple

from .algebras import (
    HomWH,
    Word,
    _product_table,
    _split_table,
    _yb_index,
    arnold_basis,
    hochschild_d,
    tau,
    w_basis,
)
from .cochains import (
    F2Cochain,
    _coface_masks,
    _image,
    ar,
    cup1,
    omega,
    pullback,
)
from .complexes import get_complex
from .cycles import _class_row, classes_of_cocycles, omega_product
from .gf2 import BitMatrix, _bits, rowspace_basis, solve

__all__ = [
    "ANCHOR_WORDS",
    "ANCHOR_VALUES",
    "phi0",
    "phi1",
    "phi_d",
    "alpha_hom",
    "hochschild_matrix",
    "is_coboundary",
    "dual_d",
    "beta",
    "pair_alpha_beta",
    "gauge_shift",
    "random_gauge",
    "validates_class",
    "triangle",
]

# The six level-2 generators whose alpha values are published anchors.
ANCHOR_WORDS: Tuple[Word, ...] = (
    ((1, 2), (2, 3), (1, 3)),
    ((1, 2), (2, 4), (1, 4)),
    ((1, 2), (3, 4), (2, 4)),
    ((2, 3), (1, 3), (2, 4)),
    ((2, 3), (2, 4), (1, 4)),
    ((2, 3), (3, 4), (2, 4)),
)

# Their alpha values as bit rows over arnold_basis(4, 2), whose monomials
# run A12.A13, A12.A14, A12.A23, A12.A24, A12.A34, A13.A14, A13.A24,
# A13.A34, A23.A14, A23.A24, A23.A34 from bit 0.
ANCHOR_VALUES: Tuple[int, ...] = (
    0b00000000101,  # A12.A13 + A12.A23
    0b00000001010,  # A12.A14 + A12.A24
    0,
    0,
    0,
    0b11000000000,  # A23.A24 + A23.A34
)


def _check_hom(h: HomWH, level: int, qdeg: int):
    if (h.k, h.level, h.qdeg) != (4, level, qdeg):
        raise ValueError(f"expected a map from level {level} to degree {qdeg} of arity 4")


def phi0(w: Word) -> F2Cochain:
    """A length-1 dual generator goes to the pair-projection cocycle."""
    if len(w) != 1:
        raise ValueError("phi0 expects a length-1 word")
    return omega(4, *w[0])


@lru_cache(maxsize=None)
def phi1(w: Word) -> F2Cochain:
    """Degree-1 cochain bounding the quadratic relation of a level-1 generator.

    Four cases by the shape of the admissible word: a square maps to zero,
    distinct second indices to a cup-1 product, equal second indices to a
    pullback of the three-letter bounding cochain, with one extra cup-1
    correction when the first indices are increasing.
    """
    if len(w) != 2:
        raise ValueError("phi1 expects a length-2 word")
    (i, j), (l, m) = w
    cx = get_complex(4, 2)
    if (i, j) == (l, m):
        return F2Cochain(cx, 1)
    if j < m:
        return cup1(omega(4, i, j), omega(4, l, m))
    if j != m:
        raise ValueError(f"word is not admissible: {w}")
    if i > l:
        return pullback(cx, (l, i, m), ar())
    return pullback(cx, (i, l, m), ar()) + cup1(omega(4, i, m), omega(4, l, m))


def _phi_d_all(level1: Sequence[F2Cochain]) -> Tuple[F2Cochain, ...]:
    """Error cocycles of the level-2 generators in w_basis(4, 2) order, from phi1 on level 1.

    Each factor's front and back images are formed once; a cup is their AND.
    """
    levels = ([phi0(g) for g in w_basis(4, 0)], level1)
    front = [[_image(c, 1, 1, 0) for c in cs] for cs in levels]
    back = [[_image(c, 1, 1, 1) for c in cs] for cs in levels]
    cx = get_complex(4, 2)
    out = []
    for left, right in zip(_split_table(4, 2, 1), _split_table(4, 1, 2)):
        acc = 0
        for a, b in left:
            acc ^= front[1][a] & back[0][b]
        for a, b in right:
            acc ^= front[0][a] & back[1][b]
        out.append(F2Cochain(cx, 2, acc))
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_d_table() -> Tuple[F2Cochain, ...]:
    return _phi_d_all([phi1(u) for u in w_basis(4, 1)])


def phi_d(w: Word) -> F2Cochain:
    """Error cocycle of a level-2 generator: cups of phi1 x phi0 over the coproduct."""
    r = _yb_index(4, 3).get(w)
    if r is None:
        raise ValueError(f"not a level-2 generator: {w}")
    return _phi_d_table()[r]


def alpha_hom() -> HomWH:
    """The classes of the 90 error cocycles as a Hom(W2, H2) element.

    Row r is read off the cycle pairings of the error cocycle of w_basis(4, 2)[r],
    which is a class only when that is a cocycle: the phi-d-cocycles check of obstruct.
    """
    return HomWH(4, 2, 2, [_class_row(c) for c in _phi_d_table()])


def _packed(h: HomWH) -> int:
    """Row-major bit vector of a Hom element (basis order on both sides)."""
    width = len(arnold_basis(4, h.qdeg))
    return sum(row << (r * width) for r, row in enumerate(h.rows))


@lru_cache(maxsize=None)
def hochschild_matrix() -> BitMatrix:
    """Matrix of the convolution differential Hom(W1,H1) -> Hom(W2,H2), 150x990.

    Rows run over elementary maps (one level-1 word to one degree-1 class);
    columns over the packed target basis. Row f holds
    d(f) = f * tau + tau * f, read off the coproduct splits.
    """
    nh1, nh2 = len(arnold_basis(4, 1)), len(arnold_basis(4, 2))
    products = _product_table(4, 1, 1)
    tau_col = [row.bit_length() - 1 for row in tau(4).rows]
    images = [0] * (len(w_basis(4, 1)) * nh1)
    for r, (left, right) in enumerate(zip(_split_table(4, 2, 1), _split_table(4, 1, 2))):
        for a, b in left:
            for mi in range(nh1):
                images[a * nh1 + mi] ^= products[mi][tau_col[b]] << r * nh2
        for a, b in right:
            for mi in range(nh1):
                images[b * nh1 + mi] ^= products[tau_col[a]][mi] << r * nh2
    return BitMatrix(len(images), len(w_basis(4, 2)) * nh2, images)


def is_coboundary(a: HomWH) -> Optional[HomWH]:
    """Witness f with hochschild_d(f) = a, or None when no witness exists.

    f is the x of gf2.solve(hochschild_matrix(), _packed(a)), unpacked.
    """
    _check_hom(a, 2, 2)
    # d(d f) = 0, so a map that is not closed has no witness and the solve says so.
    x = solve(hochschild_matrix(), _packed(a))
    if x is None:
        return None
    width = len(arnold_basis(4, 1))
    mask = (1 << width) - 1
    return HomWH(4, 1, 1, [x >> (wi * width) & mask for wi in range(len(w_basis(4, 1)))])


@lru_cache(maxsize=None)
def _cap(j: int, m: int) -> int:
    """Transpose of multiplication by x_j: bit i is set when x_i . x_j holds monomial m."""
    return sum(1 << i for i, row in enumerate(_product_table(4, 1, 1)) if row[j] >> m & 1)


def _check_dual(z: int):
    """A dual row has one bit per level-2 word and quadratic monomial."""
    width = len(w_basis(4, 2)) * len(arnold_basis(4, 2))
    if z < 0 or z >> width:
        raise ValueError(f"not a level-2 dual row of {width} bits: {z:#x}")


def dual_d(z: int) -> int:
    """Differential of the dual complex W (x) H-dual, from a level-2 row to a level-1 row.

    Applies the twisting cochain on the length-1 leg of the coproduct (leg b
    goes to x_b) and caps it into the homology factor; the second coproduct
    piece contributes with its tensor factors interchanged.
    """
    _check_dual(z)
    width2, width1 = len(arnold_basis(4, 2)), len(arnold_basis(4, 1))
    left, right = _split_table(4, 2, 1), _split_table(4, 1, 2)
    acc = 0
    for bit in _bits(z):
        r, m = divmod(bit, width2)
        for a, b in left[r]:
            acc ^= _cap(b, m) << a * width1
        for a, b in right[r]:
            acc ^= _cap(a, m) << b * width1
    return acc


def beta() -> int:
    """The certifying cycle as a dual row: 11 summands over 6 level-2 generators."""
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
    gens, basis = w_basis(4, 2), arnold_basis(4, 2)
    return sum(1 << gens.index(w) * len(basis) + basis.index(h) for w, h in summands)


def pair_alpha_beta(a: HomWH, b: int) -> int:
    """Sum over the summands w (x) h of b of the h-coefficient of a(w)."""
    _check_hom(a, 2, 2)
    _check_dual(b)
    return (_packed(a) & b).bit_count() & 1


def gauge_shift(f: HomWH) -> HomWH:
    """alpha recomputed after perturbing phi1 by cocycle representatives of f.

    f sends level-1 generators to degree-1 classes; each class is realized
    by its product of pair-projection cocycles and added to phi1.
    """
    _check_hom(f, 1, 1)
    basis = arnold_basis(4, 1)
    level1 = [reduce(F2Cochain.__add__, (omega(4, *basis[i][0]) for i in _bits(row)), phi1(u))
              for u, row in zip(w_basis(4, 1), f.rows)]
    return HomWH(4, 2, 2, classes_of_cocycles(_phi_d_all(level1)))


def random_gauge(seed: int) -> HomWH:
    """Seeded pseudorandom perturbation Hom(W1, H1)."""
    rng = Random(seed)
    width = len(arnold_basis(4, 1))
    return HomWH(4, 1, 1, [rng.getrandbits(width) for _ in w_basis(4, 1)])


@lru_cache(maxsize=None)
def _im_d1_basis() -> Tuple[int, ...]:
    """Echelon row basis of the space of degree-2 coboundaries (as bit rows)."""
    cx = get_complex(4, 2)
    masks = _coface_masks(cx, 1)
    return tuple(rowspace_basis(BitMatrix(len(masks), len(cx.index(2)), masks)))


def validates_class(c: F2Cochain, row: int) -> bool:
    """Independent check that [c] is the class whose bit row over the quadratic basis is row.

    Forms c + the product cocycles of the row's monomials and tests membership
    in the coboundary space in one pass over its basis, by each row's highest bit.
    """
    if c.degree != 2 or c.cx is not get_complex(4, 2):
        raise ValueError("expected a degree-2 cochain of the arity-4 complex")
    basis = arnold_basis(4, 2)
    if row < 0 or row >> len(basis):
        raise ValueError(f"not a bit row over the {len(basis)} quadratic monomials: {row}")
    acc = c
    for r in _bits(row):
        acc = acc + omega_product(basis[r])
    v = acc.support
    for pivot_row in _im_d1_basis():
        if v >> (pivot_row.bit_length() - 1) & 1:
            v ^= pivot_row
    return v == 0


def triangle(a: HomWH) -> Dict[str, bool]:
    """The three independent legs of the non-formality verdict on a, and whether a is closed.

    closed: a is a Hochschild cocycle; solve: a is not hit by the
    convolution differential; pairing: the certifying cycle is closed and
    pairs with a to 1; classes: a is closed and its six anchor rows validate
    as the classes of their error cocycles against the coboundary space.
    """
    _check_hom(a, 2, 2)
    closed = hochschild_d(a).is_zero()
    b = beta()
    leg_solve = is_coboundary(a) is None
    leg_pairing = (not dual_d(b)) and pair_alpha_beta(a, b) == 1
    base = dict(zip(w_basis(4, 2), a.rows))
    leg_classes = closed and all(validates_class(phi_d(w), base[w]) for w in ANCHOR_WORDS)
    return {
        "closed": closed,
        "solve": leg_solve,
        "pairing": leg_pairing,
        "classes": leg_classes,
        "agree": leg_solve and leg_pairing and leg_classes,
    }
