"""Operadic chain-level cycles representing the degree-2 homology basis.

Chains here are support sets of raw simplices (strings of permutations),
composed through the operad structure: substitution with level shuffles.
The degree-2 basis of the arity-4 complex is realized by relabellings of
two cycles, one with a three-label satellite block and one with two
independent two-label blocks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, Sequence, Tuple

from .algebras import Word, arnold_basis
from .cochains import F2Cochain, are_cocycles, cup, from_simplices, omega, pair
from .complexes import Simplex, get_complex, is_nondegenerate
from .gf2 import BitMatrix
from .perms import Perm, act, block_substitute

__all__ = [
    "Chain",
    "compose_simplices",
    "circ",
    "mult",
    "unit_chain",
    "gamma",
    "act_chain",
    "t_cycle",
    "gamma_gamma",
    "h2_cycle_table",
    "omega_product",
    "pairing_matrix",
    "class_of_cocycle",
    "classes_of_cocycles",
]

Chain = FrozenSet[Simplex]


def compose_simplices(s: Simplex, i: int, u: Simplex) -> Chain:
    """Substitute u into slot i of s, one summand per monotone level shuffle.

    A shuffle of the level strings is a lattice path: each step advances the
    level of s or of u, and the summand takes the substitution of the current
    pair of levels. Degenerate results vanish in the normalized complex.
    """
    p, q = len(s) - 1, len(u) - 1
    out: set = set()
    stack = [(0, 0, (block_substitute(s[0], i, u[0]),))]
    while stack:
        a, b, levels = stack.pop()
        if a == p and b == q:
            if is_nondegenerate(levels):
                out ^= {levels}
            continue
        if a < p:
            stack.append((a + 1, b, levels + (block_substitute(s[a + 1], i, u[b]),)))
        if b < q:
            stack.append((a, b + 1, levels + (block_substitute(s[a], i, u[b + 1]),)))
    return frozenset(out)


def circ(x: Chain, i: int, y: Chain) -> Chain:
    """Bilinear extension of the slot-i composition to chains."""
    acc: set = set()
    for s in x:
        for u in y:
            acc ^= compose_simplices(s, i, u)
    return frozenset(acc)


def unit_chain() -> Chain:
    return frozenset({((1,),)})


def mult(x: Chain, y: Chain) -> Chain:
    """Product of chains: substitute both into the two slots of (1 2)."""
    m: Chain = frozenset({((1, 2),)})
    return circ(circ(m, 2, y), 1, x)


def gamma() -> Chain:
    """The degree-1 cycle of the arity-2 complex: both 1-simplexes."""
    return frozenset({((1, 2), (2, 1)), ((2, 1), (1, 2))})


def act_chain(g: Perm, ch: Chain) -> Chain:
    """Relabel every level of every simplex by g."""
    return frozenset(tuple(act(g, level) for level in s) for s in ch)


@lru_cache(maxsize=None)
def t_cycle() -> Chain:
    """Satellite cycle: gamma composed into itself, then one label appended."""
    return mult(circ(gamma(), 2, gamma()), unit_chain())


@lru_cache(maxsize=None)
def gamma_gamma() -> Chain:
    """Two-block cycle: the product of gamma with itself."""
    return mult(gamma(), gamma())


# Relabellings (one-line words) sending each base cycle to the representative
# dual to one admissible quadratic monomial of the arity-4 cohomology.
_RELABELLINGS: Tuple[Tuple[Word, Perm, str], ...] = (
    ((((1, 2), (1, 3))), (2, 1, 3, 4), "t"),
    ((((1, 2), (1, 4))), (2, 1, 4, 3), "t"),
    ((((1, 2), (2, 3))), (1, 2, 3, 4), "t"),
    ((((1, 2), (2, 4))), (1, 2, 4, 3), "t"),
    ((((1, 2), (3, 4))), (1, 2, 3, 4), "gg"),
    ((((1, 3), (1, 4))), (3, 4, 1, 2), "t"),
    ((((1, 3), (2, 4))), (1, 3, 2, 4), "gg"),
    ((((1, 3), (3, 4))), (1, 4, 3, 2), "t"),
    ((((2, 3), (1, 4))), (1, 4, 3, 2), "gg"),
    ((((2, 3), (2, 4))), (3, 2, 4, 1), "t"),
    ((((2, 3), (3, 4))), (2, 3, 4, 1), "t"),
)


@lru_cache(maxsize=None)
def h2_cycle_table() -> Tuple[Tuple[Word, Chain], ...]:
    """The 11 cycle representatives, ordered like the quadratic Arnold basis.

    Each entry pairs the admissible monomial whose dual class the cycle
    represents with the relabelled satellite or two-block cycle.
    """
    base = {"t": t_cycle(), "gg": gamma_gamma()}
    table = []
    for word, g, kind in _RELABELLINGS:
        table.append((word, act_chain(g, base[kind])))
    if [w for w, _ in table] != list(arnold_basis(4, 2)):
        raise RuntimeError("cycle table is not in quadratic basis order")
    return tuple(table)


@lru_cache(maxsize=None)
def _cycle_chains() -> Tuple[F2Cochain, ...]:
    """The 11 cycles as chains of the arity-4 complex, in quadratic basis order."""
    cx = get_complex(4, 2)
    return tuple(from_simplices(cx, ch) for _, ch in h2_cycle_table())


def omega_product(monomial: Word) -> F2Cochain:
    """Cup product of the pullback cocycles along one admissible monomial of arity 4."""
    if not monomial:
        raise ValueError("need at least one factor")
    out = omega(4, *monomial[0])
    for i, j in monomial[1:]:
        out = cup(out, omega(4, i, j))
    return out


@lru_cache(maxsize=None)
def pairing_matrix() -> BitMatrix:
    """Pairings of the quadratic cocycle products against the 11 cycles.

    Row r is the product cocycle of basis monomial r, column s the cycle
    dual to basis monomial s; the matrix must be invertible for the cycles
    to detect the full quadratic cohomology.
    """
    cycles = _cycle_chains()
    rows = []
    for monomial in arnold_basis(4, 2):
        c = omega_product(monomial)
        rows.append(sum(pair(c, z) << s for s, z in enumerate(cycles)))
    return BitMatrix(len(rows), len(cycles), rows)


@lru_cache(maxsize=None)
def _dual_cycle_chains() -> Tuple[F2Cochain, ...]:
    """The 11 cycle chains, once checked to be dual to the quadratic basis."""
    m = pairing_matrix()
    if m.data != [1 << i for i in range(m.cols)]:
        raise RuntimeError("pairing matrix is not the identity: cycles not dual to the basis")
    return _cycle_chains()


def _class_row(c: F2Cochain) -> int:
    """Bit r: the pairing of c with the cycle dual to quadratic basis monomial r.

    On a degree-2 cocycle this is its class: the pairing matrix M is the
    identity, so the coefficient vector x with x.M = (the pairings) is the
    pairings. Callers check that c is a cocycle.
    """
    return sum(pair(c, z) << r for r, z in enumerate(_dual_cycle_chains()))


def classes_of_cocycles(cs: Sequence[F2Cochain]) -> List[int]:
    """Classes of degree-2 cocycles as bit rows, all checked closed in one bitsliced pass."""
    for c in cs:
        if c.degree != 2 or c.cx.k != 4 or c.cx.t != 2:
            raise ValueError("expected a degree-2 cochain of the arity-4 complex")
    if not all(are_cocycles(cs)):
        raise ValueError("not a cocycle")
    return [_class_row(c) for c in cs]


def class_of_cocycle(c: F2Cochain) -> int:
    """Cohomology class of a degree-2 cocycle as a bit row over the admissible basis."""
    return classes_of_cocycles([c])[0]
