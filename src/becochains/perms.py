"""Permutations of {1..k} in one-line notation, group actions and projections."""

from __future__ import annotations

from itertools import permutations as _permutations
from typing import Iterable, Sequence, Tuple

__all__ = [
    "Perm",
    "all_perms",
    "act",
    "project",
    "block_substitute",
    "perm_from_text",
    "perm_text",
]

# A permutation is the tuple (p(1), ..., p(k)) of its one-line word.
Perm = Tuple[int, ...]

MAX_ARITY = 8


def _check(p: Perm) -> int:
    k = len(p)
    if k == 0 or k > MAX_ARITY:
        raise ValueError(f"arity must be between 1 and {MAX_ARITY}")
    if sorted(p) != list(range(1, k + 1)):
        raise ValueError(f"not a permutation word: {p}")
    return k


def all_perms(k: int) -> Tuple[Perm, ...]:
    """All permutations of arity k in lexicographic one-line order."""
    if k < 1 or k > MAX_ARITY:
        raise ValueError(f"arity must be between 1 and {MAX_ARITY}")
    return tuple(_permutations(range(1, k + 1)))


def act(g: Perm, p: Perm) -> Perm:
    """Relabel p by g: letter x becomes g(x), as in the published relabelled cycle tables."""
    if len(g) != len(p):
        raise ValueError("arity mismatch")
    return tuple(g[x - 1] for x in p)


def project(p: Perm, labels: Sequence[int]) -> Perm:
    """Order pattern of distinct labels, such as a pair or a triple, inside p.

    Scanning the word of p, each occurrence of labels[s-1] contributes the
    value s; the resulting word of arity len(labels) is the pattern.
    """
    k = len(p)
    if len(set(labels)) != len(labels) or not all(1 <= v <= k for v in labels):
        raise ValueError(f"labels must be distinct and in 1..{k}")
    slot = {v: s for s, v in enumerate(labels, 1)}
    out = tuple(slot[v] for v in p if v in slot)
    if len(out) != len(labels):
        raise ValueError(f"not a permutation word: {p}")
    return out


def block_substitute(p: Perm, i: int, q: Perm) -> Perm:
    """Replace letter i of p by the block {i..i+m-1} arranged by q; shift the rest."""
    k = len(p)
    m = len(q)
    if not (1 <= i <= k):
        raise ValueError(f"slot must be in 1..{k}")
    out = []
    for v in p:
        if v < i:
            out.append(v)
        elif v == i:
            out.extend(i - 1 + x for x in q)
        else:
            out.append(v + m - 1)
    return tuple(out)


def perm_from_text(text: str) -> Perm:
    """Parse concatenated digits, e.g. "4312"."""
    if not text or not text.isdigit():
        raise ValueError(f"not a permutation text: {text!r}")
    p = tuple(int(ch) for ch in text)
    _check(p)
    return p


def perm_text(p: Perm) -> str:
    return "".join(str(v) for v in p)


def ordered_pairs(k: int) -> Tuple[Tuple[int, int], ...]:
    """All pairs (i, j) with 1 <= i < j <= k, lexicographically."""
    return tuple((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1))


def pair_flags(p: Perm, pairs: Iterable[Tuple[int, int]]) -> int:
    """Bitmask with bit b set when pair b of `pairs` is inverted in p."""
    pos = {v: n for n, v in enumerate(p)}
    mask = 0
    for b, (i, j) in enumerate(pairs):
        if pos[i] > pos[j]:
            mask |= 1 << b
    return mask
