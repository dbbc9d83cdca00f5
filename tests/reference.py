"""Reference implementations the tests compare the package against.

Each works on raw tuples, ints and frozensets (apply reads only the fields
of a map) and is written out from its definition, sharing no code with what
the tests check: no package function is called here. Both normalizing
oracles rewrite the leftmost bad spot from a worklist, where the package
recurses (Arnold) or multiplies by one generator at a time (Yang-Baxter).
arnold_mult extends the Arnold one bilinearly, and yb_splits reads the
coproduct splits off the Yang-Baxter one.

The one exception is yb_normalize, the fold of the package's right
multiplication by one generator (algebras._yb_times) over a raw word: the
tests hold it against yb_worklist_normalize, so that step is what they check.
"""

from collections import defaultdict
from functools import lru_cache, reduce
from itertools import permutations, product
from math import factorial
from operator import xor

from becochains.algebras import _yb_times

# Permutations are one-line words (p(1), ..., p(k)); simplices are tuples of them.


def identity(k):
    return tuple(range(1, k + 1))


def compose(p, q):
    """(p.q)(x) = p(q(x))."""
    return tuple(p[x - 1] for x in q)


def inverse(p):
    out = [0] * len(p)
    for pos, v in enumerate(p, start=1):
        out[v - 1] = pos
    return tuple(out)


def mat_vec(rows, x):
    """Product of the GF(2) matrix with int rows (bit j = column j) and the int vector x."""
    y = 0
    for i, r in enumerate(rows):
        parity = 0
        for j in range(r.bit_length()):
            parity ^= (r >> j) & (x >> j) & 1
        y |= parity << i
    return y


def low_pivot_rank(vectors):
    """GF(2) rank by elimination on the lowest set bit, the opposite pivot rule to gf2's."""
    pivots = {}
    for v in vectors:
        while v and (v & -v) in pivots:
            v ^= pivots[v & -v]
        if v:
            pivots[v & -v] = v
    return len(pivots)


def swap_count(s, i, j):
    """Number of adjacent levels across which labels i and j change order."""
    before = [level.index(i) < level.index(j) for level in s]
    return sum(a != b for a, b in zip(before, before[1:]))


def in_filtration(s, t):
    """True when every pair of labels changes order at most t-1 times along s."""
    k = len(s[0])
    return all(swap_count(s, i, j) <= t - 1 for i in range(1, k + 1) for j in range(i + 1, k + 1))


def project(p, tag):
    """The pattern of the tag's labels in the word of p: label tag[s] reads s + 1.

    The other labels are dropped, so a pair tag (i, j) gives 12 when i comes
    before j and 21 otherwise.
    """
    slot = {label: s for s, label in enumerate(tag, start=1)}
    return tuple(slot[v] for v in p if v in slot)


def faces(s):
    """All codimension-1 faces (position, face), None marking a degenerate face."""
    out = []
    for m in range(len(s)):
        face = s[:m] + s[m + 1:]
        degenerate = any(a == b for a, b in zip(face, face[1:]))
        out.append((m, None if degenerate else face))
    return out


def boundary(chain):
    """Sum over GF(2) of the nondegenerate faces of every simplex of a raw chain."""
    out = set()
    for s in chain:
        for _, face in faces(s):
            if face is not None:
                out ^= {face}
    return frozenset(out)


def arnold_worklist_normalize(raw):
    """Admissible Arnold expansion by a worklist, not by recursion.

    Pairs are ordered by second index, a squared generator kills the
    monomial, and the leftmost equal second indices split into two words; a
    word reached twice cancels. Pairs are normalized here, with no package code.
    """
    if any(a == b for a, b in raw):
        raise ValueError("generator indices must be distinct")
    start = tuple(sorted(((min(a, b), max(a, b)) for a, b in raw), key=lambda p: (p[1], p[0])))
    acc = set()
    pending = {start}
    steps = 0
    while pending:
        steps += 1
        if steps > 10 ** 6:
            raise RuntimeError("rewriting did not terminate within the step bound")
        word = pending.pop()
        if len(set(word)) != len(word):
            continue  # a squared generator kills the monomial
        m = next(
            (m for m in range(len(word) - 1) if word[m][1] == word[m + 1][1]),
            None,
        )
        if m is None:
            acc ^= {word}
            continue
        (i1, j), (i2, _) = word[m], word[m + 1]
        rest = word[:m] + word[m + 2:]
        for repl in (((i1, i2), (i2, j)), ((i1, i2), (i1, j))):
            new = tuple(sorted(rest + repl, key=lambda p: (p[1], p[0])))
            pending ^= {new}
    return frozenset(acc)


def arnold_mult(x, y):
    """Bilinear product of two sets of admissible Arnold monomials."""
    acc = set()
    for a in x:
        for b in y:
            acc ^= arnold_worklist_normalize(a + b)
    return frozenset(acc)


def yb_worklist_normalize(raw):
    """Admissible Yang-Baxter expansion by a worklist, not by recursion.

    The leftmost descent of the smallest pending word is rewritten; a word
    reached twice cancels. Pairs are ordered here, with no package code.
    """
    if any(a == b for a, b in raw):
        raise ValueError("generator indices must be distinct")
    start = tuple((min(a, b), max(a, b)) for a, b in raw)
    acc = set()
    pending = {start}
    steps = 0
    while pending:
        steps += 1
        if steps > 10 ** 6:
            raise RuntimeError("rewriting did not terminate within the step bound")
        word = min(pending)
        pending.discard(word)
        m = next(
            (m for m in range(len(word) - 1) if word[m][1] > word[m + 1][1]),
            None,
        )
        if m is None:
            acc ^= {word}
            continue
        (i, j), (u, v) = word[m], word[m + 1]
        head, tail = word[:m], word[m + 2:]
        repls = [((u, v), (i, j))]
        if {i, j} & {u, v}:
            repls.append(((u, j), (v, j)))
            repls.append((((v, j), (u, j))))
        for repl in repls:
            pending ^= {head + repl + tail}
    return frozenset(acc)


def yb_normalize(raw):
    """Admissible Yang-Baxter expansion of a raw word, from the empty word by
    right multiplication with one generator at a time."""
    if any(a == b for a, b in raw):
        raise ValueError("generator indices must be distinct")
    acc = {()}
    for a, b in raw:
        g = (min(a, b), max(a, b))
        acc = reduce(xor, (_yb_times(x, g) for x in acc), set())
    return frozenset(acc)


def is_admissible_arnold(word):
    """Generators (i, j) with i < j and strictly increasing second indices."""
    return all(i < j for i, j in word) and all(a[1] < b[1] for a, b in zip(word, word[1:]))


def is_admissible_yb(word):
    """Generators (i, j) with i < j and non-decreasing second indices."""
    return all(i < j for i, j in word) and all(a[1] <= b[1] for a, b in zip(word, word[1:]))


@lru_cache(maxsize=None)
def admissible_words(k, length, admissible):
    """Every admissible word of the given length on k labels, lexicographically."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return tuple(sorted(w for w in product(pairs, repeat=length) if admissible(w)))


@lru_cache(maxsize=None)
def yb_splits(k, lu, lv):
    """For each admissible word w of length lu + lv, the pairs (u, v) of admissible
    words of lengths lu and lv whose product u . v holds w, by the worklist normalizer."""
    out = defaultdict(set)
    for u in admissible_words(k, lu, is_admissible_yb):
        for v in admissible_words(k, lv, is_admissible_yb):
            for w in yb_worklist_normalize(u + v):
                out[w].add((u, v))
    return {w: frozenset(pairs) for w, pairs in out.items()}


def apply(h, w):
    """The monomials of h(w) for a map h from a W level to an Arnold degree.

    Row r of h is the r-th admissible Yang-Baxter word of length level + 1,
    and bit c of a row is the c-th admissible Arnold monomial of degree qdeg.
    """
    words = admissible_words(h.k, h.level + 1, is_admissible_yb)
    monomials = admissible_words(h.k, h.qdeg, is_admissible_arnold)
    row = h.rows[words.index(w)]
    return frozenset(m for c, m in enumerate(monomials) if row >> c & 1)


def is_two_block_cycle(chain):
    """Two fixed pairs of labels, one per position block, one block swapping per step."""
    sims = list(chain)
    if not sims:
        return False
    first = sims[0][0]
    s1, s2 = frozenset(first[:2]), frozenset(first[2:])
    for s in sims:
        for level in s:
            if frozenset(level[:2]) != s1 or frozenset(level[2:]) != s2:
                return False
        for u, v in zip(s, s[1:]):
            if (u[:2] != v[:2]) + (u[2:] != v[2:]) != 1:
                return False
    return True


def _triple_step_ok(u, v):
    """One step of the satellite block: an adjacent swap or a full rotation."""
    u, v = tuple(u), tuple(v)
    return v in ((u[1], u[0], u[2]), (u[0], u[2], u[1]), (u[1], u[2], u[0]), (u[2], u[0], u[1]))


def is_satellite_cycle(chain):
    """One label parked last everywhere; the other three move by swaps and jumps."""
    sims = list(chain)
    if not sims:
        return False
    parked = sims[0][0][-1]
    for s in sims:
        if any(level[-1] != parked for level in s):
            return False
        if not all(_triple_step_ok(u[:3], v[:3]) for u, v in zip(s, s[1:])):
            return False
    return True


def weak_order_counts(k, max_degree):
    """Simplex counts per degree 0..max_degree of the t = 2 complex on k labels.

    At t = 2 each label pair changes order at most once, so along a string
    starting at the identity the set of inverted pairs grows strictly at
    every level: the strings are the strict chains from the empty set among
    the inversion sets of S_k under inclusion. Relabelling carries them onto
    the strings from each of the k! starting levels.
    """
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    inversion_sets = [
        frozenset((i, j) for i, j in pairs if p.index(i) > p.index(j))
        for p in permutations(range(1, k + 1))
    ]
    ends = {frozenset(): 1}
    counts = [1]
    for _ in range(max_degree):
        longer = defaultdict(int)
        for top, n in ends.items():
            for inv in inversion_sets:
                if top < inv:
                    longer[inv] += n
        ends = longer
        counts.append(sum(ends.values()))
    return [factorial(k) * c for c in counts]


@lru_cache(maxsize=None)
def _walker_levels(k):
    """Every level of arity k lexicographically, with its mask of inverted label pairs."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    levels = list(permutations(range(1, k + 1)))
    return pairs, [sum(1 << b for b, (i, j) in enumerate(pairs) if p.index(i) > p.index(j))
                   for p in levels]


def walker_step(k, t, key):
    """The levels that may follow a string with this key, and the keys of the longer strings.

    The key holds the index of the last level in its low `bits` bits, then
    for i = 1..t-1 a field of one bit per label pair, set when that pair has
    changed order at least i times. Every candidate level is tried in turn,
    and the field updates of each are recomputed from the pair masks.
    """
    pairs, flags = _walker_levels(k)
    bits = max(1, (len(flags) - 1).bit_length())
    width = len(pairs)
    top = width * (t - 2) + bits  # the lowest bit of field t-1: pairs out of budget
    rep = sum(1 << (width * i + bits) for i in range(t - 1))
    ones = ((1 << width) - 1) << bits
    fields = key >> bits << bits
    here, most = flags[key ^ fields], key >> top
    # A pair that had changed order i-1 times and changes now has changed i times.
    carry = (fields << width) | ones
    nexts, keys = [], []
    for nxt, there in enumerate(flags):
        changed = there ^ here
        if changed and not changed & most:
            nexts.append(nxt)
            keys.append(fields | (carry & changed * rep) | nxt)
    return nexts, keys
