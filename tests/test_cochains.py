"""Normalized cochains: coboundary, cup and cup-1 products, pullbacks, pairing."""

import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from becochains.cochains import (
    F2Cochain,
    _coface_masks,
    _cup_masks,
    _image,
    _level_masks,
    ar,
    are_cocycles,
    coboundary,
    coboundary_matrix,
    cochain_text,
    cup,
    cup1,
    from_simplices,
    omega,
    pair,
    parse_cochain,
    pullback,
)
from becochains.complexes import Complex, get_complex, simplex_from_text
from becochains.gf2 import rank
from reference import boundary, faces, low_pivot_rank, mat_vec, project


def cochain(cx, text):
    return parse_cochain(cx, text)


def test_ar_is_the_distinguished_one_cochain():
    a = ar()
    assert a.degree == 1
    assert a.simplices() == [simplex_from_text("132|312")]


def test_coboundary_of_ar_display():
    cx = get_complex(3, 2)
    expected = cochain(cx, "132|312|231 + 132|312|321 + 123|132|312 + 213|132|312")
    assert coboundary(ar()) == expected


def test_quadratic_product_displays():
    cx = get_complex(3, 2)
    w12, w13, w23 = omega(3, 1, 2), omega(3, 1, 3), omega(3, 2, 3)
    assert cup(w13, w12) == cochain(cx, "123|312|321 + 132|312|321 + 132|312|231")
    assert cup(w23, w12) == cochain(cx, "123|132|321 + 123|312|321")
    assert cup(w23, w13) == cochain(cx, "123|132|312 + 123|132|321 + 213|132|312")


def test_coboundary_of_ar_is_product_sum():
    w12, w13, w23 = omega(3, 1, 2), omega(3, 1, 3), omega(3, 2, 3)
    total = cup(w13, w12) + cup(w23, w12) + cup(w23, w13)
    assert coboundary(ar()) == total


def test_pullback_display():
    cx3, cx4 = get_complex(3, 2), get_complex(4, 2)
    src = from_simplices(cx3, [simplex_from_text("312")])
    expected = cochain(cx4, "4312 + 3412 + 3142 + 3124")
    assert pullback(cx4, (1, 2, 3), src) == expected


def test_omega_supports():
    assert len(omega(3, 1, 2)) == 9
    assert len(omega(3, 1, 3)) == 9
    assert len(omega(3, 2, 3)) == 9
    for j in range(2, 5):
        for i in range(1, j):
            assert len(omega(4, i, j)) == 144


def test_omega_is_a_cocycle():
    for (k, i, j) in ((3, 1, 2), (3, 2, 3), (4, 1, 4), (4, 2, 3)):
        assert not coboundary(omega(k, i, j))


def random_cochain(rng, cx, deg, density=0.2):
    n = len(cx.index(deg))
    support = sum(1 << i for i in range(n) if rng.random() < density)
    return F2Cochain(cx, deg, support)


def test_coboundary_squares_to_zero_seeded():
    rng = random.Random(101)
    cx = get_complex(3, 2)
    for deg in (0, 1):
        for _ in range(10):
            c = random_cochain(rng, cx, deg)
            assert not coboundary(coboundary(c))
    cx4 = get_complex(4, 2)
    for _ in range(5):
        c = random_cochain(rng, cx4, 1, density=0.05)
        assert not coboundary(coboundary(c))


def test_boundary_squares_to_zero_seeded():
    rng = random.Random(55)
    cx = get_complex(3, 2)
    for deg in (2, 3):
        for _ in range(10):
            z = random_cochain(rng, cx, deg)
            assert not boundary(boundary(z.simplices()))


def test_leibniz_rule_seeded():
    rng = random.Random(77)
    cx = get_complex(3, 2)
    for p, q in ((0, 1), (1, 1), (1, 2), (0, 2)):
        for _ in range(8):
            a = random_cochain(rng, cx, p)
            b = random_cochain(rng, cx, q)
            assert coboundary(cup(a, b)) == cup(coboundary(a), b) + cup(a, coboundary(b))


def test_cup_associativity_seeded():
    rng = random.Random(13)
    cx = get_complex(3, 2)
    for _ in range(10):
        a = random_cochain(rng, cx, 1)
        b = random_cochain(rng, cx, 1)
        c = random_cochain(rng, cx, 1)
        assert cup(cup(a, b), c) == cup(a, cup(b, c))


def test_cup_unit():
    cx = get_complex(3, 2)
    one = from_simplices(cx, cx.simplices(0))
    w = omega(3, 1, 3)
    assert cup(one, w) == w
    assert cup(w, one) == w


def test_steenrod_relation_on_degree_one_cocycles():
    # d(a u1 b) = ab + ba when a, b are degree-one cocycles
    pairs = [(1, 2), (1, 3), (2, 3)]
    for a in pairs:
        for b in pairs:
            oa, ob = omega(3, *a), omega(3, *b)
            assert coboundary(cup1(oa, ob)) == cup(oa, ob) + cup(ob, oa)


def test_steenrod_relation_on_random_cocycles_seeded():
    # cocycles = spans of the omegas plus coboundaries of degree-zero cochains
    rng = random.Random(19)
    cx = get_complex(3, 2)
    gens = [omega(3, 1, 2), omega(3, 1, 3), omega(3, 2, 3)]

    def random_cocycle():
        c = F2Cochain(cx, 1)
        for g in gens:
            if rng.random() < 0.5:
                c = c + g
        c = c + coboundary(random_cochain(rng, cx, 0))
        assert not coboundary(c)
        return c

    for _ in range(10):
        a, b = random_cocycle(), random_cocycle()
        assert coboundary(cup1(a, b)) == cup(a, b) + cup(b, a)


def test_pairing_adjunction_seeded():
    rng = random.Random(23)
    cx = get_complex(3, 2)
    for deg in (0, 1, 2):
        for _ in range(10):
            c = random_cochain(rng, cx, deg)
            z = random_cochain(rng, cx, deg + 1)
            assert pair(coboundary(c), z) == len(set(c.simplices()) & boundary(z.simplices())) & 1


def reference_coboundary(c):
    """Support of dc, face by face from the reference faces and index_of."""
    cx = c.cx
    out = 0
    for s_idx, s in enumerate(cx.simplices(c.degree + 1)):
        hits = sum(c.support >> cx.index_of(f) & 1 for _, f in faces(s) if f is not None)
        out |= (hits & 1) << s_idx
    return out


def reference_cup(a, b):
    """Support of a u b, from the front and back slices of every simplex."""
    cx, p, q = a.cx, a.degree, b.degree
    out = 0
    for s_idx, s in enumerate(cx.simplices(p + q)):
        if a.support >> cx.index_of(s[:p + 1]) & 1 and b.support >> cx.index_of(s[p:]) & 1:
            out |= 1 << s_idx
    return out


# At t = 3 some faces degenerate: (3,3) has degenerate faces in degrees 2 to 6.
@pytest.mark.parametrize("k, t", [(3, 2), (4, 2), (3, 3)])
def test_coboundary_and_cup_match_pointwise_references_seeded(k, t):
    rng = random.Random(600 + k if t == 2 else 600 + 10 * k + t)
    cx = get_complex(k, t)
    for deg in range(cx.top_degree):
        for density in (0.05, 0.5):
            c = random_cochain(rng, cx, deg, density)
            assert coboundary(c).support == reference_coboundary(c), (deg, density)
    for p, q in ((0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1)):
        for density in (0.1, 0.6):
            a, b = random_cochain(rng, cx, p, density), random_cochain(rng, cx, q, density)
            assert cup(a, b).support == reference_cup(a, b), (p, q, density)


def test_cup_images_of_both_factors_match_pointwise_references_seeded():
    """Bit s of an image is the cochain's value on the front or back face of simplex s."""
    rng = random.Random(642)
    cx = get_complex(4, 2)
    for p, q in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (0, 3)):
        target = cx.simplices(p + q)
        for density in (0.1, 0.6):
            a, b = random_cochain(rng, cx, p, density), random_cochain(rng, cx, q, density)
            front, back = _image(a, p, q, 0), _image(b, p, q, 1)
            assert front >> len(target) == 0 and back >> len(target) == 0
            for s_idx, s in enumerate(target):
                assert front >> s_idx & 1 == a.support >> cx.index_of(s[:p + 1]) & 1
                assert back >> s_idx & 1 == b.support >> cx.index_of(s[p:]) & 1


def edge_supports(cx, deg):
    """The zero support, the highest simplex alone (bit n - 1), and every simplex."""
    n = len(cx.index(deg))
    return 0, 1 << (n - 1), (1 << n) - 1


@pytest.mark.parametrize("k, t", [(3, 2), (4, 2), (3, 3)])
def test_mask_selection_at_the_edge_supports(k, t):
    """The byte view of a support selects no mask, only the last one, or all of them."""
    cx = get_complex(k, t)
    for deg in range(cx.top_degree):
        for support in edge_supports(cx, deg):
            c = F2Cochain(cx, deg, support)
            assert coboundary(c).support == reference_coboundary(c), (deg, support)
    for p, q in ((0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 1)):
        target = cx.simplices(p + q)
        for sa in edge_supports(cx, p):
            a = F2Cochain(cx, p, sa)
            front = _image(a, p, q, 0)
            assert front == sum(
                (sa >> cx.index_of(s[:p + 1]) & 1) << s_idx for s_idx, s in enumerate(target)
            ), (p, q, sa)
            for sb in edge_supports(cx, q):
                b = F2Cochain(cx, q, sb)
                assert cup(a, b).support == reference_cup(a, b), (p, q, sa, sb)
        for sb in edge_supports(cx, q):
            b = F2Cochain(cx, q, sb)
            assert _image(b, p, q, 1) == sum(
                (sb >> cx.index_of(s[p:]) & 1) << s_idx for s_idx, s in enumerate(target)
            ), (p, q, sb)


def mixed_batch(rng, cx, deg, size):
    """size cochains of degree deg, each a cocycle or a random cochain, picked at random.

    The cocycles are coboundaries of random cochains, or in degree 0 the zero
    cochain and the sum of all vertices, so the expected answers vary inside a byte lane.
    """
    n = len(cx.index(deg))
    out = []
    for _ in range(size):
        if rng.random() < 0.5:
            out.append(random_cochain(rng, cx, deg, rng.choice((0.01, 0.5))))
        elif deg:
            out.append(coboundary(random_cochain(rng, cx, deg - 1, rng.choice((0.01, 0.5)))))
        else:
            out.append(F2Cochain(cx, 0, rng.choice((0, (1 << n) - 1))))
    return out


# Batches of 1, 7, 8 and 9 cochains fill one byte lane or spill into a second; 90
# is the count of obstruct's error cocycles. The top degree has no cofaces.
@pytest.mark.parametrize("k, t", [(3, 2), (4, 2), (3, 3)])
def test_are_cocycles_matches_coboundary_seeded(k, t):
    rng = random.Random(2800 + 10 * k + t)
    cx = get_complex(k, t)
    for deg in range(cx.top_degree + 1):
        for size in (1, 7, 8, 9, 90):
            batch = mixed_batch(rng, cx, deg, size)
            expected = [not coboundary(c) for c in batch]
            assert are_cocycles(batch) == expected, (deg, size)
            if deg < cx.top_degree and size == 90:
                assert any(expected) and not all(expected), deg


def test_are_cocycles_of_an_empty_batch_is_empty():
    assert are_cocycles([]) == []


def test_are_cocycles_far_above_the_top_degree():
    """Degree 10**5 of (3, 2) has 10**5 + 2 empty face columns above it: no C stack overflow.

    A child process, so that an overflow fails this test alone; the batch caches nothing.
    """
    code = ("from becochains.cochains import F2Cochain, _coface_masks, are_cocycles\n"
            "from becochains.complexes import Complex\n"
            "cx = Complex(3, 2)\n"
            "tables, masks = dict(cx._tables), _coface_masks.cache_info().currsize\n"
            "print(are_cocycles([F2Cochain(cx, 10 ** 5)] * 9))\n"
            "print(cx._tables == tables and _coface_masks.cache_info().currsize == masks)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, f"{[True] * 9}\nTrue\n"), proc.stderr


def test_zero_cochains_above_the_top_degree_cache_nothing():
    """Their coboundaries, cups (as either factor) and pullbacks read no table.

    No code array, no coface masks, no cup masks and no level masks.
    """
    cx, src = Complex(3, 2), Complex(2, 2)
    a = parse_cochain(cx, "132|312")
    tables, masks = dict(cx._tables), _coface_masks.cache_info().currsize
    cups, levels = _cup_masks.cache_info().currsize, _level_masks.cache_info().currsize
    for deg in range(cx.top_degree + 1, cx.top_degree + 2001):
        zero = F2Cochain(cx, deg)
        assert coboundary(zero) == F2Cochain(cx, deg + 1)
        assert cup(a, zero) == cup(zero, a) == F2Cochain(cx, deg + 1)
    for deg in range(cx.top_degree + 1, cx.top_degree + 1001):
        assert pullback(cx, (1, 2), F2Cochain(src, deg)) == F2Cochain(cx, deg)
    assert cx._tables == tables and _coface_masks.cache_info().currsize == masks
    assert _cup_masks.cache_info().currsize == cups
    assert _level_masks.cache_info().currsize == levels
    assert cx.index(10 ** 5) is cx.index(cx.top_degree + 1)


def test_cup_images_are_memoized_per_side_and_partner_degree_seeded():
    """One cochain as the front factor against degrees 0, 1 and 2 and as the back factor, interleaved."""
    rng = random.Random(3001)
    cx = get_complex(4, 2)
    a = random_cochain(rng, cx, 1, 0.3)
    partners = [random_cochain(rng, cx, d, 0.3) for d in (1, 2, 0, 1, 2)]
    before = _image.cache_info()
    for b in partners:
        assert cup(a, b).support == reference_cup(a, b), b.degree
        assert cup(b, a).support == reference_cup(b, a), b.degree
    first = _image.cache_info()
    # The six (partner degree, side) images of a, each formed once, and two of each partner.
    assert first.misses - before.misses == 6 + 2 * len(partners)
    for b in partners:
        assert cup(a, b).support == reference_cup(a, b), b.degree
        assert cup(b, a).support == reference_cup(b, a), b.degree
    again = _image.cache_info()
    assert again.misses == first.misses and again.hits - first.hits == 4 * len(partners)
    for key in [(1, d, 0) for d in (0, 1, 2)] + [(d, 1, 1) for d in (0, 1, 2)]:
        _image(a, *key)
    assert _image.cache_info().misses == again.misses


def test_a_repeated_cup_asks_no_mask_table():
    """The second cup reads both images off its factors, before _cup_masks is asked."""
    rng = random.Random(3002)
    cx = get_complex(4, 2)
    a, b = random_cochain(rng, cx, 1, 0.3), random_cochain(rng, cx, 1, 0.3)
    first = cup(a, b)
    before = _cup_masks.cache_info()
    assert cup(a, b) == first
    after = _cup_masks.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_memoized_images_leave_equality_and_hash_alone():
    """Equal cochains in distinct objects share one cached image; a second complex gets its own."""
    a, b = omega(4, 1, 2), omega(4, 2, 3)
    cup(a, b), cup(b, a)
    same = F2Cochain(a.cx, a.degree, a.support)
    other = F2Cochain(Complex(4, 2), a.degree, a.support)
    before = _image.cache_info()
    assert _image(same, 1, 1, 0) == _image(a, 1, 1, 0)
    shared = _image.cache_info()
    assert shared.misses == before.misses and shared.hits == before.hits + 2
    assert _image(other, 1, 1, 0) == _image(a, 1, 1, 0)
    assert _image.cache_info().misses == shared.misses + 1
    assert a == same and hash(a) == hash(same) and {same: 1}[a] == 1
    assert a != other and other != same


def reference_pullback(target, tag, c):
    """Support of the pullback: the target simplices whose levelwise image lies in c."""
    support = set(c.simplices())
    image = {p: project(p, tag) for p in permutations(range(1, target.k + 1))}
    out = 0
    for s_idx, s in enumerate(target.simplices(c.degree)):
        if tuple(map(image.__getitem__, s)) in support:
            out |= 1 << s_idx
    return out


@pytest.mark.parametrize("t, top", [(2, 6), (3, 2)])
def test_pullback_matches_pointwise_reference_seeded(t, top):
    """Every degree into (4, 2); degrees 0-2 into (4, 3)."""
    rng = random.Random(900 + t)
    target = Complex(4, t)
    sources = {2: Complex(2, t), 3: Complex(3, t)}
    tags = {2: ((1, 2), (4, 1), (2, 3)), 3: ((1, 2, 3), (4, 2, 1), (2, 4, 3))}
    for k, src in sources.items():
        for deg in range(top + 1):
            for tag in tags[k]:
                for density in (0.1, 0.6):
                    c = random_cochain(rng, src, deg, density)
                    got = pullback(target, tag, c)
                    assert (got.cx, got.degree) == (target, deg)
                    assert got.support == reference_pullback(target, tag, c), (k, deg, tag, density)


def test_pullback_rejects_bad_tags_and_sources():
    cx2, cx4 = get_complex(2, 2), get_complex(4, 2)
    c2, c3 = omega(2, 1, 2), ar()
    # A tag is checked even when the target table is empty.
    empty = F2Cochain(cx2, cx4.top_degree + 1)
    for tag, c in (((1, 1), c2), ((2, 5), c2), ((1, 2, 1), c3), ((1, 2, 5), c3),
                   ((0, 1), empty), ((1, 2, 3, 4), c3)):
        with pytest.raises(ValueError):
            pullback(cx4, tag, c)
    # a tag of four labels is refused even with a source of arity 4
    with pytest.raises(ValueError, match="pair or a triple"):
        pullback(cx4, (1, 2, 3, 4), omega(4, 1, 2))
    with pytest.raises(ValueError, match="arity 2"):
        pullback(cx4, (1, 2), c3)
    with pytest.raises(ValueError, match="arity 3"):
        pullback(cx4, (1, 2, 3), c2)
    with pytest.raises(ValueError, match="complexity"):
        pullback(get_complex(4, 3), (1, 2, 3), c3)
    # A zero source is checked as fully as any other.
    with pytest.raises(ValueError, match="arity 3"):
        pullback(cx4, (1, 2, 3), empty)
    with pytest.raises(ValueError, match="complexity"):
        pullback(get_complex(4, 3), (1, 2), empty)
    assert not pullback(cx4, (1, 2), empty)


def test_constructor_takes_int_supports_only():
    cx = get_complex(3, 2)
    assert F2Cochain(cx, 1, 0b101).simplices() == [cx.simplex(1, 0), cx.simplex(1, 2)]
    assert len(F2Cochain(cx, 1, 0b1011)) == 3
    with pytest.raises(TypeError):
        F2Cochain(cx, 1, [0, 2])


def test_constructor_rejects_a_negative_support():
    cx = get_complex(3, 2)
    for support in (-1, -(1 << 40)):
        with pytest.raises(ValueError):
            F2Cochain(cx, 1, support)


def test_constructor_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="degree must be non-negative"):
        F2Cochain(get_complex(3, 2), -1)


def test_constructor_rejects_bits_past_the_table():
    cx = get_complex(3, 2)
    n = len(cx.index(1))
    assert len(F2Cochain(cx, 1, 1 << (n - 1))) == 1
    for support in (1 << n, (1 << (n + 5)) | 1):
        with pytest.raises(ValueError):
            F2Cochain(cx, 1, support)
    # nothing lives above the top degree
    with pytest.raises(ValueError):
        F2Cochain(cx, cx.top_degree + 1, 1)


def test_zero_support_builds_no_table():
    cx = Complex(4, 3)
    assert not F2Cochain(cx, 5, 0)
    assert cx._built_to == 0


def test_coboundary_matrix_matches_pointwise():
    cx = get_complex(3, 2)
    m = coboundary_matrix(cx, 1)
    assert (m.rows, m.cols) == (36, 30)
    a = ar()
    x = a.support
    dc = coboundary(a)
    assert mat_vec(m.data, x) == dc.support


@pytest.mark.parametrize("k, t", [(3, 2), (4, 2), (3, 3)])
def test_cup_at_top_degree_is_zero(k, t):
    """Nothing lives above the top degree: coboundaries and products into it vanish."""
    cx = get_complex(k, t)
    top = cx.top_degree
    full = F2Cochain(cx, top, (1 << len(cx.index(top))) - 1)
    edges = F2Cochain(cx, 1, (1 << len(cx.index(1))) - 1)
    assert coboundary(full) == F2Cochain(cx, top + 1)
    assert coboundary(F2Cochain(cx, top + 1)) == F2Cochain(cx, top + 2)
    assert cup(full, edges) == cup(edges, full) == F2Cochain(cx, top + 1)


def test_cochain_text_roundtrip():
    cx = get_complex(3, 2)
    text = "123|132|312 + 213|132|312"
    assert cochain_text(parse_cochain(cx, text)) == text


def test_repeated_simplices_cancel():
    cx = get_complex(3, 2)
    a, b = "132|312", "123|321"
    assert parse_cochain(cx, f"{a} + {a}", 1) == F2Cochain(cx, 1)
    assert parse_cochain(cx, f"{a} + {b} + {a}", 1) == parse_cochain(cx, b)


def test_simplex_outside_the_table_is_a_value_error():
    cx = get_complex(2, 2)
    # 12|21|12 swaps the labels twice, past the complexity-2 budget.
    for text in ("12|21|12", "12|12", "123"):
        with pytest.raises(ValueError, match="not in the table"):
            parse_cochain(cx, text)
        with pytest.raises(ValueError, match="not in the table"):
            from_simplices(cx, [simplex_from_text(text)])


def test_mismatched_ambient_raises():
    with pytest.raises(ValueError):
        omega(3, 1, 2) + omega(4, 1, 2)


def poincare_polynomial(k, t):
    """Coefficients of prod_{j<k} (1 + j x^(t-1)), padded to the top degree."""
    coeffs = [1]
    for j in range(1, k):
        shifted = [0] * (t - 1) + [j * c for c in coeffs]
        coeffs = [a + b for a, b in zip(coeffs + [0] * (t - 1), shifted)]
    top = (t - 1) * k * (k - 1) // 2
    return coeffs + [0] * (top + 1 - len(coeffs))


def test_betti_numbers_by_rank():
    """Every mod-2 Betti number from coboundary ranks matches the configuration space."""
    found = {}
    for k, t in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        cx = get_complex(k, t)
        expected = poincare_polynomial(k, t)
        ranks = [rank(coboundary_matrix(cx, d)) for d in range(len(expected))]
        found[k, t] = [
            len(cx.index(d)) - ranks[d] - (ranks[d - 1] if d else 0)
            for d in range(len(expected))
        ]
        assert found[k, t] == expected, (k, t)
    # the quadratic cohomology of four points in the plane
    assert found[4, 2][2] == 11
    assert found[4, 2] == [1, 6, 11, 6, 0, 0, 0]
    assert found[3, 3] == [1, 0, 3, 0, 2, 0, 0]


@pytest.mark.parametrize("k,t", [(4, 2), (3, 3)])
def test_coboundary_ranks_match_the_low_pivot_rule(k, t):
    cx = get_complex(k, t)
    for d in range(len(poincare_polynomial(k, t))):
        m = coboundary_matrix(cx, d)
        assert rank(m) == low_pivot_rank(m.data), d


def test_betti_numbers_of_five_points_in_the_plane_through_degree_one():
    """b0 and b1 of (5,2) from the 199200 x 14280 degree-1 coboundary rank."""
    cx = Complex(5, 2)  # not the shared cache: the degree-2 table is large
    expected = poincare_polynomial(5, 2)
    ranks = [rank(coboundary_matrix(cx, d)) for d in (0, 1)]
    assert ranks == [119, 14151]
    assert len(cx.index(0)) - ranks[0] == expected[0] == 1
    assert len(cx.index(1)) - ranks[1] - ranks[0] == expected[1] == 10
