"""Quadratic algebras in admissible bases, coproducts, and the convolution differential."""

import re
from itertools import product

import pytest

from becochains.algebras import (
    HomWH,
    arnold_basis,
    arnold_normalize,
    convolution,
    coproduct,
    coproduct_component,
    d_w1,
    hochschild_d,
    parse_word,
    tau,
    w_basis,
    word_text,
    yb_basis,
)
from reference import (
    admissible_words,
    apply,
    arnold_mult,
    arnold_worklist_normalize,
    is_admissible_arnold,
    is_admissible_yb,
    yb_normalize,
    yb_splits,
    yb_worklist_normalize,
)


def words(text):
    """Parse 'B12.B23 + B13.B23' into a frozenset of words."""
    if text == "0":
        return frozenset()
    return frozenset(parse_word(part.strip())[1] for part in text.split("+"))


def test_arnold_squares_vanish():
    assert arnold_normalize(((1, 2), (1, 2))) == frozenset()
    assert arnold_normalize(((1, 3), (2, 3), (1, 3))) == frozenset()


def test_arnold_three_term_anchor():
    assert arnold_normalize(((1, 3), (2, 3))) == words("A12.A23 + A12.A13")


def test_arnold_commutativity():
    a = arnold_normalize(((1, 2), (3, 4), (1, 3)))
    b = arnold_normalize(((1, 3), (1, 2), (3, 4)))
    assert a == b


def test_arnold_normalize_is_admissible():
    for raw in product(((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)), repeat=2):
        for w in arnold_normalize(raw):
            assert is_admissible_arnold(w)


def test_arnold_mult_matches_normalize():
    x = words("A13.A24")
    y = words("A12")
    prod = arnold_mult(x, y)
    assert prod == arnold_normalize(((1, 3), (2, 4), (1, 2)))


def test_arnold_associativity_quadratic():
    gens = [((i, j),) for j in range(2, 5) for i in range(1, j)]
    for a, b, c in product(gens, repeat=3):
        left = arnold_mult(arnold_mult({a}, {b}), {c})
        right = arnold_mult({a}, arnold_mult({b}, {c}))
        assert left == right


def test_arnold_normalize_matches_the_worklist_oracle_on_basis_products():
    """Every product of two basis monomials of total length at most 3, at k = 4 and 5."""
    products = [u + v for k in (4, 5) for p in range(4) for q in range(4 - p)
                for u in arnold_basis(k, p) for v in arnold_basis(k, q)]
    assert len(products) == 1206
    for w in products:
        assert arnold_normalize(w) == arnold_worklist_normalize(w), w


def test_arnold_normalize_matches_the_worklist_oracle_on_raw_words():
    """Unordered pairs, the squares of the k = 5 basis, and every k = 5 generator triple."""
    gens = [(i, j) for j in range(2, 6) for i in range(1, j)]
    raws = [((2, 3), (1, 3)), ((3, 1), (2, 1)), ((4, 3), (2, 4), (1, 2), (1, 3)),
            ((5, 1), (3, 5), (2, 5), (4, 5)), ()]
    raws += [w + w for length in range(5) for w in arnold_basis(5, length)]
    raws += list(product(gens, repeat=3))
    for raw in raws:
        assert arnold_normalize(raw) == arnold_worklist_normalize(raw), raw
    for bad in (((1, 1),), ((1, 2), (3, 3))):
        with pytest.raises(ValueError):
            arnold_normalize(bad)
        with pytest.raises(ValueError):
            arnold_worklist_normalize(bad)


def poincare_dims_arnold(k, length):
    """Coefficient of x^length in prod_m (1 + m x) for m = 1..k-1."""
    coeffs = [1]
    for m in range(1, k):
        coeffs = [
            (coeffs[d] if d < len(coeffs) else 0)
            + (m * coeffs[d - 1] if d - 1 >= 0 else 0)
            for d in range(len(coeffs) + 1)
        ]
    return coeffs[length] if length < len(coeffs) else 0


def poincare_dims_yb(k, length):
    """Coefficient of x^length in prod_m 1 / (1 - m x) for m = 1..k-1."""
    coeffs = [1] + [0] * length
    for m in range(1, k):
        for d in range(1, length + 1):
            coeffs[d] += m * coeffs[d - 1]
    return coeffs[length]


def test_dims_against_closed_forms():
    for k in (3, 4, 5):
        for length in range(5):
            assert len(arnold_basis(k, length)) == poincare_dims_arnold(k, length)
            assert len(yb_basis(k, length)) == poincare_dims_yb(k, length)
    # The order too: the rows and columns of every table and report follow it.
    for k in (2, 3, 4, 5):
        for length in range(4):
            assert arnold_basis(k, length) == admissible_words(k, length, is_admissible_arnold)
            assert yb_basis(k, length) == admissible_words(k, length, is_admissible_yb)


def test_basis_lengths_match_dims():
    assert len(arnold_basis(4, 2)) == 11
    assert len(yb_basis(4, 2)) == 25
    assert len(yb_basis(4, 3)) == 90
    assert len(yb_basis(4, 4)) == 301
    assert all(is_admissible_yb(w) for w in yb_basis(4, 3))
    assert all(is_admissible_arnold(w) for w in arnold_basis(4, 2))


def test_yb_quadratic_anchor():
    assert yb_normalize(((1, 3), (1, 2))) == words("B12.B13 + B13.B23 + B23.B13")


def test_yb_cubic_anchor():
    got = yb_normalize(((1, 2), (2, 4), (2, 3)))
    assert got == words("B12.B23.B24 + B12.B24.B34 + B12.B34.B24")


def test_yb_disjoint_factors_commute():
    assert yb_normalize(((3, 4), (1, 2))) == words("B12.B34")


def test_yb_admissible_words_are_fixed():
    for w in yb_basis(4, 2):
        assert yb_normalize(w) == frozenset({w})


def test_yb_confluence_all_triples():
    """Associativity of the normalized product over all 216 generator triples."""
    gens = [(i, j) for j in range(2, 5) for i in range(1, j)]
    for a, b, c in product(gens, repeat=3):
        ab_c = frozenset()
        for w in yb_normalize((a, b)):
            ab_c = ab_c ^ yb_normalize(w + (c,))
        a_bc = frozenset()
        for w in yb_normalize((b, c)):
            a_bc = a_bc ^ yb_normalize((a,) + w)
        flat = yb_normalize((a, b, c))
        assert ab_c == a_bc == flat


def test_yb_normalize_matches_the_worklist_oracle_on_every_split_product():
    """All 1416 products u.v behind the split tables that certify reads."""
    products = [u + v for lu, lv in ((2, 1), (1, 2), (1, 1), (3, 1), (1, 3))
                for u in yb_basis(4, lu) for v in yb_basis(4, lv)]
    assert len(products) == 1416
    for w in products:
        assert yb_normalize(w) == yb_worklist_normalize(w), w


def test_yb_normalize_matches_the_worklist_oracle_on_raw_words():
    """The anchors, unordered pairs, and every product of two or three generators (k = 4 and 5)."""
    gens = [(i, j) for j in range(2, 5) for i in range(1, j)]
    raws = [((1, 3), (1, 2)), ((1, 2), (2, 4), (2, 3)), ((3, 4), (1, 2)), ((3, 1), (2, 1)),
            ((4, 3), (2, 4), (1, 2), (1, 3)), ()]
    raws += list(product(gens, repeat=2)) + list(product(gens, repeat=3))
    gens5 = [(i, j) for j in range(2, 6) for i in range(1, j)]
    raws += list(product(gens5, repeat=3))
    for raw in raws:
        assert yb_normalize(raw) == yb_worklist_normalize(raw), raw
    for bad in (((1, 1),), ((1, 2), (3, 3))):
        with pytest.raises(ValueError):
            yb_normalize(bad)
        with pytest.raises(ValueError):
            yb_worklist_normalize(bad)


COPRODUCT_DISPLAYS = {
    "B12.B23.B13": [
        ("B12.B13", "B12"), ("B12.B23", "B12"), ("B23.B13", "B12"),
        ("B12.B23", "B13"), ("B23", "B12.B13"), ("B12", "B23.B13"),
    ],
    "B12.B24.B14": [
        ("B12.B14", "B12"), ("B12.B24", "B12"), ("B24.B14", "B12"),
        ("B12.B24", "B14"), ("B24", "B12.B14"), ("B12", "B24.B14"),
    ],
    "B12.B34.B24": [
        ("B34.B24", "B12"), ("B12.B24", "B23"), ("B12.B34", "B23"),
        ("B12.B34", "B24"), ("B24", "B12.B23"), ("B34", "B12.B23"),
        ("B34", "B12.B24"), ("B12", "B34.B24"),
    ],
    "B23.B13.B24": [
        ("B13.B24", "B12"), ("B23.B24", "B12"), ("B23.B24", "B13"),
        ("B23.B13", "B24"), ("B13", "B12.B24"), ("B23", "B12.B24"),
        ("B23", "B13.B24"), ("B24", "B23.B13"),
    ],
    "B23.B24.B14": [
        ("B23.B14", "B12"), ("B23.B24", "B12"), ("B24.B14", "B23"),
        ("B23.B24", "B14"), ("B14", "B12.B23"), ("B24", "B12.B23"),
        ("B24", "B23.B14"), ("B23", "B24.B14"),
    ],
    "B23.B34.B24": [
        ("B23.B24", "B23"), ("B23.B34", "B23"), ("B34.B24", "B23"),
        ("B23.B34", "B24"), ("B34", "B23.B24"), ("B23", "B34.B24"),
    ],
}


def test_coproduct_displays():
    for wtext, display in COPRODUCT_DISPLAYS.items():
        _, w = parse_word(wtext)
        expected = frozenset(
            (parse_word(u)[1], parse_word(v)[1]) for u, v in display
        )
        assert coproduct(4, w) == expected, wtext


def test_coproduct_dualizes_multiplication():
    """(u, v) appears in the coproduct of w iff w appears in u times v, by the worklist oracle.

    Every split at k = 4 up to length 4, and every split up to length 3 at k = 3 and 5.
    """
    splits = [(4, lu, lv) for lu, lv in ((1, 1), (1, 2), (2, 1), (3, 1), (1, 3), (2, 2))]
    splits += [(k, lu, lv) for k in (3, 5) for lu, lv in ((1, 1), (1, 2), (2, 1))]
    for k, lu, lv in splits:
        expected = yb_splits(k, lu, lv)
        for w in admissible_words(k, lu + lv, is_admissible_yb):
            got = frozenset(coproduct_component(k, w, lu, lv))
            assert got == expected[w], (k, lu, lv, w)


def test_coproduct_rejects_a_word_outside_the_basis():
    """A word that is not admissible, or has a label above k, is in no split table."""
    _, descent = parse_word("B23.B12")
    assert len(yb_normalize(descent)) == 3
    _, high = parse_word("B12.B15")
    for k, w in ((4, descent), (4, high), (3, parse_word("B12.B14.B24")[1])):
        for call in (lambda: coproduct(k, w), lambda: coproduct_component(k, w, 1, len(w) - 1)):
            with pytest.raises(ValueError, match=re.escape(repr(w))):
                call()
    assert coproduct(5, high) == {(((1, 2),), ((1, 5),)), (((1, 5),), ((1, 2),))}
    # An admissible word split at lengths that do not add up to its own has no summands.
    assert coproduct_component(4, parse_word("B12.B13")[1], 1, 2) == ()


def test_d_w1_matches_dual_multiplication():
    gens = yb_basis(4, 1)
    for w in w_basis(4, 1):
        direct = d_w1(w)
        dualized = frozenset(
            (g1[0], g2[0]) for g1 in gens for g2 in gens
            if w in yb_normalize(g1 + g2)
        )
        assert direct == dualized, w


def test_d_w1_case_examples():
    # square of a single generator
    assert ((1, 2), (1, 2)) in d_w1(((1, 2), (1, 2)))
    # strictly increasing second indices: both product orders
    both = d_w1(((1, 2), (3, 4)))
    assert ((1, 2), (3, 4)) in both and ((3, 4), (1, 2)) in both
    # equal second indices with i larger on the left
    hits = d_w1(((2, 3), (1, 3)))
    assert ((2, 3), (1, 3)) in hits


def test_tau_is_identity_on_generators():
    t = tau(4)
    for w in w_basis(4, 0):
        assert apply(t, w) == frozenset({w})


def test_word_text_names_a_factor_that_is_not_a_pair_of_labels():
    for w in (((1, 2), 'x'), ((1, 2), (1, 2, 3)), ((1, 2), ('a', 'b'))):
        with pytest.raises(ValueError, match=re.escape(repr(w))):
            word_text("B", w)


def test_homwh_rejects_rows_outside_the_target_basis():
    n = len(w_basis(4, 2))
    # 11 quadratic monomials: bit 11 would be read as bit 0 of the next row
    with pytest.raises(ValueError, match="row 0 is 2048"):
        HomWH(4, 2, 2, [1 << 11] + [0] * (n - 1))
    with pytest.raises(ValueError, match="row 5 is -1"):
        HomWH(4, 2, 2, [0] * 5 + [-1] + [0] * (n - 6))
    with pytest.raises(ValueError, match="row 3 is 64"):
        HomWH(4, 1, 1, [0] * 3 + [1 << 6] + [0] * 21)
    assert HomWH(4, 2, 2, [(1 << 11) - 1] * n).rows[-1] == 2047


def test_negative_lengths_are_value_errors():
    # A level-L generator is a word of length L + 1, so level -2 asks for length -1.
    for call in (lambda: arnold_basis(4, -1), lambda: yb_basis(4, -1),
                 lambda: w_basis(4, -2)):
        with pytest.raises(ValueError, match="length -1 is negative"):
            call()
    with pytest.raises(ValueError, match="level 0 or above"):
        HomWH(4, -2, 1, [])


def test_arities_below_two_are_value_errors():
    for call in (lambda: arnold_basis(-1, 1), lambda: arnold_basis(1, 0),
                 lambda: yb_basis(0, 2), lambda: w_basis(1, 0),
                 lambda: tau(-1), lambda: tau(0), lambda: tau(1)):
        with pytest.raises(ValueError, match=r"arity -?\d is below 2"):
            call()


def test_tau_convolution_square_vanishes():
    t = tau(4)
    assert convolution(t, t).is_zero()


def test_hom_rejects_a_map_below_level_zero():
    # The empty word is no generator of W, so no map starts at level -1.
    with pytest.raises(ValueError, match="level 0 or above"):
        HomWH(4, -1, 1, [1])


def test_hochschild_squares_to_zero_on_random_maps():
    import random

    rng = random.Random(31)
    basis = arnold_basis(4, 1)
    for _ in range(10):
        f = HomWH(4, 0, 1, tuple(rng.getrandbits(len(basis)) for _ in w_basis(4, 0)))
        assert hochschild_d(hochschild_d(f)).is_zero()
    for _ in range(5):
        basis2 = arnold_basis(4, 1)
        f = HomWH(4, 1, 1, tuple(rng.getrandbits(len(basis2)) for _ in w_basis(4, 1)))
        assert hochschild_d(hochschild_d(f)).is_zero()


def reference_convolution(f, g):
    """f * g row by row from the reference splits, apply and arnold_mult, as frozensets of words."""
    k, level = f.k, f.level + g.level + 1
    splits = yb_splits(k, f.level + 1, g.level + 1)
    out = {}
    for w in admissible_words(k, level + 1, is_admissible_yb):
        acc = frozenset()
        for u, v in splits[w]:
            acc = acc ^ arnold_mult(apply(f, u), apply(g, v))
        out[w] = acc
    return out


def random_hom(rng, level, qdeg):
    width = len(arnold_basis(4, qdeg))
    return HomWH(4, level, qdeg, [rng.getrandbits(width) for _ in w_basis(4, level)])


def test_convolution_and_hochschild_match_frozenset_reference_seeded():
    import random

    rng = random.Random(4077)
    t = tau(4)
    shapes = (((0, 1), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 1)), ((0, 2), (0, 1)),
              ((1, 2), (0, 1)), ((0, 1), (1, 2)), ((0, 0), (1, 2)))
    for (lf, qf), (lg, qg) in shapes:
        for _ in range(3):
            f, g = random_hom(rng, lf, qf), random_hom(rng, lg, qg)
            conv = convolution(f, g)
            assert (conv.level, conv.qdeg) == (lf + lg + 1, qf + qg)
            for w, expected in reference_convolution(f, g).items():
                assert apply(conv, w) == expected, (lf, qf, lg, qg, w)
    # Level 2 at degree 2 is where alpha lives: the closedness check of obstruct.
    for level, qdeg in ((0, 1), (1, 1), (1, 2), (2, 2)):
        for _ in range(3):
            f = random_hom(rng, level, qdeg)
            ft, tf, d = convolution(f, t), convolution(t, f), hochschild_d(f)
            left, right = reference_convolution(f, t), reference_convolution(t, f)
            for w in w_basis(4, level + 1):
                assert apply(ft, w) == left[w], (level, qdeg, w)
                assert apply(tf, w) == right[w], (level, qdeg, w)
                assert apply(d, w) == left[w] ^ right[w], (level, qdeg, w)


def test_homwh_addition_and_equality():
    t = tau(4)
    z = HomWH(4, 0, 1, [0] * len(w_basis(4, 0)))
    assert t + z == t
    assert t + t == z
    assert (t + t).is_zero()


def test_parse_and_word_text_roundtrip():
    for text in ("B12", "B12.B23", "A12.A34", "B23.B13.B24"):
        kind, w = parse_word(text)
        assert word_text(kind, w) == text


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("B11")
    with pytest.raises(ValueError):
        parse_word("Q12")
