"""The obstruction class: twisting maps, convolution cocycle, dual cycle, pairing."""

import pytest

from becochains import gf2, obstruction
from becochains.algebras import (
    HomWH,
    arnold_basis,
    coproduct_component,
    d_w1,
    hochschild_d,
    parse_word,
    w_basis,
)
from becochains.cochains import (
    F2Cochain,
    ar,
    coboundary,
    cup,
    cup1,
    from_simplices,
    omega,
    pullback,
)
from becochains.complexes import get_complex, simplex_from_text
from becochains.cycles import class_of_cocycle, h2_cycle_table
from becochains.obstruction import (
    ANCHOR_VALUES,
    ANCHOR_WORDS,
    _packed,
    _phi_d_all,
    alpha_hom,
    beta,
    dual_d,
    gauge_shift,
    hochschild_matrix,
    is_coboundary,
    pair_alpha_beta,
    phi0,
    phi1,
    phi_d,
    random_gauge,
    triangle,
    validates_class,
)
from reference import admissible_words, alpha_rows, apply, is_admissible_arnold, is_admissible_yb


def words(text):
    if text == "0":
        return frozenset()
    return frozenset(parse_word(part.strip())[1] for part in text.split("+"))


def W(text):
    return parse_word(text)[1]


def _layout(level):
    """The level words and the degree-level monomials that index a dual row."""
    return (admissible_words(4, level + 1, is_admissible_yb),
            admissible_words(4, level, is_admissible_arnold))


def dual_row(pairs, level=2):
    """Pack (word, monomial) pairs into a dual row: bit r * width + c is monomial c on word r."""
    gens, basis = _layout(level)
    return sum(1 << gens.index(w) * len(basis) + basis.index(m) for w, m in set(pairs))


def dual_pairs(row, level=2):
    """The (word, monomial) pairs of a dual row."""
    gens, basis = _layout(level)
    bits = [b for b in range(row.bit_length()) if row >> b & 1]
    return {(gens[b // len(basis)], basis[b % len(basis)]) for b in bits}


def test_phi0_is_omega():
    assert phi0(W("B13")) == omega(4, 1, 3)
    assert phi0(W("B24")) == omega(4, 2, 4)


def test_phi1_equal_word_vanishes():
    assert not phi1((W("B12") + W("B12")))


def test_phi1_increasing_case_both_routes():
    # strictly increasing second indices: the cup-1 product, which agrees
    # with the pullback of the distinguished one-cochain along 1,2,3
    cx3, cx4 = get_complex(3, 2), get_complex(4, 2)
    got = phi1(W("B12.B23"))
    assert got == cup1(omega(4, 1, 2), omega(4, 2, 3))
    src = from_simplices(cx3, [simplex_from_text("123|321")])
    assert got == pullback(cx4, (1, 2, 3), src)


def test_phi1_equal_second_index_cases():
    cx4 = get_complex(4, 2)
    # larger first index on the left: a pure pullback
    assert phi1(W("B23.B13")) == pullback(cx4, (1, 2, 3), ar())
    # smaller first index on the left: pullback plus a cup-1 correction
    expected = pullback(cx4, (1, 2, 3), ar()) + cup1(omega(4, 1, 3), omega(4, 2, 3))
    assert phi1(W("B13.B23")) == expected


def test_level_one_compatibility_all_generators():
    """The coboundary of phi1 matches products of phi0 over the dual differential."""
    cx = get_complex(4, 2)
    for w in w_basis(4, 1):
        lhs = coboundary(phi1(w))
        rhs = F2Cochain(cx, 2)
        for g1, g2 in d_w1(w):
            rhs = rhs + cup(omega(4, *g1), omega(4, *g2))
        assert lhs == rhs, w


def _phi_d_display(terms):
    cx = get_complex(4, 2)
    total = F2Cochain(cx, 2)
    for t in terms:
        total = total + t
    return total


def test_phi_d_expansion_displays():
    cx = get_complex(4, 2)

    def o(i, j):
        return omega(4, i, j)

    def pb(*tag):
        return pullback(cx, tag, ar())

    displays = {
        W("B12.B24.B14"): [
            cup(cup1(o(1, 2), o(1, 4)), o(1, 2)),
            cup(cup1(o(1, 2), o(2, 4)), o(1, 2)),
            cup(pb(1, 2, 4), o(1, 2)),
            cup(cup1(o(1, 2), o(2, 4)), o(1, 4)),
            cup(o(2, 4), cup1(o(1, 2), o(1, 4))),
            cup(o(1, 2), pb(1, 2, 4)),
        ],
        W("B12.B34.B24"): [
            cup(pb(2, 3, 4), o(1, 2)),
            cup(cup1(o(1, 2), o(2, 4)), o(2, 3)),
            cup(cup1(o(1, 2), o(3, 4)), o(2, 3) + o(2, 4)),
            cup(o(2, 4) + o(3, 4), cup1(o(1, 2), o(2, 3))),
            cup(o(3, 4), cup1(o(1, 2), o(2, 4))),
            cup(o(1, 2), pb(2, 3, 4)),
        ],
        W("B23.B13.B24"): [
            cup(cup1(o(1, 3), o(2, 4)) + cup1(o(2, 3), o(2, 4)), o(1, 2)),
            cup(cup1(o(2, 3), o(2, 4)), o(1, 3)),
            cup(pb(1, 2, 3), o(2, 4)),
            cup(o(1, 3) + o(2, 3), cup1(o(1, 2), o(2, 4))),
            cup(o(2, 4), pb(1, 2, 3)),
            cup(o(2, 3), cup1(o(1, 3), o(2, 4))),
        ],
        W("B23.B24.B14"): [
            cup(cup1(o(2, 3), o(1, 4)) + cup1(o(2, 3), o(2, 4)), o(1, 2)),
            cup(pb(1, 2, 4), o(2, 3)),
            cup(cup1(o(2, 3), o(2, 4)), o(1, 4)),
            cup(o(1, 4) + o(2, 4), cup1(o(1, 2), o(2, 3))),
            cup(o(2, 4), cup1(o(2, 3), o(1, 4))),
            cup(o(2, 3), pb(1, 2, 4)),
        ],
        W("B23.B34.B24"): [
            cup(cup1(o(2, 3), o(2, 4)) + cup1(o(2, 3), o(3, 4)) + pb(2, 3, 4), o(2, 3)),
            cup(cup1(o(2, 3), o(3, 4)), o(2, 4)),
            cup(o(3, 4), cup1(o(2, 3), o(2, 4))),
            cup(o(2, 3), pb(2, 3, 4)),
        ],
    }
    for w, terms in displays.items():
        assert phi_d(w) == _phi_d_display(terms), w


def test_phi_d_values_are_cocycles():
    count = sum(1 for w in w_basis(4, 2) if not coboundary(phi_d(w)))
    assert count == 90


def test_alpha_anchor_values():
    a = alpha_hom()
    rows = dict(zip(w_basis(4, 2), a.rows))
    for w, expected in zip(ANCHOR_WORDS, ANCHOR_VALUES):
        assert rows[w] == expected, w
    assert apply(a, W("B12.B23.B13")) == words("A12.A13 + A12.A23")
    assert apply(a, W("B12.B24.B14")) == words("A12.A14 + A12.A24")
    assert apply(a, W("B23.B34.B24")) == words("A23.A24 + A23.A34")
    for w in ANCHOR_WORDS[2:5]:
        assert apply(a, w) == frozenset(), w
    # each row is the class of its error cocycle
    for w, row in zip(w_basis(4, 2), a.rows):
        assert row == class_of_cocycle(phi_d(w)), w


def test_proof_anchor_simplices_lie_in_cycles():
    table = {m: ch for m, ch in h2_cycle_table()}
    anchors = [
        ("A12.A13", "1324|3124|2314"),
        ("A12.A23", "1234|1324|3214"),
        ("A12.A14", "1423|4123|2413"),
        ("A12.A24", "1243|1423|4213"),
        ("A13.A24", "1324|3124|3142"),
        ("A13.A24", "1324|1342|3142"),
        ("A23.A14", "1423|4123|4132"),
        ("A23.A14", "1423|1432|4132"),
        ("A23.A24", "2431|4231|3421"),
        ("A23.A34", "2341|2431|4321"),
    ]
    for mono, text in anchors:
        assert simplex_from_text(text) in table[W(mono)], (mono, text)


def test_alpha_is_a_hochschild_cocycle():
    assert len(w_basis(4, 3)) == 301
    assert hochschild_d(alpha_hom()).is_zero()


def test_hochschild_matrix_shape_and_consistency():
    m = hochschild_matrix()
    assert (m.rows, m.cols) == (150, 990)
    # rows are the convolution differentials of the elementary maps
    basis1 = arnold_basis(4, 1)
    gens = w_basis(4, 1)
    width2 = len(arnold_basis(4, 2))
    for f_index in (0, 37, 149):
        wi, mi = divmod(f_index, len(basis1))
        f = HomWH(4, 1, 1, [1 << mi if u == gens[wi] else 0 for u in gens])
        # row-major packing: bit r * width2 + c is coefficient c of row r
        packed = sum(row << (r * width2) for r, row in enumerate(hochschild_d(f).rows))
        assert m.data[f_index] == packed


def test_hochschild_matrix_matches_elementary_differentials():
    """Every row against hochschild_d of its elementary map, packed row-major."""
    k = 4
    nw1, nh1 = len(w_basis(k, 1)), len(arnold_basis(k, 1))
    width2 = len(arnold_basis(k, 2))
    images = []
    for wi in range(nw1):
        for mi in range(nh1):
            f = HomWH(k, 1, 1, [(1 << mi) if r == wi else 0 for r in range(nw1)])
            images.append(sum(row << (r * width2) for r, row in enumerate(hochschild_d(f).rows)))
    m = hochschild_matrix()
    assert (m.rows, m.cols) == (nw1 * nh1, len(w_basis(k, 2)) * width2)
    assert m.data == images


def test_phi_d_rejects_a_non_generator():
    with pytest.raises(ValueError):
        phi_d(W("B23.B12.B13"))
    with pytest.raises(ValueError):
        phi_d(W("B12.B23"))


def reference_phi_d(level1, w):
    """Sum of cup(phi1 u, phi0 v) over the (2,1) split and cup(phi0 u, phi1 v) over the (1,2) one."""
    acc = F2Cochain(get_complex(4, 2), 2)
    for u, v in coproduct_component(4, w, 2, 1):
        acc = acc + cup(level1[u], phi0(v))
    for u, v in coproduct_component(4, w, 1, 2):
        acc = acc + cup(phi0(u), level1[v])
    return acc


def test_phi_d_matches_per_pair_cups():
    level1 = {u: phi1(u) for u in w_basis(4, 1)}
    for w in w_basis(4, 2):
        assert phi_d(w) == reference_phi_d(level1, w), w


@pytest.mark.parametrize("seed", [0, 42, 7, 1234])
def test_gauge_assembly_matches_per_pair_cups(seed):
    f = random_gauge(seed)
    gens = w_basis(4, 1)
    level1 = {}
    for u in gens:
        c = phi1(u)
        for m in apply(f, u):
            c = c + omega(4, *m[0])
        level1[u] = c
    assembled = _phi_d_all([level1[u] for u in gens])
    refs = {w: reference_phi_d(level1, w) for w in w_basis(4, 2)}
    assert assembled == refs
    assert gauge_shift(f) == HomWH(4, 2, 2, [class_of_cocycle(refs[w]) for w in w_basis(4, 2)])


def _raw_cycles():
    return [chain for _, chain in h2_cycle_table()]


def test_alpha_rows_match_a_pointwise_oracle():
    """All 90 rows, not only the six anchors, from cochain values the package did not compute."""
    rows = alpha_rows(_raw_cycles())
    assert rows == alpha_hom().rows
    assert sum(map(bool, rows)) == 32


@pytest.mark.parametrize("seed", [0, 42])
def test_gauge_shift_rows_match_a_pointwise_oracle(seed):
    """phi1 perturbed by reference.apply(f, u) in the oracle; the shift moves some row."""
    f = random_gauge(seed)
    rows = alpha_rows(_raw_cycles(), f)
    assert rows == gauge_shift(f).rows
    assert rows != alpha_hom().rows


def test_dual_d_transposes_hochschild_d():
    """Bit j of dual_d(1 << r) is bit r of row j: the dual is the transpose, entry by entry."""
    m = hochschild_matrix()
    for r in range(m.cols):
        assert dual_d(1 << r) == sum((row >> r & 1) << j for j, row in enumerate(m.data)), r


def test_beta_composition():
    b = dual_pairs(beta())
    assert len(b) == 11
    gens = {w for w, _ in b}
    assert len(gens) == 6
    assert (W("B12.B24.B14"), W("A12.A14")) in b
    assert (W("B23.B34.B24"), W("A12.A34")) in b
    assert (W("B12.B23.B13"), W("A13.A14")) in b
    assert (W("B12.B23.B13"), W("A13.A24")) in b


def test_dual_d_summand_displays():
    """Value of the dual differential on each generator group of the cycle.

    The first and last groups match their published displays exactly; the
    remaining values are pinned here and certified by the transpose identity
    checked in test_dual_d_transposes_hochschild_d.
    """
    from collections import defaultdict

    groups = defaultdict(set)
    for w, m in dual_pairs(beta()):
        groups[w].add(m)

    expected = {
        W("B12.B23.B13"): {(W("B12.B23"), W("A14")), (W("B12.B23"), W("A24"))},
        W("B12.B24.B14"): {
            (W("B12.B24"), W("A12")), (W("B12.B24"), W("A14")),
            (W("B12.B24"), W("A24")),
        },
        W("B12.B34.B24"): {(W("B12.B23"), W("A12")), (W("B12.B24"), W("A12"))},
        W("B23.B13.B24"): {
            (W("B12.B24"), W("A14")), (W("B12.B24"), W("A24")),
            (W("B23.B24"), W("A14")), (W("B23.B24"), W("A24")),
        },
        W("B23.B24.B14"): {
            (W("B12.B23"), W("A12")), (W("B12.B23"), W("A14")),
            (W("B12.B23"), W("A24")), (W("B23.B24"), W("A12")),
            (W("B23.B24"), W("A14")), (W("B23.B24"), W("A24")),
        },
        W("B23.B34.B24"): {(W("B23.B24"), W("A12"))},
    }
    assert set(groups) == set(expected)
    total = 0
    for w, monos in groups.items():
        dz = dual_d(dual_row((w, m) for m in monos))
        assert dz == dual_row(expected[w], level=1), w
        total ^= dz
    assert total == 0


def test_dual_rows_outside_the_level_2_layout_are_rejected():
    a = alpha_hom()
    # 90 words by 11 monomials: bit 990 is past the last summand
    for z in (-1, -(1 << 40), 1 << 990, beta() | 1 << 2000):
        with pytest.raises(ValueError, match="level-2 dual row of 990 bits"):
            dual_d(z)
        with pytest.raises(ValueError, match="level-2 dual row of 990 bits"):
            pair_alpha_beta(a, z)
    assert dual_d((1 << 990) - 1) == dual_d((1 << 989) - 1) ^ dual_d(1 << 989)


def test_dual_beta_is_a_cycle():
    assert dual_d(beta()) == 0


def test_pairing_is_one_with_single_contribution():
    a = alpha_hom()
    b = beta()
    assert pair_alpha_beta(a, b) == 1
    # the only contributing summand
    hits = [
        (w, m) for w, m in dual_pairs(b) if m in apply(a, w)
    ]
    assert hits == [(W("B12.B24.B14"), W("A12.A14"))]


def test_alpha_is_not_a_coboundary():
    assert is_coboundary(alpha_hom()) is None


def test_is_coboundary_roundtrip():
    f = random_gauge(123)
    df = hochschild_d(f)
    witness = is_coboundary(df)
    assert witness is not None
    assert hochschild_d(witness) == df
    z = HomWH(4, 2, 2, [0] * len(w_basis(4, 2)))
    witness0 = is_coboundary(z)
    assert witness0 is not None
    assert hochschild_d(witness0).is_zero()


def test_is_coboundary_gives_the_witness_of_solve():
    """The cached basis gives the x of gf2.solve on the same matrix."""
    df = hochschild_d(random_gauge(321))
    x = gf2.solve(hochschild_matrix(), _packed(df))
    assert x is not None and _packed(is_coboundary(df)) == x


def test_two_solves_make_one_elimination(monkeypatch):
    """hochschild_matrix() is eliminated once; each later solve only reduces its right side."""
    a = alpha_hom()
    passes = []
    real = gf2._pivot_basis
    monkeypatch.setattr(gf2, "_pivot_basis", lambda rows, width: passes.append(width) or real(rows, width))
    obstruction._solve_basis.cache_clear()
    assert is_coboundary(a) is None and is_coboundary(a) is None
    assert len(passes) == 1


def test_is_coboundary_of_a_non_cocycle_is_none():
    a = alpha_hom()
    rows = list(a.rows)
    rows[0] ^= 1
    broken = HomWH(4, 2, 2, rows)
    assert not hochschild_d(broken).is_zero()
    assert is_coboundary(broken) is None


def test_gauge_zero_shift_is_alpha():
    assert gauge_shift(HomWH(4, 1, 1, [0] * len(w_basis(4, 1)))) == alpha_hom()


def test_gauge_shift_identity_many_seeds():
    a = alpha_hom()
    b = beta()
    for seed in range(12):
        f = random_gauge(seed)
        shifted = gauge_shift(f)
        assert shifted == a + hochschild_d(f), seed
        assert pair_alpha_beta(shifted, b) == 1, seed
        assert is_coboundary(shifted) is None, seed


def test_validates_class_on_anchors():
    rows = dict(zip(w_basis(4, 2), alpha_hom().rows))
    for w in ANCHOR_WORDS:
        assert validates_class(phi_d(w), rows[w])
    # a deliberately wrong class fails
    wrong = 1 << arnold_basis(4, 2).index(W("A12.A34"))
    assert not validates_class(phi_d(ANCHOR_WORDS[0]), wrong)


def test_validates_class_rejects_rows_outside_the_quadratic_basis():
    c = phi_d(ANCHOR_WORDS[0])
    for row in (1 << 11, -1, (1 << 11) | 5):
        with pytest.raises(ValueError, match="11 quadratic monomials"):
            validates_class(c, row)


def test_triangle_agreement():
    tri = triangle(alpha_hom())
    assert tri == {"closed": True, "solve": True, "pairing": True, "classes": True, "agree": True}


def test_triangle_on_a_non_cocycle_disagrees_without_raising():
    a = alpha_hom()
    rows = list(a.rows)
    rows[w_basis(4, 2).index(ANCHOR_WORDS[0])] ^= 1
    tri = triangle(HomWH(4, 2, 2, rows))
    # never hit by the differential, but no class: the classes leg fails
    assert tri == {"closed": False, "solve": True, "pairing": True, "classes": False,
                   "agree": False}


def test_triangle_judges_the_anchor_rows_of_the_map_it_is_given():
    """A gauge-shifted alpha is closed and no coboundary, but its anchor rows differ from alpha's."""
    for seed in range(5):
        tri = triangle(alpha_hom() + hochschild_d(random_gauge(seed)))
        assert tri == {"closed": True, "solve": True, "pairing": True, "classes": False,
                       "agree": False}, seed


def test_maps_and_cochains_of_another_arity_are_rejected():
    a3 = HomWH(3, 2, 2, [0] * len(w_basis(3, 2)))
    f3 = HomWH(3, 1, 1, [0] * len(w_basis(3, 1)))
    for call in (lambda: is_coboundary(a3), lambda: triangle(a3),
                 lambda: pair_alpha_beta(a3, beta()), lambda: gauge_shift(f3)):
        with pytest.raises(ValueError):
            call()
    # the right arity in the wrong bidegree is rejected as well
    with pytest.raises(ValueError):
        is_coboundary(HomWH(4, 1, 1, [0] * len(w_basis(4, 1))))
    with pytest.raises(ValueError):
        validates_class(F2Cochain(get_complex(3, 2), 2), 0)
