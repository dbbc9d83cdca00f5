"""Chain-level composition products and the quadratic cycle representatives."""

import pytest

from becochains import cycles
from becochains.algebras import arnold_basis, parse_word
from becochains.cochains import F2Cochain, coboundary, cup, from_simplices, omega, pair
from becochains.complexes import get_complex, simplex_from_text
from becochains.cycles import (
    circ,
    class_of_cocycle,
    classes_of_cocycles,
    gamma,
    gamma_gamma,
    h2_cycle_table,
    mult,
    omega_product,
    pairing_matrix,
    t_cycle,
    unit_chain,
)
from reference import boundary, in_filtration, is_satellite_cycle, is_two_block_cycle


def chain(*texts):
    return frozenset(simplex_from_text(t) for t in texts)


def test_gamma_is_a_two_term_cycle():
    g = gamma()
    assert g == chain("12|21", "21|12")
    assert not boundary(g)


def test_circ_on_single_simplices():
    # splitting the second letter of each level of (12|21) by (21|12)
    got = circ(chain("12|21"), 2, chain("21|12"))
    assert got == chain("132|321|231", "132|123|231")


def test_gamma_circ_gamma_display():
    got = circ(gamma(), 2, gamma())
    assert got == chain(
        "132|321|231", "132|123|231", "123|231|321", "123|132|321",
        "321|132|123", "321|231|123", "231|123|132", "231|321|132",
    )
    assert not boundary(got)


def test_mult_on_single_simplices():
    left = chain("12|21")
    got = mult(left, left)
    assert got == chain("1234|2134|2143", "1234|1243|2143")


def test_gamma_gamma_display():
    assert gamma_gamma() == chain(
        "1234|2134|2143", "1234|1243|2143", "2134|1234|1243", "2134|2143|1243",
        "1243|2143|2134", "1243|1234|2134", "2143|1243|1234", "2143|2134|1234",
    )


def test_t_cycle_appends_a_letter():
    t = t_cycle()
    assert len(t) == 8
    assert all(len(s) == 3 and len(s[0]) == 4 for s in t)
    # every level ends with letter 4
    assert all(level[-1] == 4 for s in t for level in s)


def test_mult_unit():
    assert mult(unit_chain(), unit_chain()) == chain("12")


def test_cycle_table_rows():
    table = h2_cycle_table()
    assert [m for m, _ in table] == list(arnold_basis(4, 2))
    for monomial, ch in table:
        assert len(ch) == 8, monomial
        assert all(in_filtration(s, 2) for s in ch), monomial
        assert not boundary(ch), monomial


def test_cycle_shapes():
    table = dict(h2_cycle_table())
    # the two-block cycle pairs disjoint labels
    assert is_two_block_cycle(table[parse_word("A12.A34")[1]])
    assert not is_two_block_cycle(table[parse_word("A12.A23")[1]])
    # satellite cycles fix the extra letter
    assert is_satellite_cycle(table[parse_word("A12.A23")[1]])
    assert not is_satellite_cycle(table[parse_word("A12.A34")[1]])


def test_cycle_table_order_is_checked(monkeypatch):
    monkeypatch.setattr(cycles, "_RELABELLINGS", cycles._RELABELLINGS[::-1])
    with pytest.raises(RuntimeError, match="basis order"):
        h2_cycle_table()


def test_pairing_matrix_is_identity():
    m = pairing_matrix()
    assert (m.rows, m.cols) == (11, 11)
    for i in range(11):
        assert m.data[i] == 1 << i


def test_swapped_cycle_order_is_caught(monkeypatch):
    chains = cycles._cycle_chains()
    swapped = (chains[1], chains[0]) + chains[2:]
    cycles._dual_cycle_chains.cache_clear()
    monkeypatch.setattr(cycles, "_cycle_chains", lambda: swapped)
    try:
        with pytest.raises(RuntimeError, match="not the identity"):
            class_of_cocycle(omega_product(arnold_basis(4, 2)[0]))
    finally:
        cycles._dual_cycle_chains.cache_clear()


def test_pairing_entries_pointwise():
    cx = get_complex(4, 2)
    basis = arnold_basis(4, 2)
    cycles = [ch for _, ch in h2_cycle_table()]
    for i, monomial in enumerate(basis):
        c = omega_product(monomial)
        for j, ch in enumerate(cycles):
            assert pair(c, from_simplices(cx, ch)) == (1 if i == j else 0)


def test_omega_products_are_cocycles():
    for monomial in arnold_basis(4, 2):
        assert not coboundary(omega_product(monomial))


def test_class_of_omega_products():
    for r, monomial in enumerate(arnold_basis(4, 2)):
        assert class_of_cocycle(omega_product(monomial)) == 1 << r


def test_class_is_additive():
    m1, m2 = arnold_basis(4, 2)[0], arnold_basis(4, 2)[4]
    c = omega_product(m1) + omega_product(m2)
    assert class_of_cocycle(c) == 0b10001


def test_class_of_a_non_cocycle_is_rejected():
    cx = get_complex(4, 2)
    from becochains.cochains import F2Cochain

    c = F2Cochain(cx, 2, 1)
    assert coboundary(c)
    with pytest.raises(ValueError, match="not a cocycle"):
        class_of_cocycle(c)
    with pytest.raises(ValueError, match="degree-2"):
        class_of_cocycle(omega(4, 1, 2))


def test_classes_of_a_batch_past_one_byte_lane():
    """Classes of products, their sums and a coboundary, in a batch past one byte lane."""
    cx = get_complex(4, 2)
    products = [omega_product(m) for m in arnold_basis(4, 2)]
    batch = products + [products[0] + products[4], coboundary(F2Cochain(cx, 1, 0b1011))]
    assert classes_of_cocycles(batch) == [1 << r for r in range(11)] + [0b10001, 0]
    assert classes_of_cocycles([]) == []


def test_one_non_cocycle_rejects_the_batch():
    cx = get_complex(4, 2)
    batch = [omega_product(m) for m in arnold_basis(4, 2)]
    batch[9] = F2Cochain(cx, 2, 1)
    with pytest.raises(ValueError, match="not a cocycle"):
        classes_of_cocycles(batch)


def test_class_of_coboundary_is_zero():
    cx = get_complex(4, 2)
    from becochains.cochains import F2Cochain

    c = coboundary(F2Cochain(cx, 1, sum(1 << i for i in range(0, 552, 7))))
    assert class_of_cocycle(c) == 0


def test_equal_j_product_class():
    # the cup product of omega13 and omega23 realizes the quadratic rewrite
    c = cup(omega(4, 1, 3), omega(4, 2, 3))
    got = class_of_cocycle(c)
    basis = arnold_basis(4, 2)
    assert got == 1 << basis.index(parse_word("A12.A13")[1]) | 1 << basis.index(parse_word("A12.A23")[1])
