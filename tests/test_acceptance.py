"""Acceptance gate: one test per shipping criterion, pinned expected values."""

import random
import time
from itertools import product

from becochains.algebras import (
    HomWH,
    arnold_basis,
    d_w1,
    hochschild_d,
    w_basis,
    yb_basis,
)
from becochains.cochains import (
    F2Cochain,
    ar,
    coboundary,
    cup,
    cup1,
    from_simplices,
    omega,
    pair,
    parse_cochain,
    pullback,
)
from becochains.complexes import count_by_degree, get_complex, simplex_from_text
from becochains.cycles import circ, gamma, gamma_gamma, h2_cycle_table, mult, pairing_matrix
from becochains.gf2 import rank
from becochains.obstruction import (
    ANCHOR_VALUES,
    ANCHOR_WORDS,
    alpha_hom,
    beta,
    dual_d,
    gauge_shift,
    hochschild_matrix,
    is_coboundary,
    pair_alpha_beta,
    phi_d,
    random_gauge,
)
from reference import boundary, in_filtration, yb_normalize


def test_criterion_1_enumeration_counts():
    """Per-degree table sizes match the reference polynomials, within time budget."""
    tables = {
        (2, 2): [2, 2],
        (3, 2): [6, 30, 36, 12],
        (4, 2): [24, 552, 2496, 4704, 4416, 2064, 384],
        (2, 3): [2, 2, 2],
        (3, 3): [6, 30, 150, 360, 420, 228, 48],
    }
    t0 = time.monotonic()
    for (k, t), expected in tables.items():
        if t == 2:
            assert count_by_degree(k, t, len(expected) - 1) == expected
    assert time.monotonic() - t0 < 1.0
    for (k, t), expected in tables.items():
        if t == 3:
            assert count_by_degree(k, t, len(expected) - 1) == expected
    t0 = time.monotonic()
    assert count_by_degree(4, 3, 5) == [24, 552, 12696, 133200, 725136, 2329152]
    assert time.monotonic() - t0 < 120.0


def test_criterion_2_distinguished_cochain_identities():
    """The quadratic product and pullback identities hold on the nose."""
    cx3, cx4 = get_complex(3, 2), get_complex(4, 2)
    d_ar = coboundary(ar())
    assert d_ar == parse_cochain(
        cx3, "132|312|231 + 132|312|321 + 123|132|312 + 213|132|312"
    )
    w12, w13, w23 = omega(3, 1, 2), omega(3, 1, 3), omega(3, 2, 3)
    assert cup(w13, w12) == parse_cochain(cx3, "123|312|321 + 132|312|321 + 132|312|231")
    assert cup(w23, w12) == parse_cochain(cx3, "123|132|321 + 123|312|321")
    assert cup(w23, w13) == parse_cochain(cx3, "123|132|312 + 123|132|321 + 213|132|312")
    assert d_ar == cup(w13, w12) + cup(w23, w12) + cup(w23, w13)
    src = from_simplices(cx3, [simplex_from_text("312")])
    assert pullback(cx4, (1, 2, 3), src) == parse_cochain(cx4, "4312 + 3412 + 3142 + 3124")
    assert len(omega(3, 1, 2)) == 9
    assert len(omega(4, 1, 2)) == 144


def test_criterion_3_algebra_dimensions():
    """Admissible basis sizes agree with the closed-form generating functions."""
    assert [len(arnold_basis(4, n)) for n in range(4)] == [1, 6, 11, 6]
    assert [len(yb_basis(4, n)) for n in range(1, 5)] == [6, 25, 90, 301]

    def arnold_poly(k, n):
        coeffs = [1]
        for m in range(1, k):
            coeffs = [
                (coeffs[d] if d < len(coeffs) else 0) + (m * coeffs[d - 1] if d else 0)
                for d in range(len(coeffs) + 1)
            ]
        return coeffs[n] if n < len(coeffs) else 0

    def yb_series(k, n):
        coeffs = [1] + [0] * n
        for m in range(1, k):
            for d in range(1, n + 1):
                coeffs[d] += m * coeffs[d - 1]
        return coeffs[n]

    for k in (3, 4, 5):
        for n in range(5):
            assert len(arnold_basis(k, n)) == arnold_poly(k, n)
            assert len(yb_basis(k, n)) == yb_series(k, n)


def test_criterion_4_calibration_gate():
    """Chain-level products match the pinned expansions; representatives are cycles."""
    def chain(*texts):
        return frozenset(simplex_from_text(s) for s in texts)

    assert circ(chain("12|21"), 2, chain("21|12")) == chain("132|321|231", "132|123|231")
    assert circ(gamma(), 2, gamma()) == chain(
        "132|321|231", "132|123|231", "123|231|321", "123|132|321",
        "321|132|123", "321|231|123", "231|123|132", "231|321|132",
    )
    assert mult(chain("12|21"), chain("12|21")) == chain(
        "1234|2134|2143", "1234|1243|2143"
    )
    assert gamma_gamma() == chain(
        "1234|2134|2143", "1234|1243|2143", "2134|1234|1243", "2134|2143|1243",
        "1243|2143|2134", "1243|1234|2134", "2143|1243|1234", "2143|2134|1234",
    )
    table = h2_cycle_table()
    assert len(table) == 11
    for monomial, ch in table:
        assert all(in_filtration(s, 2) for s in ch), monomial
        assert not boundary(ch), monomial
    m = pairing_matrix()
    assert rank(m) == 11  # invertible
    # on this basis ordering the matrix is exactly the identity
    assert m.data == [1 << i for i in range(11)]


def test_criterion_5_level_one_compatibility():
    """coboundary(phi1(w)) equals the product image of the level-1 differential."""
    cx = get_complex(4, 2)
    from becochains.obstruction import phi1

    for w in w_basis(4, 1):
        rhs = F2Cochain(cx, 2)
        for g1, g2 in d_w1(w):
            rhs = rhs + cup(omega(4, *g1), omega(4, *g2))
        assert coboundary(phi1(w)) == rhs, w


def test_criterion_6_obstruction_anchors():
    """Alpha matches the six pinned values; cocycle conditions hold everywhere."""
    a = alpha_hom()
    rows = dict(zip(w_basis(4, 2), a.rows))
    for w, expected in zip(ANCHOR_WORDS, ANCHOR_VALUES):
        assert rows[w] == expected, w
    for w in w_basis(4, 2):
        assert not coboundary(phi_d(w)), w
    assert len(w_basis(4, 3)) == 301
    assert hochschild_d(a).is_zero()


def test_criterion_7_nonformality_two_routes():
    """The dual-cycle pairing route and the direct solve route agree."""
    t0 = time.monotonic()
    a = alpha_hom()
    b = beta()
    route_a = dual_d(b) == 0 and pair_alpha_beta(a, b) == 1
    m = hochschild_matrix()
    assert (m.rows, m.cols) == (150, 990)
    route_b = is_coboundary(a) is None
    assert time.monotonic() - t0 < 30.0
    assert route_a and route_b  # NON-FORMAL CONFIRMED


def test_criterion_8_property_suites():
    """Seeded structural identities across the chain and algebra layers."""
    rng = random.Random(2024)
    cx = get_complex(3, 2)

    def rand_cochain(deg, density=0.2):
        n = len(cx.index(deg))
        return F2Cochain(cx, deg, sum(1 << i for i in range(n) if rng.random() < density))

    for deg in (0, 1):
        for _ in range(6):
            assert not coboundary(coboundary(rand_cochain(deg)))
    for _ in range(6):
        f = HomWH(4, 0, 1, tuple(rng.getrandbits(6) for _ in w_basis(4, 0)))
        assert hochschild_d(hochschild_d(f)).is_zero()
    for p, q in ((0, 1), (1, 1), (1, 2)):
        for _ in range(6):
            x, y = rand_cochain(p), rand_cochain(q)
            assert coboundary(cup(x, y)) == cup(coboundary(x), y) + cup(x, coboundary(y))
    gens = [omega(3, 1, 2), omega(3, 1, 3), omega(3, 2, 3)]
    for _ in range(6):
        x = sum([g for g in gens if rng.random() < 0.5], F2Cochain(cx, 1))
        x = x + coboundary(rand_cochain(0))
        y = sum([g for g in gens if rng.random() < 0.5], F2Cochain(cx, 1))
        y = y + coboundary(rand_cochain(0))
        assert coboundary(cup1(x, y)) == cup(x, y) + cup(y, x)
    for deg in (0, 1, 2):
        for _ in range(6):
            c, z = rand_cochain(deg), rand_cochain(deg + 1)
            assert pair(coboundary(c), z) == len(set(c.simplices()) & boundary(z.simplices())) & 1
    a = alpha_hom()
    for seed in range(10):
        f = random_gauge(seed)
        assert gauge_shift(f) == a + hochschild_d(f), seed
    pairs = [(i, j) for j in range(2, 5) for i in range(1, j)]
    for x, y, z in product(pairs, repeat=3):
        ab_c = frozenset()
        for w in yb_normalize((x, y)):
            ab_c = ab_c ^ yb_normalize(w + (z,))
        a_bc = frozenset()
        for w in yb_normalize((y, z)):
            a_bc = a_bc ^ yb_normalize((x,) + w)
        assert ab_c == a_bc == yb_normalize((x, y, z))


def test_criterion_9_scope_documented():
    """Statements beyond the arity-4 verdict are documented as out of scope."""
    from pathlib import Path

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "## Scope" in text or "## Non-goals" in text
    assert "out of scope" in text.lower()


def test_readme_counts_the_public_names():
    """README's count is that of the library modules' __all__ lists, each name in one list only."""
    import re
    from pathlib import Path

    import becochains

    names = [n for m in becochains.__all__[1:] for n in getattr(becochains, m).__all__]
    assert len(set(names)) == len(names)
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    counts = re.findall(r"the submodules' `__all__` lists name\s+(\d+) entry points", text)
    assert counts == [str(len(names))]


def test_the_package_namespace_holds_the_library_modules_only():
    """A fresh import loads the seven library modules, not the command line, and binds no function.

    A child process, so that the modules the test run has already imported do not count.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import becochains

    code = ("import sys, becochains\n"
            "print(sorted(k for k in sys.modules if k.startswith('becochains.')))\n"
            "print([n for n in dir(becochains) if callable(getattr(becochains, n))])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    modules = ["algebras", "cochains", "complexes", "cycles", "gf2", "obstruction", "perms"]
    expected = f"{['becochains.' + m for m in modules]}\n[]\n"
    assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr
    assert becochains.__all__ == ["__version__"] + modules
