"""Bad input raises a clean exception: one row per library check.

Each row gives the call, the exception type and a fragment of its message.
CI also runs this file under ``python -O``, where assert statements vanish,
so every row shows that its check is a real raise.
"""

import pytest

from becochains.algebras import (
    HomWH,
    convolution,
    coproduct,
    d_w1,
    parse_word,
    tau,
    word_text,
)
from becochains.cochains import (
    F2Cochain,
    ar,
    are_cocycles,
    cup,
    cup1,
    from_simplices,
    omega,
    parse_cochain,
)
from becochains.complexes import Complex, get_complex, simplex_from_text
from becochains.cycles import classes_of_cocycles, omega_product
from becochains.gf2 import BitMatrix
from becochains.obstruction import phi0, phi1
from becochains.perms import act, all_perms, perm_from_text


def cx3():
    return get_complex(3, 2)


ROWS = [
    # perms
    ("all_perms(0)", lambda: all_perms(0), ValueError, "arity must be between 1 and 8"),
    ("all_perms(9)", lambda: all_perms(9), ValueError, "arity must be between 1 and 8"),
    ("act-arity", lambda: act((2, 1), (1, 2, 3)), ValueError, "arity mismatch"),
    ("perm-not-digits", lambda: perm_from_text("12a"), ValueError, "not a permutation text"),
    ("perm-repeated", lambda: perm_from_text("112"), ValueError, "not a permutation word"),
    ("perm-too-long", lambda: perm_from_text("123456789"), ValueError,
     "arity must be between 1 and 8"),
    # complexes
    ("complex-t", lambda: Complex(4, 4), ValueError, "complexity must be one of"),
    ("complex-k", lambda: Complex(7, 2), ValueError, "arity must be between 2 and"),
    ("index(-1)", lambda: get_complex(2, 2).index(-1), ValueError,
     "degree must be non-negative"),
    ("front_back(-1, 1)", lambda: get_complex(2, 2).front_back(-1, 1), ValueError,
     "degree must be non-negative"),
    ("simplex-arities", lambda: simplex_from_text("12|123"), ValueError,
     "levels must share one arity"),
    ("simplex-empty", lambda: simplex_from_text(""), ValueError, "not a permutation text: ''"),
    ("simplex-empty-level", lambda: simplex_from_text("12|"), ValueError,
     "not a permutation text: ''"),
    # gf2
    ("bitmatrix-negative", lambda: BitMatrix(-1, 2), ValueError, "negative dimensions"),
    ("bitmatrix-rows", lambda: BitMatrix(2, 2, [1]), ValueError, "row count mismatch"),
    # cochains
    ("cochain-float-degree", lambda: F2Cochain(cx3(), 1.0, 0), TypeError, "degree must be an int"),
    ("sum-of-two-degrees", lambda: F2Cochain(cx3(), 0) + F2Cochain(cx3(), 1), ValueError,
     "degree mismatch"),
    ("from-no-simplices", lambda: from_simplices(cx3(), []), ValueError,
     "degree is ambiguous"),
    ("from-mixed-degrees", lambda: from_simplices(cx3(), [((1, 2, 3),), ((1, 2, 3), (2, 1, 3))]),
     ValueError, "simplices must share one degree"),
    ("cup-two-complexes", lambda: cup(omega(3, 1, 2), omega(4, 1, 2)), ValueError,
     "ambient complex mismatch"),
    ("cup1-degree-2", lambda: cup1(F2Cochain(cx3(), 2), F2Cochain(cx3(), 2)), ValueError,
     "degree-1 cochains only"),
    ("are_cocycles-two-complexes", lambda: are_cocycles([omega(3, 1, 2), omega(4, 1, 2)]),
     ValueError, "ambient complex mismatch"),
    ("are_cocycles-two-degrees", lambda: are_cocycles([ar(), F2Cochain(cx3(), 2)]), ValueError,
     "degree mismatch"),
    ("omega(4, 1, 1)", lambda: omega(4, 1, 1), ValueError, "labels must be distinct"),
    ("parse-zero-no-degree", lambda: parse_cochain(cx3(), "0"), ValueError,
     "needs an explicit degree"),
    ("parse-wrong-degree", lambda: parse_cochain(cx3(), "123|312", 2), ValueError,
     "does not match the requested one"),
    # algebras
    ("coproduct-one-letter", lambda: coproduct(4, ((1, 2),)), ValueError,
     "length at least 2"),
    ("d_w1-three-letters", lambda: d_w1(((1, 2), (1, 3), (2, 3))), ValueError,
     "expected a length-2 word"),
    ("d_w1-inadmissible", lambda: d_w1(((2, 3), (1, 2))), ValueError, "not admissible"),
    ("homwh-row-count", lambda: HomWH(4, 0, 1, [1]), ValueError, "expected 6 rows, got 1"),
    ("homwh-sum-bidegrees", lambda: HomWH(4, 0, 0, [0] * 6) + tau(4), ValueError,
     "bidegree mismatch"),
    ("convolution-arities", lambda: convolution(tau(3), tau(4)), ValueError, "arity mismatch"),
    ("parse_word-bad-factor", lambda: parse_word("B12.B1x"), ValueError,
     "bad factor 'B1x' in 'B12.B1x'"),
    ("word_text-kind", lambda: word_text("C", ((1, 2),)), ValueError,
     "kind must be 'A' or 'B'"),
    # cycles
    ("omega_product(())", lambda: omega_product(()), ValueError, "need at least one factor"),
    ("classes-of-a-degree-1-cochain", lambda: classes_of_cocycles([omega(4, 1, 2)]), ValueError,
     "expected a degree-2 cochain of the arity-4 complex"),
    ("classes-of-a-non-cocycle",
     lambda: classes_of_cocycles([F2Cochain(get_complex(4, 2), 2, 1)]), ValueError,
     "not a cocycle"),
    # obstruction
    ("phi0-two-letters", lambda: phi0(((1, 2), (1, 3))), ValueError, "length-1 word"),
    ("phi1-three-letters", lambda: phi1(((1, 2), (1, 3), (2, 3))), ValueError,
     "length-2 word"),
    ("phi1-inadmissible", lambda: phi1(((2, 3), (1, 2))), ValueError, "not admissible"),
]


@pytest.mark.parametrize("call, error, fragment",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)

