"""Exact GF(2) pipeline from filtered permutation complexes to a formality obstruction.

The package builds the filtered complexes of permutation strings, their
normalized cochains with cup and cup-1 products, the quadratic algebras that
describe the answer in closed form, explicit quadratic cycle representatives,
and the Hochschild-style obstruction class whose non-triviality is the final
verdict. Everything is exact arithmetic over the field with two elements.
"""

__version__ = "0.1.0"

from .gf2 import BitMatrix, rank, rowspace_basis, solve
from .perms import all_perms, act, project
from .complexes import Complex, count_by_degree, get_complex
from .cochains import (
    F2Cochain,
    ar,
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
from .algebras import (
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
    yb_normalize,
)
from .cycles import (
    class_of_cocycle,
    gamma,
    gamma_gamma,
    h2_cycle_table,
    mult,
    circ,
    omega_product,
    pairing_matrix,
    t_cycle,
)
from .obstruction import (
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
)

__all__ = [
    "__version__",
    "BitMatrix", "rank", "rowspace_basis", "solve",
    "all_perms", "act", "project",
    "Complex", "count_by_degree", "get_complex",
    "F2Cochain", "ar", "coboundary", "coboundary_matrix",
    "cochain_text", "cup", "cup1", "from_simplices", "omega", "pair",
    "parse_cochain", "pullback",
    "HomWH", "arnold_basis", "arnold_normalize", "convolution",
    "coproduct", "coproduct_component", "d_w1", "hochschild_d",
    "parse_word", "tau", "w_basis", "word_text", "yb_basis", "yb_normalize",
    "class_of_cocycle", "gamma", "gamma_gamma", "h2_cycle_table",
    "mult", "circ", "omega_product", "pairing_matrix", "t_cycle",
    "alpha_hom", "beta", "dual_d", "gauge_shift", "hochschild_matrix",
    "is_coboundary", "pair_alpha_beta", "phi0", "phi1", "phi_d", "random_gauge",
    "triangle",
]
