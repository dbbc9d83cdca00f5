"""Exact GF(2) pipeline from filtered permutation complexes to a formality obstruction.

The package builds the filtered complexes of permutation strings, their
normalized cochains with cup and cup-1 products, the quadratic algebras that
describe the answer in closed form, explicit quadratic cycle representatives,
and the Hochschild-style obstruction class whose non-triviality is the final
verdict. Everything is exact arithmetic over the field with two elements.
Each public name lives in one library module and is listed in its __all__.
"""

__version__ = "0.1.0"

from . import algebras, cochains, complexes, cycles, gf2, obstruction, perms

__all__ = ["__version__", "algebras", "cochains", "complexes", "cycles", "gf2", "obstruction", "perms"]
