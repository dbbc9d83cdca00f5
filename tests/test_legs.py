"""The legs of the non-formality triangle share only primitives.

Each leg runs in a fresh interpreter, so that every cache is cold, under
``sys.setprofile``, which records every package function and method the leg
calls. alpha comes in as literal rows, so no leg computes it. Two legs may
share a function only when it is a declared primitive: a leg that reads
another leg's derived object (building ``dual_d`` as the transpose of
``hochschild_matrix``, say) shares that object's builder and fails here. A
new shared primitive needs an explicit edit of ``PRIMITIVES``.
"""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from becochains.obstruction import alpha_hom

SRC = Path(__file__).resolve().parent.parent / "src"

PRIMITIVES = frozenset({
    # the bases and the normalizers behind them
    "algebras.arnold_basis", "algebras.yb_basis", "algebras._admissible_words",
    "algebras.w_basis", "algebras.arnold_normalize", "algebras._arnold_rewrite",
    "algebras._yb_times", "algebras._normpair",
    # the coproduct splits, the Arnold products and the twisting cochain
    "algebras._yb_index", "algebras._yb_products", "algebras._split_table",
    "algebras.coproduct_component",
    "algebras._product_table", "algebras.tau",
    # the constructors, and the gf2 kernel
    "algebras.HomWH.__init__", "gf2.BitMatrix.__init__",
    "gf2.BitMatrix.transpose", "gf2._pivot_basis", "gf2._bits",
    "obstruction._check_hom",
    # the row-major layout that the solve and the pairing both read alpha in
    "obstruction._packed",
})

# The body of each leg; `a` is the HomWH built from the literal rows.
LEGS = {
    "closed": "hochschild_d(a).is_zero()",
    "solve": "is_coboundary(a)",
    "pairing": "b = beta(); dual_d(b); pair_alpha_beta(a, b)",
    "classes": (
        "rows = dict(zip(w_basis(4, 2), a.rows))\n"
        "[validates_class(phi_d(w), rows[w]) for w in ANCHOR_WORDS]"
    ),
}

CHILD = """
import importlib, inspect, json, sys, types
from becochains.algebras import HomWH, hochschild_d, w_basis
from becochains.obstruction import (ANCHOR_WORDS, beta, dual_d, is_coboundary,
                                    pair_alpha_beta, phi_d, validates_class)

# The code object of every function and method defined in a package module.
names = {}
for mod in ("gf2", "perms", "complexes", "cochains", "algebras", "cycles", "obstruction"):
    module = importlib.import_module("becochains." + mod)
    for attr, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for meth, fn in vars(obj).items():
                fn = getattr(fn, "__func__", fn)
                if isinstance(fn, types.FunctionType):
                    names[fn.__code__] = f"{mod}.{attr}.{meth}"
        fn = inspect.unwrap(obj) if callable(obj) else None
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            names[fn.__code__] = f"{mod}.{attr}"

seen = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code in names:
        seen.add(names[frame.f_code])

sys.setprofile(record)
a = HomWH(4, 2, 2, ROWS)
LEG
sys.setprofile(None)
print(json.dumps(sorted(seen)))
"""


def run_leg(leg, rows):
    code = CHILD.replace("ROWS", repr(list(rows))).replace("LEG", LEGS[leg])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return frozenset(json.loads(out))


@pytest.fixture(scope="module")
def calls():
    rows = alpha_hom().rows
    return {leg: run_leg(leg, rows) for leg in LEGS}


def test_each_leg_reaches_its_own_derived_object(calls):
    assert "obstruction.hochschild_matrix" in calls["solve"]
    assert "obstruction.dual_d" in calls["pairing"]
    assert "obstruction._im_d1_basis" in calls["classes"]
    assert "algebras.convolution" in calls["closed"]


@pytest.mark.parametrize("left,right", list(combinations(LEGS, 2)))
def test_legs_share_only_primitives(calls, left, right):
    shared = calls[left] & calls[right]
    assert shared <= PRIMITIVES, sorted(shared - PRIMITIVES)
