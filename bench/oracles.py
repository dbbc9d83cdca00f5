"""Reference values of the benchmark workloads, kept apart from the package.

Nothing here imports becochains: each gate compares the package's output
with values written down or derived independently in this file.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# Every (k, t) the dims command accepts.
DIMS_TABLES: Tuple[Tuple[int, int], ...] = (
    (2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3),
)

# Published simplex counts of the (k=4, t=3) complex through degree 4.
TABLES_K, TABLES_T = 4, 3
PAPER_COUNTS_4_3: Tuple[int, ...] = (24, 552, 12696, 133200, 725136)
TABLES_TOP = len(PAPER_COUNTS_4_3) - 1

# Complexes whose every Betti number the betti workload computes.
BETTI_COMPLEXES: Tuple[Tuple[int, int], ...] = ((4, 2), (3, 3))

CERTIFY_VERDICTS = {"verify-basics": "PASS", "obstruct": "NON-FORMAL CONFIRMED"}
GAUGE_CHECKS = ("gauge-alpha-shift", "gauge-pairing", "gauge-not-a-coboundary")


def top_degree(k: int, t: int) -> int:
    """Each of the k(k-1)/2 label pairs may swap at most t-1 times."""
    return (t - 1) * k * (k - 1) // 2


def poincare(k: int, t: int) -> List[int]:
    """Coefficients of prod_{j<k} (1 + j x^(t-1)), padded to the top degree.

    The filtration-t stage models the configuration space of k points in
    R^t, whose integral cohomology is free with this Poincare polynomial, so
    the coefficients are also the mod-2 Betti numbers.
    """
    coeffs = [1]
    for j in range(1, k):
        nxt = coeffs + [0] * (t - 1)
        for d, c in enumerate(coeffs):
            nxt[d + t - 1] += j * c
        coeffs = nxt
    return coeffs + [0] * (top_degree(k, t) + 1 - len(coeffs))


def front_back_pairs() -> List[Tuple[int, int]]:
    """(p, q) with p, q >= 1 and p + q within the materialized degrees."""
    return [(p, q) for p in range(1, TABLES_TOP) for q in range(1, TABLES_TOP + 1 - p)]


# Names of the verifications each workload makes, in order. A child that
# stops early counts every name it did not pass as failed.
CHECKS: Dict[str, Tuple[str, ...]] = {
    "certify": (
        "verify-basics-verdict",
        "verify-basics-checks",
        "obstruct-verdict",
        "obstruct-checks",
        "obstruct-gauge",
    ),
    "betti": tuple(
        f"betti-{k}-{t}-deg{d}"
        for k, t in BETTI_COMPLEXES
        for d in range(top_degree(k, t) + 1)
    ),
    "tables": (
        tuple(f"dims-{k}-{t}" for k, t in DIMS_TABLES)
        + tuple(f"size-deg{d}" for d in range(TABLES_TOP + 1))
        + tuple(f"faces-deg{d}" for d in range(1, TABLES_TOP + 1))
        + tuple(f"front-back-{p}-{q}" for p, q in front_back_pairs())
    ),
}
