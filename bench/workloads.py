"""The three benchmark workloads, run through the package's public functions.

Each workload takes the run's seed and a ``check(name, passed)`` callback,
reports every verification named for it in ``oracles.CHECKS`` and returns
the report text it produced. The package functions are module globals here
so that a traced child can rebind them to their traced versions.
"""

from __future__ import annotations

import contextlib
import io
from random import Random
from typing import Callable, List, Tuple

from becochains import cli
from becochains.cli import main as cli_main
from becochains.cochains import coboundary_matrix
from becochains.complexes import get_complex
from becochains.gf2 import rank

import oracles

Check = Callable[[str, bool], None]


def gauge_seed(seed: int) -> int:
    """The non-negative gauge seed certify passes to ``obstruct``."""
    return Random(seed).randrange(1 << 30)


def _run_cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def certify(seed: int, check: Check) -> str:
    """The paper's certificate: verify-basics, then obstruct under a gauge."""
    gauge = gauge_seed(seed)
    texts = []
    for argv in (["verify-basics"], ["obstruct", "--gauge-seed", str(gauge)]):
        command = argv[0]
        code, text = _run_cli(argv)
        texts.append(text)
        lines = text.splitlines()
        statuses = {
            line[5:].split(":", 1)[0]: line.startswith("PASS ")
            for line in lines
            if line.startswith(("PASS ", "FAIL "))
        }
        verdict = f"verdict: {oracles.CERTIFY_VERDICTS[command]}"
        check(f"{command}-verdict", code == 0 and verdict in lines)
        check(f"{command}-checks", bool(statuses) and all(statuses.values()))
        if command == "obstruct":
            check("obstruct-gauge", f"params: gauge_seed={gauge}" in lines
                  and all(statuses.get(name) for name in oracles.GAUGE_CHECKS))
    return "".join(texts)


def betti(seed: int, check: Check) -> str:
    """Every mod-2 Betti number of two complexes, from coboundary ranks.

    The seed only shuffles the order of complexes and degrees; the work and
    the answers do not depend on it.
    """
    rng = Random(seed)
    complexes = list(oracles.BETTI_COMPLEXES)
    rng.shuffle(complexes)
    for k, t in complexes:
        top = oracles.top_degree(k, t)
        cx = get_complex(k, t)
        cx.index(top)
        degrees = list(range(top + 1))
        rng.shuffle(degrees)
        ranks = {d: rank(coboundary_matrix(cx, d)) for d in degrees}
        for d, expected in enumerate(oracles.poincare(k, t)):
            b = len(cx.index(d)) - ranks[d] - (ranks[d - 1] if d else 0)
            check(f"betti-{k}-{t}-deg{d}", b == expected)
    return ""


def tables(seed: int, check: Check) -> str:
    """dims for every supported table, then the (4, 3) tables through degree 4.

    The seed only shuffles the order of the dims runs.
    """
    dims = list(oracles.DIMS_TABLES)
    Random(seed).shuffle(dims)
    texts = []
    for k, t in dims:
        code, text = _run_cli(["dims", "--k", str(k), "--t", str(t)])
        texts.append(text)
        check(f"dims-{k}-{t}", code == 0 and "verdict: PASS" in text.splitlines())
    cx = get_complex(oracles.TABLES_K, oracles.TABLES_T)
    cx.index(oracles.TABLES_TOP)
    sizes = [len(cx.index(d)) for d in range(oracles.TABLES_TOP + 1)]
    for d, expected in enumerate(oracles.PAPER_COUNTS_4_3):
        check(f"size-deg{d}", sizes[d] == expected)
    for d in range(1, oracles.TABLES_TOP + 1):
        check(f"faces-deg{d}", len(cx.face_indices(d)) == sizes[d])
    for p, q in oracles.front_back_pairs():
        fronts, backs = cx.front_back(p, q)
        check(f"front-back-{p}-{q}", len(fronts) == len(backs) == sizes[p + q])
    return "".join(texts)


def inject_fault(workload: str) -> None:
    """Break one result that the workload's gate must catch (self-test only)."""
    global rank
    if workload == "certify":
        from becochains.algebras import HomWH, w_basis

        real_alpha = cli.alpha_hom
        row = w_basis(4, 2).index(((1, 2), (2, 3), (1, 3)))

        def flipped_alpha():
            a = real_alpha()
            rows = list(a.rows)
            rows[row] ^= 1
            return HomWH(a.k, a.level, a.qdeg, rows)

        cli.alpha_hom = flipped_alpha
    elif workload == "betti":
        real_rank = rank
        rank = lambda m: real_rank(m) + 1  # noqa: E731
    else:
        real_count = cli.count_by_degree

        def miscount(k, t, max_degree):
            counts = real_count(k, t, max_degree)
            return counts[:-1] + [counts[-1] + 1]

        cli.count_by_degree = miscount
