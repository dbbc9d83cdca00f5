"""Deterministic verification reports for the pipeline, as text or JSON."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .algebras import (
    HomWH,
    arnold_basis,
    coproduct_component,
    d_w1,
    hochschild_d,
    parse_word,
    w_basis,
    word_text,
)
from .cochains import (
    ar,
    are_cocycles,
    coboundary,
    cochain_text,
    cup,
    cup1,
    omega,
    parse_cochain,
    pullback,
)
from .complexes import count_by_degree, get_complex
from .obstruction import (
    ANCHOR_WORDS,
    ANCHOR_VALUES,
    alpha_hom,
    beta,
    dual_d,
    gauge_shift,
    is_coboundary,
    pair_alpha_beta,
    phi_d,
    random_gauge,
    triangle,
)

# Per-degree table sizes of each supported table, by (arity, filtration), with
# their provenance. A "paper" count is displayed as the expected value. No
# published table gives a "derived" count, so it is reported with no displayed
# expected value. At t = 2 each label pair changes order at most once, so the
# derived counts are k! times the strict chains from the identity in the weak
# order of S_k (inversion sets under inclusion).
REFERENCE_COUNTS: Dict[Tuple[int, int], Tuple[str, List[int]]] = {
    (2, 2): ("paper", [2, 2]),
    (3, 2): ("paper", [6, 30, 36, 12]),
    (4, 2): ("paper", [24, 552, 2496, 4704, 4416, 2064, 384]),
    (2, 3): ("paper", [2, 2, 2]),
    (3, 3): ("paper", [6, 30, 150, 360, 420, 228, 48]),
    (4, 3): ("paper", [24, 552, 12696, 133200, 725136, 2329152]),
    (5, 2): ("derived", [120, 14280, 199200, 1107840, 3333120]),
}


class Report:
    def __init__(self, command: str, params: Dict[str, Any]):
        self.command, self.params = command, params
        # Each check as its JSON object: name, expected, computed, pass, provenance.
        self.checks: List[Dict[str, Any]] = []
        self.verdict = ""
        # Extra top-level JSON keys, rendered after the verdict.
        self.extra: Dict[str, Any] = {}

    def add(self, name: str, expected: Any, computed: Any, provenance: str,
            passed: Optional[bool] = None) -> None:
        if passed is None:
            passed = expected == computed
        self.checks.append({"name": name, "expected": expected, "computed": computed,
                            "pass": passed, "provenance": provenance})

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "version": __version__,
            "command": self.command,
            "params": self.params,
            "checks": self.checks,
            "verdict": self.verdict,
            **self.extra,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"becochains {self.command} (version {__version__})"]
        if self.params:
            lines.append("params: " + " ".join(f"{k}={v}" for k, v in self.params.items()))
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            exp = "-" if c["expected"] is None else c["expected"]
            lines.append(
                f"{status} {c['name']}: expected={exp} computed={c['computed']} [{c['provenance']}]"
            )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()


def _row_text(row: int) -> str:
    """A bit row over the quadratic basis as its sum of monomials, in basis order."""
    basis = arnold_basis(4, 2)
    return " + ".join(word_text("A", m) for i, m in enumerate(basis) if row >> i & 1) or "0"


def _pairs_text(pairs) -> str:
    """Canonical text of a set of (left word, right word) tensor pairs."""
    if not pairs:
        return "0"
    return " + ".join(sorted(f"{word_text('B', u)} (x) {word_text('B', v)}" for u, v in pairs))


def cmd_dims(k: int, t: int, max_degree: Optional[int]) -> Report:
    provenance, reference = REFERENCE_COUNTS[k, t]
    limit = len(reference) - 1 if max_degree is None else max_degree
    report = Report("dims", {"k": k, "t": t, "max_degree": limit})
    for deg, n in enumerate(count_by_degree(k, t, limit)):
        expected = reference[deg] if provenance == "paper" else None
        report.add(f"count-deg-{deg}", expected, n, provenance, passed=n == reference[deg])
    report.verdict = "PASS" if report.all_passed else "FAIL"
    return report


# The three quadratic product displays of the three-letter complex, plus the
# bounding cochain identity they sum to.
_TRIPLE_DISPLAYS = (
    ("omega13-omega12", (1, 3), (1, 2), "123|312|321 + 132|312|321 + 132|312|231"),
    ("omega23-omega12", (2, 3), (1, 2), "123|132|321 + 123|312|321"),
    ("omega23-omega13", (2, 3), (1, 3), "123|132|312 + 123|132|321 + 213|132|312"),
)

_DAR_DISPLAY = "132|312|231 + 132|312|321 + 123|132|312 + 213|132|312"

_PULLBACK_DISPLAY = "4312 + 3412 + 3142 + 3124"

# The six displayed coproduct values on the anchor level-2 generators.
_COPRODUCT_DISPLAYS: Dict[str, List[Tuple[str, str]]] = {
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


def cmd_verify_basics() -> Report:
    report = Report("verify-basics", {})
    cx3 = get_complex(3, 2)
    cx4 = get_complex(4, 2)

    d_ar = coboundary(ar())
    report.add("dAr", cochain_text(parse_cochain(cx3, _DAR_DISPLAY)),
               cochain_text(d_ar), "paper")

    total = None
    for name, a, b, display in _TRIPLE_DISPLAYS:
        prod = cup(omega(3, *a), omega(3, *b))
        report.add(name, cochain_text(parse_cochain(cx3, display)),
                   cochain_text(prod), "paper")
        total = prod if total is None else total + prod
    report.add("dAr-is-product-sum", cochain_text(d_ar), cochain_text(total), "paper")

    pb = pullback(cx4, (1, 2, 3), parse_cochain(cx3, "312"))
    report.add("pullback-123-of-312", cochain_text(parse_cochain(cx4, _PULLBACK_DISPLAY)),
               cochain_text(pb), "paper")

    report.add("omega-support-k3", 9, len(omega(3, 1, 2)), "paper")
    report.add("omega-support-k4", 144, len(omega(4, 1, 2)), "paper")

    pairs = [(i, j) for j in range(2, 5) for i in range(1, j)]
    good = 0
    for a in pairs:
        for b in pairs:
            oa, ob = omega(4, *a), omega(4, *b)
            if coboundary(cup1(oa, ob)) == cup(oa, ob) + cup(ob, oa):
                good += 1
    report.add("steenrod-cup1-omega-pairs", "36/36", f"{good}/36", "derived")

    for wtext, disp in _COPRODUCT_DISPLAYS.items():
        _, w = parse_word(wtext)
        expected_pairs = frozenset((parse_word(u)[1], parse_word(v)[1]) for u, v in disp)
        computed = coproduct_component(4, w, 2, 1) + coproduct_component(4, w, 1, 2)
        report.add(f"coproduct-{wtext.replace('.', '')}",
                   _pairs_text(expected_pairs), _pairs_text(computed), "paper")

    ok = 0
    for w in w_basis(4, 1):
        # The (g1, g2) with w in g1.g2, read off the cached multiplication table.
        dualized = frozenset((g1, g2) for (g1,), (g2,) in coproduct_component(4, w, 1, 1))
        if d_w1(w) == dualized:
            ok += 1
    report.add("dw1-matches-dual-multiplication", "25/25", f"{ok}/25", "paper")

    report.verdict = "PASS" if report.all_passed else "FAIL"
    return report


def cmd_obstruct(gauge_seed: Optional[int]) -> Report:
    params: Dict[str, Any] = {}
    if gauge_seed is not None:
        params["gauge_seed"] = gauge_seed
    report = Report("obstruct", params)

    # alpha reads the classes of the error cocycles, so they are checked first.
    cocycles = sum(are_cocycles([phi_d(w) for w in w_basis(4, 2)]))
    a = alpha_hom()
    rows = dict(zip(w_basis(4, 2), a.rows))
    for w, expected in zip(ANCHOR_WORDS, ANCHOR_VALUES):
        report.add(f"alpha-{word_text('B', w).replace('.', '')}",
                   _row_text(expected), _row_text(rows[w]), "paper")
    report.add("phi-d-cocycles", "90/90", f"{cocycles}/90", "derived")

    tri = triangle(a)
    report.add("d-alpha-zero", True, tri["closed"], "derived")

    b = beta()
    report.add("dual-beta-zero", True, not dual_d(b), "paper")
    report.add("pairing-alpha-beta", 1, pair_alpha_beta(a, b), "paper")

    # The solve leg is this check; a non-cocycle fails d-alpha-zero instead.
    report.add("not-a-coboundary", True, tri["solve"], "derived")
    report.add("consistency-triangle", True, tri["agree"], "derived")

    if gauge_seed is not None:
        f = random_gauge(gauge_seed)
        try:
            shifted = gauge_shift(f)
        except ValueError:  # a shifted error cochain is not a cocycle, so it has no class
            report.add("gauge-alpha-shift", True, False, "derived")
        else:
            report.add("gauge-alpha-shift", True, shifted == a + hochschild_d(f), "derived")
            report.add("gauge-pairing", 1, pair_alpha_beta(shifted, b), "derived")
            report.add("gauge-not-a-coboundary", True, is_coboundary(shifted) is None, "derived")

    report.verdict = "NON-FORMAL CONFIRMED" if report.all_passed else "INCONCLUSIVE"
    report.extra["alpha_matrix"] = _alpha_matrix_payload(a)
    return report


def _alpha_matrix_payload(a: HomWH) -> Dict[str, Any]:
    cols = [word_text("A", m) for m in arnold_basis(4, 2)]
    rows = [word_text("B", w) for w in w_basis(4, 2)]
    bits = [[(r >> c) & 1 for c in range(len(cols))] for r in a.rows]
    return {"rows": rows, "cols": cols, "bits": bits}


def _diagnostic_dump(report: Report) -> str:
    lines = ["consistency failure diagnostic"]
    for c in report.checks:
        if not c["pass"]:
            lines.append(f"failing check: {c['name']} expected={c['expected']} "
                         f"computed={c['computed']}")
    payload = report.extra["alpha_matrix"]
    lines.append("alpha matrix (rows = level-2 generators, cols = quadratic basis):")
    for label, bits in zip(payload["rows"], payload["bits"]):
        lines.append(f"  {label}: {''.join(str(b) for b in bits)}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becochains",
        description="Verification reports for the filtered complex pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--emit", metavar="PATH", help="also write the report to a file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_dims = sub.add_parser("dims", help="per-degree table sizes vs published values")
    p_dims.add_argument("--k", type=int, required=True, help="arity (number of labels)")
    p_dims.add_argument("--t", type=int, required=True, help="filtration level")
    p_dims.add_argument("--max-degree", type=int, default=None)
    common(p_dims)

    p_basic = sub.add_parser("verify-basics", help="displayed identity checks")
    common(p_basic)

    p_obs = sub.add_parser("obstruct", help="obstruction class and formality verdict")
    p_obs.add_argument("--gauge-seed", type=int, default=None,
                       help="rerun under a seeded pseudorandom gauge shift")
    common(p_obs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "dims":
        k, t = args.k, args.t
        if (k, t) not in REFERENCE_COUNTS:
            print(f"error: unsupported table k={k} t={t}", file=sys.stderr)
            return 2
        _, reference = REFERENCE_COUNTS[k, t]
        if args.max_degree is not None and not (0 <= args.max_degree < len(reference)):
            print(f"error: max degree out of range for k={k} t={t}", file=sys.stderr)
            return 2
        report = cmd_dims(k, t, args.max_degree)
    elif args.command == "verify-basics":
        report = cmd_verify_basics()
    else:
        if args.gauge_seed is not None and args.gauge_seed < 0:
            print("error: gauge seed must be non-negative", file=sys.stderr)
            return 2
        report = cmd_obstruct(args.gauge_seed)

    try:
        sys.stdout.write(report.render(args.format))
        sys.stdout.flush()
    except OSError as exc:
        # The unwritten buffer would fail again when the interpreter flushes it at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2

    if args.emit is not None:
        emit_fmt = "json" if args.emit.endswith(".json") else args.format
        emitted = report.render(emit_fmt)
        try:
            with open(args.emit, "w") as fh:
                fh.write(emitted)
        except OSError as exc:
            print(f"error: cannot write {args.emit}: {exc.strerror or exc}", file=sys.stderr)
            return 2

    if not report.all_passed:
        if args.command == "obstruct":
            sys.stderr.write(_diagnostic_dump(report))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
