"""Checks of the benchmark itself: run-to-run spread and a self-test.

    python3 bench/check.py spread [--runs 10] [--seconds 30] [--seed 1] [WORKLOAD ...]
    python3 bench/check.py selftest

``spread`` runs ``run.py`` once per seed and workload and prints, per
end-to-end metric, the median of the runs and the distance between the
first and third quartiles as a share of that median, next to the bound in
BENCHMARK.json. ``selftest`` checks that BENCHMARK.json names exactly the
metrics ``run.py`` prints, that tracing leaves the report text unchanged,
that traced runs repeat their work counts exactly, that the layer self
times cover the traced wall time and that the predicted layer dominates,
and that an injected fault fails every workload's gate. Both exit 1 on any
failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import oracles
import run
import spans

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

# The layers whose self time should dominate each workload's traced run.
DOMINANT = {"certify": ("cochains", "algebras"), "betti": ("gf2",), "tables": ("complexes",)}
MIN_COVERAGE = 0.95


def bench(*args: str) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
    """Run run.py; its exit code, provenance and result line."""
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode, {}, {}
    return proc.returncode, json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def spread(args: argparse.Namespace) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    values: Dict[Tuple[str, str], List[float]] = {}
    ok = True
    # The workloads take turns within each seed rather than running in
    # blocks: the CPU speed of a shared VM drifts over minutes, and a block
    # would fold that drift into the difference between workloads.
    for i in range(args.runs):
        for workload in workloads:
            code, _prov, result = bench("--workload", workload, "--seed", str(args.seed + i),
                                        "--seconds", str(args.seconds), "--trace", "0")
            ok &= code == 0 and result.get("correct", False)
            for name, metric in result.get("metrics", {}).items():
                values.setdefault((workload, name), []).append(metric["value"])
            print(f"{time.strftime('%H:%M:%S')} {workload} seed={args.seed + i} "
                  + " ".join(f"{n}={m['value']:.4f}" for n, m in result.get("metrics", {}).items()),
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':10} {'metric':12} {'median':>10} {'iqr/med':>8} {'bound':>6}")
    for (workload, name), vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        flag = "" if share < bounds[name] / 3 else "  above a third of the bound"
        print(f"{workload:10} {name:12} {med:10.4f} {share:8.4f} {bounds[name]:6.2f}{flag}")
    return 0 if ok else 1


def selftest(_args: argparse.Namespace) -> int:
    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads(BENCHMARK_JSON.read_text())
    expect([w["name"] for w in spec["workloads"]] == list(oracles.CHECKS),
           "BENCHMARK.json names the workloads run.py accepts")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json names the end-to-end metrics run.py prints")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metrics(),
           "BENCHMARK.json names the per-layer metrics run.py prints")

    for workload in ("certify", "tables"):
        digests = {
            mode: run.spawn([workload, "11", mode, "0"], time.monotonic() + 170)["report_sha256"]
            for mode in ("0", "1")
        }
        expect(digests["0"] == digests["1"],
               f"{workload}: traced and untraced report text are byte-identical")

    for workload in oracles.CHECKS:
        runs = [bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
                for _ in range(2)]
        expect(all(code == 0 for code, _, _ in runs), f"{workload}: traced runs pass")
        counts = [prov.get("work_counts") for _, prov, _ in runs]
        expect(counts[0] is not None and counts[0] == counts[1],
               f"{workload}: work counts repeat exactly between runs")
        metrics = runs[0][2].get("metrics", {})
        if not metrics:
            continue
        coverage = metrics["trace.coverage"]["value"]
        expect(coverage >= MIN_COVERAGE,
               f"{workload}: layers and workload cover {coverage:.3f} of traced wall_s")
        self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS}
        predicted = sum(self_s[layer] for layer in DOMINANT[workload])
        others = max(v for layer, v in self_s.items() if layer not in DOMINANT[workload])
        expect(predicted > others,
               f"{workload}: {'+'.join(DOMINANT[workload])} dominate "
               f"({predicted:.3f} s against at most {others:.3f} s)")

    for workload in oracles.CHECKS:
        code, prov, result = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                   "--trace", "0", "--fault")
        expect(code != 0 and not result.get("correct", True) and prov.get("error_rate", 0) > 0,
               f"{workload}: an injected fault fails the run "
               f"(error_rate {prov.get('error_rate')}, exit {code})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread", help="run-to-run spread of the end-to-end metrics")
    p_spread.add_argument("--runs", type=int, default=10)
    p_spread.add_argument("--seconds", type=int, default=None,
                          help="seconds per run (default: run_seconds of BENCHMARK.json)")
    p_spread.add_argument("--seed", type=int, default=1, help="seed of the first run")
    p_spread.add_argument("workloads", nargs="*", help="default: every workload")
    p_spread.set_defaults(func=spread)
    sub.add_parser("selftest", help="gates, tracing and counts").set_defaults(func=selftest)
    args = parser.parse_args()
    if set(getattr(args, "workloads", ())) - set(oracles.CHECKS):
        parser.error(f"workloads must be among {', '.join(oracles.CHECKS)}")
    if getattr(args, "seconds", 0) is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
