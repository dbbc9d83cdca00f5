"""Benchmark of the becochains package: cold-process samples of one workload.

    python3 bench/run.py --workload {certify,betti,tables} --seed N \\
        --seconds S --trace {0,1} [--fault]

Run it from anywhere; it finds the package source in ``src/`` next to this
directory and never edits it. Each sample is a fresh interpreter running
``bench/child.py``, because every layer caches with ``lru_cache`` and a
command-line user pays those caches cold on every run. One sample runs at a
time. Samples start until S seconds have passed; the last one may end later.

With ``--trace 0`` the metrics are the medians of ``wall_ref_s`` (the time
from the end of the package import to the last verified result, rescaled to
a fixed reference CPU speed by ``child.SpeedProbe``; the raw wall times are
in the provenance line), ``setup_s`` (interpreter start plus
``import becochains``) and ``peak_rss_mb`` (the child's maximum resident set
size). With ``--trace 1`` untraced and traced samples alternate and the
metrics are the per-layer figures of ``spans.per_layer_metrics``: medians
for times, exact counts that must agree between all traced samples.

Stdout ends with a provenance line and then the result line
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every verification passed and the counts agreed, 1 when a gate failed, and
2 when the package source is missing. ``--fault`` injects each workload's
known fault into every sample, to prove the gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import oracles
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE_DIR = ROOT / "src" / "becochains"
# Every run must end within 180 s; a sample still running then is killed.
RUN_LIMIT_S = 170.0
# Import-only samples per round: cheap, and they steady the set-up median.
SETUP_PROBES = 3

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def spawn(args: List[str], deadline: float) -> Optional[Dict[str, Any]]:
    """Run one child to completion; its JSON result, or None if it crashed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), repr(spawned_at), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        print(f"sample timed out: {' '.join(args)}", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"sample exited with code {proc.returncode}: {' '.join(args)}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if Path(result["package"]).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"error: imported {result['package']}, not the package in {PACKAGE_DIR}")
    return result


def is_count(key: str) -> bool:
    return key.endswith((".calls", ".cache_hits", ".cache_lookups")) or key in (
        "gf2.cells", "complexes.simplices", "trace.spans")


def layer_metrics(traced: List[Dict[str, Any]], untraced_wall: float) -> Dict[str, float]:
    """Per-layer figures: medians of times, exact counts and their ratios."""
    layers = [s["layers"] for s in traced]
    first = layers[0]
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    covered = [
        sum(layer.get(f"{name}.self_s", 0.0) for name in spans.LAYERS + ("workload",)) / s["wall_s"]
        for layer, s in zip(layers, traced)
    ]
    out: Dict[str, float] = {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": statistics.median(covered),
    }
    for name, _unit in spans.per_layer_metrics():
        if name in out:
            continue
        if name.endswith(".cache_hit_ratio"):
            prefix = name[: -len(".cache_hit_ratio")]
            lookups = first[f"{prefix}.cache_lookups"]
            out[name] = first[f"{prefix}.cache_hits"] / lookups if lookups else 0.0
        elif is_count(name):
            out[name] = first.get(name, 0)
        else:
            out[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(oracles.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", action="store_true", help="inject the workload's fault")
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    if spawn([], limit) is None:  # writes the bytecode caches; not measured
        print("error: the package does not import", file=sys.stderr)
        return 2
    checks = len(oracles.CHECKS[args.workload])
    sample_args = [args.workload, str(args.seed), "", "1" if args.fault else "0"]
    setup: List[float] = []
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = failed = 0
    # The CPU speed of this kind of shared VM drifts by tens of percent over
    # seconds to minutes. Each round therefore takes its set-up samples and
    # then one workload sample per mode, so that set-up, untraced and traced
    # samples all see the same drift instead of each filling its own block.
    while True:
        for _ in range(SETUP_PROBES):
            probe = spawn([], limit)
            if probe is not None:
                setup.append(probe["setup_s"])
        for mode in ("0", "1") if args.trace else ("0",):
            sample_args[2] = mode
            result = spawn(sample_args, limit)
            attempted += checks
            if result is None:
                failed += checks
                continue
            setup.append(result["setup_s"])
            failed += len(result["failed_checks"])
            if result["failed_checks"]:
                print(f"failed verifications: {result['failed_checks']}", file=sys.stderr)
            else:
                (traced if mode == "1" else untraced).append(result)
        if time.monotonic() - started >= args.seconds:
            break

    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    provenance: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "error_rate": failed / attempted if attempted else 1.0,
        "setup_samples": len(setup),
        "wall_s_samples": [s["wall_s"] for s in untraced],
        "wall_ref_s_samples": [s["wall_ref_s"] for s in untraced],
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    if correct and args.trace:
        counts = [{k: v for k, v in s["layers"].items() if is_count(k)} for s in traced]
        provenance["work_counts"] = counts[0]
        provenance["traced_wall_s_samples"] = [s["wall_s"] for s in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("error: work counts differ between traced samples", file=sys.stderr)
            correct = False
        values = layer_metrics(traced, statistics.median(s["wall_s"] for s in untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.per_layer_metrics()}
    elif correct:
        values = {
            "wall_ref_s": statistics.median(s["wall_ref_s"] for s in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
