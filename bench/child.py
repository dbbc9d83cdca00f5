"""One benchmark sample in a fresh interpreter; prints one JSON line.

    python3 child.py SPAWNED_AT
    python3 child.py SPAWNED_AT WORKLOAD SEED TRACE FAULT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process. That clock is shared by all processes of the machine, so
``setup_s`` is interpreter start plus ``import becochains``, the set-up a
command-line user pays on every run. The first form stops there. The second
runs one workload (traced when TRACE is 1, with its fault injected when
FAULT is 1) and reports its wall time, the same time at the reference CPU
speed, its peak memory and its failed verifications.
"""

import sys
import time

import becochains

_imported_at = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import oracles  # noqa: E402

PROBE_ITERATIONS = 2000
PROBE_INTERVAL_S = 0.025
# wall_ref_s is the time at the speed where one probe iteration takes this.
REFERENCE_ITERATION_S = 100e-9


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_INTERVAL_S of wall time.

    Co-tenants of a shared VM change this process's CPU speed by tens of
    percent from one second to the next, and over minutes, so raw wall
    times of one workload spread by about 20% between runs. The loop runs on
    the same CPU as the workload, from a SIGALRM handler, so its speed
    samples follow the speed the workload ran at; rescaling by them cuts
    the spread about threefold. The probes cost about 1% of the run.
    """

    def __init__(self) -> None:
        self.times: List[float] = []

    def _probe(self, *_signal_args: Any) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i
        self.times.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def at_reference_speed(self, wall_s: float) -> float:
        """wall_s without the probes' own time, rescaled to the reference speed."""
        reference = PROBE_ITERATIONS * REFERENCE_ITERATION_S
        speed = statistics.fmean(reference / t for t in self.times)
        return (wall_s - sum(self.times)) * speed


def sample(argv: List[str]) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "setup_s": _imported_at - float(argv[0]),
        "package": becochains.__file__,
    }
    if len(argv) == 1:
        return result
    workload, seed, traced, fault = argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1"
    import workloads

    if fault:
        workloads.inject_fault(workload)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer.install([workloads])
    names = oracles.CHECKS[workload]
    passed: Dict[str, bool] = {}

    def check(name: str, ok: bool) -> None:
        if name not in names or name in passed:
            raise RuntimeError(f"unexpected verification {name!r}")
        passed[name] = bool(ok)

    run = getattr(workloads, workload)
    text = ""
    start = time.perf_counter()
    with SpeedProbe() as probe:
        try:
            text = tracer.run(run, seed, check) if tracer else run(seed, check)
        except Exception:  # a crash fails every verification not yet passed
            traceback.print_exc()
    wall_s = time.perf_counter() - start
    result.update(
        wall_s=wall_s,
        wall_ref_s=probe.at_reference_speed(wall_s),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failed_checks=[name for name in names if not passed.get(name, False)],
        report_sha256=hashlib.sha256(text.encode()).hexdigest(),
    )
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


if __name__ == "__main__":
    print(json.dumps(sample(sys.argv[1:])))
