"""One benchmark sample in a fresh interpreter, so that every sample starts
with qwreath's module caches empty, as a user running one check has them.

    python3 perfbench/sample.py --workload crossing --seed 1 [--small]
        [--job <index>] [--trace]

Certifies the workload's job list, or only the job with the given index,
between two runs of calibrate(), and prints one JSON object: setup_s
(importing qwreath and building the workload's preset packs), certify_s,
calibration_s (the mean of the two calibration times), ran, failed and
peak_rss_mb; with --trace also the per-layer metrics and the spans.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def calibrate() -> float:
    """Time a fixed piece of pure-Python work of the kind qwreath's inner
    loops do: Fraction arithmetic on a dict of tuple-keyed terms.  It shares
    no code with qwreath."""
    t0 = perf_counter()
    acc = {}
    for i in range(25_000):
        key = (i % 7, i * 3 % 11, i * 5 % 13)
        v = Fraction(i % 5 + 1, i % 3 + 2)
        c = acc.get(key)
        acc[key] = v if c is None else c * v + v
        if len(acc) > 500:
            acc.clear()
    return perf_counter() - t0


def peak_rss_mb() -> float:
    """High-water resident set of this process.  ru_maxrss would not do: it
    keeps the high-water mark of the parent that spawned the process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--job", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    calibration_before_s = calibrate()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import workloads
    packs = workloads.build_packs(args.workload)
    setup_s = perf_counter() - t0

    import qwreath
    if Path(qwreath.__file__).resolve().parent != SRC / "qwreath":
        print(f"qwreath was imported from {qwreath.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload, packs, args.seed, args.small)
    if args.job is not None:
        jobs = [jobs[args.job]]
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    t1 = perf_counter()
    failed = workloads.certify(jobs)
    certify_s = perf_counter() - t1
    out = {"setup_s": setup_s, "certify_s": certify_s,
           "calibration_s": (calibration_before_s + calibrate()) / 2,
           "ran": len(jobs), "failed": failed,
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.remove()
        out.update(layers=tracer.metrics(), spans=tracer.spans())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
