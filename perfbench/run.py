"""The qwreath benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  One caller in a closed loop, one
job at a time: every sample is a fresh interpreter (perfbench/sample.py)
that imports qwreath from ./src with its caches empty, builds the
workload's preset packs and certifies one job, checking its result.  A
sample's times are scaled to the reference machine speed by a calibration
run in the same process.

--trace 0 runs rounds of samples, one sample per job of the workload, for
at least MIN_ROUNDS rounds and then while one more round is expected to end
within --seconds.  certify_s is the sum over the jobs of each job's median
time.  --trace 1 alternates an untraced and a traced sample of the whole job
list and reports the per-layer metrics of the traced ones.  The last line
of standard output is the result object; the line before it records the
environment.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qwreath"

MIN_ROUNDS = 2
SAMPLE_TIMEOUT_S = 170  # no single sample may take longer
# sample.calibrate()'s time on the reference machine: a 2-vCPU x86-64 VM
# running CPython 3.11.7, in its fast phases
REFERENCE_CALIBRATION_S = 0.025


def _sample(args, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.small:
        cmd.append("--small")
    # a fixed hash seed keeps set iteration order, and so the work done,
    # the same from sample to sample
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"sample failed with exit code {proc.returncode}: {' '.join(cmd)}")
    out = json.loads(proc.stdout.splitlines()[-1])
    # On a shared machine each vCPU runs at times up to half as fast, for
    # some seconds, as neighbours come and go.  The calibration, run just
    # before and after the timed code in the same process, slows with it.
    # Scaled by the reference calibration time over the sample's own, the
    # times measure the code and not the neighbours.
    scale = REFERENCE_CALIBRATION_S / out["calibration_s"]
    out["wall_certify_s"] = out["certify_s"]
    out["setup_s"] *= scale
    out["certify_s"] *= scale
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    # only the checkout's own repository, never one that encloses it
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _run_until(seconds, step, minimum=1) -> list:
    """Call step() at least minimum times, and again while one more call is
    expected to end within the given time."""
    out = []
    start = perf_counter()
    while True:
        out.append(step())
        elapsed = perf_counter() - start
        if len(out) >= minimum and elapsed + elapsed / len(out) > seconds:
            return out


def end_to_end(args) -> tuple:
    import workloads
    n_jobs = len(workloads.jobs(args.workload, workloads.build_packs(args.workload),
                                args.seed, args.small))
    rounds = _run_until(
        args.seconds, lambda: [_sample(args, "--job", str(j)) for j in range(n_jobs)],
        minimum=MIN_ROUNDS)
    samples = [s for r in rounds for s in r]
    by_job = list(zip(*rounds))
    attempted = len(samples)
    failed = sum(s["failed"] for s in samples)
    job_s = [statistics.median(s["certify_s"] for s in runs) for runs in by_job]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "certify_s": (sum(job_s), "s"),
        "peak_rss_mb": (max(statistics.median(s["peak_rss_mb"] for s in runs)
                            for runs in by_job), "MB"),
        "pass_frac": (1 - failed / attempted, "ratio"),
    }
    detail = {
        "rounds": len(rounds),
        "job_certify_s": job_s,
        "wall_job_certify_s": [statistics.median(s["wall_certify_s"] for s in runs)
                               for runs in by_job],
        "calibration_s": statistics.median(s["calibration_s"] for s in samples),
    }
    return metrics, attempted, failed, detail


def per_layer(args) -> tuple:
    import tracer
    pairs = _run_until(args.seconds,
                       lambda: (_sample(args), _sample(args, "--trace")))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {}
    for name, unit in tracer.LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            ratio = (statistics.median(t["certify_s"] for t in traced)
                     / statistics.median(p["certify_s"] for p in plain))
            metrics[name] = (ratio - 1, unit)
        else:
            metrics[name] = (statistics.median_low(t["layers"][name] for t in traced), unit)
    samples = plain + traced
    attempted = sum(s["ran"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    detail = {"pairs": len(pairs), "spans": traced[-1]["spans"]}
    return metrics, attempted, failed, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes (d = 3), for the smoke test")
    args = ap.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no qwreath sources at {PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # the build step: byte-compile once so that no sample pays for it
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (PACKAGE, HERE)):
        print("byte-compiling failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = environment(args)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, detail = measure(args)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
