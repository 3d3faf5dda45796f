"""Self-tests of the benchmark: the correctness gate catches a broken pack,
and a reduced-size run of every workload emits every metric that
BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from qwreath.base_algebra import corrupted_beta_params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_gate_fails_the_corrupted_pack():
    jobs = workloads.jobs("preset_reports", {"corrupted": corrupted_beta_params()},
                          seed=1, small=True)
    fail_frac = workloads.certify(jobs) / len(jobs)
    assert fail_frac > 0


def test_gate_counts_an_exception_as_a_failed_job():
    def boom():
        raise ArithmeticError("raised on purpose")

    jobs = [workloads.Job("boom", boom, True), workloads.Job("ok", lambda: 1, 1)]
    assert workloads.certify(jobs) == 1


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_small_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "tensor_action":
            assert layers["coeff_ring.ratfun_ops"] == 0
        if workload != "crossing":
            assert layers["tensor_poly.localized_eq_calls"] == 0
