"""The benchmark's workloads: for each one, the preset packs it builds and
the list of certification jobs it runs, each with the expected value that
its result is checked against.

Every call goes through a module attribute (``pqwp.pqwp_mul``, not a name
imported into this file), so the traced run sees the same entry points as
the library's own callers.
"""

import random
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from qwreath import base_algebra, convolution, pqwp, tensor_module

WORKLOADS = ("kk_rewrite", "crossing", "tensor_action", "preset_reports")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    expected: Any

    def passes(self) -> bool:
        """Run the job; an exception or a result other than the expected
        one is a failure."""
        try:
            got = self.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False
        if got != self.expected:
            print(f"job {self.name}: got {got!r}, expected {self.expected!r}",
                  file=sys.stderr)
            return False
        return True


def certify(jobs) -> int:
    """Run every job once; returns the number that failed."""
    return sum(not job.passes() for job in jobs)


# (preset, d) for K_(d)^2 = m_(d) K_(d); the small size runs every case at d = 3
_KK_CASES = (("affine_hecke", 4), ("qt_hecke", 4), ("pro_p", 3), ("zigzag_a1", 5))
_TENSOR_PACKS = ("zigzag_a1", "savage_frobenius")


def build_packs(workload: str) -> dict:
    if workload == "kk_rewrite":
        names = [name for name, _ in _KK_CASES]
    elif workload == "crossing":
        names = ["affine_hecke", "pro_p"]
    elif workload == "tensor_action":
        names = _TENSOR_PACKS
    elif workload == "preset_reports":
        names = base_algebra.shipped_presets()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {name: base_algebra.preset(name) for name in names}


def _kk_job(p, d):
    def run():
        K = pqwp.k_lambda(p, d, (d,))
        return pqwp.pqwp_mul(K, K) == K.poly_left(pqwp.m_lambda(p, d, (d,)))
    return Job(f"kk[{p.name},d={d}]", run, True)


def _crossing_job(p, d, lam, oracle, terms):
    def run():
        return convolution.dumb_vs_smart_identity(p, d, lam, oracle=oracle)["terms"]
    return Job(f"crossing[{p.name},{lam},{oracle}]", run, terms)


def _associativity_job(p, chain):
    nu, mu, lam = chain
    d = sum(lam)

    def run():
        sm = convolution.split_merge
        split = (sm(p, d, mu, nu, kind="partial_split")
                 * sm(p, d, lam, mu, kind="partial_split")
                 == sm(p, d, lam, nu, kind="partial_split"))
        merge = (sm(p, d, lam, mu, kind="partial_merge")
                 * sm(p, d, mu, nu, kind="partial_merge")
                 == sm(p, d, lam, nu, kind="partial_merge"))
        return split, merge
    return Job(f"associativity[{p.name},{chain}]", run, (True, True))


def _relations_job(p, n, d, seed, expected):
    def run():
        return tensor_module.tensor_relations_check(p, n=n, d=d,
                                                    rng=random.Random(seed))
    return Job(f"relations[{p.name},n={n},d={d}]", run, expected)


def _theta_job(p, lam, mu, count):
    def run():
        return tensor_module.theta_family_rank(p, lam, mu, 1)
    return Job(f"theta_rank[{p.name},{lam},{mu}]", run,
               {"count": count, "rank": count})


def _reports_job(p, degree):
    def run():
        return (base_algebra.validate_pqwp(p, degree).passed,
                base_algebra.verify_pbw_conditions(p, degree).passed)
    return Job(f"reports[{p.name}]", run, (True, True))


def jobs(workload: str, packs: dict, seed: int, small: bool = False) -> list:
    """The job list of one workload over already built packs.  ``small``
    is the reduced size the smoke test runs (d = 3, report degree 1)."""
    if workload == "kk_rewrite":
        return [_kk_job(packs[name], 3 if small else d) for name, d in _KK_CASES]
    if workload == "crossing":
        d, lam, terms, chain = ((3, (2, 1), 2, ((1, 1, 1), (2, 1), (3,))) if small else
                                (4, (2, 2), 3, ((1, 1, 1, 1), (2, 2), (4,))))
        return [
            _crossing_job(packs["affine_hecke"], d, lam, "both", terms),
            _crossing_job(packs["pro_p"], d, lam, "values", terms),
            _associativity_job(packs["affine_hecke"], chain),
        ]
    if workload == "tensor_action":
        n, d, identities = (2, 3, 404) if small else (3, 4, 5466)
        theta = (((2, 1), (1, 2), 52) if small else ((2, 2), (1, 3), 104))
        return ([_relations_job(packs[name], n, d, seed, identities)
                 for name in _TENSOR_PACKS]
                + [_theta_job(packs["zigzag_a1"], *theta)])
    if workload == "preset_reports":
        return [_reports_job(p, 1 if small else 2) for p in packs.values()]
    raise ValueError(f"unknown workload {workload!r}")
