"""Report rows and renderings compared exactly against a text fixture.

The fixture ``data/golden_outputs.txt`` holds one JSON record per line,
``[label, value]``: the rows (rule, status, witness, detail; not millis) of
the axiom and PBW reports at degree 2, and ``str()`` of the convolution
generators, the K elements, products of K elements and block-map images.
A change that alters any of them, or makes one depend on hash or set
order, fails here.  After an intended change of output, rewrite the fixture
with

    PYTHONPATH=src python tests/test_golden_outputs.py

and review its diff."""

import json
from pathlib import Path

from qwreath.base_algebra import (corrupted_beta_params, load_preset_file, preset,
                                  shipped_presets, validate_pqwp,
                                  verify_pbw_conditions)
from qwreath.convolution import crossing, phi_embed, split_merge
from qwreath.pqwp import PqwpElement, k_lambda, pqwp_mul
from qwreath.symcomb import ThetaMatrix
from qwreath.tensor_module import ThetaMap, invariant_basis

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "golden_outputs.txt"
FILE_PACKS = ("pro_p_q3.toml", "wreath_s3.toml")
# one pack per scalar kind: RatFun, mixed int and Fraction, a table algebra
RENDERING_PACKS = ("affine_hecke", "pro_p_q3.toml", "wreath_s3.toml")


def _pack(name):
    return load_preset_file(str(DATA / name)) if name.endswith(".toml") else preset(name)


def report_records():
    packs = [(name, preset(name)) for name in shipped_presets()]
    packs += [(name, _pack(name)) for name in FILE_PACKS]
    packs.append(("corrupted", corrupted_beta_params()))
    for name, p in packs:
        for check in (validate_pqwp, verify_pbw_conditions):
            for e in check(p, 2).entries:
                yield (f"{check.__name__}[{name}]",
                       [e["rule"], e["status"], e["witness"], e["detail"]])


def convolution_records():
    d = 3
    for name in shipped_presets():
        p = preset(name)
        yield f"split[{name}]", str(split_merge(p, d, (2, 1), kind="split"))
        yield f"merge[{name}]", str(split_merge(p, d, (2, 1), kind="merge"))
        yield (f"partial_split[{name}]",
               str(split_merge(p, d, (3,), (2, 1), kind="partial_split")))
        yield (f"partial_merge[{name}]",
               str(split_merge(p, d, (3,), (1, 2), kind="partial_merge")))
        for lam in ((2, 1), (1, 2)):
            yield f"crossing{lam}[{name}]", str(crossing(p, d, lam))
        for i in range(d - 1):
            yield f"phi_embed(H_{i})[{name}]", str(phi_embed(PqwpElement.h_gen(p, d, i)))


def element_records():
    for name in RENDERING_PACKS:
        p = _pack(name)
        yield f"k_lambda(3,)[{name}]", str(k_lambda(p, 3, (3,)))
        yield f"k_upper(3,)/(2,1)[{name}]", str(k_lambda(p, 3, (3,), "upper", (2, 1)))
        A = ThetaMatrix([[1, 1], [0, 1]])
        P = invariant_basis(p, 3, ThetaMap(p, A).delta, 1)[-1]
        yield f"theta_z[{name}]", str(ThetaMap(p, A, P).z)


def product_records():
    for name in (*shipped_presets(), *FILE_PACKS):
        p = _pack(name)
        k = k_lambda(p, 3, (3,))
        yield f"k_lambda(3,)^2[{name}]", str(pqwp_mul(k, k))
    # pro_p's K mixes central and non-central coefficients
    p = preset("pro_p")
    upper = k_lambda(p, 3, (3,), "upper", (2, 1))
    yield "k_upper(3,)/(2,1)*k_lambda(3,)[pro_p]", str(pqwp_mul(upper, k_lambda(p, 3, (3,))))


def golden_lines():
    records = [*report_records(), *convolution_records(), *element_records(),
               *product_records()]
    return [json.dumps(r, ensure_ascii=False) for r in records]


def test_outputs_match_the_golden_fixture():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = golden_lines()
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")
