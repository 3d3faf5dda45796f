"""Every cache keyed by a parameter pack lives in the pack's own ``memo``:
a dropped pack is freed with its cache, and no two packs share an entry."""

import gc
import json

import pytest

from qwreath import convolution, pqwp, tensor_poly
from qwreath.base_algebra import (PqwpParams, load_preset_file, preset,
                                  rebase_field)
from qwreath.coeff_ring import Field
from qwreath.convolution import (ConvBlock, dumb_vs_smart_identity, phi_embed,
                                 zero_test_via_poly_rep)
from qwreath.pqwp import PqwpElement, k_lambda, m_lambda, pqwp_mul
from qwreath.tensor_module import TensorVector, act_H, theta_family_rank
from qwreath.tensor_poly import TensorPoly, x_var

PACK_CACHED = {
    tensor_poly.alpha_ij, tensor_poly.abar_ij, tensor_poly.s_ij, tensor_poly.r_ij,
    tensor_poly.beta_ij, tensor_poly.p_ij, tensor_poly._two_slot_rho,
    pqwp._right_step, pqwp._left_step,
    convolution._phi_gen, convolution._phi_word, convolution._detecting_family,
}

HECKE_FILE = {
    "name": "hecke_from_file",
    "variant": "laurent",
    "field": {"kind": "ratfun", "params": ["q"]},
    "algebra": {"kind": "ground"},
    "delta": {"10": [[["1", "1"], "q-1"]]},
    "alpha": [[["1", "1"], "1"]],
    "r": [[["1", "1"], "q"]],
}


def hecke_file(tmp_path):
    path = tmp_path / "hecke.json"
    path.write_text(json.dumps(HECKE_FILE))
    return str(path)


def work(p):
    """K_(3)^2, a left step, act_H, a crossing identity, a poly-rep zero
    test and a theta family: between them every pack-cached function."""
    K = k_lambda(p, 3, (3,))
    KK = pqwp_mul(K, K)
    assert KK == K.poly_left(m_lambda(p, 3, (3,)))
    hx = pqwp_mul(PqwpElement.h_gen(p, 3, 0), PqwpElement.of_poly(x_var(p, 3, 0)))
    v = TensorVector.basis(p, 2, 3, (2, 1, 2))
    acted = [act_H(v, k) for k in range(2)]
    identity = dumb_vs_smart_identity(p, 3, (2, 1), oracle="both")
    nonzero = zero_test_via_poly_rep(phi_embed(PqwpElement.h_gen(p, 3, 0)))
    rank = theta_family_rank(p, (2, 1), (1, 2), 0)
    return KK, hx, acted, identity, nonzero, rank


def cached_values(p):
    """Every TensorPoly and ConvBlock stored in p.memo, tuples unpacked."""
    out = []
    stack = [v for table in p.memo.values() for v in table.values()]
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            stack.extend(v)
        elif isinstance(v, (TensorPoly, ConvBlock)):
            out.append(v)
    return out


def _build_and_drop(tmp_path):
    packs = [rebase_field(preset("zigzag_a1"), Field.prime(7)),
             rebase_field(preset("degenerate"), Field.prime(11)),
             load_preset_file(hecke_file(tmp_path))]
    for p in packs:
        work(p)
    return {id(p) for p in packs}


def test_dropped_packs_are_freed(tmp_path):
    built = _build_and_drop(tmp_path)
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, PqwpParams) and id(o) in built]
    assert alive == []


def _preset_square_and_drop():
    p = preset("pro_p(5)")
    K = k_lambda(p, 3, (3,))
    assert pqwp_mul(K, K) == K.poly_left(m_lambda(p, 3, (3,)))
    assert p.memo


def test_dropped_preset_pack_is_freed():
    _preset_square_and_drop()
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, PqwpParams) and o.name == "pro_p(5)"]
    assert alive == []


def test_preset_is_cached_while_in_use():
    p = preset("pro_p(5)")
    gc.collect()
    assert preset("pro_p(5)") is p


@pytest.mark.parametrize("names", (
    ("pro_p", "pro_p(3)", "pro_p(03)", "pro_p( 3)"),
    ("pro_p(5)", "pro_p(05)", "pro_p(+5)"),
))
def test_spellings_of_one_preset_share_the_pack(names):
    """The cache keys a pack by its canonical name, so every spelling of it
    returns the one pack (and its memo) while that pack is alive."""
    p = preset(names[0])
    gc.collect()
    for name in names[1:]:
        assert preset(name) is p


def test_memo_holds_only_its_own_pack(tmp_path):
    p = load_preset_file(hecke_file(tmp_path))
    work(p)
    assert set(p.memo) == PACK_CACHED
    values = cached_values(p)
    assert values and all(v.params is p for v in values)


def test_packs_from_one_file_share_no_entry(tmp_path):
    path = hecke_file(tmp_path)
    p, q = load_preset_file(path), load_preset_file(path)
    work(p)
    work(q)
    assert p.memo is not q.memo
    assert not {id(v) for v in cached_values(p)} & {id(v) for v in cached_values(q)}


@pytest.mark.parametrize("make", [
    lambda tmp_path: rebase_field(preset("zigzag_a1"), Field.prime(7)),
    lambda tmp_path: load_preset_file(hecke_file(tmp_path)),
], ids=["rebased", "file"])
def test_cleared_memo_gives_equal_results(make, tmp_path):
    p = make(tmp_path)
    first = work(p)
    p.memo.clear()
    assert not p.memo
    assert work(p) == first
    assert set(p.memo) == PACK_CACHED
