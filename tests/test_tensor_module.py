import random
from itertools import product

import pytest

from qwreath import tensor_module
from qwreath.base_algebra import preset
from qwreath.pqwp import IdentityFailed, PqwpElement
from qwreath.symcomb import ThetaMatrix, all_perms, reduced_word
from qwreath.tensor_module import (
    ModuleMismatch, TensorVector, ThetaMap, act_H, act_pqwp, act_word,
    commutant_check, invariant_basis, tensor_relations_check,
    theta_family_rank,
)
from qwreath.tensor_poly import monomial, unit_poly


def basis_vectors(params, n, d):
    return [TensorVector.basis(params, n, d, idx)
            for idx in product(range(1, n + 1), repeat=d)]


@pytest.mark.parametrize("name", ["zigzag_a1", "savage_frobenius"])
def test_tensor_relations_hold(name):
    p = preset(name)
    assert tensor_relations_check(p, n=2, d=3, rng=random.Random(0)) == 404
    assert tensor_relations_check(p, n=3, d=4, rng=random.Random(1)) == 5466


def test_tensor_relations_catch_a_wrong_action(monkeypatch):
    """An action without its twisted-derivation part breaks the relations,
    and the check, which shares word prefixes, still notices."""
    p = preset("zigzag_a1")

    def without_rho(v, k):
        rho = TensorVector(v.params, v.n, v.d,
                           {idx: b.twisted_demazure(k) for idx, b in v.terms.items()})
        return act_H(v, k) - rho

    monkeypatch.setattr(tensor_module, "act_H", without_rho)
    with pytest.raises(IdentityFailed):
        tensor_relations_check(p, n=2, d=3, rng=random.Random(0))


def test_theta_family_is_full_rank():
    p = preset("zigzag_a1")
    assert theta_family_rank(p, (2, 1), (1, 2), 1) == {"count": 52, "rank": 52}


def test_theta_map_commutes_with_generators():
    p = preset("zigzag_a1")
    theta = ThetaMap(p, ThetaMatrix([[1, 1], [0, 1]]))
    assert commutant_check(theta, basis_vectors(p, 2, 3))


def test_pqwp_action_is_the_word_action():
    p = preset("zigzag_a1")
    for v in basis_vectors(p, 2, 3):
        for w in all_perms(3):
            h = PqwpElement.h_of_perm(p, 3, w)
            assert act_pqwp(v, h) == act_word(v, reduced_word(w))


def test_negative_parts_raise_value_error():
    p = preset("zigzag_a1")
    with pytest.raises(ValueError):
        theta_family_rank(p, (3, -1), (1, 1), 1)
    with pytest.raises(ValueError):
        invariant_basis(p, 2, (3, -1), 1)


def test_public_vector_constructor_checks_indices():
    p = preset("zigzag_a1")
    one = unit_poly(p, 3)
    for idx in ((1, 2, 3), (0, 1, 1), (1, 1)):
        with pytest.raises(ModuleMismatch):
            TensorVector(p, 2, 3, {idx: one})
    assert TensorVector(p, 2, 3, {(1, 2, 1): one - one}).terms == {}


def test_vector_results_store_no_zero_coefficient():
    p = preset("zigzag_a1")
    b = monomial(p, 3, (1, 0, 0), (1, 0, 2)) + unit_poly(p, 3)
    v = TensorVector.basis(p, 2, 3, (2, 1, 1), b)
    assert (v - v).terms == {}
    assert v.scale(0).terms == {}
    assert v.times_poly(monomial(p, 3, (1, 0, 0), (0, 0, 0))).terms != {}
    # (c⊗1⊗1)^2 = 0: the coefficient vanishes and is not stored
    c = monomial(p, 3, (1, 0, 0), (0, 0, 0))
    assert TensorVector.basis(p, 2, 3, (1, 1, 2), c).times_poly(c).terms == {}
    for w in basis_vectors(p, 2, 3) + [v]:
        for k in range(2):
            image = act_H(w, k)
            assert all(not coeff.is_zero() for coeff in image.terms.values())
