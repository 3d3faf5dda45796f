import random
from itertools import product

import pytest

from qwreath.base_algebra import preset
from qwreath.pqwp import PqwpElement
from qwreath.symcomb import ThetaMatrix, all_perms, reduced_word
from qwreath.tensor_module import (
    TensorVector, ThetaMap, act_pqwp, act_word, commutant_check,
    invariant_basis, tensor_relations_check, theta_family_rank,
)


def basis_vectors(params, n, d):
    return [TensorVector.basis(params, n, d, idx)
            for idx in product(range(1, n + 1), repeat=d)]


@pytest.mark.parametrize("name", ["zigzag_a1", "savage_frobenius"])
def test_tensor_relations_hold(name):
    p = preset(name)
    assert tensor_relations_check(p, n=2, d=3, rng=random.Random(0)) == 404


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
