"""The batched generator action against a per-vector reference: the
three-way case split worked out term by term, with no sharing."""

import random
from itertools import product

import pytest

from qwreath.base_algebra import preset
from qwreath.tensor_module import (ModuleMismatch, TensorVector, act_H,
                                   act_H_batch)
from qwreath.tensor_poly import (TensorPoly, abar_ij, monomial, r_ij, s_ij,
                                 unit_poly)

PACKS = ["zigzag_a1", "affine_hecke", "pro_p"]
N, D = 2, 3


def reference_act_H(v, k):
    """Right action of the k-th Hecke generator on v, one term at a time:
    sigma_k(b) and rho_k(b) are computed afresh for every term."""
    params, d = v.params, v.d
    abar = abar_ij(params, d, k, k + 1)
    rr = r_ij(params, d, k, k + 1)
    ss = s_ij(params, d, k, k + 1)
    out = {}

    def bump(idx, b):
        if not b:
            return
        cur = out.get(idx)
        out[idx] = b if cur is None else cur + b

    for idx, b in v.terms.items():
        swapped = b.place_permute_simple(k)
        rho = b.twisted_demazure(k)
        moved = list(idx)
        moved[k], moved[k + 1] = moved[k + 1], moved[k]
        moved = tuple(moved)
        if idx[k] < idx[k + 1]:
            bump(moved, swapped)
            bump(idx, rho)
        elif idx[k] == idx[k + 1]:
            bump(idx, abar * swapped + rho)
        else:
            bump(moved, rr * swapped)
            bump(idx, rho + ss * swapped)
    return TensorVector(params, v.n, v.d, out)


def random_poly(p, d, rng):
    """1 plus three monomials with random F-legs, x-exponents and
    coefficients, negative exponents on Laurent packs."""
    lo = -1 if p.variant == "laurent" else 0
    nf = len(p.algebra.labels)
    out = unit_poly(p, d)
    for _ in range(3):
        fkey = tuple(rng.randrange(nf) for _ in range(d))
        exps = tuple(rng.randint(lo, 2) for _ in range(d))
        out = out + monomial(p, d, fkey, exps, rng.randrange(1, 4))
    return out


def indices(n, d):
    return list(product(range(1, n + 1), repeat=d))


def assert_matches_reference(vectors, k):
    got = act_H_batch(vectors, k)
    assert len(got) == len(vectors)
    for v, w in zip(vectors, got):
        assert w == reference_act_H(v, k)
        assert w == act_H(v, k)
        assert all(w.terms.values())


@pytest.mark.parametrize("name", PACKS)
def test_one_shared_coefficient_in_every_index_case(name):
    """Every basis vector of the tensor power holds the same object b, so
    the batch meets it at ascending, equal and descending entries."""
    p = preset(name)
    b = random_poly(p, D, random.Random(0))
    vectors = [TensorVector.basis(p, N, D, idx, b) for idx in indices(N, D)]
    # one vector that holds b at every index, besides
    vectors.append(TensorVector(p, N, D, {idx: b for idx in indices(N, D)}))
    for k in range(D - 1):
        cases = {(i[k] > i[k + 1]) - (i[k] < i[k + 1]) for i in indices(N, D)}
        assert cases == {-1, 0, 1}
        assert_matches_reference(vectors, k)


@pytest.mark.parametrize("name", PACKS)
def test_equal_but_distinct_coefficient_objects(name):
    p = preset(name)
    rng = random.Random(1)
    b = random_poly(p, D, rng)
    twin = TensorPoly(p, D, dict(b.terms))
    assert twin == b and twin is not b
    c = random_poly(p, D, rng)
    vectors = []
    for idx in indices(N, D):
        vectors.append(TensorVector.basis(p, N, D, idx, b))
        vectors.append(TensorVector.basis(p, N, D, idx, twin))
        vectors.append(TensorVector(p, N, D, {idx: twin, (2, 1, 1): c, (1, 1, 2): b}))
    for k in range(D - 1):
        assert_matches_reference(vectors, k)


@pytest.mark.parametrize("name", PACKS)
def test_zero_vectors_and_the_empty_batch(name):
    p = preset(name)
    zero = TensorVector.zero(p, N, D)
    b = random_poly(p, D, random.Random(2))
    vectors = [zero, TensorVector.basis(p, N, D, (2, 1, 2), b), zero]
    for k in range(D - 1):
        assert act_H_batch([], k) == []
        assert act_H_batch(iter(()), k) == []
        got = act_H_batch(vectors, k)
        assert got[0].terms == {} and got[2].terms == {}
        assert_matches_reference(vectors, k)


@pytest.mark.parametrize("name", PACKS)
def test_random_vectors(name):
    p = preset(name)
    rng = random.Random(3)
    shared = [random_poly(p, D, rng) for _ in range(3)]
    vectors = []
    for _ in range(12):
        terms = {}
        for idx in rng.sample(indices(N, D), 4):
            terms[idx] = rng.choice(shared) if rng.random() < 0.5 else random_poly(p, D, rng)
        vectors.append(TensorVector(p, N, D, terms))
    for k in range(D - 1):
        assert_matches_reference(vectors, k)


def test_images_of_a_shared_object_are_computed_once(monkeypatch):
    p = preset("affine_hecke")
    b = random_poly(p, D, random.Random(4))
    calls = []
    for method in ("place_permute_simple", "twisted_demazure"):
        true = getattr(TensorPoly, method)

        def counted(self, i, true=true, method=method):
            calls.append(method)
            return true(self, i)
        monkeypatch.setattr(TensorPoly, method, counted)
    vectors = [TensorVector.basis(p, N, D, idx, b) for idx in indices(N, D)]
    act_H_batch(vectors, 0)
    assert sorted(calls) == ["place_permute_simple", "twisted_demazure"]


@pytest.mark.parametrize("name", PACKS)
def test_a_cancelling_sum_stores_no_index(name):
    """v = v_12 * b + v_21 * c under H_1: the swapped image sigma(b) of the
    first term and the kept image rho(c) + S sigma(c) of the second meet at
    index 21, and b is chosen so that they cancel there."""
    p = preset(name)
    c = random_poly(p, 2, random.Random(5))
    kept = c.twisted_demazure(0) + s_ij(p, 2, 0, 1) * c.place_permute_simple(0)
    b = -kept.place_permute_simple(0)
    assert b
    v = TensorVector(p, N, 2, {(1, 2): b, (2, 1): c})
    twin = TensorVector(p, N, 2, {(1, 2): b, (2, 1): c, (2, 2): c})
    got = act_H_batch([v, twin], 0)
    assert (2, 1) not in got[0].terms and (2, 1) not in got[1].terms
    for w in got:
        assert all(w.terms.values())
    assert_matches_reference([v, twin], 0)


def test_images_are_built_without_a_zero_scan(monkeypatch):
    """Each image is built from nonzero parts and sums whose zero test was
    made when they were formed, so act_H_batch calls no TensorVector._like."""
    p = preset("zigzag_a1")
    calls = []
    true_like = TensorVector._like

    def counted(self, terms):
        calls.append(len(terms))
        return true_like(self, terms)
    monkeypatch.setattr(TensorVector, "_like", counted)
    shared = random_poly(p, D, random.Random(6))
    vectors = [TensorVector(p, N, D, {idx: shared, (2, 1, 1): shared * shared})
               for idx in indices(N, D)]
    for k in range(D - 1):
        got = act_H_batch(vectors, k)
        assert calls == []
        assert got == [reference_act_H(v, k) for v in vectors]


def test_generator_index_out_of_range():
    p = preset("zigzag_a1")
    v = TensorVector.basis(p, N, D, (1, 2, 1))
    for k in (-1, D - 1, D):
        with pytest.raises(ValueError):
            act_H_batch([v], k)
        with pytest.raises(ValueError):
            act_H(v, k)


def test_one_batch_lives_in_one_tensor_power():
    p, q = preset("zigzag_a1"), preset("affine_hecke")
    v = TensorVector.basis(p, N, D, (1, 2, 1))
    for other in (TensorVector.basis(q, N, D, (1, 2, 1)),
                  TensorVector.basis(p, N + 1, D, (1, 2, 1)),
                  TensorVector.basis(p, N, D + 1, (1, 2, 1, 1)),
                  TensorVector.zero(p, N + 1, D)):
        with pytest.raises(ModuleMismatch):
            act_H_batch([v, other], 0)
        with pytest.raises(ModuleMismatch):
            act_H_batch([other, v], 0)
