import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from qwreath import tensor_module
from qwreath.base_algebra import load_preset_file, preset, rebase_field, shipped_presets
from qwreath.coeff_ring import Field, GFElement
from qwreath.pqwp import IdentityFailed, PqwpElement, eigenvector_check, k_lambda, pqwp_mul
from qwreath.symcomb import (ThetaMatrix, coset_reps, coset_shapes,
                             double_coset_reps, matrix_from_triple,
                             reduced_word, sort_index, strip_zeros,
                             theta_matrices, young_subgroup)
from qwreath.tensor_module import (
    ModuleMismatch, SpanViolation, TensorVector, ThetaMap, act_H, act_pqwp, act_word,
    add_batch, invariant_basis, is_module_map, plus_vector,
    tensor_relations_check, theta_apply, theta_family_rank, theta_on_tensor,
    times_poly_batch, weight_of,
)
from qwreath.tensor_poly import (InvarianceViolation, TensorPoly, monomial,
                                 s_ij, unit_poly, x_var, zero_poly)

PACKS = list(shipped_presets()) + ["pro_p(4)"]
MATRICES = theta_matrices(2, 3)
DATA = Path(__file__).resolve().parent / "data"
# the two test-data packs: wreath_s3's F = k[S_3] is not commutative, and
# pro_p_q3's rational scalars mix ints and Fractions
DATA_PACKS = ["wreath_s3.toml", "pro_p_q3.toml"]
# the shipped presets over Q, whose structure constants rebase_field carries
# to any prime field
REBASABLE = ["wreath", "degenerate", "nil", "opposite_nil", "zero_hecke", "zigzag_a1",
             "savage_frobenius"]


def pack(name):
    """A shipped preset, or a preset file of tests/data."""
    return load_preset_file(str(DATA / name)) if name.endswith(".toml") else preset(name)


def basis_vectors(params, n, d):
    return [TensorVector.basis(params, n, d, idx)
            for idx in product(range(1, n + 1), repeat=d)]


@pytest.mark.parametrize("name", ["zigzag_a1", "savage_frobenius"])
def test_tensor_relations_hold(name):
    p = preset(name)
    assert tensor_relations_check(p, n=2, d=3, rng=random.Random(0)) == 404
    assert tensor_relations_check(p, n=3, d=4, rng=random.Random(1)) == 5466


@pytest.mark.parametrize("name", list(shipped_presets()) + DATA_PACKS)
def test_tensor_relations_hold_on_every_preset(name):
    """On zigzag_a1 and savage_frobenius abar = R = 1 and S = 0; the other
    presets give the equal and descending index cases other constants.
    wreath_s3 has a non-commutative F, but its abar, R and S are central,
    so every coefficient product the check forms has a central factor and
    cannot tell b * q from q * b; the batched product's own test does."""
    p = pack(name)
    assert tensor_relations_check(p, n=2, d=3, rng=random.Random(0)) == 404


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name", REBASABLE)
def test_tensor_relations_hold_over_small_prime_fields(name, q):
    """The random coefficients are ints drawn from 1..4, which the
    TensorPoly constructor maps into GF(q); a draw divisible by q is zero
    there and is dropped."""
    p = rebase_field(preset(name), Field.prime(q))
    assert tensor_relations_check(p, n=2, d=3, rng=random.Random(0)) == 404


@pytest.mark.parametrize("n, d, bad", ((0, 3, "n"), (-1, 2, "n"),
                                       (2, 0, "d"), (2, -2, "d"), (0, 0, "n")))
def test_tensor_relations_reject_bad_sizes(n, d, bad):
    """A size below 1 is a ValueError naming it, raised before the random
    coefficients are drawn; d = 1 has no relation to compare."""
    p = preset("zigzag_a1")
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{bad} must be at least 1") as err:
        tensor_relations_check(p, n=n, d=d, rng=rng)
    assert type(err.value) is ValueError
    assert rng.getstate() == state
    assert tensor_relations_check(p, n=2, d=1, rng=rng) == 0


def mutant_action(monkeypatch, change, when=lambda vectors: True):
    """Replace the one implementation of the generator action, which act_H
    and the batched relation checks all go through, by the true action
    minus change(v, k), a vector over the space of v, on every batch of
    vectors for which when(vectors) holds."""
    true_batch = tensor_module.act_H_batch

    def wrong_batch(vectors, k):
        vectors = tuple(vectors)
        images = true_batch(vectors, k)
        if not when(vectors):
            return images
        return [w - change(v, k) for v, w in zip(vectors, images)]

    monkeypatch.setattr(tensor_module, "act_H_batch", wrong_batch)


def without_rho(v, k):
    """The twisted-derivation part rho_k(b) at every index."""
    return TensorVector(v.params, v.n, v.d,
                        {idx: b.twisted_demazure(k) for idx, b in v.terms.items()})


def without_s(v, k):
    """S * sigma_k(b) at every descending index, i_k > i_k+1."""
    ss = s_ij(v.params, v.d, k, k + 1)
    return TensorVector(v.params, v.n, v.d,
                        {idx: ss * b.place_permute_simple(k)
                         for idx, b in v.terms.items() if idx[k] > idx[k + 1]})


def test_tensor_relations_catch_a_wrong_action(monkeypatch):
    """An action without its twisted-derivation part breaks the relations,
    and the check, which shares word prefixes, still notices."""
    p = preset("zigzag_a1")
    mutant_action(monkeypatch, without_rho)
    with pytest.raises(IdentityFailed):
        tensor_relations_check(p, n=2, d=3, rng=random.Random(0))


def test_tensor_relations_catch_a_missing_s_term(monkeypatch):
    """Dropping S * sigma_k(b) from the descending case is caught where
    S = (q-1)*1, and cannot be seen where S = 0."""
    mutant_action(monkeypatch, without_s)
    with pytest.raises(IdentityFailed):
        tensor_relations_check(preset("affine_hecke"), n=2, d=3,
                               rng=random.Random(0))
    assert tensor_relations_check(preset("zigzag_a1"), n=2, d=3,
                                  rng=random.Random(0)) == 404


@pytest.mark.parametrize("batch, when", (("pure", lambda vectors: len(vectors) > 1),
                                         ("of one", lambda vectors: len(vectors) == 1)))
def test_each_kind_of_batch_is_checked(monkeypatch, batch, when):
    """At n = 2, d = 3 the eight pure vectors are acted on as one batch and
    each random sample as a batch of one: a missing S * sigma_k(b) in only
    one kind of batch is still caught."""
    mutant_action(monkeypatch, without_s, when)
    with pytest.raises(IdentityFailed):
        tensor_relations_check(preset("affine_hecke"), n=2, d=3,
                               rng=random.Random(0))


@pytest.mark.parametrize("name", ["zigzag_a1", "savage_frobenius"])
def test_relations_check_shares_products_between_vectors(monkeypatch, name):
    """The pure vectors hold one unit object, so their word images and
    coefficient products are worked out once per coefficient object, and
    the sums of the two sides once per pair of objects: a unit of their own
    for each pure vector makes about 17,000 products and 2,000 sigma_k and
    rho_k calls each, and summing vector by vector about 5,400 sums."""
    calls = Counter()
    for attr in ("__add__", "__mul__", "place_permute_simple", "twisted_demazure"):
        def spy(self, *args, _true=getattr(TensorPoly, attr), _attr=attr):
            calls[_attr] += 1
            return _true(self, *args)
        monkeypatch.setattr(TensorPoly, attr, spy)
    assert tensor_relations_check(preset(name), n=3, d=4,
                                  rng=random.Random(1)) == 5466
    assert calls["__add__"] <= 1000
    assert calls["__mul__"] <= 2000
    assert calls["place_permute_simple"] <= 800
    assert calls["twisted_demazure"] <= 800


def test_batched_product_is_the_product_of_each_vector():
    """times_poly_batch gives b * q for every term of every vector, also
    where vectors share b, and stores no zero coefficient: on zigzag_a1
    (c⊗1⊗1)^2 = 0."""
    p = preset("zigzag_a1")
    b = monomial(p, 3, (1, 0, 0), (1, 0, 2)) + unit_poly(p, 3)
    c = monomial(p, 3, (1, 0, 0), (0, 0, 0))
    batch = [TensorVector(p, 2, 3, {(1, 1, 2): b, (2, 1, 1): c}),
             TensorVector(p, 2, 3, {(1, 2, 1): b, (2, 2, 2): c}),
             TensorVector.zero(p, 2, 3)]
    for q in (c, b, x_var(p, 3, 1) + c, unit_poly(p, 3), zero_poly(p, 3)):
        out = times_poly_batch(batch, q)
        assert out == [TensorVector(p, 2, 3, {idx: a * q for idx, a in v.terms.items()})
                       for v in batch]
        assert out == [v.times_poly(q) for v in batch]
        assert all(all(w.terms.values()) for w in out)
    out = times_poly_batch(batch, c)
    assert set(out[0].terms) == {(1, 1, 2)} and set(out[1].terms) == {(1, 2, 1)}
    assert times_poly_batch([], c) == []


def test_batched_product_keeps_the_coefficient_on_the_left():
    """F = k[S_3] is not commutative: a vector's coefficient b, shared by
    two vectors, is multiplied by q on the right."""
    p = pack("wreath_s3.toml")
    labels = p.algebra.labels
    s, t = labels.index("s"), labels.index("t")
    b = monomial(p, 2, (s, 0), (1, 0))
    q = monomial(p, 2, (t, 0), (0, 0))
    assert b * q != q * b
    batch = [TensorVector.basis(p, 2, 2, (1, 2), b),
             TensorVector.basis(p, 2, 2, (2, 2), b)]
    assert times_poly_batch(batch, q) == [TensorVector.basis(p, 2, 2, idx, b * q)
                                          for idx in ((1, 2), (2, 2))]


def test_coefficient_pass_through_with_non_central_coefficients():
    """(v * H_k) * q = (v * sigma_k(q)) * H_k + v * rho_k(q) for v = v_i * b
    over F = k[S_3], with b and q not central, at every index tuple i.  The
    right-hand side is written out as v_i * (b * sigma_k(q)) and
    v_i * (b * rho_k(q)), so an action that multiplied b by q on the left
    would break it; the relation check itself only multiplies by central
    factors here."""
    p = pack("wreath_s3.toml")
    labels = p.algebra.labels
    s, t, st = (labels.index(a) for a in ("s", "t", "st"))
    n, d = 2, 3
    bs = [monomial(p, d, (s, 0, t), (1, 0, 0))
          + monomial(p, d, (0, st, 0), (0, 2, 1), 2),
          monomial(p, d, (t, s, 0), (0, 1, 0))]
    qs = [monomial(p, d, (t, t, s), (0, 0, 1))
          + monomial(p, d, (st, 0, 0), (1, 0, 0), 3),
          monomial(p, d, (s, t, st), (2, 0, 0))]
    assert all(b * q != q * b for b in bs for q in qs)
    for b, q in product(bs, qs):
        for idx in product(range(1, n + 1), repeat=d):
            v = TensorVector.basis(p, n, d, idx, b)
            for k in range(d - 1):
                moved = TensorVector.basis(p, n, d, idx, b * q.place_permute_simple(k))
                kept = TensorVector(p, n, d, {idx: b * q.twisted_demazure(k)})
                assert act_H(v, k).times_poly(q) == act_H(moved, k) + kept


def test_batched_sum_is_the_sum_of_each_pair():
    """add_batch gives x + y for every pair, also where vectors share
    coefficient objects, and a sum that cancels stores no index."""
    p = preset("zigzag_a1")
    b = monomial(p, 3, (1, 0, 0), (1, 0, 2)) + unit_poly(p, 3)
    c = monomial(p, 3, (1, 0, 0), (0, 0, 0))
    lefts = [TensorVector(p, 2, 3, {(1, 1, 2): b, (2, 1, 1): c}),
             TensorVector(p, 2, 3, {(1, 1, 2): c, (2, 1, 1): b}),
             TensorVector(p, 2, 3, {(1, 2, 1): b}),
             TensorVector.zero(p, 2, 3)]
    rights = [TensorVector(p, 2, 3, {(1, 1, 2): b, (2, 1, 1): -c}),
              TensorVector(p, 2, 3, {(1, 1, 2): b, (2, 2, 2): c}),
              TensorVector(p, 2, 3, {(1, 2, 1): -b}),
              TensorVector.basis(p, 2, 3, (2, 2, 1), c)]
    for xs, ys in ((lefts, rights), (rights, lefts), (lefts, lefts)):
        out = add_batch(xs, ys)
        assert out == [TensorVector(p, 2, 3, {idx: x.terms.get(idx, zero_poly(p, 3))
                                              + y.terms.get(idx, zero_poly(p, 3))
                                              for idx in set(x.terms) | set(y.terms)})
                       for x, y in zip(xs, ys)]
        assert out == [x + y for x, y in zip(xs, ys)]
        assert all(all(w.terms.values()) for w in out)
    out = add_batch(lefts, rights)
    assert set(out[0].terms) == {(1, 1, 2)}
    assert out[2].terms == {}
    assert add_batch([], []) == []


def test_batched_sum_rejects_mixed_spaces_and_unequal_batches():
    p = preset("zigzag_a1")
    v = TensorVector.basis(p, 2, 3, (1, 1, 2))
    others = (TensorVector.basis(p, 3, 3, (1, 1, 2)),
              TensorVector.basis(p, 2, 2, (1, 1)),
              TensorVector.basis(preset("savage_frobenius"), 2, 3, (1, 1, 2)))
    for w in others:
        for lefts, rights in (([v], [w]), ([v, w], [v, v]), ([v, v], [v, w])):
            with pytest.raises(ModuleMismatch):
                add_batch(lefts, rights)
        with pytest.raises(ModuleMismatch):
            v + w
    with pytest.raises(ValueError, match="batches of 2 and 1"):
        add_batch([v, v], [v])
    with pytest.raises(ValueError):
        add_batch([], [v])
    with pytest.raises(TypeError):
        v + unit_poly(p, 3)


def test_tensor_relations_catch_a_batched_sum_that_reuses_one_pair(monkeypatch):
    """A batched sum that gives every pair the first pair's sum is caught
    on the pure batch; batches of one are unaffected by it."""
    true_add = tensor_module.add_batch

    def wrong_add(lefts, rights):
        out = true_add(lefts, rights)
        return [out[0]] * len(out) if out else out

    monkeypatch.setattr(tensor_module, "add_batch", wrong_add)
    with pytest.raises(IdentityFailed):
        tensor_relations_check(preset("affine_hecke"), n=2, d=3,
                               rng=random.Random(0))


def test_theta_family_is_full_rank():
    p = preset("zigzag_a1")
    assert theta_family_rank(p, (2, 1), (1, 2), 1) == {"count": 52, "rank": 52}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name, count", [("degenerate", 7), ("nil", 7), ("zigzag_a1", 52)])
def test_prime_field_rows_reach_elimination_as_field_scalars(monkeypatch, name, count, q):
    """Over GF(2) and GF(3) the theta family has the rank it has over Q,
    every entry that reaches echelon_pivots is a GF(q) element, and K_lam
    is an eigenvector as over Q."""
    p = rebase_field(preset(name), Field.prime(q))
    entries = set()

    def spy(rows, _true=tensor_module.echelon_pivots):
        rows = list(rows)
        entries.update((type(c), getattr(c, "p", None)) for row in rows for c in row.values())
        return _true(rows)

    monkeypatch.setattr(tensor_module, "echelon_pivots", spy)
    assert theta_family_rank(p, (2, 1), (1, 2), 1) == {"count": count, "rank": count}
    assert entries == {(GFElement, q)}
    for lam in ((3,), (2, 1)):
        eigenvector_check(p, 3, lam)


def test_theta_map_commutes_with_generators():
    p = preset("zigzag_a1")
    theta = ThetaMap(p, ThetaMatrix([[1, 1], [0, 1]]))
    assert commutant_check(theta, basis_vectors(p, 2, 3))


def test_pqwp_action_is_the_word_action():
    p = preset("zigzag_a1")
    for v in basis_vectors(p, 2, 3):
        for w in young_subgroup((3,)):
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
    # a zero coefficient's index is checked too, before the zero is dropped
    for b in (one, zero_poly(p, 3)):
        for idx in ((1, 2, 3), (0, 1, 1), (1, 1), (9, 9, 9, 9)):
            with pytest.raises(ModuleMismatch):
                TensorVector(p, 2, 3, {idx: b})
            with pytest.raises(ModuleMismatch):
                TensorVector(p, 2, 3, {(1, 1, 2): one, idx: b})
    assert TensorVector(p, 2, 3, {(1, 2, 1): one - one}).terms == {}
    # a coefficient over another pack or another d is refused as well
    for other in (unit_poly(preset("degenerate"), 3), unit_poly(p, 2),
                  zero_poly(p, 2), 1):
        with pytest.raises(ModuleMismatch):
            TensorVector(p, 2, 3, {(1, 1, 2): other})
    with pytest.raises(ModuleMismatch):
        TensorVector(preset("affine_hecke"), 2, 2, {(1, 1): unit_poly(preset("degenerate"), 3)})


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
            assert all(image.terms.values())


def random_poly(p, d, rng, terms=2, degree=2):
    """1 plus a few monomials with random F-legs and x-exponents."""
    nf = len(p.algebra.labels)
    out = unit_poly(p, d)
    for _ in range(terms):
        fkey = tuple(rng.randrange(nf) for _ in range(d))
        exps = tuple(rng.randrange(degree + 1) for _ in range(d))
        out = out + monomial(p, d, fkey, exps, rng.randrange(1, 4))
    return out


def commutant_samples(p, n, d, seed=0):
    """Every basis vector, and basis vectors with x-dependent coefficients."""
    rng = random.Random(seed)
    out = basis_vectors(p, n, d)
    for idx in product(range(1, n + 1), repeat=d):
        out.append(TensorVector.basis(p, n, d, idx, random_poly(p, d, rng)))
    return out


def commutant_check(theta, samples):
    """The sampled oracle for ``is_module_map``: whether the block map
    commutes with every generator action on every sample vector."""
    for v in samples:
        for k in range(theta.d - 1):
            if theta_on_tensor(theta, act_H(v, k)) != act_H(
                    theta_on_tensor(theta, v), k):
                return False
    return True


def block_map_data(p, lam, mu, degree, per_coset=None):
    """(A, P) for every block map from mu to lam whose coefficient P is a
    degree-bounded invariant, at most per_coset of them per double coset."""
    for g in double_coset_reps(strip_zeros(lam), strip_zeros(mu)):
        A = matrix_from_triple(lam, g, mu)
        _, delta = coset_shapes(lam, g, mu)
        for P in invariant_basis(p, sum(lam), delta, degree)[:per_coset]:
            yield A, P


def unfixed_core(theta):
    """P * H_g * K^upper_{mu,delta}, with P on the left of H_g: the core of
    ``ThetaMap`` before it was fixed, and not a module map for every P."""
    rest = pqwp_mul(PqwpElement.h_of_perm(theta.params, theta.d, theta.g),
                    k_lambda(theta.params, theta.d, strip_zeros(theta.source),
                             "upper", theta.delta))
    return rest.poly_left(theta.P)


@pytest.mark.parametrize("lam, mu", (((2, 1), (1, 2)), ((1, 2), (2, 1))))
@pytest.mark.parametrize("name, degree, per_coset", (
    ("affine_hecke", 1, None), ("nil", 1, None), ("zigzag_a1", 1, None),
    ("pro_p", 1, None), ("wreath_s3.toml", 0, 40)))
def test_block_maps_with_a_coefficient_are_module_maps(name, degree, per_coset,
                                                       lam, mu):
    """H_g * P * K is a module map for every invariant P, not only P = 1:
    with P on the left of H_g, 2 of 7 maps fail on affine_hecke and nil,
    18 of 52 on zigzag_a1 and pro_p, and 38 of 80 on k[S_3] at (2,1)/(1,2)."""
    p = pack(name)
    maps = [ThetaMap(p, A, P) for A, P in block_map_data(p, lam, mu, degree, per_coset)]
    assert maps
    bad = [(theta.A.rows, str(theta.P)) for theta in maps
           if not is_module_map(theta)]
    assert not bad


@pytest.mark.parametrize("A", MATRICES, ids=repr)
@pytest.mark.parametrize("name", PACKS)
def test_every_block_map_commutes_with_generators(name, A):
    p = preset(name)
    assert commutant_check(ThetaMap(p, A), commutant_samples(p, 2, 3))


def test_commutant_check_sees_a_wrong_block_map():
    """Without the y_mu^delta factor the map is not a module map."""
    p = preset("pro_p")
    theta = ThetaMap(p, ThetaMatrix([[1, 1], [0, 1]]))
    theta.core = pqwp_mul(PqwpElement.of_poly(theta.P),
                          PqwpElement.h_of_perm(p, 3, theta.g))
    assert not commutant_check(theta, commutant_samples(p, 2, 3))
    assert not is_module_map(theta)


@pytest.mark.parametrize("name, degree, per_coset", (
    ("affine_hecke", 1, None), ("zigzag_a1", 1, None), ("wreath_s3.toml", 0, 40)))
def test_is_module_map_agrees_with_the_sampled_check(name, degree, per_coset):
    """Map by map, the exact check and the sampled one give the same answer
    on the fixed cores and on the unfixed ones, among which both answers
    occur; (3,0) appears as a target and as a source with a zero part."""
    p = pack(name)
    samples = commutant_samples(p, 2, 3)
    answers = set()
    for lam, mu in (((2, 1), (1, 2)), ((3, 0), (1, 2)), ((1, 2), (3, 0))):
        for A, P in block_map_data(p, lam, mu, degree, per_coset):
            fixed, unfixed = ThetaMap(p, A, P), ThetaMap(p, A, P)
            unfixed.core = unfixed_core(unfixed)
            for theta in (fixed, unfixed):
                exact = is_module_map(theta)
                assert exact == commutant_check(theta, samples), (A.rows, str(P))
                answers.add(exact)
    assert answers == {True, False}


@pytest.mark.parametrize("name", ("affine_hecke", "zigzag_a1", "pro_p", "wreath_s3.toml"))
def test_theta_on_tensor_is_the_core_times_the_right_coefficients(name):
    """On the source slice, a sum of v_{mu+ . w} * c_w is v_mu+ * a with
    a = sum of H_w c_w, and theta_on_tensor gives v_lam+ * core * a, also
    for a non-constant P; every other slice goes to zero."""
    p = pack(name)
    rng = random.Random(5)
    for A in MATRICES:
        P = invariant_basis(p, 3, ThetaMap(p, A).delta, 1)[-1]
        assert all(sum(exps) == 1 for exps, _ in P.terms)
        theta = ThetaMap(p, A, P)
        terms = {idx: random_poly(p, 3, rng, terms=1)
                 for idx in product((1, 2), repeat=3)}
        source = {idx: c for idx, c in terms.items()
                  if weight_of(idx, 2) == A.mu}
        rest = TensorVector(p, 2, 3, {idx: c for idx, c in terms.items()
                                      if idx not in source})
        a = PqwpElement.zero(p, 3)
        for idx, c in source.items():
            a = a + pqwp_mul(PqwpElement.h_of_perm(p, 3, sort_index(idx)),
                             PqwpElement.of_poly(c))
        expected = act_pqwp(plus_vector(p, A.lam), pqwp_mul(theta.core, a))
        assert theta_on_tensor(theta, TensorVector(p, 2, 3, terms)) == expected, A
        assert theta_on_tensor(theta, rest) == TensorVector.zero(p, 2, 3), A


def psi(p, lam, coords):
    """The permutation module's coordinates {g: b} as the slice vector
    v_lam+ * (sum of b H_g)."""
    return act_pqwp(plus_vector(p, lam), PqwpElement(p, sum(lam), dict(coords)))


@pytest.mark.parametrize("name", PACKS)
def test_theta_apply_and_theta_on_tensor_agree_through_psi(name):
    p = preset(name)
    rng = random.Random(7)
    for A in MATRICES:
        theta = ThetaMap(p, A)
        reps = coset_reps(strip_zeros(theta.source), "left")
        coords = {g: random_poly(p, 3, rng, terms=1) for g in reps
                  if rng.random() < 0.6}
        assert psi(p, theta.target, theta_apply(theta, coords)) == \
            theta_on_tensor(theta, psi(p, theta.source, coords)), A


def test_theta_apply_rejects_coefficients_over_other_data():
    p = preset("affine_hecke")
    theta = ThetaMap(p, ThetaMatrix([[1, 1], [0, 1]]))
    for c in (unit_poly(p, 4), unit_poly(preset("degenerate"), 3)):
        with pytest.raises(ModuleMismatch):
            theta_apply(theta, {(0, 1, 2): c})


@pytest.mark.parametrize("name", ("affine_hecke", "zigzag_a1", "pro_p"))
@pytest.mark.parametrize("n, d", ((2, 3), (2, 4), (3, 3)))
def test_block_map_core_sits_on_shortest_representatives(name, n, d):
    """Every term of a block map's core lies on a shortest representative
    of S_lam \\ S_d for the target weight lam."""
    p = preset(name)
    for A in theta_matrices(n, d):
        theta = ThetaMap(p, A)
        reps = set(coset_reps(strip_zeros(theta.target), "left"))
        assert set(theta.core.terms) <= reps, A


def test_theta_apply_rejects_a_result_without_leading_terms(monkeypatch):
    """Without the y_lam factor the image of y_mu is the core, which sits on
    shortest representatives and not on their w0-translates, so the
    leading-term read finds nothing."""
    p = preset("affine_hecke")
    theta = ThetaMap(p, ThetaMatrix([[1, 1], [0, 1]]))
    monkeypatch.setattr(tensor_module, "k_lambda",
                        lambda params, d, lam: PqwpElement.one(params, d))
    with pytest.raises(SpanViolation):
        theta_apply(theta, {(0, 1, 2): unit_poly(p, 3)})


def test_plus_vector_times_a_shortest_representative_is_a_basis_vector():
    p = preset("pro_p")
    for lam in ((2, 1), (1, 2), (0, 3), (1, 1, 1)):
        for g in coset_reps(strip_zeros(lam), "left"):
            v = act_pqwp(plus_vector(p, lam), PqwpElement.h_of_perm(p, 3, g))
            plus = plus_vector(p, lam).support()[0]
            idx = tuple(plus[g[j]] for j in range(3))
            assert v == TensorVector.basis(p, len(lam), 3, idx)


def random_element(p, d, rng, terms=3):
    perms = list(young_subgroup((d,)))
    return PqwpElement(p, d, {rng.choice(perms): random_poly(p, d, rng, terms=1)
                              for _ in range(terms)})


@pytest.mark.parametrize("name", PACKS)
def test_algebra_action_is_a_module_action(name):
    """v * (a b) == (v * a) * b: pqwp_mul is the oracle for act_H."""
    p = preset(name)
    rng = random.Random(3)
    for _ in range(3):
        idx = tuple(rng.randrange(1, 3) for _ in range(3))
        v = TensorVector.basis(p, 2, 3, idx, random_poly(p, 3, rng, terms=1))
        a, b = random_element(p, 3, rng), random_element(p, 3, rng)
        assert act_pqwp(v, pqwp_mul(a, b)) == act_pqwp(act_pqwp(v, a), b)


def test_non_square_block_map_rejects_tensor_vectors():
    p = preset("zigzag_a1")
    theta = ThetaMap(p, ThetaMatrix([[1, 1, 1]]))
    for n in (1, 3):
        v = TensorVector.basis(p, n, 3, (1,) * 3)
        with pytest.raises(ModuleMismatch):
            theta_on_tensor(theta, v)
    assert theta_family_rank(p, (3,), (1, 1, 1), 0) == {"count": 8, "rank": 8}


def test_invariant_basis_needs_a_composition_of_d():
    p = preset("zigzag_a1")
    for d, delta in ((3, (1, 1)), (2, (1, 1, 1))):
        with pytest.raises(ValueError):
            invariant_basis(p, d, delta, 1)


def test_block_map_rejects_a_non_invariant_coefficient():
    p = preset("zigzag_a1")
    A = ThetaMatrix([[2, 0], [0, 1]])
    with pytest.raises(InvarianceViolation):
        ThetaMap(p, A, x_var(p, 3, 0))
    ThetaMap(p, A, x_var(p, 3, 0) + x_var(p, 3, 1))


def test_vector_rendering():
    """Zero is "0", a unit coefficient shows the bare index, and a sum
    coefficient is bracketed."""
    p = preset("degenerate")
    d = 2
    assert str(TensorVector.zero(p, 2, d)) == "0"
    x1 = x_var(p, d, 0)
    v = (TensorVector.basis(p, 2, d, (1, 2))
         + TensorVector.basis(p, 2, d, (2, 1), x1 + unit_poly(p, d))
         + TensorVector.basis(p, 2, d, (2, 2), x1))
    assert str(v) == "v[1,2] + v[2,1]*((1⊗1)*x1 + (1⊗1)) + v[2,2]*(1⊗1)*x1"


def _laurent(p, d, exps, c):
    u = p.algebra.unit_index
    return TensorPoly(p, d, {(exps, (u,) * d): c})


# (coefficient builder, its own rendering, rendering beside H_{s_1},
# rendering beside v[1,2]); the builders take the pack, d and a unit built
# apart from unit_poly
COEFFICIENT_RENDERINGS = [
    pytest.param(lambda p, d, one: one, "(1⊗1)", "H[1]", "v[1,2]", id="unit"),
    pytest.param(lambda p, d, one: one.scale(2), "2*(1⊗1)", "2*(1⊗1)*H[1]",
                 "v[1,2]*2*(1⊗1)", id="2"),
    pytest.param(lambda p, d, one: one.scale(Fraction(2, 3)), "(2/3)*(1⊗1)",
                 "(2/3)*(1⊗1)*H[1]", "v[1,2]*(2/3)*(1⊗1)", id="2/3"),
    pytest.param(lambda p, d, one: one.scale(Fraction(-1, 3)), "-(1/3)*(1⊗1)",
                 "-(1/3)*(1⊗1)*H[1]", "-v[1,2]*(1/3)*(1⊗1)", id="-1/3"),
    pytest.param(lambda p, d, one: -x_var(p, d, 0), "-(1⊗1)*x1", "-(1⊗1)*x1*H[1]",
                 "-v[1,2]*(1⊗1)*x1", id="-x1"),
    pytest.param(lambda p, d, one: x_var(p, d, 0) + x_var(p, d, 1),
                 "(1⊗1)*x1 + (1⊗1)*x2", "((1⊗1)*x1 + (1⊗1)*x2)*H[1]",
                 "v[1,2]*((1⊗1)*x1 + (1⊗1)*x2)", id="x1+x2"),
    pytest.param(lambda p, d, one: x_var(p, d, 0) - one, "(1⊗1)*x1 - (1⊗1)",
                 "((1⊗1)*x1 - (1⊗1))*H[1]", "v[1,2]*((1⊗1)*x1 - (1⊗1))", id="x1-1"),
    pytest.param(lambda p, d, one: x_var(p, d, 0) - one.scale(Fraction(1, 3)),
                 "(1⊗1)*x1 - (1/3)*(1⊗1)", "((1⊗1)*x1 - (1/3)*(1⊗1))*H[1]",
                 "v[1,2]*((1⊗1)*x1 - (1/3)*(1⊗1))", id="x1-1/3"),
    pytest.param(lambda p, d, one: _laurent(p, d, (-1, 0), 3), "3*(1⊗1)*x1^-1",
                 "3*(1⊗1)*x1^-1*H[1]", "v[1,2]*3*(1⊗1)*x1^-1", id="3/x1"),
    pytest.param(lambda p, d, one: _laurent(p, d, (-1, 0), -1), "-(1⊗1)*x1^-1",
                 "-(1⊗1)*x1^-1*H[1]", "-v[1,2]*(1⊗1)*x1^-1", id="-1/x1"),
]


@pytest.mark.parametrize("build, poly, element, vector", COEFFICIENT_RENDERINGS)
def test_coefficient_beside_a_basis_element(build, poly, element, vector):
    """A tensor polynomial, an algebra element and a tensor vector show a
    coefficient beside its basis element by one rule: the unit, even one
    built apart from unit_poly, is left out; a leading minus, the only sign
    outside brackets, moves to the front of the term; any other sign or a
    slash outside brackets brackets the coefficient (the sign of an
    exponent does not count).  pro_p_q3's rational scalars are ints and
    Fractions."""
    p = pack("pro_p_q3.toml")
    d = 2
    u = p.algebra.unit_index
    one = TensorPoly(p, d, {((0, 0), (u, u)): Fraction(1)})
    c = build(p, d, one)
    assert str(c) == poly
    assert str(PqwpElement(p, d, {(1, 0): c})) == element
    assert str(TensorVector.basis(p, 2, d, (1, 2), c)) == vector


def test_rational_function_coefficient_rendering():
    """A rational-function scalar follows the same rule: a sum or a quotient
    is bracketed, a leading minus moves to the front."""
    p = preset("affine_hecke")
    d = 2
    q = p.algebra.field.param("q")
    one = unit_poly(p, d)
    for c, poly, element, vector in [
        (q - 1, "(q-1)*(1⊗1)", "(q-1)*(1⊗1)*H[1]", "v[1,2]*(q-1)*(1⊗1)"),
        (-q, "-q*(1⊗1)", "-q*(1⊗1)*H[1]", "-v[1,2]*q*(1⊗1)"),
        (-1 / q, "-(1/q)*(1⊗1)", "-(1/q)*(1⊗1)*H[1]", "-v[1,2]*(1/q)*(1⊗1)"),
    ]:
        cp = one.scale(c)
        assert str(cp) == poly
        assert str(PqwpElement(p, d, {(1, 0): cp})) == element
        assert str(TensorVector.basis(p, 2, d, (1, 2), cp)) == vector


def test_signed_sums_of_basis_elements():
    """A negative term of an algebra element or a tensor vector is joined
    with " - "."""
    p = pack("pro_p_q3.toml")
    d = 2
    third = unit_poly(p, d).scale(Fraction(-1, 3))
    assert str(PqwpElement(p, d, {(1, 0): -x_var(p, d, 1), (0, 1): third})) \
        == "-(1⊗1)*x2*H[1] - (1/3)*(1⊗1)"
    assert str(TensorVector.basis(p, 2, d, (1, 2))
               + TensorVector.basis(p, 2, d, (2, 1), third)) \
        == "v[1,2] - v[2,1]*(1/3)*(1⊗1)"
