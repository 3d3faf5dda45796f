import math
import random

import pytest

from qwreath import symcomb as sc


def test_mul_applies_right_factor_first():
    # u*v sends i to u[v[i]]
    u = (1, 0, 2)
    v = (0, 2, 1)
    assert sc.mul(u, v) == (1, 2, 0)


def test_inverse_and_length():
    w = sc.from_one_line("|1 3 4 2|")
    assert w == (0, 2, 3, 1)
    assert sc.mul(w, sc.inverse(w)) == sc.identity(4)
    assert sc.length(w) == 2
    assert sc.inv_set((1, 2, 0)) == {(0, 2), (1, 2)}


def test_one_line_roundtrip():
    for w in sc.young_subgroup((4,)):
        assert sc.from_one_line(sc.to_one_line(w)) == w


def test_reduced_word_rebuilds():
    for d in (2, 3, 4):
        for w in sc.young_subgroup((d,)):
            word = sc.reduced_word(w)
            assert len(word) == sc.length(w)
            assert sc.from_word(d, word) == w


def test_simple_reflection_sides():
    # right multiplication swaps positions, left multiplication swaps values
    w = (2, 0, 3, 1)
    s1 = sc.simple(4, 1)
    assert sc.mul(w, s1) == (2, 3, 0, 1)
    assert sc.mul(s1, w) == (1, 0, 3, 2)


def test_g_for_spec_matrix():
    A = sc.ThetaMatrix([[1, 1], [2, 0]])
    lam, g, mu = A.lam, sc.matrix_to_perm(A), A.mu
    assert lam == (2, 2)
    assert mu == (3, 1)
    assert g == sc.from_one_line("|1 3 4 2|")
    assert sc.coset_shapes(lam, g, mu) == ((1, 1, 2), (1, 2, 1))


def test_theta_matrix_hash_agrees_with_equality():
    """Integral floats and bools read as ints, so equal matrices hash alike
    and a set keeps one of them."""
    A = sc.ThetaMatrix([[1, 0], [2, 1]])
    B = sc.ThetaMatrix([[True, 0.0], [2.0, 1]])
    assert A == B and hash(A) == hash(B)
    assert len({A, B, sc.ThetaMatrix([[1, 0], [1, 2]])}) == 2
    assert A != A.rows


def test_matrix_perm_roundtrip():
    for A in sc.theta_matrices(2, 4):
        lam, g, mu = A.lam, sc.matrix_to_perm(A), A.mu
        assert sc.matrix_from_triple(lam, g, mu) == A
        assert sc.increasing_on_blocks(g, mu)
        assert sc.increasing_on_blocks(sc.inverse(g), lam)


def test_double_coset_reps_match_matrices():
    for lam in sc.compositions(4):
        for mu in sc.compositions(4):
            reps = set(sc.double_coset_reps(lam, mu))
            mats = {sc.matrix_to_perm(A) for A in sc.theta_matrices(max(len(lam), len(mu)), 4)
                    if A.lam == lam + (0,) * (max(len(lam), len(mu)) - len(lam))
                    and A.mu == mu + (0,) * (max(len(lam), len(mu)) - len(mu))}
            assert reps == mats


def test_conjugation_identities():
    # S_{delta_c} = g^{-1} S_lam g & S_mu and S_{delta_r} = g S_mu g^{-1} & S_lam
    for d in (2, 3, 4):
        for lam in sc.compositions(d):
            for mu in sc.compositions(d):
                for g in sc.double_coset_reps(lam, mu):
                    delta_r, delta_c = sc.coset_shapes(lam, g, mu)
                    gi = sc.inverse(g)
                    conj_c = {sc.mul(sc.mul(gi, x), g) for x in sc.young_subgroup(lam)}
                    assert set(sc.young_subgroup(delta_c)) == conj_c & set(sc.young_subgroup(mu))
                    conj_r = {sc.mul(sc.mul(g, y), gi) for y in sc.young_subgroup(mu)}
                    assert set(sc.young_subgroup(delta_r)) == conj_r & set(sc.young_subgroup(lam))


def test_kappa_counts_and_lengths():
    lam, mu = (2, 2), (3, 1)
    g = sc.from_one_line("|1 3 4 2|")
    kappa = sc.bijection_kappa(lam, g, mu)
    assert len(kappa) == 4 * 3
    coset = {sc.mul(sc.mul(x, g), y) for x in sc.young_subgroup(lam)
             for y in sc.young_subgroup(mu)}
    assert set(kappa.values()) == coset


def test_kappa_raises_off_minimal_g():
    lam = mu = (2,)
    with pytest.raises(sc.LengthAdditivityViolation):
        sc.bijection_kappa(lam, sc.simple(2, 0), mu)


def test_decompose_double_coset():
    """z = x * g0 * y for every z at d <= 5, with g0 minimal and x pinned:
    m = x^{-1} z is the shortest element of S_lam z, so its inverse
    increases on the lam-blocks and l(z) = l(x) + l(m)."""
    for d in range(1, 6):
        perms = list(sc.young_subgroup((d,)))
        for lam in sc.compositions(d):
            for mu in sc.compositions(d):
                s_lam, s_mu = set(sc.young_subgroup(lam)), set(sc.young_subgroup(mu))
                reps = set(sc.double_coset_reps(lam, mu))
                for z in perms:
                    x, g0, y = sc.double_coset_decompose(z, lam, mu)
                    assert z == sc.mul(sc.mul(x, g0), y)
                    assert x in s_lam
                    assert y in s_mu
                    assert g0 in reps
                    assert g0 == sc.matrix_to_perm(sc.matrix_from_triple(lam, z, mu))
                    m = sc.mul(sc.inverse(x), z)
                    assert sc.increasing_on_blocks(sc.inverse(m), lam)
                    assert sc.length(z) == sc.length(x) + sc.length(m)


def test_sort_index():
    """w sends each position to its rank in a stable sort: idx is the
    sorted tuple read through w, and w increases on equal labels."""
    rng = random.Random(7)
    cases = [(), (0,), (2, 1, 2, 0, 1), (1, 1, 1)]
    cases += [tuple(rng.randrange(3) for _ in range(rng.randrange(1, 8)))
              for _ in range(200)]
    for idx in cases:
        w = sc.sort_index(idx)
        plus = tuple(sorted(idx))
        assert sorted(w) == list(range(len(idx)))
        assert tuple(plus[w[j]] for j in range(len(idx))) == idx
        for j in range(len(idx)):
            for k in range(j + 1, len(idx)):
                if idx[j] == idx[k]:
                    assert w[j] < w[k]
    assert sc.sort_index((2, 1, 2, 0, 1)) == (3, 1, 4, 0, 2)


def _order(lam):
    return math.prod(math.factorial(p) for p in lam)


def test_coset_reps_counts():
    """coset_reps(nu, side, lam) has one element of each coset of S_nu in
    S_lam, the shortest one, in the order of young_subgroup(lam); without
    lam it runs over S_d."""
    for d in (3, 4):
        for lam in sc.compositions(d):
            expect = math.factorial(d) // _order(lam)
            assert len(sc.coset_reps(lam, "right")) == expect
            assert len(sc.coset_reps(lam, "left")) == expect
    for d in (1, 2, 3, 4):
        for lam in sc.compositions(d):
            group = sc.young_subgroup(lam)
            for nu in sc.compositions(d):
                if not sc.refines(nu, lam):
                    for side in ("right", "left"):
                        with pytest.raises(sc.NotARefinement):
                            sc.coset_reps(nu, side, lam)
                    continue
                sub = sc.young_subgroup(nu)
                for side in ("right", "left"):
                    reps = sc.coset_reps(nu, side, lam)
                    members = set(reps)
                    assert len(reps) == _order(lam) // _order(nu)
                    assert list(reps) == [w for w in group if w in members]
                    for w in reps:
                        coset = [sc.mul(w, x) if side == "right" else sc.mul(x, w)
                                 for x in sub]
                        assert sc.length(w) == min(map(sc.length, coset))
                assert sc.coset_reps(nu, "right", (d,)) == sc.coset_reps(nu, "right")
                assert sc.coset_reps(nu, "left", (d,)) == sc.coset_reps(nu, "left")
    with pytest.raises(ValueError):
        sc.coset_reps((1, 1), "up")


def test_inv_set_growth():
    # appending an ascent letter adds exactly the new pair after twisting
    for d in (3, 4):
        for u in sc.young_subgroup((d,)):
            for i in range(d - 1):
                if u[i] < u[i + 1]:
                    w = sc.mul(u, sc.simple(d, i))
                    s = sc.simple(d, i)
                    twisted = {tuple(sorted((s[a], s[b]))) for a, b in sc.inv_set(u)}
                    assert sc.inv_set(w) == twisted | {(i, i + 1)}


def test_regions_partition():
    lam = (2, 1)
    assert sc.region_N(lam) == {(0, 2), (1, 2)}
    assert sc.region_L(lam) == {(0, 1)}
    assert sc.region_P(lam) == {(1, 0), (2, 0), (2, 1), (0, 1)}
    for d in (2, 3, 4):
        for lam in sc.compositions(d):
            n, l = sc.region_N(lam), sc.region_L(lam)
            assert n | l == {(i, j) for i in range(d) for j in range(i + 1, d)}
            assert not (n & l)
            assert len(sc.region_P(lam)) == d * (d - 1) - len(n)


def test_refines():
    for nu, lam, expected in [
        ((1, 1, 2), (2, 2), True),
        ((2, 2), (4,), True),
        ((1, 2, 1), (2, 2), False),
        ((1, 1), (1,), False),
        ((1,), (1, 1), False),
        # zero parts name no block and are ignored
        ((0,), (0,), True),
        ((1, 0), (1,), True),
        ((2, 0, 1), (0, 3), True),
    ]:
        assert sc.refines(nu, lam) is expected, (nu, lam)
    with pytest.raises(sc.NotARefinement):
        sc.check_refines((1, 2, 1), (2, 2))


def test_weak_compositions_count():
    assert len(sc.weak_compositions(3, 9)) == 165
    assert len(sc.theta_matrices(3, 3)) == 165
