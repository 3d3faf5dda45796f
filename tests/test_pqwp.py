import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qwreath import pqwp
from qwreath.base_algebra import FTensor, load_preset_file, preset, shipped_presets
from qwreath.pqwp import (
    IdentityFailed, ParamMismatch, PqwpElement, alpha_family,
    decompose_k, eigenvector_check, k_lambda,
    m_lambda, mackey_expansion, multinomial, pqwp_mul, right_coefficient_form,
)
from qwreath.symcomb import (
    NotARefinement, blocks, compositions, double_coset_reps, from_word,
    identity, inverse, length, longest_in_young, mul, reduced_word, simple,
    young_subgroup,
)
from qwreath.tensor_poly import (
    TensorPoly, abar_ij, alpha_ij, monomial, of_ftensor, r_ij, s_ij, unit_poly,
    x_var, zero_poly,
)

WORKING = shipped_presets()


def scaled_unit(params, d, c):
    return unit_poly(params, d).scale(c)


@pytest.mark.parametrize("name", WORKING)
def test_quadratic_relation(name):
    """H_i^2 lands back in the span of H_i and 1 with the S and R weights."""
    p = preset(name)
    for d, i in ((2, 0), (3, 1)):
        lhs = PqwpElement.of_word(p, d, (i, i))
        rhs = (PqwpElement.h_gen(p, d, i).poly_left(s_ij(p, d, i, i + 1))
               + PqwpElement.of_poly(r_ij(p, d, i, i + 1)))
        assert lhs == rhs


@pytest.mark.parametrize("name", WORKING)
def test_braid_relation(name):
    p = preset(name)
    assert (PqwpElement.of_word(p, 3, (0, 1, 0))
            == PqwpElement.of_word(p, 3, (1, 0, 1)))
    assert (PqwpElement.of_word(p, 4, (1, 2, 1))
            == PqwpElement.of_word(p, 4, (2, 1, 2)))


@pytest.mark.parametrize("name", WORKING)
def test_distant_generators_commute(name):
    p = preset(name)
    h0 = PqwpElement.h_gen(p, 4, 0)
    h2 = PqwpElement.h_gen(p, 4, 2)
    assert pqwp_mul(h0, h2) == pqwp_mul(h2, h0)
    x3 = x_var(p, 4, 3)
    assert pqwp_mul(h0, PqwpElement.of_poly(x3)) == h0.poly_left(x3)


def test_distant_base_slot_commutes_noncommutative_base():
    p = preset("zigzag_a1")
    k = p.algebra.dim - 1
    c = of_ftensor(p, 3, FTensor.basis(p.algebra, (0, 0, k)))
    h0 = PqwpElement.h_gen(p, 3, 0)
    assert pqwp_mul(h0, PqwpElement.of_poly(c)) == h0.poly_left(c)


def test_push_through_frozen_examples():
    """H_1 x_1 = x_2 H_1 + rho(x_1) with the preset-specific rho."""
    deg = preset("degenerate")
    x1, x2 = x_var(deg, 2, 0), x_var(deg, 2, 1)
    lhs = pqwp_mul(PqwpElement.h_gen(deg, 2, 0), PqwpElement.of_poly(x1))
    assert lhs == (PqwpElement.h_gen(deg, 2, 0).poly_left(x2)
                   + PqwpElement.one(deg, 2))
    aff = preset("affine_hecke")
    q = aff.field.param("q")
    x1, x2 = x_var(aff, 2, 0), x_var(aff, 2, 1)
    lhs = pqwp_mul(PqwpElement.h_gen(aff, 2, 0), PqwpElement.of_poly(x1))
    rhs = (PqwpElement.h_gen(aff, 2, 0).poly_left(x2)
           + PqwpElement.of_poly(x1.scale(q - aff.field.one())))
    assert lhs == rhs


def test_mixed_params_rejected():
    a = preset("affine_hecke")
    b = preset("qt_hecke")
    with pytest.raises(ParamMismatch):
        PqwpElement.h_gen(a, 2, 0) + PqwpElement.h_gen(b, 2, 0)
    with pytest.raises(ValueError):
        PqwpElement.h_gen(a, 3, 2)


def test_public_constructor_rejects_foreign_data():
    p = preset("affine_hecke")
    # keys must be permutations of d letters
    with pytest.raises(ValueError):
        PqwpElement(p, 2, {identity(3): unit_poly(preset("degenerate"), 3)})
    for w in ((0, 1), (0, 0, 1), (1, 2, 3)):
        with pytest.raises(ValueError) as err:
            PqwpElement.h_of_perm(p, 3, w)
        assert not isinstance(err.value, ParamMismatch)
    # coefficients must be TensorPolys over the same (params, d)
    for c in (unit_poly(preset("degenerate"), 2), unit_poly(p, 3), p.field.one()):
        with pytest.raises(ParamMismatch):
            PqwpElement(p, 2, {identity(2): c})


def test_word_constructor_normalizes():
    """Non-reduced words, empty words, and reduced spellings all agree."""
    p = preset("pro_p")
    assert PqwpElement.of_word(p, 3, ()) == PqwpElement.one(p, 3)
    for w in young_subgroup((3,)):
        assert (PqwpElement.of_word(p, 3, reduced_word(w))
                == PqwpElement.h_of_perm(p, 3, w))
    s1s1s1 = PqwpElement.of_word(p, 3, (0, 0, 0))
    h = PqwpElement.h_gen(p, 3, 0)
    assert s1s1s1 == pqwp_mul(pqwp_mul(h, h), h)


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "pro_p", "zigzag_a1"))
def test_associativity_random_triples(name):
    p = preset(name)
    d = 3
    pool = [PqwpElement.h_gen(p, d, i) for i in range(d - 1)]
    pool.append(PqwpElement.of_poly(x_var(p, d, 0)))
    pool.append(PqwpElement.of_poly(x_var(p, d, 2)))
    rng = random.Random(20260819)
    for _ in range(5):
        a, b, c = (rng.choice(pool) + rng.choice(pool) for _ in range(3))
        assert pqwp_mul(pqwp_mul(a, b), c) == pqwp_mul(a, pqwp_mul(b, c))


@pytest.mark.parametrize("name", WORKING)
def test_generator_commutes_with_its_own_weights(name):
    p = preset(name)
    for i in (0, 1):
        h = PqwpElement.h_gen(p, 3, i)
        for c in (s_ij(p, 3, i, i + 1), r_ij(p, 3, i, i + 1)):
            assert pqwp_mul(h, PqwpElement.of_poly(c)) == h.poly_left(c)


def test_alpha_family_identity_and_scalar_powers():
    p = preset("qt_hecke")
    q = p.field.param("q")
    assert alpha_family(p, 3, identity(3)) == unit_poly(p, 3)
    for w in young_subgroup((3,)):
        expect = scaled_unit(p, 3, q ** length(w))
        assert alpha_family(p, 3, w) == expect


def alpha_by_word(params, d, w):
    """Reference for alpha_family: the twisted product along a reduced word,
    read from its right end inward, each factor moved by the simple flips
    read so far."""
    out = unit_poly(params, d)
    prefix = identity(d)
    for i in reversed(reduced_word(w)):
        out = out * alpha_ij(params, d, i, i + 1).place_permute(prefix)
        prefix = mul(prefix, simple(d, i))
    return out


def test_alpha_family_nonscalar_dual_route():
    """The inversion-set product agrees with the reduced-word reference
    even when alpha has genuinely different values on different leg pairs."""
    p = preset("pro_p")
    for w in young_subgroup((3,)):
        assert alpha_family(p, 3, w) == alpha_by_word(p, 3, w)
    w0 = longest_in_young((3,))
    prod = alpha_ij(p, 3, 0, 1) * alpha_ij(p, 3, 0, 2) * alpha_ij(p, 3, 1, 2)
    assert alpha_family(p, 3, w0) == prod


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "pro_p"))
def test_full_k3_frozen_expansion(name):
    p = preset(name)
    k = k_lambda(p, 3, (3,))
    a01 = alpha_ij(p, 3, 0, 1)
    a02 = alpha_ij(p, 3, 0, 2)
    a12 = alpha_ij(p, 3, 1, 2)
    expected = {
        (2, 1, 0): unit_poly(p, 3),
        (2, 0, 1): a01,
        (1, 2, 0): a12,
        (0, 2, 1): a01 * a02,
        (1, 0, 2): a02 * a12,
        (0, 1, 2): a01 * a02 * a12,
    }
    assert set(k.support()) == set(expected)
    for w, c in expected.items():
        assert k.coefficient(w) == c


@pytest.mark.parametrize("name", ("qt_hecke", "pro_p"))
def test_partial_k_frozen_coefficients(name):
    p = preset(name)
    s2 = simple(3, 1)
    upper = k_lambda(p, 3, (3,), "upper", (2, 1))
    assert set(upper.support()) == {identity(3), s2, (2, 0, 1)}
    assert upper.coefficient((2, 0, 1)) == unit_poly(p, 3)
    assert upper.coefficient(s2) == alpha_ij(p, 3, 0, 2)
    assert upper.coefficient(identity(3)) == alpha_ij(p, 3, 0, 2) * alpha_ij(p, 3, 1, 2)
    tilde = k_lambda(p, 3, (3,), "tilde", (2, 1))
    assert set(tilde.support()) == {identity(3), s2, (1, 2, 0)}
    assert tilde.coefficient((1, 2, 0)) == unit_poly(p, 3)
    assert tilde.coefficient(s2) == alpha_ij(p, 3, 0, 1)
    assert tilde.coefficient(identity(3)) == alpha_ij(p, 3, 0, 2) * alpha_ij(p, 3, 1, 2)


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "pro_p", "zigzag_a1"))
@pytest.mark.parametrize("lam,nu", [
    ((3,), (2, 1)),
    ((3,), (1, 2)),
    ((3,), (1, 1, 1)),
    ((2, 1), (1, 1, 1)),
    ((1, 2), (1, 2)),
])
def test_one_sided_factorizations(name, lam, nu):
    """K_lam splits off a full K of any refinement on either side."""
    p = preset(name)
    d = sum(lam)
    full = k_lambda(p, d, lam)
    assert pqwp_mul(k_lambda(p, d, lam, "tilde", nu), k_lambda(p, d, nu)) == full
    assert pqwp_mul(k_lambda(p, d, nu), k_lambda(p, d, lam, "upper", nu)) == full


def test_partial_k_argument_errors():
    p = preset("affine_hecke")
    with pytest.raises(ValueError):
        k_lambda(p, 3, (2, 2))
    with pytest.raises(ValueError):
        k_lambda(p, 3, (3,), "upper")
    with pytest.raises(NotARefinement):
        k_lambda(p, 3, (1, 2), "upper", (2, 1))
    with pytest.raises(ValueError):
        k_lambda(p, 3, (3,), "sideways", (2, 1))


@pytest.mark.parametrize("name", WORKING)
def test_k_eigenvector_property(name):
    """K_lam H_i = K_lam abar_i, also after multiplying K_lam on the left
    by an element f: (f K_lam) H_i = (f K_lam) abar_i."""
    p = preset(name)
    f = PqwpElement.h_gen(p, 3, 0) + PqwpElement.of_poly(x_var(p, 3, 1))
    for lam in ((3,), (2, 1), (1, 2)):
        eigenvector_check(p, 3, lam)
        fk = pqwp_mul(f, k_lambda(p, 3, lam))
        for blk in blocks(lam):
            for i in range(blk.start, blk.stop - 1):
                bar = PqwpElement.of_poly(abar_ij(p, 3, i, i + 1))
                assert (pqwp_mul(fk, PqwpElement.h_gen(p, 3, i))
                        == pqwp_mul(fk, bar))


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "pro_p",
                                  "degenerate", "zigzag_a1"))
def test_k_squared_is_m_times_k(name):
    p = preset(name)
    for d in (2, 3):
        for lam in compositions(d):
            k = k_lambda(p, d, lam)
            assert pqwp_mul(k, k) == k.poly_left(m_lambda(p, d, lam))


def test_k_squared_d4():
    p = preset("affine_hecke")
    for lam in ((4,), (2, 2), (1, 3)):
        k = k_lambda(p, 4, lam)
        assert pqwp_mul(k, k) == k.poly_left(m_lambda(p, 4, lam))


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "degenerate", "zigzag_a1"))
def test_k_squared_d5(name):
    """K_(5)^2 = m_(5) K_(5), with 5! = 120 terms in K_(5)."""
    p = preset(name)
    k = k_lambda(p, 5, (5,))
    assert len(k.terms) == 120
    assert pqwp_mul(k, k) == k.poly_left(m_lambda(p, 5, (5,)))


def test_m_closed_forms():
    """The symmetric eigen-scalar collapses to factorials and their q and
    (q,t) analogues in the classical presets, to 1 when R=0 and S=-1, and
    to 0 in the nil presets as soon as a block has two strands."""
    deg = preset("degenerate")
    for d in (2, 3, 4):
        for lam in compositions(d):
            expect = deg.field.from_int(math.prod(math.factorial(a) for a in lam))
            assert m_lambda(deg, d, lam) == scaled_unit(deg, d, expect)
    aff = preset("affine_hecke")
    q = aff.field.param("q")
    one = aff.field.one()

    def q_int(n):
        total = aff.field.zero()
        for j in range(n):
            total = total + q ** j
        return total

    for d in (2, 3, 4):
        for lam in compositions(d):
            expect = one
            for a in lam:
                for n in range(1, a + 1):
                    expect = expect * q_int(n)
            assert m_lambda(aff, d, lam) == scaled_unit(aff, d, expect)
    zh = preset("zero_hecke")
    for lam in ((3,), (2, 1), (1, 1, 1)):
        assert m_lambda(zh, 3, lam) == unit_poly(zh, 3)
    for name in ("nil", "opposite_nil"):
        p = preset(name)
        assert m_lambda(p, 3, (2, 1)) == zero_poly(p, 3)
        assert m_lambda(p, 3, (3,)) == zero_poly(p, 3)
        assert m_lambda(p, 3, (1, 1, 1)) == unit_poly(p, 3)


def test_m_qt_frozen():
    p = preset("qt_hecke")
    q, t = p.field.param("q"), p.field.param("t")
    assert m_lambda(p, 2, (2,)) == scaled_unit(p, 2, q + t)
    cubic = q ** 3 + 2 * (q * q * t) + 2 * (q * t * t) + t ** 3
    assert m_lambda(p, 3, (3,)) == scaled_unit(p, 3, cubic)


def test_multinomial_frozen_and_symmetry_failure():
    qt = preset("qt_hecke")
    q, t = qt.field.param("q"), qt.field.param("t")
    expect = scaled_unit(qt, 3, q * q + q * t + t * t)
    assert multinomial(qt, 3, (1, 2)) == expect
    assert multinomial(qt, 3, (2, 1)) == expect
    pp = preset("pro_p")
    assert multinomial(pp, 3, (1, 2)) != multinomial(pp, 3, (2, 1))
    for name in WORKING:
        p = preset(name)
        assert multinomial(p, 3, (3,)) == unit_poly(p, 3)


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_binomial_matches_subset_oracle(d):
    """Two-block multinomials agree with a direct sum over landing sets:
    each k-subset I of positions contributes q per increasing cross pair
    and t per decreasing one."""
    import itertools
    p = preset("qt_hecke")
    q, t = p.field.param("q"), p.field.param("t")
    for k in range(d + 1):
        total = p.field.zero()
        for subset in itertools.combinations(range(d), k):
            inside = set(subset)
            term = p.field.one()
            for a in inside:
                for b in range(d):
                    if b in inside:
                        continue
                    term = term * (q if a < b else t)
            total = total + term
        lam = tuple(x for x in (k, d - k) if x)
        assert multinomial(p, d, lam) == scaled_unit(p, d, total)


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "pro_p"))
def test_m_of_full_block_is_finest_multinomial(name):
    p = preset(name)
    for d in (2, 3):
        assert m_lambda(p, d, (d,)) == multinomial(p, d, (1,) * d)


@pytest.mark.parametrize("name", WORKING)
def test_double_coset_expansion_d2(name):
    p = preset(name)
    for lam in compositions(2):
        for mu in compositions(2):
            mackey_expansion(p, 2, lam, mu)


@pytest.mark.parametrize("name", ("affine_hecke", "pro_p", "zigzag_a1"))
def test_double_coset_expansion_d3(name):
    p = preset(name)
    for lam in compositions(3):
        for mu in compositions(3):
            mackey_expansion(p, 3, lam, mu)


def test_double_coset_expansion_d4_spot():
    aff = preset("affine_hecke")
    mackey_expansion(aff, 4, (2, 2), (2, 2))
    mackey_expansion(aff, 4, (2, 1, 1), (1, 3))
    mackey_expansion(aff, 4, (4,), (2, 2))
    mackey_expansion(preset("pro_p"), 4, (2, 2), (2, 2))


def test_double_coset_expansion_rejects_bad_sums():
    p = preset("affine_hecke")
    with pytest.raises(ValueError):
        mackey_expansion(p, 3, (2, 2), (3,))


def test_a_negative_part_is_rejected():
    # (4, -1) sums to 3, so only the sign check catches it
    p = preset("affine_hecke")
    bad = (4, -1)
    for build in (lambda: m_lambda(p, 3, bad), lambda: k_lambda(p, 3, bad),
                  lambda: multinomial(p, 3, bad), lambda: mackey_expansion(p, 3, bad, (3,)),
                  lambda: mackey_expansion(p, 3, (3,), bad)):
        with pytest.raises(ValueError, match="negative part"):
            build()


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "pro_p"))
def test_decompose_k_over_double_cosets(name):
    p = preset(name)
    for lam in ((2, 1), (1, 2), (3,)):
        for mu in ((1, 2), (2, 1), (1, 1, 1)):
            for g in double_coset_reps(lam, mu):
                out = decompose_k(p, 3, lam, g, mu)
                assert sum(out["nu"]) == 3
                assert sum(out["delta"]) == 3
                assert out["k_lam"] == k_lambda(p, 3, lam)


def test_a_failed_identity_names_its_shortest_difference():
    """Two elements that differ at the identity and at s_2: the witness is
    the shorter key, with both coefficients, a missing one as 0."""
    p = preset("affine_hecke")
    x1 = x_var(p, 3, 0)
    a = PqwpElement.of_word(p, 3, (0, 1)) + PqwpElement.of_poly(x1)
    b = PqwpElement.of_word(p, 3, (0, 1)) + PqwpElement.h_gen(p, 3, 1)
    assert pqwp._first_difference(a, a) is None
    assert pqwp._first_difference(a, b) == (identity(3), x1, zero_poly(p, 3))
    pqwp._require_equal(a, a, "same")
    with pytest.raises(IdentityFailed, match=r"differs: \(1⊗1⊗1\)\*x1 vs 0") as caught:
        pqwp._require_equal(a, b, "a = b")
    assert caught.value.witness == {"identity": "a = b", "perm": "|1 2 3|",
                                    "left": "(1⊗1⊗1)*x1", "right": "0"}
    with pytest.raises(IdentityFailed) as caught:
        pqwp._require_equal(b, a, "b = a")
    assert (caught.value.witness["left"], caught.value.witness["right"]) == (
        "0", "(1⊗1⊗1)*x1")


def test_decompose_k_trivial_blocks():
    p = preset("pro_p")
    out = decompose_k(p, 3, (1, 1, 1), identity(3), (3,))
    assert out["nu"] == (1, 1, 1)
    assert out["k_mu"] == k_lambda(p, 3, (3,))


def from_right_coefficients(p, d, rights):
    """sum H_w c_w from a {perm: coefficient} map, as products in the algebra."""
    out = PqwpElement.zero(p, d)
    for w, c in rights.items():
        out = out + pqwp_mul(PqwpElement.h_of_perm(p, d, w), PqwpElement.of_poly(c))
    return out


@pytest.mark.parametrize("name", ("affine_hecke", "pro_p", "qt_hecke"))
def test_right_coefficient_roundtrip(name):
    p = preset(name)
    rng = random.Random(99)
    for _ in range(4):
        elt = PqwpElement.zero(p, 3)
        for w in young_subgroup((3,)):
            if rng.random() < 0.6:
                c = x_var(p, 3, rng.randrange(3)) if rng.random() < 0.5 \
                    else unit_poly(p, 3)
                elt = elt + PqwpElement.h_of_perm(p, 3, w).poly_left(c)
        rights = right_coefficient_form(elt)
        assert from_right_coefficients(p, 3, rights) == elt


def test_right_coefficients_come_back_from_the_left_form():
    """H_1 x_1 = x_2 H_1 + (q-1) x_1 on affine_hecke: the correction of the
    top term cancels the (q-1) x_1 of the left form."""
    p = preset("affine_hecke")
    s1 = simple(2, 0)
    rights = {s1: x_var(p, 2, 0)}
    elt = from_right_coefficients(p, 2, rights)
    q = p.field.param("q")
    assert elt == (PqwpElement.h_gen(p, 2, 0).poly_left(x_var(p, 2, 1))
                   + PqwpElement.of_poly(x_var(p, 2, 0).scale(q - 1)))
    assert right_coefficient_form(elt) == rights


@pytest.mark.parametrize("name", ("affine_hecke", "pro_p", "qt_hecke", "wreath_s3"))
def test_right_coefficient_reverse_roundtrip(name):
    p = walk_pack(name)
    rng = random.Random(98)
    for _ in range(4):
        rights = {w: random_coeff(p, 3, rng) * x_var(p, 3, rng.randrange(3))
                  for w in young_subgroup((3,)) if rng.random() < 0.6}
        rights = {w: c for w, c in rights.items() if c}
        assert right_coefficient_form(from_right_coefficients(p, 3, rights)) == rights


def test_right_coefficient_form_of_full_k():
    """In right form each coefficient of the full K element is the left
    one pulled through H_w, which relabels the tensor legs by w inverse."""
    p = preset("pro_p")
    k = k_lambda(p, 3, (3,))
    w0 = longest_in_young((3,))
    rights = right_coefficient_form(k)
    assert set(rights) == set(k.support())
    for w, c in rights.items():
        left = alpha_family(p, 3, mul(w0, inverse(w)))
        assert c == left.place_permute(inverse(w))


def test_rendering_frozen():
    p = preset("qt_hecke")
    assert str(PqwpElement.zero(p, 2)) == "0"
    assert str(PqwpElement.h_gen(p, 2, 0)) == "H[1]"
    assert str(k_lambda(p, 2, (2,))) == "H[1] + q*(1⊗1)"
    mixed = PqwpElement.h_gen(p, 2, 0) + PqwpElement.of_poly(x_var(p, 2, 0))
    assert str(mixed) == "H[1] + (1⊗1)*x1"
    assert str(k_lambda(p, 3, (3,), "upper", (2, 1))) \
        == "H[2,1] + q*(1⊗1⊗1)*H[2] + q^2*(1⊗1⊗1)"


def test_support_order_and_scale():
    p = preset("affine_hecke")
    k = k_lambda(p, 3, (3,))
    lengths = [length(w) for w in k.support()]
    assert lengths == sorted(lengths)
    two = p.field.from_int(2)
    assert k.scale(two) - k == k
    assert not (k - k)


# the rewriting walk on multi-term elements ------------------------------------

WALK_PRESETS = ("affine_hecke", "zero_hecke", "nil", "pro_p", "zigzag_a1")


def random_coeff(params, d, rng):
    """One or two monomials of x-degree at most 1 with random F-legs."""
    dim = params.algebra.dim
    out = zero_poly(params, d)
    for _ in range(rng.randint(1, 2)):
        exps = [0] * d
        exps[rng.randrange(d)] = rng.randint(0, 1)
        fkey = tuple(rng.randrange(dim) for _ in range(d))
        out = out + monomial(params, d, fkey, exps,
                             params.field.from_int(rng.choice((-2, -1, 1, 3))))
    return out


def random_element(params, d, rng, nterms=2):
    perms = list(young_subgroup((d,)))
    terms = {}
    for w in rng.sample(perms, nterms):
        terms[w] = random_coeff(params, d, rng)
    return PqwpElement(params, d, terms)


@pytest.mark.parametrize("name", WALK_PRESETS)
def test_product_is_the_sum_over_single_term_pairs(name):
    p = preset(name)
    rng = random.Random(7)
    for d in (3, 4):
        a = random_element(p, d, rng, 3)
        b = random_element(p, d, rng, 3)
        total = PqwpElement.zero(p, d)
        for u, c in a.terms.items():
            for v, e in b.terms.items():
                total = total + pqwp_mul(PqwpElement(p, d, {u: c}),
                                         PqwpElement(p, d, {v: e}))
        assert pqwp_mul(a, b) == total


@pytest.mark.parametrize("name", WALK_PRESETS)
@pytest.mark.parametrize("d", (3, 4))
def test_associativity_multi_term_elements(name, d):
    """Multi-term elements with x-dependent coefficients: every push and
    every quadratic step of the walk takes part."""
    p = preset(name)
    rng = random.Random(1000 * d + 31)
    for _ in range(2 if d == 3 else 1):
        a, b, c = (random_element(p, d, rng) for _ in range(3))
        assert pqwp_mul(pqwp_mul(a, b), c) == pqwp_mul(a, pqwp_mul(b, c))


@pytest.mark.parametrize("name", WALK_PRESETS)
def test_of_word_matches_generator_products(name):
    """Random words, mostly non-reduced, against one generator product
    after another through pqwp_mul."""
    p = preset(name)
    rng = random.Random(55)
    for d in (3, 4):
        for _ in range(4):
            letters = tuple(rng.randrange(d - 1) for _ in range(rng.randint(0, 6)))
            expect = PqwpElement.one(p, d)
            for i in letters:
                expect = pqwp_mul(expect, PqwpElement.h_gen(p, d, i))
            assert PqwpElement.of_word(p, d, letters) == expect


def test_of_word_rejects_a_bad_letter():
    p = preset("degenerate")
    with pytest.raises(ValueError):
        PqwpElement.of_word(p, 3, (0, 2))


@pytest.mark.parametrize("name", ("pro_p", "qt_hecke", "zigzag_a1"))
def test_alpha_family_matches_the_reduced_word_reference(name):
    p = preset(name)
    for d in (3, 4):
        for w in young_subgroup((d,)):
            assert alpha_family(p, d, w) == alpha_by_word(p, d, w)


def test_field_scalars_multiply_on_either_side():
    p = preset("affine_hecke")
    q = p.field.param("q")
    h = PqwpElement.h_gen(p, 2, 0)
    qh = PqwpElement(p, 2, {w: c.scale(q) for w, c in h.terms.items()})
    assert q * h == qh
    assert h * q == qh
    assert 2 * h == h + h
    assert h * Fraction(1, 2) + Fraction(1, 2) * h == h
    assert (q + 1) * h == h * (q + 1) == q * h + h
    with pytest.raises(TypeError):
        h * "q"
    with pytest.raises(TypeError):
        "q" * h


# the Horner walk of pqwp_mul against the per-term walk -------------------------


def random_reduced_word(v, rng):
    """A reduced word of v, read off from the right by a random right
    descent at each step."""
    letters = []
    while length(v):
        i = rng.choice([i for i in range(len(v) - 1) if v[i] > v[i + 1]])
        letters.append(i)
        v = mul(v, simple(len(v), i))
    return tuple(reversed(letters))


def per_term_product(a, b, words):
    """sum_v (a q_v) H_v with each term q_v H_v of b taken on its own: a q_v
    through pqwp_mul with an x-only right operand, then times H_v one letter
    at a time along words[v]."""
    p, d = a.params, a.d
    total = PqwpElement.zero(p, d)
    for v, q in b.terms.items():
        aq = pqwp_mul(a, PqwpElement.of_poly(q))
        total = total + PqwpElement(p, d, pqwp._times_word(p, d, aq.terms, words[v]))
    return total


def assert_matches_per_term_walk(a, b, rng):
    words = {v: random_reduced_word(v, rng) for v in b.terms}
    for v, word in words.items():
        assert PqwpElement.of_word(a.params, a.d, word) == PqwpElement.h_of_perm(
            a.params, a.d, v)
    assert pqwp_mul(a, b) == per_term_product(a, b, words)


@pytest.mark.parametrize("name", WALK_PRESETS)
@pytest.mark.parametrize("d", (3, 4))
def test_horner_walk_over_supports_with_gaps(name, d):
    """Long elements only, so the tree holds nodes outside the support."""
    p = preset(name)
    rng = random.Random(100 * d + 7)
    top = length(longest_in_young((d,)))
    long_ones = [w for w in young_subgroup((d,)) if length(w) >= top - 2]
    for _ in range(2):
        a = random_element(p, d, rng, 3)
        b = PqwpElement(p, d, {w: random_coeff(p, d, rng)
                               for w in rng.sample(long_ones, 3)})
        assert set(pqwp._weak_order_tree(d, b.terms)) - set(b.terms) - {identity(d)}
        assert_matches_per_term_walk(a, b, rng)


@pytest.mark.parametrize("name", WALK_PRESETS)
@pytest.mark.parametrize("d", (3, 4))
def test_horner_walk_on_the_longest_element_alone(name, d):
    p = preset(name)
    rng = random.Random(200 * d + 1)
    a = random_element(p, d, rng, 3)
    b = PqwpElement(p, d, {longest_in_young((d,)): random_coeff(p, d, rng)})
    assert_matches_per_term_walk(a, b, rng)


@pytest.mark.parametrize("name", WALK_PRESETS)
@pytest.mark.parametrize("d", (3, 4))
def test_horner_walk_through_a_cancelling_partial_sum(name, d):
    """b = q_u H_u + q_v H_v with v = s u a tree edge, and q_u chosen so that
    the coefficient of H_s in the partial sum W_u = a q_u + (a q_v) H_s is 0."""
    p = preset(name)
    rng = random.Random(300 * d + 5)
    v = mul(simple(d, 0), simple(d, 1))
    s = reduced_word(v)[0]
    u = mul(simple(d, s), v)
    assert pqwp._weak_order_tree(d, [v])[u] == [(v, s)]
    a = PqwpElement(p, d, {simple(d, s): unit_poly(p, d),
                           identity(d): random_coeff(p, d, rng)})
    q_v = random_coeff(p, d, rng)
    child = PqwpElement(p, d, pqwp._times_word(
        p, d, pqwp_mul(a, PqwpElement.of_poly(q_v)).terms, (s,)))
    r = child.coefficient(simple(d, s))
    assert r
    q_u = (-r).place_permute_simple(s)
    partial = pqwp_mul(a, PqwpElement.of_poly(q_u)) + child
    assert simple(d, s) not in partial.terms and partial.terms
    assert_matches_per_term_walk(a, PqwpElement(p, d, {u: q_u, v: q_v}), rng)


@pytest.mark.parametrize("name", WALK_PRESETS)
def test_horner_walk_with_an_empty_operand(name):
    p = preset(name)
    rng = random.Random(11)
    for d in (3, 4):
        a = random_element(p, d, rng, 3)
        zero = PqwpElement.zero(p, d)
        assert pqwp_mul(a, zero) == zero == per_term_product(a, zero, {})
        assert not pqwp_mul(zero, a)


def test_horner_walk_takes_one_step_per_tree_edge(monkeypatch):
    """K_(4)^2: one generator step per edge of the tree on S_4, 4! - 1 = 23,
    where one pass per letter of every v takes sum l(v) = 72."""
    p = preset("zigzag_a1")
    k = k_lambda(p, 4, (4,))
    steps = []
    step = pqwp._times_letter

    def counted(params, d, acc, terms, i):
        steps.append(i)
        step(params, d, acc, terms, i)

    monkeypatch.setattr(pqwp, "_times_letter", counted)
    square = pqwp_mul(k, k)
    assert len(steps) == 23
    steps.clear()
    assert per_term_product(k, k, {v: reduced_word(v) for v in k.terms}) == square
    assert len(steps) == sum(length(v) for v in k.terms) == 72
    assert square == k.poly_left(m_lambda(p, 4, (4,)))


# central right coefficients and the in-place accumulator ------------------------

WREATH_S3 = str(Path(__file__).resolve().parent / "data" / "wreath_s3.toml")


def walk_pack(name):
    """A shipped preset, or k[S_3] wreath S_d (non-commutative F) from its file."""
    return load_preset_file(WREATH_S3) if name == "wreath_s3" else preset(name)


def push_by_definition(p, d, w, q):
    """H_w q in normal form from H_i c = sigma_i(c) H_i + rho_i(c) alone, one
    letter of a reduced word of w at a time, with no short cut for an x-free
    or central q."""
    out = PqwpElement.of_poly(q)
    for i in reversed(reduced_word(w)):
        nxt = PqwpElement.zero(p, d)
        for z, c in out.terms.items():
            nxt = (nxt + PqwpElement(p, d, {z: c.twisted_demazure(i)})
                   + PqwpElement.of_word(p, d, (i,) + reduced_word(z)).poly_left(
                       c.place_permute_simple(i)))
        out = nxt
    return out


def product_by_definition(a, b):
    """sum over term pairs of p_w (H_w q_v) H_v, each H_w q_v pushed by
    definition and each H_v applied one letter at a time."""
    p, d = a.params, a.d
    total = PqwpElement.zero(p, d)
    for w, pw in a.terms.items():
        for v, q in b.terms.items():
            left = push_by_definition(p, d, w, q).poly_left(pw)
            total = total + PqwpElement(p, d, pqwp._times_word(
                p, d, left.terms, reduced_word(v)))
    return total


def central_scalars(p, name):
    scalars = [p.field.from_int(c) for c in (1, -1, 2)]
    return scalars + [p.field.param("q")] if name == "qt_hecke" else scalars


@pytest.mark.parametrize("name", WALK_PRESETS + ("qt_hecke", "wreath_s3"))
@pytest.mark.parametrize("d", (3, 4))
def test_central_right_coefficients_skip_straightening(name, d):
    """A right operand whose coefficients mix c·1 with non-central ones,
    against the per-term walk and against straightening by definition."""
    p = walk_pack(name)
    rng = random.Random(400 * d + len(name))
    scalars = central_scalars(p, name)
    for _ in range(2):
        perms = rng.sample(list(young_subgroup((d,))), len(scalars) + 2)
        terms = {w: scaled_unit(p, d, c) for w, c in zip(perms, scalars)}
        for w in perms[len(scalars):]:
            terms[w] = random_coeff(p, d, rng) * x_var(p, d, rng.randrange(d))
        b = PqwpElement(p, d, terms)
        assert {c._unit_coeff() is None for c in b.terms.values()} == {True, False}
        a = random_element(p, d, rng, 3)
        assert_matches_per_term_walk(a, b, rng)
        assert pqwp_mul(a, b) == product_by_definition(a, b)


@pytest.mark.parametrize("name", WALK_PRESETS + ("qt_hecke", "wreath_s3"))
def test_push_left_returns_a_central_coefficient_unchanged(name):
    p = walk_pack(name)
    for c in central_scalars(p, name):
        q = scaled_unit(p, 4, c)
        for w in young_subgroup((4,)):
            assert pqwp._push_left(p, 4, w, q) == {w: q}
        assert push_by_definition(p, 4, longest_in_young((4,)), q) == PqwpElement(
            p, 4, {longest_in_young((4,)): q})


@pytest.mark.parametrize("name", WALK_PRESETS + ("qt_hecke", "wreath_s3"))
def test_products_leave_their_operands_unchanged(name):
    """Results share term dicts with their operands; a product must not add
    into an operand's terms, whatever the mix of central and other terms."""
    p = walk_pack(name)
    rng = random.Random(17)
    k = k_lambda(p, 3, (3,))
    pairs = [(k, k)]
    for _ in range(3):
        a = random_element(p, 3, rng, 4)
        b = PqwpElement(p, 3, {w: scaled_unit(p, 3, c) for w, c in zip(
            rng.sample(list(young_subgroup((3,))), 3), central_scalars(p, name))})
        pairs += [(a, b), (b, a), (a, a), (b, b), (a, a + b)]
    for a, b in pairs:
        before = [(c, dict(c.terms)) for x in (a, b) for c in x.terms.values()]
        product = pqwp_mul(a, b)
        assert all(c.terms == terms for c, terms in before)
        assert pqwp_mul(a, b) == product


# central coefficients through the walk ----------------------------------------

CENTRAL_PACKS = ("affine_hecke", "qt_hecke", "zero_hecke", "zigzag_a1", "wreath_s3")


def assert_poly_coefficients(p, d, terms):
    """Every coefficient handed out by the walk is a nonzero TensorPoly over
    the pack, whatever form it took inside."""
    for w, c in terms.items():
        assert type(c) is TensorPoly and c.params is p and c.d == d, w
        assert c, w


@pytest.mark.parametrize("name", CENTRAL_PACKS)
def test_central_products_match_the_definition(name):
    """K_(4) has only central coefficients on these packs, and so does every
    quadratic step; K^2 and K times words, against straightening by definition."""
    p = walk_pack(name)
    k = k_lambda(p, 4, (4,))
    assert all(c._unit_coeff() is not None for c in k.terms.values())
    words = [(0,), (1, 0), (2, 1, 0, 2), (0, 0, 1), (1, 2, 1, 0, 1)]
    pairs = [(k, k)] + [(k, PqwpElement.of_word(p, 4, w)) for w in words]
    pairs += [(PqwpElement.of_word(p, 4, w), k) for w in words[:2]]
    for a, b in pairs:
        product = pqwp_mul(a, b)
        assert_poly_coefficients(p, 4, product.terms)
        assert product == product_by_definition(a, b)
    assert pqwp_mul(k, k) == k.poly_left(m_lambda(p, 4, (4,)))


@pytest.mark.parametrize("name", WALK_PRESETS + ("qt_hecke", "wreath_s3"))
@pytest.mark.parametrize("d", (3, 4))
def test_central_left_coefficients_mixed_with_others(name, d):
    """A left operand whose coefficients mix c·1 with non-central ones,
    times a mixed, a central and a random right operand."""
    p = walk_pack(name)
    rng = random.Random(500 * d + len(name))
    scalars = central_scalars(p, name)
    perms = list(young_subgroup((d,)))
    for _ in range(2):
        keys = rng.sample(perms, len(scalars) + 2)
        terms = {w: scaled_unit(p, d, c) for w, c in zip(keys, scalars)}
        for w in keys[len(scalars):]:
            terms[w] = random_coeff(p, d, rng) * x_var(p, d, rng.randrange(d))
        a = PqwpElement(p, d, terms)
        assert {c._unit_coeff() is None for c in a.terms.values()} == {True, False}
        central = PqwpElement(p, d, {w: scaled_unit(p, d, c) for w, c in zip(
            rng.sample(perms, len(scalars)), scalars)})
        for b in (a, central, random_element(p, d, rng, 3)):
            product = pqwp_mul(a, b)
            assert_poly_coefficients(p, d, product.terms)
            assert product == product_by_definition(a, b)
        assert_matches_per_term_walk(a, central, rng)


@pytest.mark.parametrize("name", ("affine_hecke", "qt_hecke", "zero_hecke"))
def test_central_contributions_cancel_at_one_key(name):
    """H_1 (H_1 - S·1) = R·1: the S·1 H_1 of the quadratic step and the
    -S·1 H_1 of the right operand's central term cancel at H_1 (and on
    zero_hecke, with R = 0, the whole product is 0)."""
    p = preset(name)
    for d in (2, 3):
        s_c = s_ij(p, d, 0, 1)
        assert s_c and s_c._unit_coeff() is not None
        h = PqwpElement.h_gen(p, d, 0)
        b = h - PqwpElement.of_poly(s_c)
        product = pqwp_mul(h, b)
        assert simple(d, 0) not in product.terms
        assert product == PqwpElement(p, d, {identity(d): r_ij(p, d, 0, 1)})
        assert product == product_by_definition(h, b)
        assert_poly_coefficients(p, d, product.terms)


@pytest.mark.parametrize("name", ("graded_affine", "degenerate"))
def test_central_and_straightened_contributions_cancel_at_one_key(name):
    """H_1 (H_1 + t x_1) with rho_1(t x_1) = -R: the central R·1 of the
    quadratic step meets the TensorPoly rho_1(t x_1) pushed past H_1 at the
    identity, and they cancel."""
    p = preset(name)
    for d in (2, 3):
        rho = x_var(p, d, 0).twisted_demazure(0)._unit_coeff()
        R = r_ij(p, d, 0, 1)._unit_coeff()
        assert rho is not None and R is not None
        t = -R / rho
        h = PqwpElement.h_gen(p, d, 0)
        b = h + PqwpElement.of_poly(x_var(p, d, 0).scale(t))
        product = pqwp_mul(h, b)
        assert identity(d) not in product.terms and product.terms
        assert product == product_by_definition(h, b)
        assert_poly_coefficients(p, d, product.terms)


@pytest.mark.parametrize("name", WALK_PRESETS + ("qt_hecke", "wreath_s3"))
def test_walk_results_hold_nonzero_tensor_polys(name):
    """pqwp_mul, of_word and _times_word return nonzero TensorPolys over the
    pack on central, mixed and cancelling inputs."""
    p = walk_pack(name)
    rng = random.Random(23)
    for d in (3, 4):
        k = k_lambda(p, d, (d,))
        upper = k_lambda(p, d, (d,), "upper", (d - 1, 1))
        a = random_element(p, d, rng, 3)
        for x, y in ((k, k), (upper, k), (k, upper), (a, k), (k, a), (a, a),
                     (k, k - k), (a - a, k)):
            assert_poly_coefficients(p, d, pqwp_mul(x, y).terms)
        for _ in range(4):
            letters = tuple(rng.randrange(d - 1) for _ in range(rng.randint(0, 6)))
            assert_poly_coefficients(p, d, PqwpElement.of_word(p, d, letters).terms)
            for x in (k, a):
                assert_poly_coefficients(p, d, pqwp._times_word(p, d, x.terms, letters))
