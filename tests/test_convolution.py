import random
from math import factorial
from pathlib import Path

import pytest

from qwreath import convolution
from qwreath.base_algebra import (ValidationReport, load_preset_file, preset,
                                  rebase_field, shipped_presets)
from qwreath.coeff_ring import Field
from qwreath.convolution import (
    BlockMismatch, CharacteristicTooSmall, ConvBlock, SchurElement,
    _detecting_family, _e_localized, coil_basis_element, crossing, diagonal_element,
    dumb_vs_smart_identity, h_tilde, k_block,
    laurel_basis_element, merge_apply, phi_embed, poly_rep_apply, poly_value,
    poly_vector, split_merge, zero_test_via_poly_rep,
)
from qwreath.pqwp import (IdentityFailed, ParamMismatch, PqwpElement, k_lambda,
                          m_lambda, multinomial, pqwp_mul)
from qwreath.symcomb import (
    NotARefinement, compositions, coset_shapes,
    double_coset_decompose, double_coset_reps, identity, inverse,
    mul, refines, simple, young_subgroup,
)
from qwreath.tensor_poly import (
    InvarianceViolation, LocalizedElement, abar_ij, alpha_ij, monomial, p_ij,
    unit_poly, x_var, zero_poly,
)

PRESETS = shipped_presets()
FAST = ("affine_hecke", "degenerate", "zigzag_a1", "pro_p")
WREATH_S3 = str(Path(__file__).resolve().parent / "data" / "wreath_s3.toml")


def random_poly(params, d, rng, deg=2):
    dim = params.algebra.dim
    exps = tuple(rng.randrange(deg + 1) for _ in range(d))
    fkey = tuple(rng.randrange(dim) for _ in range(d))
    return monomial(params, d, fkey, exps)


def omega_xi(params, d, g, r):
    """Point-supported function on the full-flag block."""
    blk = ConvBlock(params, d, (1,) * d, (1,) * d, {g: LocalizedElement(r)})
    return SchurElement.from_block(blk)


# block bookkeeping -----------------------------------------------------------


def lin(p, d, i, j):
    return x_var(p, d, i) - x_var(p, d, j)


def test_twist_display():
    p = preset("affine_hecke")
    assert (_e_localized(p, 2, (2,), False).numerator()
            == p_ij(p, 2, 0, 1) * p_ij(p, 2, 1, 0))
    assert (_e_localized(p, 2, (1, 1), False).numerator()
            == lin(p, 2, 0, 1) * p_ij(p, 2, 1, 0))
    # coarsening only moves pairs from the linear region to the P region
    e3 = _e_localized(p, 3, (2, 1), False).numerator()
    assert e3 == (p_ij(p, 3, 0, 1) * lin(p, 3, 0, 2) * lin(p, 3, 1, 2)
                  * p_ij(p, 3, 1, 0) * p_ij(p, 3, 2, 0) * p_ij(p, 3, 2, 1))


def test_block_rejects_non_minimal_support():
    p = preset("degenerate")
    s1 = simple(2, 0)
    with pytest.raises(ValueError):
        ConvBlock(p, 2, (2,), (1, 1), {s1: LocalizedElement.one(p, 2)})


def test_invariance_checks():
    p = preset("affine_hecke")
    with pytest.raises(InvarianceViolation):
        diagonal_element(p, 2, (2,), x_var(p, 2, 0))
    with pytest.raises(InvarianceViolation):
        ConvBlock(p, 2, (2,), (2,), {identity(2): LocalizedElement(x_var(p, 2, 0))})
    # the symmetric value passes
    diagonal_element(p, 2, (2,), x_var(p, 2, 0) + x_var(p, 2, 1))


def test_constructors_reject_values_over_other_data():
    """A value over another pack or another size is refused by the public
    constructor, not later by the arithmetic."""
    p, q = preset("affine_hecke"), preset("degenerate")
    for other in (LocalizedElement.one(q, 3), LocalizedElement.one(p, 3),
                  LocalizedElement.one(q, 2)):
        with pytest.raises(BlockMismatch):
            ConvBlock(p, 2, (1, 1), (1, 1), {(0, 1): other})
    for other in (unit_poly(q, 3), unit_poly(p, 3), unit_poly(q, 2)):
        with pytest.raises(BlockMismatch):
            poly_vector(p, 2, (1, 1), other)
        with pytest.raises(BlockMismatch):
            poly_vector(p, 2, (2,), other)
    with pytest.raises(BlockMismatch):
        diagonal_element(p, 2, (2,), unit_poly(q, 2))
    for blk in (split_merge(q, 3, (2, 1), kind="merge").block((2, 1), (1, 1, 1)),
                split_merge(p, 2, (2,), kind="merge").block((2,), (1, 1))):
        with pytest.raises(BlockMismatch):
            SchurElement(p, 3, {(blk.lam, blk.mu): blk})


def test_stabilizer_is_the_young_subgroup_of_the_row_reading():
    """S_lam & g S_mu g^{-1}, by brute force, against the Young subgroup of
    delta_r for every minimal g: what check_invariance relies on."""
    for d in range(1, 5):
        for lam in compositions(d):
            for mu in compositions(d):
                inner = set(young_subgroup(mu))
                for g in double_coset_reps(lam, mu):
                    gi = inverse(g)
                    stab = {u for u in young_subgroup(lam)
                            if mul(gi, mul(u, g)) in inner}
                    delta_r, _ = coset_shapes(lam, g, mu)
                    assert stab == set(young_subgroup(delta_r))


@pytest.mark.parametrize("name", ("affine_hecke", "zigzag_a1"))
def test_block_invariance_under_the_stabilizer_only(name):
    """lam = (2,2), mu = (3,1): the stabilizers are S_(2,1,1) at the identity
    and S_(1,1,2) at (0 2 3 1); a value fixed by the stabilizer passes even
    where S_lam moves it, and a value the stabilizer moves fails."""
    p = preset(name)
    d, lam, mu = 4, (2, 2), (3, 1)
    fkey = tuple(k % p.algebra.dim for k in (0, 1, 0, 1))
    base = monomial(p, d, fkey, (1, 2, 3, 0))
    for g in double_coset_reps(lam, mu):
        delta_r, _ = coset_shapes(lam, g, mu)
        assert delta_r != lam
        sym = zero_poly(p, d)
        for u in young_subgroup(delta_r):
            sym = sym + base.place_permute(u)
        assert any(sym.place_permute(u) != sym for u in young_subgroup(lam))
        ConvBlock(p, d, lam, mu, {g: sym}).check_invariance()
        with pytest.raises(InvarianceViolation):
            ConvBlock(p, d, lam, mu, {g: base})


def test_zero_parts_are_stripped():
    p = preset("degenerate")
    a = split_merge(p, 3, (2, 0, 1), kind="merge")
    b = split_merge(p, 3, (2, 1), kind="merge")
    assert a == b


# the xi calculus on the full-flag block ---------------------------------------


@pytest.mark.parametrize("name", PRESETS)
def test_xi_product_rule(name):
    """Point-supported functions compose by the translation rule
    xi_{g,r} * xi_{g',r'} = xi_{gg', r g(r')}."""
    p = preset(name)
    d = 3
    rng = random.Random(11)
    perms = young_subgroup((d,))
    for _ in range(4):
        g, g2 = rng.choice(perms), rng.choice(perms)
        r, r2 = random_poly(p, d, rng), random_poly(p, d, rng)
        lhs = omega_xi(p, d, g, r) * omega_xi(p, d, g2, r2)
        rhs = omega_xi(p, d, mul(g, g2), r * r2.place_permute(g))
        assert lhs == rhs


@pytest.mark.parametrize("name", PRESETS)
def test_idempotents(name):
    p = preset(name)
    d = 3
    for lam in compositions(d):
        one = SchurElement.idempotent(p, d, lam)
        assert one * one == one
        M = split_merge(p, d, lam, kind="merge")
        S = split_merge(p, d, lam, kind="split")
        assert one * M == M
        assert S * one == S
    # orthogonality across different compositions
    a = SchurElement.idempotent(p, d, (2, 1))
    b = SchurElement.idempotent(p, d, (1, 2))
    assert not (a * b)


# split and merge -------------------------------------------------------------


@pytest.mark.parametrize("name", PRESETS)
def test_split_merge_compositions(name):
    """S*M spreads the twist over the fibre; M*S is the scalar m_lam."""
    p = preset(name)
    for d in (2, 3):
        for lam in compositions(d):
            S = split_merge(p, d, lam, kind="split")
            M = split_merge(p, d, lam, kind="merge")
            assert S * M == k_block(p, d, lam)
            assert M * S == diagonal_element(p, d, lam, m_lambda(p, d, lam))


@pytest.mark.parametrize("chain", [
    ((1, 1, 1), (1, 2), (3,)),
    ((1, 1, 1), (2, 1), (3,)),
    ((1, 1, 2), (1, 3), (4,)),
    ((1, 1, 1, 1), (2, 2), (4,)),
    ((1, 2, 1), (1, 3), (4,)),
])
def test_split_merge_associativity(chain):
    nu, mu, lam = chain
    d = sum(lam)
    for name in ("affine_hecke", "pro_p"):
        p = preset(name)
        s1 = split_merge(p, d, mu, nu, kind="partial_split")
        s2 = split_merge(p, d, lam, mu, kind="partial_split")
        assert s1 * s2 == split_merge(p, d, lam, nu, kind="partial_split")
        m1 = split_merge(p, d, lam, mu, kind="partial_merge")
        m2 = split_merge(p, d, mu, nu, kind="partial_merge")
        assert m1 * m2 == split_merge(p, d, lam, nu, kind="partial_merge")


def test_partial_with_omega_agrees_with_full():
    p = preset("zigzag_a1")
    omega = (1, 1, 1)
    assert (split_merge(p, 3, (2, 1), omega, kind="partial_split")
            == split_merge(p, 3, (2, 1), kind="split"))
    assert (split_merge(p, 3, (2, 1), omega, kind="partial_merge")
            == split_merge(p, 3, (2, 1), kind="merge"))


def test_split_merge_refinement_errors():
    p = preset("degenerate")
    with pytest.raises(NotARefinement):
        split_merge(p, 3, (2, 1), (1, 2), kind="partial_split")
    with pytest.raises(ValueError):
        split_merge(p, 3, (2, 1), kind="sideways")


@pytest.mark.parametrize("name", PRESETS)
def test_poly_past_split_merge(name):
    """Invariant diagonals slide through splits and merges unchanged."""
    p = preset(name)
    d = 3
    omega = (1,) * d
    for lam in compositions(d):
        t = x_var(p, d, 0) if lam[0] == 1 else x_var(p, d, 0) + x_var(p, d, 1)
        if lam == (3,):
            t = t + x_var(p, d, 2)
        M = split_merge(p, d, lam, kind="merge")
        S = split_merge(p, d, lam, kind="split")
        tl = diagonal_element(p, d, lam, t)
        tw = diagonal_element(p, d, omega, t)
        assert tl * M == M * tw
        assert S * tl == tw * S


# the multinomial corner ------------------------------------------------------


def scalar_corner(params, d, lam):
    S = split_merge(params, d, (d,), nu=lam, kind="partial_split")
    M = split_merge(params, d, (d,), nu=lam, kind="partial_merge")
    got = (M * S).block((d,), (d,)).terms.get(identity(d))
    return LocalizedElement.zero(params, d) if got is None else got


@pytest.mark.parametrize("name", [n for n in PRESETS if n != "pro_p"])
def test_multinomial_corner(name):
    """Merging everything after a partial split scales the one-point block
    by the multinomial coefficient."""
    p = preset(name)
    for d in (2, 3):
        for lam in compositions(d):
            got = scalar_corner(p, d, lam)
            assert got == LocalizedElement(multinomial(p, d, lam)), (d, lam)


def test_multinomial_corner_pro_p_deviates():
    """The ordered alpha products are not symmetric for pro_p, so the corner
    scalar (always S_d-invariant by equivariance) departs from the
    inversion-count formula at mixed compositions, while the extreme
    compositions still agree."""
    p = preset("pro_p")
    d = 3
    for lam in ((3,), (1, 1, 1)):
        assert scalar_corner(p, d, lam) == LocalizedElement(multinomial(p, d, lam))
    for lam in ((1, 2), (2, 1)):
        got = scalar_corner(p, d, lam)
        for w in young_subgroup((d,)):
            assert got.place_permute(w) == got
        mono = LocalizedElement(multinomial(p, d, lam))
        assert any(mono.place_permute(w) != mono for w in young_subgroup((d,)))
        assert got != mono
    # order sensitivity survives in the formula itself
    assert (LocalizedElement(multinomial(p, d, (1, 2)))
            != LocalizedElement(multinomial(p, d, (2, 1))))


# the embedding of the wreath Hecke algebra ------------------------------------


@pytest.mark.parametrize("name", PRESETS)
def test_phi_unit_and_coefficients(name):
    p = preset(name)
    d = 3
    b = monomial(p, d, (0,) * d, (2, 0, 1))
    img = phi_embed(PqwpElement.of_poly(b))
    assert img == omega_xi(p, d, identity(d), b)
    assert phi_embed(PqwpElement.of_word(p, d, ())) == SchurElement.idempotent(
        p, d, (1,) * d)


@pytest.mark.parametrize("name", PRESETS)
def test_phi_is_multiplicative(name):
    p = preset(name)
    d = 3
    rng = random.Random(23)
    perms = young_subgroup((d,))
    for _ in range(3):
        a = PqwpElement.h_of_perm(p, d, rng.choice(perms)).poly_left(
            random_poly(p, d, rng))
        b = PqwpElement.h_of_perm(p, d, rng.choice(perms)).poly_left(
            random_poly(p, d, rng))
        assert phi_embed(a) * phi_embed(b) == phi_embed(pqwp_mul(a, b))


@pytest.mark.parametrize("name", PRESETS)
def test_phi_quadratic_and_braid(name):
    p = preset(name)
    h1 = phi_embed(PqwpElement.h_gen(p, 3, 0))
    h2 = phi_embed(PqwpElement.h_gen(p, 3, 1))
    assert h1 * h1 == phi_embed(PqwpElement.of_word(p, 3, (0, 0)))
    assert h1 * h2 * h1 == h2 * h1 * h2


@pytest.mark.parametrize("name", PRESETS)
def test_k_block_is_phi_of_k_lambda(name):
    p = preset(name)
    for d in (2, 3):
        for lam in compositions(d):
            assert k_block(p, d, lam) == phi_embed(k_lambda(p, d, lam))


# polynomial representation ----------------------------------------------------


@pytest.mark.parametrize("name", PRESETS)
def test_split_fixes_invariants(name):
    p = preset(name)
    d = 3
    lam = (2, 1)
    b = (x_var(p, d, 0) + x_var(p, d, 1)) * x_var(p, d, 2)
    out = poly_rep_apply(split_merge(p, d, lam, kind="split"),
                         poly_vector(p, d, lam, b))
    assert set(out.terms) == {((1, 1, 1), (d,))}
    assert poly_value(out, (1, 1, 1)) == LocalizedElement(b)


def test_vectors_are_column_blocks():
    """A vector of the lam component is the (lam, (d)) block holding
    value / e_lam at the identity; poly_value reads the value back."""
    p = preset("affine_hecke")
    d, lam = 3, (2, 1)
    b = x_var(p, d, 0) + x_var(p, d, 1)
    v = poly_vector(p, d, lam, b)
    assert set(v.terms) == {(lam, (d,))}
    stored = v.block(lam, (d,)).terms[identity(d)]
    e_lam = _e_localized(p, d, lam, False).numerator()
    assert LocalizedElement(e_lam) * stored == LocalizedElement(b)
    assert poly_value(v, lam) == LocalizedElement(b)
    assert not poly_value(v, (1, 2)) and not poly_value(v, (3,))
    with pytest.raises(InvarianceViolation):
        poly_vector(p, d, lam, x_var(p, d, 0))


def test_merge_of_one_is_m_lambda():
    for name in FAST:
        p = preset(name)
        for d in (2, 3):
            for lam in compositions(d):
                v = poly_vector(p, d, (1,) * d, unit_poly(p, d))
                out = poly_rep_apply(split_merge(p, d, lam, kind="merge"), v)
                assert poly_value(out, lam) == LocalizedElement(m_lambda(p, d, lam)), \
                    (name, lam)


def test_nil_merge_kills_constants():
    p = preset("nil")
    out = poly_rep_apply(split_merge(p, 2, (2,), kind="merge"),
                         poly_vector(p, 2, (1, 1), unit_poly(p, 2)))
    assert not out


@pytest.mark.parametrize("name", ("affine_hecke", "zigzag_a1"))
def test_partial_merges_act_as_the_fraction_free_reference(name):
    """The product with a column block agrees with merge_apply, the pairwise
    symmetrization, for every partial merge at d <= 4, and leaves no
    denominator."""
    p = preset(name)
    rng = random.Random(11)
    for d in (2, 3, 4):
        for lam in compositions(d):
            for nu in compositions(d):
                if nu == lam or not refines(nu, lam):
                    continue
                M = split_merge(p, d, lam, nu, kind="partial_merge")
                b = symmetrize(nu, random_poly(p, d, rng))
                out = poly_value(poly_rep_apply(M, poly_vector(p, d, nu, b)), lam)
                assert not out.dfac, (name, lam, nu)
                assert out == merge_apply(p, d, lam, nu, b), (name, lam, nu)


@pytest.mark.parametrize("name", FAST)
def test_k_action_two_ways(name):
    """Split after merge acts exactly as the closed K_lam expansion."""
    p = preset(name)
    d = 3
    rng = random.Random(7)
    omega = (1,) * d
    for lam in compositions(d):
        S = split_merge(p, d, lam, kind="split")
        M = split_merge(p, d, lam, kind="merge")
        K = phi_embed(k_lambda(p, d, lam))
        for _ in range(2):
            v = poly_vector(p, d, omega, random_poly(p, d, rng))
            assert poly_rep_apply(S, poly_rep_apply(M, v)) == poly_rep_apply(K, v)


def symmetrize(lam, b):
    acc = None
    for u in young_subgroup(lam):
        t = b.place_permute(u)
        acc = t if acc is None else acc + t
    return acc


@pytest.mark.parametrize("name", ("affine_hecke", "zigzag_a1"))
def test_merge_recurrence(name):
    """Fusing one extra letter into the leading block is multiplication by a
    column of alphas plus the previous fusion after a crossing, on arguments
    already invariant in the fused letters."""
    p = preset(name)
    d = 4
    rng = random.Random(5)
    omega = (1,) * d
    for k in (1, 2, 3):
        lam_next = (k + 1,) + (1,) * (d - k - 1)
        lam_prev = (k,) + (1,) * (d - k)
        Hk = phi_embed(PqwpElement.h_gen(p, d, k - 1))
        coeff = unit_poly(p, d)
        for i in range(k):
            coeff = coeff * alpha_ij(p, d, i, k)
        for _ in range(2):
            b = symmetrize(lam_prev, random_poly(p, d, rng))
            lhs = merge_apply(p, d, lam_next, lam_prev, b)
            crossed = poly_value(poly_rep_apply(Hk, poly_vector(p, d, omega, b)),
                                 omega)
            rhs = (LocalizedElement(coeff) * LocalizedElement(b)
                   + merge_apply(p, d, lam_prev, omega if k == 1 else
                                 (k - 1,) + (1,) * (d - k + 1), crossed))
            assert lhs == rhs, (name, k)


def test_poly_rep_is_a_module_map():
    rng = random.Random(31)
    for name in ("affine_hecke", "pro_p"):
        p = preset(name)
        d = 3
        omega = (1,) * d
        perms = young_subgroup((d,))
        pool = [split_merge(p, d, (2, 1), kind="merge"),
                split_merge(p, d, (3,), kind="merge"),
                phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms))),
                phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms)))]
        for x in pool[:2]:
            for y in pool[2:]:
                v = poly_vector(p, d, omega, random_poly(p, d, rng))
                assert (poly_rep_apply(x * y, v)
                        == poly_rep_apply(x, poly_rep_apply(y, v)))


def test_poly_rep_apply_errors():
    p = preset("degenerate")
    q = preset("nil")
    one = unit_poly(p, 2)
    v = poly_vector(p, 2, (1, 1), one)
    with pytest.raises(BlockMismatch):
        poly_rep_apply(split_merge(q, 2, (2,), kind="merge"), v)
    # a result in two components is a vector with two column blocks
    spread = (split_merge(p, 2, (2,), kind="merge")
              + split_merge(p, 2, (1, 1), kind="merge"))
    out = poly_rep_apply(spread, v)
    assert set(out.terms) == {((2,), (2,)), ((1, 1), (2,))}
    assert poly_value(out, (2,)) == LocalizedElement(m_lambda(p, 2, (2,)))
    assert poly_value(out, (1, 1)) == LocalizedElement(one)
    # mismatched source is simply zero: nothing consumes a (2,) vector here
    w = poly_vector(p, 2, (2,), one)
    assert not poly_rep_apply(split_merge(p, 2, (2,), kind="merge"), w)


# faithfulness oracle ----------------------------------------------------------


@pytest.mark.parametrize("name", FAST)
def test_zero_test(name):
    p = preset(name)
    d = 3
    S = split_merge(p, d, (2, 1), kind="split")
    assert zero_test_via_poly_rep(S - S) is True
    assert zero_test_via_poly_rep(S) is False
    assert zero_test_via_poly_rep(phi_embed(PqwpElement.h_gen(p, d, 0))) is False
    rng = random.Random(13)
    for _ in range(2):
        b = random_poly(p, d, rng)
        w = rng.choice(young_subgroup((d,)))
        sample = phi_embed(PqwpElement.h_of_perm(p, d, w).poly_left(b))
        assert zero_test_via_poly_rep(sample) is False
    assert zero_test_via_poly_rep(S * SchurElement.idempotent(p, d, (2, 1)) - S)


def test_zero_test_characteristic_guard():
    p2 = rebase_field(preset("degenerate"), Field.prime(2))
    with pytest.raises(CharacteristicTooSmall):
        zero_test_via_poly_rep(split_merge(p2, 2, (2,), kind="split"))
    p5 = rebase_field(preset("degenerate"), Field.prime(5))
    S = split_merge(p5, 2, (2,), kind="split")
    assert zero_test_via_poly_rep(S) is False
    assert zero_test_via_poly_rep(S - S) is True


@pytest.mark.parametrize("d", (2, 3, 4))
def test_detecting_family_has_all_staircase_monomials(d):
    """On a one-dimensional F the (1^d) family is one vector per staircase
    monomial, x_j^e with e <= d - j: d! of them, the rank of the regular
    representation of S_d."""
    p = preset("affine_hecke")
    assert p.algebra.dim == 1
    assert len(_detecting_family(p, d, (1,) * d)) == factorial(d)


def test_zero_test_sees_elements_a_short_family_misses():
    """Nonzero elements that a family one staircase step short calls zero:
    H_1 and q differ on affine_hecke at d = 2, and the crossing on nil at
    d = 3 has two nonzero values in its (2,1)/(1,2) block."""
    p = preset("affine_hecke")
    h1 = phi_embed(PqwpElement.h_gen(p, 2, 0))
    q = phi_embed(PqwpElement.of_poly(abar_ij(p, 2, 0, 1)))
    assert h1 != q
    assert zero_test_via_poly_rep(h1 - q) is False
    nil_crossing = crossing(preset("nil"), 3, (2, 1))
    assert len(nil_crossing.block((2, 1), (1, 2)).terms) == 2
    assert zero_test_via_poly_rep(nil_crossing) is False


# crossings ---------------------------------------------------------------------


@pytest.mark.parametrize("name", FAST)
def test_h_tilde_pullback_identity(name):
    """The thick crossing is pinned by merging its columns: x*M_delta equals
    M_nu followed by the braid word."""
    p = preset(name)
    for (d, lam, mu) in ((2, (1, 1), (1, 1)), (3, (2, 1), (1, 2)),
                         (3, (1, 2), (2, 1)), (3, (2, 1), (2, 1))):
        for g in double_coset_reps(lam, mu):
            x = h_tilde(p, d, lam, mu, g)
            (nu, delta), = {(a, b) for (a, b) in x.terms}
            lhs = x * split_merge(p, d, delta, kind="merge")
            rhs = (split_merge(p, d, nu, kind="merge")
                   * phi_embed(PqwpElement.h_of_perm(p, d, g)))
            assert lhs == rhs


@pytest.mark.parametrize("name,d", [("affine_hecke", 3), ("affine_hecke", 4),
                                    ("zigzag_a1", 3), ("zigzag_a1", 4),
                                    ("pro_p", 3)])
def test_h_tilde_reads_a_column_constant_block(name, d):
    """For two-part lam, mu and every minimal g, the (nu, 1^d) block of
    M_nu followed by the braid word of g is constant on each S_delta
    column, its value at a non-minimal z read through the double coset
    decomposition; so the thick crossing, which keeps the values at the
    minimal (nu, delta) representatives, pulls back to that block."""
    p = preset(name)
    omega = (1,) * d
    zero = LocalizedElement.zero(p, d)
    two_part = [lam for lam in compositions(d) if len(lam) == 2]
    for lam in two_part:
        for mu in two_part:
            for g in double_coset_reps(lam, mu):
                nu, delta = coset_shapes(lam, g, mu)
                merged = (split_merge(p, d, nu, kind="merge")
                          * phi_embed(PqwpElement.h_of_perm(p, d, g)))
                xi = merged.block(nu, omega).terms

                def value(z):
                    u, g0, _ = double_coset_decompose(z, nu, omega)
                    r = xi.get(g0)
                    return zero if r is None else r.place_permute(u)

                for rep in double_coset_reps(nu, delta):
                    base = value(rep)
                    for u in young_subgroup(delta):
                        assert value(mul(rep, u)) == base, (lam, mu, g, rep, u)
                x = h_tilde(p, d, lam, mu, g)
                assert x * split_merge(p, d, delta, kind="merge") == merged


def test_h_tilde_rejects_non_minimal():
    p = preset("degenerate")
    with pytest.raises(ValueError):
        h_tilde(p, 2, (2,), (2,), simple(2, 0))


def test_crossing_two_terms_at_d2():
    p = preset("affine_hecke")
    out = crossing(p, 2, (1, 1))
    blk = out.block((1, 1), (1, 1))
    assert set(blk.terms) == {identity(2), simple(2, 0)}
    tilde = h_tilde(p, 2, (1, 1), (1, 1), simple(2, 0)).block((1, 1), (1, 1))
    assert blk.terms[simple(2, 0)] == tilde.terms[simple(2, 0)]
    # identity coset: the crossing's own diagonal part plus the alpha term
    assert (blk.terms[identity(2)]
            == tilde.terms[identity(2)] + LocalizedElement(alpha_ij(p, 2, 0, 1)))


@pytest.mark.parametrize("name", FAST)
def test_dumb_vs_smart_small(name):
    p = preset(name)
    assert dumb_vs_smart_identity(p, 2, (1, 1), oracle="both")["terms"] == 2
    for lam in ((2, 1), (1, 2)):
        report = dumb_vs_smart_identity(p, 3, lam, oracle="values")
        assert report["terms"] == 2


def test_dumb_vs_smart_rejects_an_unknown_oracle():
    p = preset("affine_hecke")
    for oracle in ("family", "bogus"):
        with pytest.raises(ValueError):
            dumb_vs_smart_identity(p, 2, (1, 1), oracle=oracle)


def test_dumb_vs_smart_reports_a_failed_oracle(monkeypatch):
    """A crossing sum that is off by a factor 2 fails the stored values,
    under either oracle value."""
    p = preset("affine_hecke")
    true_crossing = convolution.crossing
    monkeypatch.setattr(convolution, "crossing",
                        lambda *args: true_crossing(*args).scale(2))
    for oracle in ("values", "both"):
        with pytest.raises(IdentityFailed, match=r"failed for \(1, 1\): "):
            dumb_vs_smart_identity(p, 2, (1, 1), oracle=oracle)


def test_a_certified_identity_is_timed_as_a_report_row(monkeypatch):
    """dumb_vs_smart_identity needs no adapter to be a report row: its
    summary is the pass row's detail, and under the doubled crossing sum its
    IdentityFailed message is the fail row's witness."""
    p = preset("affine_hecke")
    rep = ValidationReport("crossings")
    rep.timed("X1", lambda: dumb_vs_smart_identity(p, 3, (2, 1)))
    true_crossing = convolution.crossing
    monkeypatch.setattr(convolution, "crossing",
                        lambda *args: true_crossing(*args).scale(2))
    with pytest.raises(IdentityFailed) as caught:
        dumb_vs_smart_identity(p, 2, (1, 1))
    rep.timed("X2", lambda: dumb_vs_smart_identity(p, 2, (1, 1)))
    assert [(e["rule"], e["status"], e["witness"], e["detail"]) for e in rep.entries] == [
        ("X1", "pass", None, {"lam": (2, 1), "mu": (1, 2), "terms": 2, "oracle": "values"}),
        ("X2", "fail", str(caught.value), None),
    ]
    assert str(caught.value).startswith("crossing decomposition failed for (1, 1): ")


def crossing_sides(p, d, lam):
    """Split-after-merge and the crossing sum for the two-part lam, built as
    dumb_vs_smart_identity builds them."""
    full = (d,)
    left = split_merge(p, d, full, lam, kind="partial_split") * \
        split_merge(p, d, full, lam[::-1], kind="partial_merge")
    return left, crossing(p, d, lam)


def differs_on_detecting_family(p, d, lam, left, right):
    """Whether the (lam, mu) blocks of left and right act differently on a
    column of the detecting family of mu = lam reversed."""
    mu = lam[::-1]
    assert set(left.terms) | set(right.terms) <= {(lam, mu)}
    a, b = left.block(lam, mu), right.block(lam, mu)
    return any(a.mul(c) != b.mul(c) for c in _detecting_family(p, d, mu))


CROSSING_CASES = [("affine_hecke", 3, (2, 1)), ("affine_hecke", 4, (2, 2)),
                  ("pro_p", 3, (2, 1)), ("zigzag_a1", 3, (2, 1)),
                  ("nil", 3, (2, 1)), ("wreath_s3", 3, (2, 1))]


@pytest.mark.parametrize("name,d,lam", CROSSING_CASES,
                         ids=[f"{n}-{lam}" for n, _, lam in CROSSING_CASES])
def test_crossing_agrees_on_the_detecting_family(name, d, lam):
    """The crossing identity checked through the action on the detecting
    family rather than by comparing stored values; a crossing sum off by a
    factor 2 fails the same check."""
    p = load_preset_file(WREATH_S3) if name == "wreath_s3" else preset(name)
    left, right = crossing_sides(p, d, lam)
    assert not differs_on_detecting_family(p, d, lam, left, right)
    assert differs_on_detecting_family(p, d, lam, left, right.scale(2))


@pytest.mark.parametrize("name", ("affine_hecke", "pro_p"))
def test_dumb_vs_smart_d4(name):
    p = preset(name)
    report = dumb_vs_smart_identity(p, 4, (2, 2), oracle="values")
    assert report["terms"] == 3


# spanning elements -------------------------------------------------------------


@pytest.mark.parametrize("name", ("affine_hecke", "pro_p"))
def test_coil_elements_lead_with_their_coset(name):
    p = preset(name)
    for d in (2, 3):
        for lam in compositions(d):
            for mu in compositions(d):
                reps = double_coset_reps(lam, mu)
                leads = set()
                for g in reps:
                    x = coil_basis_element(p, d, lam, mu, g, unit_poly(p, d))
                    blk = x.block(lam, mu)
                    assert blk
                    w, _ = blk.leading()
                    assert w == g
                    leads.add(w)
                assert len(leads) == len(reps)


def test_coil_identity_block_restricts_to_k():
    p = preset("affine_hecke")
    d, lam = 3, (2, 1)
    x = coil_basis_element(p, d, lam, lam, identity(d), unit_poly(p, d))
    # merging the rows and splitting the columns recovers the K spread
    S = split_merge(p, d, lam, kind="split")
    M = split_merge(p, d, lam, kind="merge")
    assert S * x * M == k_block(p, d, lam) * k_block(p, d, lam)


@pytest.mark.parametrize("name", ("affine_hecke", "nil", "pro_p"))
def test_laurel_elements_nonzero(name):
    p = preset(name)
    d = 3
    for lam in compositions(d):
        for mu in compositions(d):
            for g in double_coset_reps(lam, mu):
                y = laurel_basis_element(p, d, lam, mu, g, unit_poly(p, d))
                assert y.block(lam, mu)


def test_spanning_elements_demand_invariant_coefficients():
    p = preset("affine_hecke")
    d, lam = 3, (2, 1)
    bad = x_var(p, d, 0)
    with pytest.raises(InvarianceViolation):
        coil_basis_element(p, d, lam, lam, identity(d), bad)
    with pytest.raises(InvarianceViolation):
        laurel_basis_element(p, d, lam, lam, identity(d), bad)


def test_coil_elements_take_a_coefficient_only():
    """The coefficient of a coil element is a TensorPoly; an algebra
    element in its place is refused, whatever the blocks."""
    p = preset("affine_hecke")
    d = 3
    elt = PqwpElement.of_poly(unit_poly(p, d))
    for lam in ((2, 1), (1, 1, 1)):
        with pytest.raises(ParamMismatch):
            coil_basis_element(p, d, lam, lam, identity(d), elt)


# associativity and commutant ---------------------------------------------------


@pytest.mark.parametrize("name", ("affine_hecke", "pro_p"))
def test_conv_mul_associativity(name):
    p = preset(name)
    d = 3
    rng = random.Random(17)
    perms = young_subgroup((d,))
    for lam, mu in (((2, 1), (1, 2)), ((3,), (1, 1, 1))):
        for _ in range(2):
            a = (split_merge(p, d, lam, kind="merge")
                 * phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms))))
            b = (phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms)))
                 * split_merge(p, d, mu, kind="split"))
            c = (split_merge(p, d, mu, kind="merge")
                 * phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms))))
            assert (a * b) * c == a * (b * c)


def test_left_action_commutes_with_right_translation():
    """Coil and laurel generators act on column blocks; the right regular
    translation acts on the other side, and the orders agree."""
    p = preset("zigzag_a1")
    d = 3
    rng = random.Random(19)
    perms = young_subgroup((d,))
    lam, mu = (2, 1), (1, 2)
    col = (split_merge(p, d, mu, kind="merge")
           * phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms))))
    right = phi_embed(PqwpElement.h_of_perm(p, d, rng.choice(perms)).poly_left(
        random_poly(p, d, rng)))
    g = double_coset_reps(lam, mu)[-1]
    for x in (coil_basis_element(p, d, lam, mu, g, unit_poly(p, d)),
              laurel_basis_element(p, d, lam, mu, g, unit_poly(p, d)),
              split_merge(p, d, mu, (1, 1, 1), kind="partial_merge")):
        assert (x * col) * right == x * (col * right)


def test_block_and_schur_renderings():
    p = preset("affine_hecke")
    s = phi_embed(PqwpElement.h_gen(p, 2, 0))
    value = "|1 2| -> [(q-1)*(1⊗1)*x1]/(x1-x2); |2 1| -> [(1⊗1)]*P12/(x1-x2)"
    assert str(s) == f"[(1, 1)|(1, 1)] {value}"
    assert str(s.block((1, 1), (1, 1))) == f"[(1, 1)|(1, 1)] {value}"
    assert str(split_merge(p, 2, (2,), kind="split")) == \
        "[(1, 1)|(2,)] |1 2| -> [(1⊗1)]*P12/(x1-x2)"
    assert str(ConvBlock.zero(p, 2, (1, 1), (2,))) == "0[(1, 1)|(2,)]"
    assert str(SchurElement(p, 2)) == "0"
