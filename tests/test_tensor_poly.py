import json
import random
from collections import Counter
from itertools import product
from math import prod

import pytest

from qwreath.base_algebra import (
    FAlgebra, FTensor, PqwpParams, preset, rebase_field, shipped_presets,
    validate_pqwp,
)
from qwreath.coeff_ring import Field
from qwreath.pqwp import PqwpElement
from qwreath.symcomb import all_perms, mul, simple
from qwreath.tensor_poly import (
    LocalizedElement, SizeMismatch, TensorPoly, abar_ij, alpha_ij,
    annihilator_certificate, beta_ij, divide_exact_linear, monomial, of_ftensor,
    p_ij, r_ij, s_ij, unit_poly, x_var, zero_poly,
)


def random_poly(params, d, rng, nterms=3, max_deg=3):
    lo = -2 if params.variant == "laurent" else 0
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(lo, max_deg) for _ in range(d))
        fkey = tuple(rng.randrange(params.algebra.dim) for _ in range(d))
        c = params.field.from_int(rng.randint(-4, 4))
        key = (exps, fkey)
        terms[key] = terms.get(key, params.field.zero()) + c
    return TensorPoly(params, d, {k: v for k, v in terms.items() if v})


def test_ring_basics_and_size_guard():
    params = preset("degenerate")
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1 + x2) ** 2 == x1 * x1 + 2 * (x1 * x2) + x2 * x2
    assert p * zero_poly(params, 2) == zero_poly(params, 2)
    with pytest.raises(SizeMismatch):
        x1 + x_var(params, 3, 0)
    with pytest.raises(ValueError):
        monomial(params, 2, (0, 0), (-1, 0))


def test_laurent_allows_negative_exponents():
    params = preset("affine_hecke")
    xinv = monomial(params, 2, (0, 0), (-1, 0))
    assert xinv * x_var(params, 2, 0) == unit_poly(params, 2)


def test_place_permute_examples():
    params = preset("zigzag_a1")
    ident = tuple(range(3))
    q = random_poly(params, 3, random.Random(7))
    assert q.place_permute(ident) == q
    # d = 2 swap: (c⊗1)*x1 becomes (1⊗c)*x2
    p = monomial(params, 2, (1, 0), (1, 0))
    assert p.place_permute((1, 0)) == monomial(params, 2, (0, 1), (0, 1))
    # d = 3 cycle against a dictionary-comprehension oracle
    w = mul(simple(3, 0), simple(3, 1))
    r = random_poly(params, 3, random.Random(11))
    oracle = TensorPoly(params, 3, {
        (tuple(exps[w.index(k)] for k in range(3)),
         tuple(fkey[w.index(k)] for k in range(3))): c
        for (exps, fkey), c in r.terms.items()
    })
    assert r.place_permute(w) == oracle


def test_place_permute_is_action():
    params = preset("savage_frobenius")
    rng = random.Random(23)
    p = random_poly(params, 3, rng, nterms=4)
    for u in all_perms(3):
        for v in all_perms(3):
            assert p.place_permute(v).place_permute(u) == p.place_permute(mul(u, v))


def test_demazure_basic_values():
    params = preset("degenerate")
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    assert (x1 * x1).demazure(0) == x1 + x2
    assert (x1 * x2).demazure(0).is_zero()
    assert (x1 + x2).demazure(0).is_zero()
    assert x1.demazure(0) == unit_poly(params, 2)
    assert x2.demazure(0) == -unit_poly(params, 2)
    assert unit_poly(params, 2).demazure(0).is_zero()


def test_demazure_laurent_value():
    params = preset("affine_hecke")
    xinv = monomial(params, 2, (0, 0), (-1, 0))
    expected = -monomial(params, 2, (0, 0), (-1, -1))
    assert xinv.demazure(0) == expected
    # and the telescoping check x1^-1 = (x1^-1 x2^-1) * x2
    assert xinv.demazure(0) * x_var(params, 2, 1) == -monomial(params, 2, (0, 0), (-1, 0))


@pytest.mark.parametrize("name", ["degenerate", "affine_hecke", "zigzag_a1"])
def test_demazure_square_zero_and_braid(name):
    params = preset(name)
    rng = random.Random(2024)
    for _ in range(5):
        p = random_poly(params, 3, rng, nterms=4)
        assert p.demazure(0).demazure(0).is_zero()
        assert p.demazure(1).demazure(1).is_zero()
        lhs = p.demazure(0).demazure(1).demazure(0)
        rhs = p.demazure(1).demazure(0).demazure(1)
        assert lhs == rhs


def test_demazure_invariant_leibniz():
    # for s_i-invariant g: D(g*h) = g*D(h)
    params = preset("degenerate")
    rng = random.Random(5)
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    g = x1 * x2 + (x1 + x2) ** 2
    for _ in range(4):
        h = random_poly(params, 2, rng)
        assert (g * h).demazure(0) == g * h.demazure(0)


@pytest.mark.parametrize("name", shipped_presets())
def test_twisted_demazure_leibniz(name):
    params = preset(name)
    rng = random.Random(99)
    for _ in range(3):
        a = random_poly(params, 2, rng, nterms=2, max_deg=2)
        b = random_poly(params, 2, rng, nterms=2, max_deg=2)
        lhs = (a * b).twisted_demazure(0)
        rhs = a.place_permute_simple(0) * b.twisted_demazure(0) + a.twisted_demazure(0) * b
        assert lhs == rhs


def test_twisted_demazure_examples():
    ah = preset("affine_hecke")
    q = ah.field.param("q")
    x1 = x_var(ah, 2, 0)
    # rho(x1) = beta = (q-1)x1 for this pack
    assert x1.twisted_demazure(0) == x1.scale(q - 1)
    fonly = of_ftensor(preset("zigzag_a1"), 2, FTensor.basis(preset("zigzag_a1").algebra, (1, 0)))
    assert fonly.twisted_demazure(0).is_zero()


@pytest.mark.parametrize("name", shipped_presets())
def test_twisted_demazure_of_beta(name):
    params = preset(name)
    beta = beta_ij(params, 2, 0, 1)
    assert beta.twisted_demazure(0) == s_ij(params, 2, 0, 1) * beta


@pytest.mark.parametrize("name", shipped_presets())
def test_beta_antisymmetry(name):
    params = preset(name)
    beta = beta_ij(params, 2, 0, 1)
    s = s_ij(params, 2, 0, 1)
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    assert beta - beta.place_permute_simple(0) == s * (x1 - x2)


def test_twisted_demazure_antisymmetry_on_x():
    params = preset("qt_hecke")
    rng = random.Random(31)
    for _ in range(4):
        exps = tuple(rng.randint(-2, 3) for _ in range(2))
        p = monomial(params, 2, (0, 0), exps)
        assert p.place_permute_simple(0).twisted_demazure(0) == -p.twisted_demazure(0)


@pytest.mark.parametrize("name", shipped_presets())
def test_three_strand_beta_identity(name):
    # rho_1(beta_13) = rho_2(beta_12) + beta_13*S_23 and equals -sigma_2 rho_1(beta_23)
    params = preset(name)
    b13 = beta_ij(params, 3, 0, 2)
    b12 = beta_ij(params, 3, 0, 1)
    b23 = beta_ij(params, 3, 1, 2)
    lhs = b13.twisted_demazure(0)
    assert lhs == b12.twisted_demazure(1) + b13 * s_ij(params, 3, 1, 2)
    assert lhs == -(b23.twisted_demazure(0).place_permute_simple(1))


@pytest.mark.parametrize("name", shipped_presets())
def test_alpha_pair_multiplies_to_r(name):
    params = preset(name)
    assert alpha_ij(params, 2, 0, 1) * abar_ij(params, 2, 0, 1) == r_ij(params, 2, 0, 1)


def test_divide_exact_linear():
    params = preset("degenerate")
    x1, x2, x3 = (x_var(params, 3, i) for i in range(3))
    assert divide_exact_linear(x1 - x2, 0, 1) == unit_poly(params, 3)
    assert divide_exact_linear(x1 * x1 - x2 * x2, 0, 1) == x1 + x2
    assert divide_exact_linear(x1 * x1, 0, 1) is None
    assert divide_exact_linear(x1 * x3 - x2 * x3, 0, 1) == x3
    # Laurent shift case
    lau = preset("zero_hecke")
    y1 = monomial(lau, 2, (0, 0), (-1, 0))
    y2 = monomial(lau, 2, (0, 0), (0, -1))
    got = divide_exact_linear(y2 - y1, 0, 1)
    assert got == monomial(lau, 2, (0, 0), (-1, -1))


@pytest.mark.parametrize("name", ("degenerate", "zero_hecke", "zigzag_a1", "pro_p"))
def test_divide_exact_linear_inverts_the_product(name):
    params = preset(name)
    rng = random.Random(31)
    for d in (2, 3, 4):
        top = monomial(params, d, (params.algebra.unit_index,) * d, (1,) * d)
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                q = random_poly(params, d, rng, nterms=4)
                lin = x_var(params, d, i) - x_var(params, d, j)
                assert divide_exact_linear(q * lin, i, j) == q, (d, i, j, str(q))
                assert divide_exact_linear(q * lin + top, i, j) is None, (d, i, j)


def _cross_equal(a, b):
    """Equality by multiplying out every factor of both sides."""
    return a.numerator() * b.denominator() == b.numerator() * a.denominator()


def _times(el, *tags):
    """el with the factors of tags multiplied in, as numerator tags."""
    return LocalizedElement(el.core, el.nfac + Counter(tags), el.dfac)


def _over(el, *tags):
    """el divided by the factors of tags, as denominator tags."""
    return LocalizedElement(el.core, el.nfac, el.dfac + Counter(tags))


def _random_localized(params, d, rng, moves):
    el = LocalizedElement(random_poly(params, d, rng))
    for _ in range(rng.randint(0, 3)):
        el = rng.choice(moves)(el)
    return el


@pytest.mark.parametrize("name", ("degenerate", "zigzag_a1", "affine_hecke", "pro_p"))
def test_localized_eq_matches_full_cross_multiplication(name):
    params = preset(name)
    d = 3
    rng = random.Random(47)
    moves = [lambda el: el.over_lin(0, 1), lambda el: el.over_lin(2, 1),
             lambda el: _over(el, ("P", 0, 2)), lambda el: _over(el, ("P", 1, 2)),
             lambda el: _times(el, ("P", 0, 1)), lambda el: _times(el, ("P", 1, 2))]
    zero = LocalizedElement.zero(params, d)
    p01, p12 = p_ij(params, d, 0, 1), p_ij(params, d, 1, 2)
    seen = set()
    for _ in range(6):
        a = _random_localized(params, d, rng, moves)
        b = _random_localized(params, d, rng, moves)
        # elements equal to a and to a*P_23 whose cores carry extra P factors
        a2 = _over(LocalizedElement(a.core * p01, a.nfac, a.dfac), ("P", 0, 1))
        a3 = _over(LocalizedElement(a.core * p12 * p12, a.nfac, a.dfac), ("P", 1, 2))
        a_p12 = _times(a, ("P", 1, 2))
        pairs = ((a, b), (a, a2), (a2, a), (a3, a_p12), (a_p12, a3),
                 (a + b, b + a), (a - a, zero), (a, zero))
        for x, y in pairs:
            expect = _cross_equal(x, y)
            assert (x == y) == expect, (str(x), str(y))
            seen.add(expect)
    assert seen == {True, False}
    # unequal although the two sides share every denominator tag
    x1, x2 = x_var(params, d, 0), x_var(params, d, 1)
    u = LocalizedElement(x1 * x1, Counter([("P", 1, 2)]),
                         Counter([("lin", 0, 1), ("P", 0, 2)]))
    v = LocalizedElement(x2, None, Counter([("lin", 0, 1), ("P", 0, 2)]))
    assert u.dfac == v.dfac
    assert u != v and not _cross_equal(u, v)
    assert (u - v) != zero and zero != u


def test_localized_arithmetic():
    params = preset("degenerate")
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    a = LocalizedElement(x1 - x2).over_lin(0, 1)
    assert a == LocalizedElement.one(params, 2)
    assert a.as_tensor_poly() == unit_poly(params, 2)
    b = LocalizedElement(unit_poly(params, 2)).over_lin(0, 1)
    c = LocalizedElement(unit_poly(params, 2)).over_lin(1, 0)
    assert (b + c).is_zero()
    assert b + LocalizedElement.zero(params, 2) == b
    # cross-multiplied equality: (x1+x2)/(x1-x2) == (x1^2-x2^2)/(x1-x2)^2
    lhs = LocalizedElement(x1 + x2).over_lin(0, 1)
    rhs = LocalizedElement(x1 * x1 - x2 * x2).over_lin(0, 1).over_lin(0, 1)
    assert lhs == rhs
    with pytest.raises(ValueError):
        b.as_tensor_poly()


def test_localized_p_factor_cancel():
    params = preset("affine_hecke")
    tag = Counter([("P", 0, 1)])
    elt = LocalizedElement(p_ij(params, 2, 0, 1), None, tag)
    assert elt == LocalizedElement.one(params, 2)
    again = LocalizedElement(unit_poly(params, 2), tag, tag)
    assert not again.nfac and not again.dfac
    assert again == LocalizedElement.one(params, 2)


def test_localized_place_permute_sign():
    params = preset("degenerate")
    x1, x2 = x_var(params, 3, 0), x_var(params, 3, 1)
    elt = LocalizedElement(x1 * x2).over_lin(0, 1)
    w = simple(3, 0)
    moved = elt.place_permute(w)
    # denominator factor flips orientation, so the core picks up a sign
    back = moved.place_permute(w)
    assert back == elt
    assert moved == LocalizedElement(-(x1 * x2)).over_lin(0, 1)


def test_localized_mul_collects_factors():
    params = preset("degenerate")
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    half = LocalizedElement(x1 + x2).over_lin(0, 1)
    prod = half * half
    expect = LocalizedElement((x1 + x2) ** 2).over_lin(0, 1).over_lin(0, 1)
    assert prod == expect
    assert (half - half).is_zero()


@pytest.mark.parametrize("name", ["degenerate", "affine_hecke", "pro_p", "zigzag_a1"])
def test_no_annihilators_for_good_packs(name):
    ok, witness = annihilator_certificate(preset(name), degree_bound=2)
    assert ok, witness


def test_annihilator_found_for_zero_divisor():
    from qwreath.base_algebra import FAlgebra, PqwpParams
    from qwreath.coeff_ring import Field
    alg = FAlgebra.truncated(Field.rationals(), "c", 2)
    cc = FTensor.basis(alg, (1, 1))
    params = PqwpParams(alg, "polynomial", {(0, 0): cc}, FTensor.zero(alg, 2),
                        name="cc_test")
    ok, witness = annihilator_certificate(params, degree_bound=1)
    assert not ok
    assert witness


def test_rendering_and_json():
    params = preset("zigzag_a1")
    p = monomial(params, 2, (1, 0), (2, -1)) + 2 * unit_poly(params, 2)
    assert str(p) == "(c⊗1)*x1^2*x2^-1 + 2*(1⊗1)"
    assert str(zero_poly(params, 2)) == "0"
    payload = json.loads(p.to_json())
    assert {"exps", "fslots", "coeff"} <= set(payload["terms"][0])
    assert len(payload["terms"]) == 2


@pytest.mark.parametrize("name", ("degenerate", "affine_hecke", "zigzag_a1"))
def test_poly_times_algebra_and_localized_elements(name):
    """A TensorPoly on the left of a PqwpElement or a LocalizedElement
    defers to that type instead of treating it as a scalar."""
    p = preset(name)
    rng = random.Random(13)
    x = random_poly(p, 3, rng)
    h = PqwpElement.h_gen(p, 3, 0) + PqwpElement.of_poly(random_poly(p, 3, rng))
    assert x * h == h.poly_left(x)
    L = LocalizedElement(random_poly(p, 3, rng), None,
                         Counter([("lin", 0, 1), ("P", 1, 2)]))
    prod = x * L
    assert isinstance(prod, LocalizedElement)
    assert prod == LocalizedElement(x) * L
    assert x * 3 == 3 * x == x.scale(3)


# the product kernel against the generic pair loop ------------------------------


def reference_product(a, b):
    """The generic pair loop with no short cut: every pair of terms, the
    exponents added and every slot multiplied out through the structure
    constants of F."""
    alg = a.params.algebra
    zero = a.params.field.zero()
    out = {}
    for (e1, f1), c1 in a.terms.items():
        for (e2, f2), c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            for cells in product(*(alg.table[i][j] for i, j in zip(f1, f2))):
                c = c1 * c2
                for _, sc in cells:
                    c = c * sc
                key = (exps, tuple(k for k, _ in cells))
                out[key] = out.get(key, zero) + c
    return TensorPoly(a.params, a.d, out)


def rescaled(params, f):
    """The same pack written in the basis f*e_i for every non-unit basis
    element e_i of F.  Every shipped F has structure constants 0 and 1;
    here e.g. t*t = 1 becomes (f t)*(f t) = f^2."""
    old = params.algebra
    w = [1 if i == old.unit_index else f for i in range(old.dim)]
    table = [[tuple((k, c * w[i] * w[j] / w[k]) for k, c in old.table[i][j])
              for j in range(old.dim)] for i in range(old.dim)]
    alg = FAlgebra(old.field, old.labels, table, old.unit_index, name=old.name)

    def conv(t):
        return FTensor(alg, t.arity, {key: c / prod(w[i] for i in key)
                                      for key, c in t.terms.items()})
    return PqwpParams(alg, params.variant,
                      {k: conv(v) for k, v in params.deltas.items()},
                      conv(params.alpha), name=f"{params.name}_rescaled")


def kernel_packs():
    return {"zigzag_a1": preset("zigzag_a1"), "pro_p": preset("pro_p"),
            "affine_hecke": preset("affine_hecke"),
            "zigzag_a1_gf5": rebase_field(preset("zigzag_a1"), Field.prime(5)),
            "pro_p_rescaled": rescaled(preset("pro_p"), 2)}


def test_rescaled_pack_is_a_pack_with_other_structure_constants():
    params = kernel_packs()["pro_p_rescaled"]
    assert params.algebra.table[1][1] == ((0, params.field.from_int(4)),)
    assert validate_pqwp(params, 1).passed


@pytest.mark.parametrize("name", sorted(kernel_packs()))
def test_product_kernel_matches_generic_pair_loop(name):
    params = kernel_packs()[name]
    d = 3
    rng = random.Random(31)
    unit = unit_poly(params, d)
    structure = [f(params, d, a, b) for f in (abar_ij, r_ij, s_ij, beta_ij, p_ij)
                 for a, b in ((0, 1), (1, 2))]
    q_coeff = max(p_ij(params, d, 0, 1).terms.items())[1]
    operands = ([random_poly(params, d, rng) for _ in range(3)]
                + [zero_poly(params, d), unit,
                   unit.scale(params.field.from_int(3)), unit.scale(q_coeff),
                   -unit]
                + structure)
    for a in operands:
        for b in operands:
            got = a * b
            assert got == reference_product(a, b), (a, b)
            assert all(got.terms.values())
    # the operands themselves are left as they were
    assert unit == unit_poly(params, d)


def test_public_constructor_keeps_its_checks():
    params = preset("degenerate")
    assert params.variant == "polynomial"
    with pytest.raises(SizeMismatch):
        TensorPoly(params, 2, {((0, 0, 0), (0, 0)): 1})
    with pytest.raises(SizeMismatch):
        TensorPoly(params, 2, {((0, 0), (0,)): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        TensorPoly(params, 2, {((-1, 0), (0, 0)): 1})
    assert TensorPoly(params, 2, {((1, 0), (0, 0)): 0}).terms == {}


def test_internal_results_store_no_zero_coefficient():
    params = preset("degenerate")
    x1, x2 = x_var(params, 2, 0), x_var(params, 2, 1)
    p = random_poly(params, 2, random.Random(2)) + x1
    assert (p - p).terms == {}
    assert (p + (-p)).terms == {}
    # the x1*x2 terms of the pair loop cancel
    prod = (x1 + x2) * (x1 - x2)
    assert set(prod.terms) == {((2, 0), (0, 0)), ((0, 2), (0, 0))}
    assert p.scale(0).terms == {}
    # (c⊗1)^2 = 0 in the zigzag algebra: every slot product vanishes
    zz = preset("zigzag_a1")
    c1 = monomial(zz, 2, (1, 0), (0, 0)) + monomial(zz, 2, (1, 0), (1, 0))
    assert (c1 * c1).terms == {}
    swapped_sum = (x1 - x2).place_permute_simple(0) + (x1 - x2)
    assert swapped_sum.terms == {}


# the two-slot table route against the definition of rho ---------------------


def rho_by_definition(f, i):
    """rho_i(f) from its definition: sigma_i on the F-legs only, the plain
    divided difference, then the product with beta_{i,i+1}."""
    swapped = {}
    for (exps, fkey), c in f.terms.items():
        nf = list(fkey)
        nf[i], nf[i + 1] = nf[i + 1], nf[i]
        swapped[(exps, tuple(nf))] = c
    legs = TensorPoly(f.params, f.d, swapped)
    return legs.demazure(i) * beta_ij(f.params, f.d, i, i + 1)


def triangular_pack():
    """A Laurent pack over the upper triangular 2x2 matrices (basis 1, n =
    E01, p = E11: n*p = n, p*n = 0) with one-sided beta components.  It
    fails the axioms, which rho's definition does not need; unlike the
    shipped packs, it tells sigma_i(f)*beta from f*beta and from the image
    with its two slots swapped."""
    field = Field.rationals()
    one = field.one()
    table = [[((0, one),), ((1, one),), ((2, one),)],
             [((1, one),), (), ((1, one),)],
             [((2, one),), (), ((2, one),)]]
    alg = FAlgebra(field, ("1", "n", "p"), table, name="triangular")
    two = field.from_int(2)
    deltas = {(1, 0): FTensor(alg, 2, {(1, 2): one, (2, 0): two}),
              (0, 1): FTensor(alg, 2, {(0, 1): one}),
              (0, 0): FTensor(alg, 2, {(2, 2): -one})}
    return PqwpParams(alg, "laurent", deltas, FTensor.unit(alg, 2), name="triangular")


RHO_PACKS = {"triangular": triangular_pack(),
             "pro_p_rescaled": rescaled(preset("pro_p"), 2)}


@pytest.mark.parametrize("name", shipped_presets() + tuple(RHO_PACKS))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_twisted_demazure_matches_its_definition(name, d):
    """The two-slot table route against the product with beta, for every i,
    on every F-leg pair, with negative exponents on the Laurent packs and
    terms with equal exponents in slots i, i+1."""
    params = RHO_PACKS[name] if name in RHO_PACKS else preset(name)
    rng = random.Random(17 * d)
    lo = -2 if params.variant == "laurent" else 0
    dim = params.algebra.dim
    polys = [random_poly(params, d, rng, nterms=4) for _ in range(3)]
    for i in range(d - 1):
        # every leg pair at slots i, i+1, once with k = l and once with k != l
        terms = {}
        for a, b in product(range(dim), repeat=2):
            for k, l in ((1, 1), rng.sample(range(lo, 4), 2)):
                exps = [rng.randint(lo, 2) for _ in range(d)]
                exps[i], exps[i + 1] = k, l
                fkey = [rng.randrange(dim) for _ in range(d)]
                fkey[i], fkey[i + 1] = a, b
                terms[(tuple(exps), tuple(fkey))] = params.field.from_int(rng.randint(1, 5))
        for f in polys + [TensorPoly(params, d, terms)]:
            assert f.twisted_demazure(i).terms == rho_by_definition(f, i).terms
