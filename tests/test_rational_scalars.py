"""Rational scalars are ints when integral and Fractions otherwise: the
field's constructors, exact elimination over int rows, a pack whose
structure constants mix the two (pro_p at q = 3) checked against the
specialization of the rational-function pack, and the pack checks that keep
elements over different fields apart."""

from fractions import Fraction
from operator import add, mul, sub
from pathlib import Path

import pytest

from qwreath.base_algebra import (
    ArityMismatch, load_preset_file, preset, rebase_field, validate_pqwp,
    verify_pbw_conditions,
)
from qwreath.coeff_ring import Field, GFElement, MixedVariant, echelon_pivots, specialize
from qwreath.pqwp import ParamMismatch, PqwpElement, k_lambda, m_lambda, pqwp_mul
from qwreath.tensor_poly import SizeMismatch, abar_ij, r_ij, unit_poly, x_var

PRO_P_Q3 = str(Path(__file__).resolve().parent / "data" / "pro_p_q3.toml")


def test_rational_field_builds_ints_when_integral():
    field = Field.rationals()
    for value in (field.one(), field.zero(), field.from_int(-4),
                  field.from_fraction(Fraction(6, 3)), field.parse("4/2"),
                  field.parse("2^-1 * 6"), field.parse("-7")):
        assert type(value) is int
    assert (field.one(), field.zero(), field.parse("4/2")) == (1, 0, 2)
    for text, value in (("2^-1", Fraction(1, 2)), ("1/3 + 1", Fraction(4, 3))):
        assert type(field.parse(text)) is Fraction and field.parse(text) == value
    assert type(field.from_fraction(Fraction(-2, 6))) is Fraction
    # equal values compare, hash and print alike in either type
    assert field.parse("3") == Fraction(3) and hash(field.parse("3")) == hash(Fraction(3))
    assert str(field.parse("6/2")) == str(Fraction(3)) == "3"


def test_echelon_pivots_on_int_rows_is_exact():
    rows = [{0: 3, 1: 1, 2: 0}, {0: 2, 1: 1, 2: 1}, {0: 5, 1: 2, 2: 1}]
    pivots = echelon_pivots(rows)
    # the second row less 2/3 of the first; the third is their sum
    assert pivots == {0: {0: 3, 1: 1}, 1: {1: Fraction(1, 3), 2: 1}}
    assert type(pivots[1][1]) is Fraction
    assert all(type(c) in (int, Fraction) for row in pivots.values() for c in row.values())


def test_echelon_pivots_rank_is_exact_where_floats_round():
    # the rows are dependent; the factor (10^18 + 2)/3 is an integer no
    # float holds, so float elimination would leave a spurious pivot
    n = 10**18 + 2
    pivots = echelon_pivots([{0: 3, 1: 10}, {0: n, 1: 10 * n // 3}])
    assert list(pivots) == [0]
    assert echelon_pivots([{0: 3, 1: 10}, {0: n, 1: 10 * n // 3 + 1}]) == {
        0: {0: 3, 1: 10}, 1: {1: 1}}


# pro_p at q = 3 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def packs():
    return load_preset_file(PRO_P_Q3), preset("pro_p")


def coefficients(elt):
    """{(w, key): scalar} of a PqwpElement."""
    return {(w, key): c for w, b in elt.terms.items() for key, c in b.terms.items()}


def test_pro_p_q3_is_the_specialization_of_pro_p(packs):
    q3, pro_p = packs
    for mine, general in ((q3.alpha, pro_p.alpha), (q3.deltas[(1, 0)], pro_p.deltas[(1, 0)]),
                          (q3.r_elt, pro_p.r_elt)):
        assert mine.terms == {k: specialize(c, {"q": 3}) for k, c in general.terms.items()}
    assert {type(c) for c in q3.alpha.terms.values()} == {Fraction}


def test_pro_p_q3_derived_constants_are_ints_when_integral(packs):
    """s = delta10 - delta01, alpha_bar and r = alpha * alpha_bar come out of
    Fraction arithmetic; their integral coefficients are ints all the same."""
    q3, _ = packs
    assert {type(c) for c in q3.s_elt.terms.values()} == {Fraction}
    assert q3.alpha_bar.terms == {(1, 1): 2, (0, 0): 1}
    assert q3.r_elt.terms == {(0, 0): 1}
    for t in (q3.alpha_bar, q3.r_elt, r_ij(q3, 3, 0, 1), abar_ij(q3, 3, 1, 2)):
        assert {type(c) for c in t.terms.values()} == {int}


def test_pro_p_q3_passes_its_reports(packs):
    q3, _ = packs
    assert validate_pqwp(q3, 2).passed
    assert verify_pbw_conditions(q3, 2).passed


@pytest.mark.parametrize("d", [3, 4])
def test_pro_p_q3_k_squared_matches_the_specialization(packs, d):
    q3, pro_p = packs
    K = k_lambda(q3, d, (d,))
    assert {type(c) for c in coefficients(K).values()} == {int, Fraction}
    KK = pqwp_mul(K, K)
    assert KK == K.poly_left(m_lambda(q3, d, (d,)))
    general = k_lambda(pro_p, d, (d,))
    general = pqwp_mul(general, general)
    assert coefficients(KK) == {wk: specialize(c, {"q": 3})
                                for wk, c in coefficients(general).items()}


# fields do not mix ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["degenerate", "zigzag_a1"])
def test_elements_over_a_rebased_pack_do_not_mix(name):
    q_pack = preset(name)
    gf_pack = rebase_field(q_pack, Field.prime(5))
    pairs = ((unit_poly(q_pack, 2), x_var(gf_pack, 2, 0), SizeMismatch),
             (q_pack.alpha, gf_pack.alpha, ArityMismatch),
             (PqwpElement.h_gen(q_pack, 2, 0), PqwpElement.h_gen(gf_pack, 2, 0), ParamMismatch))
    for mine, theirs, error in pairs:
        for x, y in ((mine, theirs), (theirs, mine)):
            for op in (add, sub, mul):
                with pytest.raises(error):
                    op(x, y)
    with pytest.raises(ParamMismatch):
        PqwpElement.h_gen(q_pack, 2, 0) * x_var(gf_pack, 2, 0)
    assert unit_poly(q_pack, 2) != unit_poly(gf_pack, 2)


def test_prime_field_refuses_fractions_but_takes_ints():
    x = GFElement(5, 3)
    for combine in (x.__add__, x.__mul__, x.__sub__, x.__truediv__):
        with pytest.raises(MixedVariant):
            combine(Fraction(1, 2))
    with pytest.raises(MixedVariant):
        Fraction(1, 2) + x
    # an integral rational is an int, which a prime field reads mod p
    assert x + Field.rationals().from_int(2) == GFElement(5, 0)
