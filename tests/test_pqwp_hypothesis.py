"""Ring axioms of PqwpElement under hypothesis: sparse elements with
x-dependent coefficients over three packs at d <= 4, multiplied by
pqwp_mul."""

import pytest

from qwreath.base_algebra import preset
from qwreath.pqwp import PqwpElement, pqwp_mul
from qwreath.symcomb import young_subgroup
from qwreath.tensor_poly import monomial, zero_poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# RatFun scalars over the ground field; a non-commutative F over Q; R = 0 in
# the polynomial variant.  Held here so the packs and their memos outlive
# each example.
PACKS = {name: preset(name) for name in ("affine_hecke", "zigzag_a1", "nil")}


@st.composite
def coefficients(draw, p, d):
    """One or two monomials of x-degree at most 1 (negative exponents in
    the Laurent variant) with random F-legs and small integer scalars."""
    low = -1 if p.variant == "laurent" else 0
    out = zero_poly(p, d)
    for _ in range(draw(st.integers(1, 2))):
        exps = [0] * d
        exps[draw(st.integers(0, d - 1))] = draw(st.integers(low, 1))
        fkey = draw(st.tuples(*[st.integers(0, p.algebra.dim - 1)] * d))
        c = draw(st.sampled_from((-2, -1, 1, 3)))
        out = out + monomial(p, d, fkey, exps, p.field.from_int(c))
    return out


@st.composite
def elements(draw, p, d):
    support = draw(st.lists(st.sampled_from(young_subgroup((d,))),
                            max_size=3, unique=True))
    return PqwpElement(p, d, {w: draw(coefficients(p, d)) for w in support})


@st.composite
def triples(draw):
    p = PACKS[draw(st.sampled_from(sorted(PACKS)))]
    d = draw(st.integers(2, 4))
    return tuple(draw(elements(p, d)) for _ in range(3))


SETTINGS = hypothesis.settings(max_examples=50, deadline=None)


@SETTINGS
@hypothesis.given(triples())
def test_left_distributivity(abc):
    a, b, c = abc
    assert pqwp_mul(a, b + c) == pqwp_mul(a, b) + pqwp_mul(a, c)


@SETTINGS
@hypothesis.given(triples())
def test_right_distributivity(abc):
    a, b, c = abc
    assert pqwp_mul(a + b, c) == pqwp_mul(a, c) + pqwp_mul(b, c)


@SETTINGS
@hypothesis.given(triples())
def test_associativity(abc):
    a, b, c = abc
    assert pqwp_mul(pqwp_mul(a, b), c) == pqwp_mul(a, pqwp_mul(b, c))


@SETTINGS
@hypothesis.given(triples())
def test_unit(abc):
    a = abc[0]
    one = PqwpElement.one(a.params, a.d)
    assert pqwp_mul(one, a) == a == pqwp_mul(a, one)
