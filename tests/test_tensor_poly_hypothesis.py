"""TensorPoly under hypothesis: the ring axioms, the place permutations as
an action by ring maps, and the twisted Leibniz rule rho_i(ab) =
sigma_i(a) rho_i(b) + rho_i(a) b, over three packs at d <= 4 and every i."""

import pytest

from qwreath.base_algebra import preset
from qwreath.symcomb import all_perms, mul
from qwreath.tensor_poly import monomial, unit_poly, zero_poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# RatFun scalars over the ground field (Laurent); F = k[c]/(c^2) over Q
# (Laurent); F = k[t]/(t^2 - 1) over RatFun.  Held here so the packs and
# their memos outlive each example.
PACKS = {name: preset(name) for name in ("affine_hecke", "zigzag_a1", "pro_p")}


@st.composite
def polys(draw, p, d):
    """Up to three monomials of x-degree at most 2 in each slot (down to -2
    in the Laurent variant) with random F-legs and small integer scalars."""
    low = -2 if p.variant == "laurent" else 0
    out = zero_poly(p, d)
    for _ in range(draw(st.integers(0, 3))):
        exps = draw(st.tuples(*[st.integers(low, 2)] * d))
        fkey = draw(st.tuples(*[st.integers(0, p.algebra.dim - 1)] * d))
        c = draw(st.sampled_from((-3, -1, 1, 2)))
        out = out + monomial(p, d, fkey, exps, p.field.from_int(c))
    return out


@st.composite
def triples(draw):
    """Three elements of one ring and a slot index i < d - 1."""
    p = PACKS[draw(st.sampled_from(sorted(PACKS)))]
    d = draw(st.integers(2, 4))
    i = draw(st.integers(0, d - 2))
    return (*(draw(polys(p, d)) for _ in range(3)), i)


SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


@SETTINGS
@hypothesis.given(triples())
def test_ring_axioms(abci):
    a, b, c, _ = abci
    one, zero = unit_poly(a.params, a.d), zero_poly(a.params, a.d)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert one * a == a == a * one
    assert a + (-a) == zero == zero * a
    assert a + b == b + a


@SETTINGS
@hypothesis.given(triples())
def test_sigma_is_a_ring_map(abci):
    a, b, _, i = abci

    def sigma(f):
        return f.place_permute_simple(i)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(sigma(a)) == a
    one = unit_poly(a.params, a.d)
    assert sigma(one) == one


@SETTINGS
@hypothesis.given(triples(), st.data())
def test_place_permutations_act_by_ring_maps(abci, data):
    a, b, _, _ = abci
    u, v = (data.draw(st.sampled_from(list(all_perms(a.d)))) for _ in range(2))
    assert a.place_permute(v).place_permute(u) == a.place_permute(mul(u, v))
    assert (a * b).place_permute(u) == a.place_permute(u) * b.place_permute(u)


@SETTINGS
@hypothesis.given(triples())
def test_twisted_leibniz(abci):
    a, b, _, i = abci
    lhs = (a * b).twisted_demazure(i)
    rhs = a.place_permute_simple(i) * b.twisted_demazure(i) + a.twisted_demazure(i) * b
    assert lhs == rhs


@SETTINGS
@hypothesis.given(triples())
def test_rho_is_additive(abci):
    a, b, _, i = abci
    assert (a + b).twisted_demazure(i) == a.twisted_demazure(i) + b.twisted_demazure(i)
