"""RatFun's canonical form under hypothesis: every route to one value gives
the same structure and hash."""

import pytest

from qwreath.coeff_ring import Field, RatFun, declare_param, scalar_str

from test_ratfun_form import assert_canonical, assert_same

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

q = declare_param("q")
t = declare_param("t")

# a polynomial in q, t: up to three terms c q^i t^j
_poly = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)),
                 min_size=1, max_size=3)


def _build(terms):
    out = RatFun(0)
    for c, i, j in terms:
        out = out + c * q ** i * t ** j
    return out


def _ratfun(num, den):
    d = _build(den)
    return _build(num) / (d if d else RatFun(1))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(_poly, _poly, _poly, _poly, _poly)
def test_forms_are_canonical_and_route_independent(n1, d1, n2, d2, extra):
    a, b = _ratfun(n1, d1), _ratfun(n2, d2)
    c = _build(extra)
    for x in (a, b, a + b, a - b, a * b):
        assert_canonical(x)
    assert_same(a + b - b, a)
    assert_same((a + b) * c, a * c + b * c)
    if b:
        assert_canonical(a / b)
        assert_same(a / b * b, a)
    if c:
        assert_same(a * c / c, a)
    assert_same(Field.rational_functions().parse(scalar_str(a)), a)
