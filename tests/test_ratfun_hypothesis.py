"""RatFun's canonical form under hypothesis: every route to one value gives
the same structure and hash, and the memos of sums and products serve the
same values as a fresh computation."""

from fractions import Fraction

import pytest

from qwreath import coeff_ring
from qwreath.coeff_ring import (DenominatorVanishes, Field, RatFun, declare_param, scalar_str,
                                specialize)

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


# the memos of + and * -------------------------------------------------------

MEMOS = (coeff_ring._sum, coeff_ring._product)
POINT = {"q": Fraction(3, 7), "t": Fraction(-5, 2)}


def _rebuilt(x):
    # a value-equal copy that shares no object with x
    return Field.rational_functions().parse(scalar_str(x))


def _hits():
    return sum(memo.cache_info().hits for memo in MEMOS)


def _direct(num, den):
    """The RatFun num / den built from its coefficient dicts, with no sum or
    product that a memo could serve."""
    def poly(terms):
        out = {}
        for c, i, j in terms:
            m = tuple((name, e) for name, e in (("q", i), ("t", j)) if e)
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}
    return RatFun(poly(num), poly(den) or 1)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_poly, _poly, _poly, _poly)
def test_memoized_sums_and_products_are_exact(n1, d1, n2, d2):
    """a + b, a * b and a - b from cold memos agree with their values at a
    point, and value-equal copies of a and b get the same results from the
    memos."""
    a, b = _direct(n1, d1), _direct(n2, d2)
    for memo in MEMOS:
        memo.cache_clear()
    cold = (a + b, a * b, a - b)
    try:
        x, y = specialize(a, POINT), specialize(b, POINT)
    except DenominatorVanishes:
        pass
    else:
        assert [specialize(r, POINT) for r in cold] == [x + y, x * y, x - y]
    a2, b2 = _rebuilt(a), _rebuilt(b)
    hits = _hits()
    warm = (a2 + b2, a2 * b2, a2 - b2)
    assert _hits() > hits
    for r1, r2 in zip(cold, warm):
        assert_same(r1, r2)


def test_operands_that_reuse_an_address_get_their_own_results():
    """Each operand c is dropped before the next is built, so the next one
    may take its place in memory; a memo must key by value to tell them
    apart."""
    wrong = []
    for i in range(2, 40):
        c = RatFun(i)
        total, product = q + c, q * c
        del c
        if (total != RatFun({(("q", 1),): 1, (): i})
                or product != RatFun({(("q", 1),): i})):
            wrong.append(i)
    assert wrong == []


def test_memo_is_bounded_and_evicted_products_stay_right():
    memo = coeff_ring._product
    size = memo.cache_parameters()["maxsize"]
    x = (q + 1) / (t - 1)
    memo.cache_clear()
    first = x * 2
    for i in range(3, size + 3):
        x * i
    assert memo.cache_info().currsize == size
    misses = memo.cache_info().misses
    assert_same(x * 2, first)
    assert memo.cache_info().misses == misses + 1
    assert_same(first, x + x)
