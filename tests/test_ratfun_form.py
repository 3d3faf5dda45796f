"""The canonical form of RatFun: printed strings pinned from the Fraction
based implementation, structural invariants, and sympy as an independent
oracle for the arithmetic (see also test_ratfun_hypothesis.py)."""

import random
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

import pytest

from qwreath import pqwp
from qwreath.base_algebra import preset, shipped_presets
from qwreath.coeff_ring import Field, RatFun, declare_param, parse_scalar, scalar_str

q = declare_param("q")
t = declare_param("t")
h = declare_param("h")


# golden strings --------------------------------------------------------------
# The strings the Fraction-coefficient RatFun printed, one entry per shipped
# preset over the rational function field: every coefficient of alpha, the
# deltas and r (keyed by F-basis index), then str of K_(3) and m_(3) at d = 3.

GOLDEN = {
    "graded_affine": {
        "alpha": {(0, 0): "1"},
        "delta00": {(0, 0): "h"},
        "r": {(0, 0): "1"},
        "k": "H[1,2,1] + H[1,2] + H[2,1] + H[2] + H[1] + (1⊗1⊗1)",
        "m": "6*(1⊗1⊗1)",
    },
    "affine_hecke": {
        "alpha": {(0, 0): "1"},
        "delta10": {(0, 0): "q-1"},
        "r": {(0, 0): "q"},
        "k": "H[1,2,1] + H[1,2] + H[2,1] + H[2] + H[1] + (1⊗1⊗1)",
        "m": "(q^3+2*q^2+2*q+1)*(1⊗1⊗1)",
    },
    "qt_hecke": {
        "alpha": {(0, 0): "q"},
        "delta10": {(0, 0): "-q+t"},
        "r": {(0, 0): "q*t"},
        "k": ("H[1,2,1] + q*(1⊗1⊗1)*H[1,2] + q*(1⊗1⊗1)*H[2,1] + q^2*(1⊗1⊗1)*H[2] + "
              "q^2*(1⊗1⊗1)*H[1] + q^3*(1⊗1⊗1)"),
        "m": "(q^3+2*q^2*t+2*q*t^2+t^3)*(1⊗1⊗1)",
    },
    "pro_p": {
        "alpha": {(0, 0): "(-1/2*q+1/2)/q", (1, 1): "(1/2*q+1/2)/q"},
        "delta10": {(0, 0): "(1/2*q^2-1/2)/q", (1, 1): "(1/2*q^2-1/2)/q"},
        "r": {(0, 0): "1"},
        "k": ("H[1,2,1] + (((1/2*q+1/2)/q)*(1⊗t⊗t) + ((-1/2*q+1/2)/q)*(1⊗1⊗1))*H[1,2] + "
              "(((1/2*q+1/2)/q)*(t⊗t⊗1) + ((-1/2*q+1/2)/q)*(1⊗1⊗1))*H[2,1] + "
              "(((-1/4*q^2+1/4)/q^2)*(t⊗t⊗1) + ((-1/4*q^2+1/4)/q^2)*(t⊗1⊗t) + "
              "((1/4*q^2+1/2*q+1/4)/q^2)*(1⊗t⊗t) + ((1/4*q^2-1/2*q+1/4)/q^2)*(1⊗1⊗1))*H[2] + "
              "(((1/4*q^2+1/2*q+1/4)/q^2)*(t⊗t⊗1) + ((-1/4*q^2+1/4)/q^2)*(t⊗1⊗t) + "
              "((-1/4*q^2+1/4)/q^2)*(1⊗t⊗t) + ((1/4*q^2-1/2*q+1/4)/q^2)*(1⊗1⊗1))*H[1] + "
              "((-1/4*q^2+1/4)/q^3)*(t⊗t⊗1) + ((-1/4*q^2+1/4)/q^3)*(t⊗1⊗t) + "
              "((-1/4*q^2+1/4)/q^3)*(1⊗t⊗t) + ((3/4*q^2+1/4)/q^3)*(1⊗1⊗1)"),
        "m": ("((1/4*q^6-1/4*q^4-1/4*q^2+1/4)/q^3)*(t⊗t⊗1) + "
              "((1/4*q^6-1/4*q^4-1/4*q^2+1/4)/q^3)*(t⊗1⊗t) + "
              "((1/4*q^6-1/4*q^4-1/4*q^2+1/4)/q^3)*(1⊗t⊗t) + "
              "((1/4*q^6+11/4*q^4+11/4*q^2+1/4)/q^3)*(1⊗1⊗1)"),
    },
}


def test_golden_covers_every_ratfun_preset():
    ratfun = {n for n in shipped_presets() if preset(n).field.kind == "ratfun"}
    assert ratfun == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_printed_coefficients_match_the_golden_strings(name):
    p = preset(name)
    tensors = {"alpha": p.alpha, "r": p.r_elt,
               **{f"delta{i}{j}": v for (i, j), v in p.deltas.items()}}
    for label, tensor in tensors.items():
        got = {k: scalar_str(c) for k, c in tensor.terms.items()}
        assert got == GOLDEN[name].get(label, {}), label


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_printed_k_and_m_match_the_golden_strings(name):
    p = preset(name)
    assert str(pqwp.k_lambda(p, 3, (3,))) == GOLDEN[name]["k"]
    assert str(pqwp.m_lambda(p, 3, (3,))) == GOLDEN[name]["m"]


# representation invariants -----------------------------------------------------

def _grlex_lead(poly):
    names = sorted({n for m in poly for n, _ in m})

    def key(m):
        d = dict(m)
        return (sum(d.values()), tuple(d.get(n, 0) for n in names))
    return poly[max(poly, key=key)]


def assert_canonical(x):
    assert isinstance(x.den, Mapping) and len(x.den) >= 1
    assert all(type(c) is int and c for c in (*x.num.values(), *x.den.values()))
    assert all(e >= 0 for m in x.den for _, e in m)
    # no name divides every term of den, so a one-term den is an integer
    for name in {n for m in x.den for n, _ in m}:
        assert any(name not in dict(m) for m in x.den)
    assert _grlex_lead(x.den) > 0
    assert gcd(*x.num.values(), *x.den.values()) == 1
    if not x.num:
        assert x.den == {(): 1}


def assert_same(a, b):
    assert a.num == b.num and a.den == b.den
    assert a == b and hash(a) == hash(b)


def test_equal_values_from_different_routes_share_one_form():
    assert_same((q ** 2 - 1) / (q - 1), q + 1)
    assert_same(q / q ** 2, parse_scalar("q^-1"))
    assert_same(q * (q ** 2 - 1) / (2 * q), (q * q - 1) / 2)
    assert_same((q - t) / (t - q), RatFun(-1))
    assert_same((2 * q + 2) / (4 * q * q - 4), 1 / (2 * q - 2))
    assert_same((q * t + q) / (q * t * t - q), RatFun(1) / (t - 1))
    # the dict constructor: Fraction coefficients, a monomial factor in den
    q1, q2 = (("q", 1),), (("q", 2),)
    assert_same(RatFun({q1: 1}, {q2: 2, q1: Fraction(2)}), 1 / (2 * q + 2))
    assert_same(RatFun({q1: Fraction(1, 3)}, {q1: 1}), RatFun(Fraction(1, 3)))
    for x in (q + 1, (q + 1) / (2 * q), (q + 1) / (q - 2), (q - t) / (3 * q * t)):
        assert_canonical(x)


def test_constants_keep_the_fraction_hash():
    for c in (Fraction(0), Fraction(3), Fraction(-7, 4), Fraction(1, 6)):
        x = RatFun(c)
        assert_canonical(x)
        assert x == c and hash(x) == hash(c)
        assert_same((q * c + c) / (q + 1), x)
        assert hash(x) == hash(parse_scalar(scalar_str(x)))


def test_field_zero_and_one_are_shared_constants():
    for field in (Field.rationals(), Field.rational_functions(), Field.prime(5)):
        assert field.one() is field.one() and field.zero() is field.zero()
        assert field.one() == 1 and not field.zero()
    # integral rationals are plain ints
    assert type(Field.rationals().one()) is int
    assert_same(Field.rational_functions().one(), RatFun(1))


# sympy oracle -------------------------------------------------------------------
# The sympy side keeps each value as a (numerator, denominator) pair of
# elements of sympy's polynomial ring QQ[q, t, h] and compares by
# cross-multiplication.

_PAIR_OPS = {
    "+": lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]),
    "-": lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1]),
    "*": lambda a, b: (a[0] * b[0], a[1] * b[1]),
    "/": lambda a, b: (a[0] * b[1], a[1] * b[0]),
}


def test_arithmetic_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    names = ("q", "t", "h")
    field, *_ = sympy.field(",".join(names), sympy.QQ)
    ring = field.ring
    ours_gen = dict(zip(names, (q, t, h)))
    sympy_gen = dict(zip(names, ring.gens))
    rng = random.Random(20261018)

    def to_ring(f, lift):
        """f times the monomial lift, as an element of the sympy ring."""
        out = ring(0)
        for m, c in f.items():
            exps = dict(lift)
            for name, e in m:
                exps[name] = exps.get(name, 0) + e
            term = ring(c)
            for name, e in exps.items():
                term *= sympy_gen[name] ** e
            out += term
        return out

    def random_poly(use):
        ours, theirs = RatFun(0), ring(0)
        for _ in range(rng.randint(1, 3)):
            c = rng.choice((-3, -2, -1, 1, 2, 3, 4))
            term_o, term_s = RatFun(c), ring(c)
            for name in use:
                e = rng.randint(0, 2)
                term_o, term_s = term_o * ours_gen[name] ** e, term_s * sympy_gen[name] ** e
            ours, theirs = ours + term_o, theirs + term_s
        return ours, theirs

    def random_ratfun(use):
        num_o, num_s = random_poly(use)
        den_o, den_s = RatFun(0), ring(0)
        while not den_o:
            den_o, den_s = random_poly(use)
        if rng.random() < 0.3:  # a monomial factor in the denominator
            name = rng.choice(use)
            den_o, den_s = den_o * ours_gen[name], den_s * sympy_gen[name]
        return num_o / den_o, (num_s, den_s)

    for case in range(300):
        use = rng.sample(names, 1 + case % 3)
        (a, sa), (b, sb) = random_ratfun(use), random_ratfun(use)
        op = "+-*/"[case % 4]
        if op == "/" and not b:
            continue
        got = {"+": a.__add__, "-": a.__sub__, "*": a.__mul__, "/": a.__truediv__}[op](b)
        want_num, want_den = _PAIR_OPS[op](sa, sb)
        printed = field.from_expr(sympy.sympify(str(got).replace("^", "**")))
        assert printed.numer * want_den == want_num * printed.denom, (case, a, op, b, got)
        # the stored form: clear the Laurent numerator's negative exponents
        lift = {}
        for m in got.num:
            for name, e in m:
                lift[name] = max(lift.get(name, 0), -e)
        num, den = to_ring(got.num, lift), to_ring(got.den, lift)
        assert num * want_den == want_num * den, (case, got)
        assert num.gcd(den).is_ground, (case, got)
