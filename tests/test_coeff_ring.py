import random
import re
import warnings
from fractions import Fraction

import pytest

from qwreath.coeff_ring import (
    DenominatorVanishes,
    DivisionByZero,
    Field,
    GFElement,
    MixedVariant,
    RatFun,
    UnboundParameter,
    declare_param,
    echelon_pivots,
    parse_scalar,
    scalar_str,
    specialize,
)

q = declare_param("q")
t = declare_param("t")


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_ratfun_cancellation():
    # (q-1)/(q+1) * (q+1) reduces to q-1
    f = (q - 1) / (q + 1)
    assert f * (q + 1) == q - 1


def test_ratfun_cancels_common_factor_on_construction():
    f = (q * q - 1) / (q - 1)
    assert f == q + 1
    assert scalar_str(f) == "q+1"


def test_gf_embeds_fractions():
    x = GFElement(5, Fraction(3, 2))
    assert x == 4  # 3 * inverse(2) = 3 * 3 = 9 = 4 mod 5


def test_gf_division():
    a = GFElement(7, 3)
    b = GFElement(7, 5)
    assert (a / b) * b == a
    with pytest.raises(DivisionByZero):
        a / GFElement(7, 0)


@pytest.mark.parametrize("p", (2, 5, 7))
def test_gf_equality_with_ints_agrees_with_hash(p):
    for v in range(p):
        g = GFElement(p, v)
        for n in range(-2 * p, 2 * p + 1):
            # only the canonical residue is equal, so equal values hash alike
            assert (g == n) == (n == v), (p, v, n)
            if g == n:
                assert hash(g) == hash(n)
                assert {n: "found"}.get(g) == "found"
        assert {g: "found"}.get(v) == "found"


def test_gf_operators():
    a, b, zero = GFElement(7, 3), GFElement(7, 5), GFElement(7, 0)
    assert a - b == GFElement(7, 5)
    assert a - 4 == GFElement(7, 6)
    assert 1 - a == GFElement(7, 5)
    assert 1 / a == b  # 3 * 5 = 15 = 1 mod 7
    assert a ** -1 == b
    assert a ** -2 == GFElement(7, 4)
    assert zero ** 3 == 0
    assert zero ** 0 == 1
    with pytest.raises(DivisionByZero):
        zero ** -1
    with pytest.raises(DivisionByZero):
        1 / zero
    with pytest.raises(MixedVariant):
        Fraction(1, 2) - a
    assert str(GFElement(7, -1)) == "6"
    assert repr(GFElement(7, 10)) == "GFElement(7, 3)"


def test_mixed_variant_raises():
    with pytest.raises(MixedVariant):
        GFElement(5, 1) + GFElement(7, 1)
    with pytest.raises(MixedVariant):
        q + GFElement(5, 1)
    with pytest.raises(MixedVariant):
        GFElement(5, 1) * Fraction(1, 2)


def test_division_by_zero_scalar():
    with pytest.raises(DivisionByZero):
        q / (q - q)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_specialize_examples():
    f = (q ** 2 - 1) / (q - 1)
    assert specialize(f, {"q": 2}) == Fraction(3)
    assert specialize(Fraction(7, 3), {}) == Fraction(7, 3)
    # an int becomes a Fraction too
    assert type(specialize(3, {})) is Fraction and specialize(3, {}) == 3
    assert specialize(q - 1, {"q": 1}) == Fraction(0)


def test_specialize_errors():
    with pytest.raises(UnboundParameter):
        specialize(q + t, {"q": 2})
    with pytest.raises(DenominatorVanishes):
        specialize(1 / (q - 1), {"q": 1})


def test_str_forms():
    assert scalar_str(Fraction(5, 6)) == "5/6"
    assert scalar_str((q ** 2 - 1) / (q - 1)) == "q+1"
    f = (q ** 2 - 1) / ((q - 1) * (q - 2))
    assert scalar_str(f) == "(q+1)/(q-2)"
    assert scalar_str(RatFun(1) / q) == "1/q"
    assert scalar_str(-q) == "-q"
    assert scalar_str(RatFun(0)) == "0"


@pytest.mark.parametrize("text, p, value", [
    ("5/6", None, Fraction(5, 6)),
    ("(q^2-1)/(q-1)", None, q + 1),
    ("-3*q+1/2", None, -3 * q + Fraction(1, 2)),
    ("q^-1", None, RatFun(1) / q),
    ("-q^2", None, -(q ** 2)),
    ("--q", None, q),
    ("q*-1", None, -q),
    ("(-1)^3", None, Fraction(-1)),
    ("2^-1", None, Fraction(1, 2)),
    ("2^-1", 5, GFElement(5, 3)),
    ("4", 5, GFElement(5, 4)),
    ("x_1*y", None, declare_param("x_1") * declare_param("y")),
    ("q2", None, declare_param("q2")),
    (" 1 +\n 2\t", None, Fraction(3)),
    ("q^(2)", None, q ** 2),  # Python's grammar drops the parentheses
])
def test_parse_roundtrip_examples(text, p, value):
    got = parse_scalar(text) if p is None else Field.prime(p).parse(text)
    assert got == value
    assert type(got) is type(value)


@pytest.mark.parametrize("text", [
    "", "  ", "+1", "2q", "q q", "1_000", "0x10", "1.5", "q**2", "q # c", "(q",
    "q)", "2^3^2", "3^-1^2", "q^(1/2)", "2^q", "'q'", "[q]", "q,t", "q%2", "~q",
    "q.real", "q()", "1+\\\n2", "q\u0301", "\u2118", "1if 1 else 2",
    "True", "if",  # Python's keywords are not names
])
def test_parse_rejects_malformed_text(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            parse_scalar(text)
    assert not caught


@pytest.mark.parametrize("text", ["1/0", "0^-1", "(1-1)^-2", "q/(q-q)"])
def test_parse_names_the_text_of_a_zero_divisor(text):
    with pytest.raises(DivisionByZero, match=re.escape(repr(text))):
        parse_scalar(text)


def test_parse_names_the_text_of_a_denominator_divisible_by_p():
    with pytest.raises(DivisionByZero, match=re.escape("'1/5'")):
        Field.prime(5).parse("1/5")


@pytest.mark.parametrize("depth", [5000, 50000])
def test_parse_rejects_deep_nesting_with_value_error(depth):
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_scalar("-" * depth + "1")


@pytest.mark.parametrize("text", [
    "-" * 50000 + "1", "q" * 50000 + " q", "q" * 50000 + "/0",
    "q" * 50000 + ".real", "#" + "1" * 50000,
], ids=["nested", "syntax", "zero_divisor", "grammar", "comment"])
def test_parse_errors_quote_a_bounded_prefix(text):
    with pytest.raises((ValueError, DivisionByZero)) as caught:
        parse_scalar(text)
    message = str(caught.value)
    assert len(message) < 300
    assert repr(text[:60]) in message and str(len(text)) in message


@pytest.mark.parametrize("text", ["2q", "q # c", "q.real"])
def test_parse_errors_quote_a_short_scalar_whole(text):
    with pytest.raises((ValueError, DivisionByZero), match=re.escape(repr(text))):
        parse_scalar(text)


def test_parse_rejects_names_in_prime_field():
    with pytest.raises(MixedVariant):
        Field.prime(5).parse("q+1")


def _random_ratfun(rng):
    def poly():
        f = RatFun(0)
        for _ in range(rng.randrange(1, 4)):
            term = RatFun(rng.randrange(-4, 5))
            for _ in range(rng.randrange(0, 3)):
                term = term * (q if rng.random() < 0.5 else t)
            f = f + term
        return f

    den = RatFun(0)
    while not den:
        den = poly()
    return poly() / den


def test_ratfun_field_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(60):
        a, b, c = (_random_ratfun(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if b:
            assert (a / b) * b == a


def test_specialize_is_a_homomorphism():
    rng = random.Random(99)
    binding = {"q": Fraction(7, 2), "t": Fraction(-3)}
    for _ in range(40):
        a, b = _random_ratfun(rng), _random_ratfun(rng)
        try:
            sa, sb = specialize(a, binding), specialize(b, binding)
        except DenominatorVanishes:
            continue
        assert specialize(a + b, binding) == sa + sb
        assert specialize(a * b, binding) == sa * sb


def test_parse_str_roundtrip_randomized():
    rng = random.Random(4)
    for _ in range(40):
        a = _random_ratfun(rng)
        assert parse_scalar(scalar_str(a)) == a


def test_field_handles():
    k = Field.rationals()
    assert k.one() == Fraction(1)
    kf = Field.rational_functions()
    assert kf.param("q") == q
    kp = Field.prime(5)
    assert kp.coerce(Fraction(3, 2)) == GFElement(5, 4)
    with pytest.raises(MixedVariant):
        k2 = Field.rationals()
        k2.param("q")
    with pytest.raises(ValueError):
        Field.prime(6)


def test_coerce_maps_ints_and_fractions_in_and_keeps_the_fields_own_scalars():
    k, kf, kp = Field.rationals(), Field.rational_functions(), Field.prime(5)
    assert [type(k.coerce(x)) for x in (3, Fraction(6, 3), Fraction(1, 2))] == [int, int, Fraction]
    assert kf.coerce(Fraction(1, 2)) == RatFun(Fraction(1, 2)) and type(kf.coerce(2)) is RatFun
    assert kf.coerce(q) is q
    assert kp.coerce(7) == kp.coerce(Fraction(4, 2)) == GFElement(5, 2)
    x = GFElement(5, 3)
    assert kp.coerce(x) is x
    with pytest.raises(DenominatorVanishes):
        kp.coerce(Fraction(1, 5))


@pytest.mark.parametrize("field, x", [
    (Field.rationals(), q), (Field.rationals(), GFElement(5, 1)),
    (Field.rational_functions(), GFElement(5, 1)), (Field.prime(5), q),
    (Field.prime(5), GFElement(3, 1)), (Field.prime(5), 0.5), (Field.rationals(), "1")])
def test_coerce_refuses_anything_else(field, x):
    with pytest.raises(MixedVariant, match="is not a scalar of Field"):
        field.coerce(x)


@pytest.mark.parametrize("field", (Field.rationals(), Field.rational_functions(),
                                   Field.prime(5)))
def test_is_one_agrees_with_equality_to_one(field):
    values = [field.coerce(n) for n in (-1, 0, 1, 2, 6)]
    values += [field.coerce(Fraction(n, 3)) for n in (1, 3, -3)]
    if field.kind == Field.RATFUN:
        values += [q, q / q, (q + 1) / (q + 1), q / (q + 1)]
    for c in values:
        assert field.is_one(c) == (c == field.one())


def test_new_parameter_does_not_disturb_existing_scalars():
    f = (q + 1) / (q - 1)
    before = scalar_str(f)
    declare_param("zz_late")
    assert scalar_str(f) == before
    assert f == (q + 1) / (q - 1)


def test_constant_ratfun_hashes_like_its_fraction():
    assert RatFun(3) == Fraction(3)
    assert len({RatFun(3), Fraction(3)}) == 1
    assert len({RatFun(Fraction(1, 2)), Fraction(1, 2), RatFun(0), 0}) == 2
    assert hash(q / q) == hash(1)


def test_ratfun_field_parses_constants_as_ratfun():
    field = Field.rational_functions()
    assert isinstance(field.parse("2"), RatFun)
    assert field.parse("2") == 2
    assert isinstance(field.parse("q+1"), RatFun)


def test_only_the_ratfun_field_parses_parameters():
    with pytest.raises(MixedVariant):
        Field.rationals().parse("q")
    with pytest.raises(MixedVariant):
        Field.rationals().parse("(q^2-1)/(q-1)")
    with pytest.raises(MixedVariant):
        Field.prime(5).parse("q+1")
    assert Field.rationals().parse("5/6") == Fraction(5, 6)
    assert type(Field.rationals().parse("5/6")) is Fraction
    assert Field.prime(5).parse("4") == GFElement(5, 4)


@pytest.mark.parametrize("text, value", [("q/q", 1), ("q-q", 0), ("(q+1)-q", 1),
                                         ("0*q", 0), ("q^0", 1), ("2*t/t", 2)])
def test_a_cancelling_parameter_is_refused_too(text, value):
    """A parameter name has no value in the rational or a prime field, also
    where it cancels; the rational function field reads the constant."""
    for field in (Field.rationals(), Field.prime(5)):
        with pytest.raises(MixedVariant):
            field.parse(text)
    assert Field.rational_functions().parse(text) == value


def test_echelon_pivots_rank_and_leads():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {1: Fraction(1), 2: Fraction(3)},
            {0: Fraction(1), 1: Fraction(3), 2: Fraction(3)}]
    pivots = echelon_pivots(rows)
    assert sorted(pivots) == [0, 1]
    assert echelon_pivots([{0: q}, {0: q * q, 1: q}]).keys() == {0, 1}
